// The planning ladder behind try_plan_fusion (fusion/driver.hpp): one job,
// one constraint skeleton, every rung a bound rewrite over it.

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fusion/compact.hpp"
#include "fusion/driver.hpp"
#include "fusion/hyperplane.hpp"
#include "graph/bellman_ford.hpp"
#include "graph/solver_workspace.hpp"
#include "ldg/legality.hpp"
#include "support/cemit.hpp"
#include "support/diagnostics.hpp"
#include "support/faultpoint.hpp"

namespace lf {

namespace {

/// Rung-failure severity for the overall error code (same ranking as the
/// historical driver): budget exhaustion must surface over ordinary
/// infeasibility, overflow over a mere fault/postcondition.
int severity(StatusCode code) {
    switch (code) {
        case StatusCode::ResourceExhausted: return 4;
        case StatusCode::Overflow: return 3;
        case StatusCode::Internal: return 2;
        case StatusCode::Infeasible: return 1;
        default: return 0;
    }
}

std::vector<int> program_order_of(const Mldg& g) {
    std::vector<int> order(static_cast<std::size_t>(g.num_nodes()));
    for (int i = 0; i < g.num_nodes(); ++i) {
        order[static_cast<std::size_t>(g.node_ref(i).order)] = i;
    }
    return order;
}

/// Completes a plan whose retiming/level/algorithm/schedule are set and
/// re-verifies the paper's guarantees. `prebuilt_retimed`, when given, is
/// the already-applied retimed graph (Algorithm 5 computes it for its
/// schedule derivation; rebuilding it would be byte-identical work), and
/// `schedule_already_strict` skips the strictness re-check the caller just
/// performed on that same graph. Returns "" on success, else the reason the
/// plan is rejected.
std::string finalize_plan(const Mldg& g, FusionPlan& plan, Mldg* prebuilt_retimed = nullptr,
                          bool schedule_already_strict = false) {
    if (prebuilt_retimed != nullptr) {
        plan.retimed = std::move(*prebuilt_retimed);
    } else {
        plan.retimed = plan.retiming.apply(g);
    }
    auto order = fused_body_order(plan.retimed);
    if (!order.has_value()) return "(0,0)-dependence cycle in the retimed graph";
    plan.body_order = std::move(*order);
    if (!is_fusion_legal(plan.retimed, plan.body_order)) return "fusion illegal after retiming";
    if (plan.level == ParallelismLevel::InnerDoall &&
        !is_fused_inner_doall(plan.retimed, plan.body_order)) {
        return "fused inner loop not DOALL";
    }
    if (!schedule_already_strict && !is_strict_schedule_vector(plan.retimed, plan.schedule)) {
        return "schedule not strict";
    }
    return {};
}

/// A job's walk down the ladder: its stage trace, budget guard and the
/// solver telemetry of the rung in progress.
struct Trace {
    ResourceGuard guard;
    std::uint64_t metered = 0;
    SolverStats rung_stats;
    std::vector<StageReport> stages;

    void push_stage(std::string stage, StatusCode code, std::string detail) {
        StageReport r;
        r.stage = std::move(stage);
        r.code = code;
        r.detail = std::move(detail);
        r.budget_consumed = guard.consumed() - metered;
        metered = guard.consumed();
        r.solver = rung_stats;
        rung_stats = SolverStats{};
        stages.push_back(std::move(r));
    }

    [[nodiscard]] Status fail(Status st) {
        st.stages = std::move(stages);
        return st;
    }
};

/// One rung's all-sources solve over a staged edge list, metered against
/// the job's budget, with the predecessor-cycle early exit on.
template <typename W, typename EdgeBuf>
ShortestPaths<W> solve_rung(int n, const EdgeBuf& edges, Trace& t, SolverWorkspace<W>& ws,
                            const std::vector<W>* warm_start = nullptr) {
    return bellman_ford_all_sources<W>(n, std::span<const WeightedEdge<W>>(edges), &t.guard,
                                       &t.rung_stats, {}, &ws, warm_start,
                                       /*early_cycle_exit=*/true);
}

}  // namespace

Result<FusionPlan> try_plan_fusion(const Mldg& g, const TryPlanOptions& options) {
    PlannerWorkspace local_ws;  // used only when the caller owns no arena
    PlannerWorkspace& ws = options.workspace != nullptr ? *options.workspace : local_ws;
    const int n = g.num_nodes();
    const std::size_t ne = g.edges().size();
    Trace t;
    t.guard = ResourceGuard(options.limits);
    std::optional<int> a4_failed_phase;

    // ---- Validation ----
    // Program-model legality is solver-free and implies schedulability
    // (L2+L3: every cycle has x-weight >= 1); only graphs outside the
    // program model need the solver-backed schedulability check. The verdict
    // is CACHED: rungs 1-4 reuse it instead of re-running their own
    // check_schedulable / is_schedulable preambles (counted in
    // SolverStats::rungs_shared).
    const bool model_legal = is_legal_mldg(g);
    if (!model_legal) {
        const LegalityReport rep = check_schedulable(g, &t.guard, &t.rung_stats, &ws.scalar);
        if (rep.status != StatusCode::Ok) {
            t.push_stage("validate", rep.status, "schedulability check aborted");
            return t.fail(
                Status(rep.status, "try_plan_fusion: could not validate the input MLDG"));
        }
        if (!rep.legal) {
            const std::string why =
                rep.violations.empty() ? std::string("?") : rep.violations.front();
            t.push_stage("validate", StatusCode::IllegalInput, why);
            return t.fail(Status(StatusCode::IllegalInput,
                                 "try_plan_fusion: input MLDG is not schedulable: " + why));
        }
    }
    t.push_stage("validate", StatusCode::Ok,
                 model_legal ? "program-model legal" : "schedulable (outside the program model)");

    // Compact refinement (PlanOptions::compact_prologue) as a post-pass: the
    // plain rung's solution is kept unless the compacted one re-verifies.
    auto apply_compact = [&](FusionPlan& plan) {
        if (!options.plan.compact_prologue) return;
        try {
            std::vector<std::int64_t>& warm_x = ws.warm_x;
            warm_x.clear();
            warm_x.reserve(static_cast<std::size_t>(n));
            for (int v = 0; v < n; ++v) warm_x.push_back(plan.retiming.of(v).x);
            std::optional<Retiming> alt;
            if (plan.algorithm == AlgorithmUsed::AcyclicDoall) {
                alt = acyclic_doall_fusion_compact(g, &t.rung_stats, &ws, &warm_x);
            } else if (plan.algorithm == AlgorithmUsed::CyclicDoall) {
                alt = cyclic_doall_fusion_compact(g, &t.rung_stats, &ws, &warm_x);
            }
            if (!alt.has_value()) return;
            FusionPlan refined;
            refined.retiming = std::move(*alt);
            refined.level = plan.level;
            refined.algorithm = plan.algorithm;
            refined.schedule = plan.schedule;
            refined.hyperplane = plan.hyperplane;
            if (finalize_plan(g, refined).empty()) {
                plan = std::move(refined);
                t.push_stage("compact", StatusCode::Ok, "x-spread minimized");
            }
        } catch (const std::exception&) {
            // Keep the plain rung's verified solution.
        }
    };

    // PlanPolicy::SmallestCode post-pass: re-solve the accepted rung for the
    // smallest-magnitude feasible retiming (fusion/compact.hpp). Feasibility
    // is policy-independent -- the pass only swaps WHICH feasible retiming
    // the rung returns -- and the candidate re-verifies through the same
    // finalize_plan gate as any plan, falling back to the rung's own
    // solution on any rejection. Never runs under the default policy, so
    // default-policy plans and stage traces stay bit-identical.
    auto apply_policy = [&](FusionPlan& plan) {
        if (options.plan.policy != PlanPolicy::SmallestCode) return;
        try {
            const MagnitudeOutcome m = minimize_plan_magnitude(g, plan, &t.rung_stats, &ws);
            if (!m.changed()) {
                t.push_stage("minimize", StatusCode::Ok,
                             "retiming magnitude already minimal (" + std::to_string(m.before) +
                                 ")");
                return;
            }
            FusionPlan refined;
            refined.retiming = m.retiming;
            refined.level = plan.level;
            refined.algorithm = plan.algorithm;
            refined.schedule = plan.schedule;
            refined.hyperplane = plan.hyperplane;
            if (plan.algorithm == AlgorithmUsed::Hyperplane) {
                // A trailing-spread reduction changes the retimed graph;
                // re-derive the wavefront schedule for it as rung 4 does.
                const Mldg retimed = refined.retiming.apply(g);
                refined.schedule = schedule_vector_for(retimed);
                refined.hyperplane = Vec2{refined.schedule.y, -refined.schedule.x};
            }
            if (finalize_plan(g, refined).empty()) {
                plan = std::move(refined);
                t.push_stage("minimize", StatusCode::Ok,
                             "retiming magnitude " + std::to_string(m.before) + " -> " +
                                 std::to_string(m.after));
            } else {
                t.push_stage("minimize", StatusCode::Internal,
                             "candidate failed re-verification; keeping the rung's plan");
            }
        } catch (const std::exception&) {
            // Keep the rung's verified solution.
        }
    };

    // Per-plan code-shape metrics on the stage that accepted the plan, via
    // the same fringe model the emitters use (support/cemit.hpp). The
    // widths are domain-independent, so extent 0 serves.
    auto fill_metrics = [&](const FusionPlan& plan) {
        if (t.stages.empty()) return;
        std::vector<std::int64_t> sx(static_cast<std::size_t>(n));
        std::vector<std::int64_t> sy(static_cast<std::size_t>(n));
        for (int v = 0; v < n; ++v) {
            sx[static_cast<std::size_t>(v)] = plan.retiming.of(v).x;
            sy[static_cast<std::size_t>(v)] = plan.retiming.of(v).y;
        }
        const cemit::FringeBounds bi = cemit::fringe_bounds(sx, 0);
        const cemit::FringeBounds bj = cemit::fringe_bounds(sy, 0);
        StageReport& s = t.stages.back();
        s.prologue_iters = bi.prologue() + bj.prologue();
        s.epilogue_iters = bi.epilogue() + bj.epilogue();
        s.retiming_magnitude = retiming_magnitude(plan.retiming);
    };

    auto accept = [&](FusionPlan&& plan) -> Result<FusionPlan> {
        apply_compact(plan);
        apply_policy(plan);
        fill_metrics(plan);
        plan.cyclic_doall_failed_phase = a4_failed_phase;
        plan.stages = std::move(t.stages);
        return std::move(plan);
    };

    if (!options.distribution_only) {
        // The constraint skeleton, built once: one edge per dependence edge
        // in graph order, per weight domain. Each rung below only rewrites
        // the bounds.
        auto& sedges = ws.scalar.edges;  // Alg. 4 phase 1, forced carry
        auto& vedges = ws.vec2.edges;    // Alg. 3, LLOFRA
        sedges.resize(ne);
        vedges.resize(ne);
        for (std::size_t e = 0; e < ne; ++e) {
            const auto& de = g.edges()[e];
            sedges[e].from = vedges[e].from = de.from;
            sedges[e].to = vedges[e].to = de.to;
        }

        // ---- Rung 1: Algorithm 3 (acyclic graphs only). ----
        if (g.is_acyclic()) {
            if (faultpoint::triggered("acyclic_doall")) {
                t.push_stage("acyclic-doall", StatusCode::Internal,
                             "acyclic_doall_fusion: fault injected");
            } else {
                ++t.rung_stats.rungs_shared;  // schedulability verdict reused
                for (std::size_t e = 0; e < ne; ++e) {
                    vedges[e].weight = g.edges()[e].delta() - Vec2{1, -1};
                }
                ShortestPaths<Vec2> sp = solve_rung<Vec2>(n, vedges, t, ws.vec2);
                if (sp.status != StatusCode::Ok) {
                    t.push_stage("acyclic-doall", sp.status, "acyclic_doall_fusion: solve aborted");
                } else if (sp.has_negative_cycle) {
                    // The constraint graph is acyclic; a negative cycle is impossible.
                    t.push_stage(
                        "acyclic-doall", StatusCode::Internal,
                        "acyclic_doall_fusion: internal error (acyclic system infeasible)");
                } else {
                    Retiming r(std::move(sp.dist));
                    for (int v = 0; v < n; ++v) r.of(v).y = 0;  // paper Alg. 3, final loop
                    FusionPlan plan;
                    plan.retiming = std::move(r);
                    plan.algorithm = AlgorithmUsed::AcyclicDoall;
                    plan.level = ParallelismLevel::InnerDoall;
                    const std::string err = finalize_plan(g, plan);
                    if (err.empty()) {
                        t.push_stage("acyclic-doall", StatusCode::Ok, {});
                        return accept(std::move(plan));
                    }
                    t.push_stage("acyclic-doall", StatusCode::Internal, err);
                }
            }
        }

        // ---- Rung 2: Algorithm 4 (also handles acyclic graphs when rung 1
        // fell through). ----
        // Phase 1: first retiming component. Hard edges must end
        // outer-loop-carried (retimed x >= 1); all others may stay within one
        // outer iteration (retimed x >= 0). The job is schedulable
        // (validated above), so the historical is_schedulable precondition
        // holds by construction.
        ++t.rung_stats.rungs_shared;
        std::vector<std::int64_t> phase1_values;
        bool phase1_ok = false;
        if (faultpoint::triggered("cyclic_doall.phase1")) {
            a4_failed_phase = 1;  // simulated phase-1 infeasibility
            t.push_stage("cyclic-doall", StatusCode::Infeasible, "phase 1 infeasible");
        } else {
            for (std::size_t e = 0; e < ne; ++e) {
                sedges[e].weight = g.edges()[e].delta().x - (g.edges()[e].is_hard() ? 1 : 0);
            }
            ShortestPaths<std::int64_t> sp1 = solve_rung<std::int64_t>(n, sedges, t, ws.scalar);
            if (sp1.status != StatusCode::Ok) {
                a4_failed_phase = 1;
                t.push_stage("cyclic-doall", sp1.status, "phase 1 aborted");
            } else if (sp1.has_negative_cycle) {
                a4_failed_phase = 1;
                t.push_stage("cyclic-doall", StatusCode::Infeasible, "phase 1 infeasible");
            } else {
                phase1_values = std::move(sp1.dist);
                phase1_ok = true;
            }
        }
        // Phase 2: second retiming component. Only non-hard edges whose
        // x-retimed weight is exactly zero are constrained: they must land on
        // (0,0), hence an equality on y -- a (forward, backward) pair of
        // constraints.
        if (phase1_ok && faultpoint::triggered("cyclic_doall.phase2")) {
            a4_failed_phase = 2;  // simulated phase-2 infeasibility
            t.push_stage("cyclic-doall", StatusCode::Infeasible, "phase 2 infeasible");
        } else if (phase1_ok) {
            auto& eq = ws.scalar.edges_eq;
            eq.clear();
            bool overflowed = false;
            for (std::size_t e = 0; e < ne && !overflowed; ++e) {
                const auto& de = g.edges()[e];
                if (de.is_hard()) continue;
                std::int64_t shifted = 0;
                std::int64_t retimed_x = 0;
                overflowed =
                    __builtin_add_overflow(de.delta().x,
                                           phase1_values[static_cast<std::size_t>(de.from)],
                                           &shifted) ||
                    __builtin_sub_overflow(shifted, phase1_values[static_cast<std::size_t>(de.to)],
                                           &retimed_x);
                if (overflowed || retimed_x != 0) continue;
                eq.push_back({de.from, de.to, de.delta().y});
                eq.push_back({de.to, de.from, -de.delta().y});
            }
            ShortestPaths<std::int64_t> sp2;
            if (!overflowed) sp2 = solve_rung<std::int64_t>(n, eq, t, ws.scalar);
            if (overflowed || sp2.status != StatusCode::Ok) {
                a4_failed_phase = 2;
                t.push_stage("cyclic-doall", overflowed ? StatusCode::Overflow : sp2.status,
                             "phase 2 aborted");
            } else if (sp2.has_negative_cycle) {
                a4_failed_phase = 2;
                t.push_stage("cyclic-doall", StatusCode::Infeasible, "phase 2 infeasible");
            } else {
                Retiming r(n);
                for (int v = 0; v < n; ++v) {
                    r.of(v) = Vec2{phase1_values[static_cast<std::size_t>(v)],
                                   sp2.dist[static_cast<std::size_t>(v)]};
                }
                FusionPlan plan;
                plan.retiming = std::move(r);
                plan.algorithm = AlgorithmUsed::CyclicDoall;
                plan.level = ParallelismLevel::InnerDoall;
                const std::string err = finalize_plan(g, plan);
                if (err.empty()) {
                    t.push_stage("cyclic-doall", StatusCode::Ok, {});
                    return accept(std::move(plan));
                }
                t.push_stage("cyclic-doall", StatusCode::Internal, err);
            }
        }

        // ---- Rung 3: forced-carry variant (extension; still DOALL rows). ----
        if (faultpoint::triggered("forced_carry")) {
            t.push_stage("forced-carry", StatusCode::Internal,
                         "cyclic_doall_all_hard: fault injected");
        } else {
            ++t.rung_stats.rungs_shared;  // schedulability verdict reused
            for (std::size_t e = 0; e < ne; ++e) sedges[e].weight = g.edges()[e].delta().x - 1;
            // The forced system only tightens phase 1's (non-hard bounds drop
            // from delta.x to delta.x - 1), so phase 1's fixpoint is a valid
            // starting potential.
            ShortestPaths<std::int64_t> sp = solve_rung<std::int64_t>(
                n, sedges, t, ws.scalar, phase1_values.empty() ? nullptr : &phase1_values);
            if (sp.status != StatusCode::Ok) {
                t.push_stage("forced-carry", sp.status, "cyclic_doall_all_hard: solve aborted");
            } else if (sp.has_negative_cycle) {
                t.push_stage("forced-carry", StatusCode::Infeasible,
                             "cyclic_doall_all_hard: no retiming can carry every edge on the "
                             "outer loop (negative cycle in the forced system)");
            } else {
                Retiming r(n);
                for (int v = 0; v < n; ++v) {
                    r.of(v) = Vec2{sp.dist[static_cast<std::size_t>(v)], 0};
                }
                FusionPlan plan;
                plan.retiming = std::move(r);
                plan.algorithm = AlgorithmUsed::CyclicDoallForced;
                plan.level = ParallelismLevel::InnerDoall;
                const std::string err = finalize_plan(g, plan);
                if (err.empty()) {
                    t.push_stage("forced-carry", StatusCode::Ok, {});
                    return accept(std::move(plan));
                }
                t.push_stage("forced-carry", StatusCode::Internal, err);
            }
        }

        // ---- Rung 4: Algorithm 5 (hyperplane wavefront). ----
        if (faultpoint::triggered("hyperplane")) {
            t.push_stage("hyperplane", StatusCode::Internal, "hyperplane_fusion: fault injected");
        } else if (faultpoint::triggered("llofra")) {
            t.push_stage("hyperplane", StatusCode::Internal, "llofra: fault injected");
        } else {
            ++t.rung_stats.rungs_shared;  // schedulability verdict reused
            // Require delta_r(e) >= (0,0), i.e. r(to) - r(from) <= delta(e).
            for (std::size_t e = 0; e < ne; ++e) vedges[e].weight = g.edges()[e].delta();
            ShortestPaths<Vec2> sp = solve_rung<Vec2>(n, vedges, t, ws.vec2);
            if (sp.status != StatusCode::Ok) {
                t.push_stage("hyperplane", sp.status, "llofra: solve aborted");
            } else if (sp.has_negative_cycle) {
                // Theorem 3.2: feasible because every cycle weighs > (0,0).
                t.push_stage("hyperplane", StatusCode::Internal,
                             "llofra: internal error (constraint system infeasible on a "
                             "schedulable MLDG)");
            } else {
                FusionPlan plan;
                plan.retiming = Retiming(std::move(sp.dist));
                plan.algorithm = AlgorithmUsed::Hyperplane;
                plan.level = ParallelismLevel::Hyperplane;
                // The one retiming application: its result serves both the
                // schedule derivation (Lemma 4.3) and plan finalization.
                Mldg retimed = plan.retiming.apply(g);
                std::string err;
                try {
                    plan.schedule = schedule_vector_for(retimed);
                } catch (const Error& e) {
                    err = e.what();
                }
                if (err.empty()) {
                    plan.hyperplane = Vec2{plan.schedule.y, -plan.schedule.x};
                    err = is_strict_schedule_vector(retimed, plan.schedule)
                              ? finalize_plan(g, plan, &retimed, /*schedule_already_strict=*/true)
                              : "hyperplane_fusion: internal error (computed schedule is not "
                                "strict)";
                }
                if (err.empty()) {
                    t.push_stage("hyperplane", StatusCode::Ok, {});
                    return accept(std::move(plan));
                }
                t.push_stage("hyperplane", StatusCode::Internal, err);
            }
        }
    }

    // ---- Rung 5: loop distribution (unfused but legal), then the terminal
    // all-rungs-fell-through status. ----
    // No solver involved: the plan *is* the original program, so it needs no
    // verification beyond program-model legality (checked above). Only that
    // legality makes the unfused original executable, so graphs like the
    // paper's Figure 14 (schedulable only) cannot take this rung.
    if (options.allow_distribution_fallback) {
        if (!model_legal) {
            t.push_stage("distribution", StatusCode::IllegalInput,
                         "input is not program-model legal; the unfused original is not an "
                         "executable Figure-1 program");
        } else if (faultpoint::triggered("distribution")) {
            t.push_stage("distribution", StatusCode::Internal, "fault injected");
        } else {
            FusionPlan plan;
            plan.retiming = Retiming(n);  // identity
            plan.level = ParallelismLevel::Unfused;
            plan.algorithm = AlgorithmUsed::DistributionFallback;
            plan.retimed = g;
            plan.body_order = program_order_of(g);
            t.push_stage("distribution", StatusCode::Ok, "unfused fallback");
            plan.cyclic_doall_failed_phase = a4_failed_phase;
            plan.stages = std::move(t.stages);
            return plan;
        }
    }
    StatusCode worst = StatusCode::Internal;
    int worst_rank = -1;
    for (const auto& s : t.stages) {
        if (s.code == StatusCode::Ok) continue;
        if (severity(s.code) > worst_rank) {
            worst_rank = severity(s.code);
            worst = s.code;
        }
    }
    return t.fail(Status(worst, "try_plan_fusion: no ladder rung produced a verifiable plan"));
}

}  // namespace lf
