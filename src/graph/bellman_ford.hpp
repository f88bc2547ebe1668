#pragma once
// Bellman-Ford shortest paths over an arbitrary totally-ordered,
// translation-invariant weight domain (int64 or lexicographic LexVec of any
// extent, static or runtime).
//
// This is the computational core of every algorithm in the paper:
//   * Alg. 1 (TwoDimBellmanFord) is bellman_ford<Vec2> from a virtual source
//     connected to every vertex by zero-weight edges; we realize the virtual
//     source by initializing every distance to zero instead of adding a node.
//   * Algs. 2/3 call it on 2-D constraint graphs, Alg. 4 on two 1-D ones.
//   * The n-D generalizations (fusion/multidim.hpp, ldg/mldg_nd.cpp) call it
//     on VecN constraint graphs -- same loop, dimension carried by the
//     traits instance.
//
// Complexity O(|V| * |E|), matching the paper's polynomial-time claim.
//
// Hardening: relaxation is metered against an optional ResourceGuard (one
// step per edge-relaxation attempt; the solver returns ResourceExhausted
// instead of finishing when the budget runs out), weight addition is
// overflow-checked (Overflow instead of UB), and the "solver.bellman_ford"
// fault point aborts the solve with Internal on demand. Callers that pass no
// guard and feed in-range weights see exactly the classical behavior.
//
// Telemetry: pass a SolverStats* to account relaxation work (see
// support/solver_stats.hpp). A null pointer skips every accounting read,
// including the wall clock -- the stats-free hot path is unchanged.
//
// Hot path: both entry points run on a SolverWorkspace (caller-owned when
// passed, function-local otherwise), so a reused workspace makes the
// steady-state solve allocation-free. bellman_ford_all_sources additionally
// accepts a *warm start*: a previous all-sources fixpoint adopted as the
// starting potential, and an *early cycle exit*: after every pass that
// still relaxes, an O(|V|) probe of the predecessor graph
// (detail::pred_graph_has_cycle) stops an infeasible solve as soon as its
// predecessor pointers close a cycle, instead of after all |V| passes.
//
// Warm-start legality (the reason results stay byte-identical): the cold
// all-sources fixpoint is F[v] = min over walks ending at v of the walk
// weight (empty walk included, so F <= 0). Relaxation from any starting
// potential d0 converges to  min(d0[v], min_{walk u->v} d0[u] + w(walk)).
// If  F <= d0 <= 0  pointwise, that value is exactly F:
//   * <= F: d0[v] <= 0 covers the empty walk and d0[u] + w <= 0 + w covers
//     every other;
//   * >= F: F[v] <= F[u] + w(walk) (triangle inequality) <= d0[u] + w(walk),
//     and F[v] <= d0[v] directly.
// Callers guarantee the lower bound by passing the exact fixpoint of a
// *subsystem* (same variables, a subset of the constraints, or the same
// constraints with weakly larger bounds): adding or tightening constraints
// can only lower walk minima, so F_new <= F_old = d0. The solver validates
// the cheap upper bound (d0 <= 0) at runtime and falls back to a cold solve
// when it fails. Negative-cycle detection is unaffected: with any finite
// start, relaxation quiesces within |V| passes iff no negative cycle exists.

#include <chrono>
#include <cstddef>
#include <span>
#include <vector>

#include "graph/solver_workspace.hpp"
#include "graph/weight_traits.hpp"
#include "support/diagnostics.hpp"
#include "support/faultpoint.hpp"
#include "support/solver_stats.hpp"
#include "support/status.hpp"

namespace lf {

template <typename W>
struct ShortestPaths {
    /// dist[v]: shortest distance from the (virtual or explicit) source.
    std::vector<W> dist;
    /// pred_edge[v]: index into the input edge list of the edge that last
    /// relaxed v, or -1. Used to extract witnesses of negative cycles.
    std::vector<int> pred_edge;
    bool has_negative_cycle = false;
    /// When a negative cycle exists: the edge indices of one such cycle, in
    /// order. Empty otherwise.
    std::vector<int> negative_cycle;
    /// Ok when the solve ran to completion (negative-cycle outcomes are
    /// normal results); ResourceExhausted / Overflow / Internal when it was
    /// cut short -- dist/pred_edge are then partial and must not be used.
    StatusCode status = StatusCode::Ok;
};

namespace detail {

/// Walks predecessor pointers from a vertex known to be reachable from a
/// negative cycle until the walk closes, returning that cycle's edge ids.
/// `pred_edge` is a raw view so both owned and workspace buffers serve.
template <typename W>
std::vector<int> extract_cycle(std::span<const WeightedEdge<W>> edges, const int* pred_edge,
                               int n, int start) {
    // After n predecessor hops we are guaranteed to sit on the cycle itself.
    int v = start;
    for (int hop = 0; hop < n; ++hop) {
        const int pe = pred_edge[static_cast<std::size_t>(v)];
        if (pe < 0) break;
        v = edges[static_cast<std::size_t>(pe)].from;
    }
    std::vector<int> cycle;
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    int cur = v;
    while (!seen[static_cast<std::size_t>(cur)]) {
        seen[static_cast<std::size_t>(cur)] = true;
        const int pe = pred_edge[static_cast<std::size_t>(cur)];
        if (pe < 0) return {};  // defensive: should not happen on a real cycle
        cycle.push_back(pe);
        cur = edges[static_cast<std::size_t>(pe)].from;
    }
    // `cycle` currently lists edges backwards from v until the first repeat;
    // trim the tail that is not part of the loop, then reverse.
    std::vector<int> trimmed;
    for (std::size_t k = 0; k < cycle.size(); ++k) {
        trimmed.push_back(cycle[k]);
        if (edges[static_cast<std::size_t>(cycle[k])].from == cur) break;
    }
    return {trimmed.rbegin(), trimmed.rend()};
}

/// O(|V|) negative-cycle probe for the early-exit path of the all-sources
/// kernel: a cycle among the predecessor pointers implies a negative cycle
/// in the constraint graph (every pred edge strictly lowered its head's
/// distance, so summing a pred cycle's relaxations telescopes to a negative
/// weight). The converse is supplied by the classical n-th-pass rule, which
/// the kernel keeps as its backstop -- this probe only lets infeasible
/// systems surface after a handful of passes instead of all |V| of them.
/// Returns a vertex on the cycle, or -1. `mark`/`walk` are caller-owned
/// scratch (resized here).
template <typename W, typename MarkBuf, typename WalkBuf>
int pred_graph_has_cycle(std::span<const WeightedEdge<W>> edges, const int* pred_edge, int n,
                         MarkBuf& mark, WalkBuf& walk) {
    mark.assign(static_cast<std::size_t>(n), 0);  // 0 unvisited, 1 in walk, 2 done
    for (int s = 0; s < n; ++s) {
        if (mark[static_cast<std::size_t>(s)] != 0) continue;
        walk.clear();
        int v = s;
        while (true) {
            const signed char m = mark[static_cast<std::size_t>(v)];
            if (m == 1) return v;  // closed a walk on itself: pred cycle
            if (m == 2) break;     // merged into an already-cleared walk
            mark[static_cast<std::size_t>(v)] = 1;
            walk.push_back(v);
            const int pe = pred_edge[static_cast<std::size_t>(v)];
            if (pe < 0) break;
            v = edges[static_cast<std::size_t>(pe)].from;
        }
        for (int u : walk) mark[static_cast<std::size_t>(u)] = 2;
    }
    return -1;
}

/// Accumulates solver counters in locals and flushes them into the caller's
/// SolverStats (if any) on every exit path. Null target: all accounting,
/// including the clock reads, is skipped.
class StatsScope {
  public:
    explicit StatsScope(SolverStats* target) : target_(target) {
        if (target_ != nullptr) start_ = std::chrono::steady_clock::now();
    }
    StatsScope(const StatsScope&) = delete;
    StatsScope& operator=(const StatsScope&) = delete;
    ~StatsScope() {
        if (target_ == nullptr) return;
        target_->solves += 1;
        target_->edge_scans += edge_scans;
        target_->relaxations += relaxations;
        target_->iterations += iterations;
        target_->queue_pushes += queue_pushes;
        target_->queue_pops += queue_pops;
        target_->guard_steps += guard_steps;
        target_->overflow_warnings += overflow_warnings;
        target_->warm_starts += warm_starts;
        target_->cold_solves += cold_solves;
        target_->wall_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count());
    }

    [[nodiscard]] bool enabled() const { return target_ != nullptr; }

    std::uint64_t edge_scans = 0;
    std::uint64_t relaxations = 0;
    std::uint64_t iterations = 0;
    std::uint64_t queue_pushes = 0;
    std::uint64_t queue_pops = 0;
    std::uint64_t guard_steps = 0;
    std::uint64_t overflow_warnings = 0;
    std::uint64_t warm_starts = 0;
    std::uint64_t cold_solves = 0;

  private:
    SolverStats* target_;
    std::chrono::steady_clock::time_point start_;
};

}  // namespace detail

/// Bellman-Ford with every vertex as a zero-distance source. This models the
/// constraint-graph construction of the paper (virtual vertex v0 with
/// zero-weight edges to every other vertex) without materializing v0.
///
/// `ws` (optional): scratch arena to run on; reuse across solves for an
/// allocation-free steady state. `warm_start` (optional): a previous
/// all-sources fixpoint of a subsystem, adopted as the starting potential
/// when valid (every entry <= zero; see the warm-start note above). The
/// returned distances are identical either way; only the work differs.
/// `early_cycle_exit` runs the predecessor-cycle probe after every pass, so
/// an infeasible system stops within a few passes; the status, the verdict
/// and a feasible fixpoint are unchanged, only the work shrinks (the
/// witness in `negative_cycle` is then the predecessor cycle found).
template <typename W>
ShortestPaths<W> bellman_ford_all_sources(int num_nodes,
                                          std::span<const WeightedEdge<W>> edges,
                                          ResourceGuard* guard = nullptr,
                                          SolverStats* stats = nullptr,
                                          const WeightTraits<W>& traits = {},
                                          SolverWorkspace<W>* ws = nullptr,
                                          const std::vector<W>* warm_start = nullptr,
                                          bool early_cycle_exit = false) {
    detail::StatsScope scope(stats);
    SolverWorkspace<W> local;  // used only when the caller owns no arena
    SolverWorkspace<W>& arena = ws != nullptr ? *ws : local;
    const auto n = static_cast<std::size_t>(num_nodes);
    auto& dist = arena.dist;
    auto& pred = arena.pred_edge;

    bool warm = warm_start != nullptr && warm_start->size() == n;
    if (warm) {
        const W zero = traits.zero();
        for (const W& v : *warm_start) {
            if (zero < v) {  // not a valid potential; cold-solve instead
                warm = false;
                break;
            }
        }
    }
    if (warm) {
        dist.assign(warm_start->begin(), warm_start->end());
        ++scope.warm_starts;
    } else {
        dist.assign(n, traits.zero());
        ++scope.cold_solves;
    }
    pred.assign(n, -1);

    ShortestPaths<W> r;
    auto finish = [&]() {
        r.dist.assign(dist.begin(), dist.end());
        r.pred_edge.assign(pred.begin(), pred.end());
        return std::move(r);
    };
    if (faultpoint::triggered("solver.bellman_ford")) {
        r.status = StatusCode::Internal;
        return finish();
    }

    // Validate endpoints once up front; the relaxation passes below then
    // index unchecked (the edge list is immutable for the whole solve).
    for (const auto& e : edges) {
        check(e.from >= 0 && e.from < num_nodes && e.to >= 0 && e.to < num_nodes,
              "bellman_ford: edge endpoint out of range");
    }

    for (int pass = 0; pass < num_nodes; ++pass) {
        ++scope.iterations;
        bool changed = false;
        for (std::size_t ei = 0; ei < edges.size(); ++ei) {
            const auto& e = edges[ei];
            ++scope.edge_scans;
            if (guard != nullptr) {
                ++scope.guard_steps;
                if (!guard->consume()) {
                    r.status = StatusCode::ResourceExhausted;
                    return finish();
                }
            }
            W cand;
            if (!traits.checked_add(dist[static_cast<std::size_t>(e.from)], e.weight, cand)) {
                r.status = StatusCode::Overflow;
                return finish();
            }
            if (cand < dist[static_cast<std::size_t>(e.to)]) {
                ++scope.relaxations;
                if (scope.enabled() && traits.near_overflow(cand)) ++scope.overflow_warnings;
                dist[static_cast<std::size_t>(e.to)] = cand;
                pred[static_cast<std::size_t>(e.to)] = static_cast<int>(ei);
                changed = true;
            }
        }
        if (!changed) return finish();
        if (early_cycle_exit) {
            const int on_cycle = detail::pred_graph_has_cycle(edges, pred.data(), num_nodes,
                                                              arena.cycle_mark, arena.cycle_walk);
            if (on_cycle >= 0) {
                r.has_negative_cycle = true;
                r.negative_cycle =
                    detail::extract_cycle<W>(edges, pred.data(), num_nodes, on_cycle);
                return finish();
            }
        }
    }
    // An n-th pass that still relaxes implies a negative cycle.
    for (std::size_t ei = 0; ei < edges.size(); ++ei) {
        const auto& e = edges[ei];
        ++scope.edge_scans;
        W cand;
        if (!traits.checked_add(dist[static_cast<std::size_t>(e.from)], e.weight, cand)) {
            r.status = StatusCode::Overflow;
            return finish();
        }
        if (cand < dist[static_cast<std::size_t>(e.to)]) {
            r.has_negative_cycle = true;
            pred[static_cast<std::size_t>(e.to)] = static_cast<int>(ei);
            r.negative_cycle = detail::extract_cycle<W>(edges, pred.data(), num_nodes, e.to);
            return finish();
        }
    }
    return finish();
}

/// Classical single-source Bellman-Ford (distances from `source`; unreachable
/// vertices keep the domain's infinity). Takes the same optional workspace;
/// no warm start -- the infinity-initialized single-source solve has no
/// subsystem-fixpoint structure to exploit.
template <typename W>
ShortestPaths<W> bellman_ford(int num_nodes, const std::vector<WeightedEdge<W>>& edges,
                              int source, ResourceGuard* guard = nullptr,
                              SolverStats* stats = nullptr,
                              const WeightTraits<W>& traits = {},
                              SolverWorkspace<W>* ws = nullptr) {
    check(source >= 0 && source < num_nodes, "bellman_ford: bad source");
    detail::StatsScope scope(stats);
    ++scope.cold_solves;
    SolverWorkspace<W> local;
    SolverWorkspace<W>& arena = ws != nullptr ? *ws : local;
    const auto n = static_cast<std::size_t>(num_nodes);
    auto& dist = arena.dist;
    auto& pred = arena.pred_edge;
    dist.assign(n, traits.infinity());
    pred.assign(n, -1);
    dist[static_cast<std::size_t>(source)] = traits.zero();

    ShortestPaths<W> r;
    auto finish = [&]() {
        r.dist.assign(dist.begin(), dist.end());
        r.pred_edge.assign(pred.begin(), pred.end());
        return std::move(r);
    };
    if (faultpoint::triggered("solver.bellman_ford")) {
        r.status = StatusCode::Internal;
        return finish();
    }

    for (int pass = 0; pass < num_nodes; ++pass) {
        ++scope.iterations;
        bool changed = false;
        for (std::size_t ei = 0; ei < edges.size(); ++ei) {
            const auto& e = edges[ei];
            if (traits.is_infinite(dist[static_cast<std::size_t>(e.from)])) continue;
            ++scope.edge_scans;
            if (guard != nullptr) {
                ++scope.guard_steps;
                if (!guard->consume()) {
                    r.status = StatusCode::ResourceExhausted;
                    return finish();
                }
            }
            W cand;
            if (!traits.checked_add(dist[static_cast<std::size_t>(e.from)], e.weight, cand)) {
                r.status = StatusCode::Overflow;
                return finish();
            }
            if (cand < dist[static_cast<std::size_t>(e.to)]) {
                ++scope.relaxations;
                if (scope.enabled() && traits.near_overflow(cand)) ++scope.overflow_warnings;
                dist[static_cast<std::size_t>(e.to)] = cand;
                pred[static_cast<std::size_t>(e.to)] = static_cast<int>(ei);
                changed = true;
            }
        }
        if (!changed) return finish();
    }
    for (std::size_t ei = 0; ei < edges.size(); ++ei) {
        const auto& e = edges[ei];
        if (traits.is_infinite(dist[static_cast<std::size_t>(e.from)])) continue;
        ++scope.edge_scans;
        W cand;
        if (!traits.checked_add(dist[static_cast<std::size_t>(e.from)], e.weight, cand)) {
            r.status = StatusCode::Overflow;
            return finish();
        }
        if (cand < dist[static_cast<std::size_t>(e.to)]) {
            r.has_negative_cycle = true;
            pred[static_cast<std::size_t>(e.to)] = static_cast<int>(ei);
            r.negative_cycle = detail::extract_cycle<W>(edges, pred.data(), num_nodes, e.to);
            return finish();
        }
    }
    return finish();
}

}  // namespace lf
