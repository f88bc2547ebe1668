#pragma once
// Solver telemetry: counters every shortest-path solve can account into.
//
// The planners spend essentially all of their time in the lexicographic
// Bellman-Ford core; these counters make that cost observable per ladder
// rung (driver StageReport) and per job (svc run report) so perf work can be
// measured instead of guessed at. Collection is opt-in: solvers take a
// `SolverStats*` and skip all accounting -- including the wall-clock reads
// -- when it is null, keeping the stats-free hot path unchanged.

#include <cstdint>

namespace lf {

struct SolverStats {
    /// Solver invocations accounted into this struct (bellman_ford,
    /// bellman_ford_all_sources and spfa_all_sources each count one).
    std::uint64_t solves = 0;
    /// Edge-relaxation attempts (one per edge scanned per pass; this is the
    /// quantity the ResourceGuard meters).
    std::uint64_t edge_scans = 0;
    /// Successful relaxations: scans that actually lowered a distance.
    std::uint64_t relaxations = 0;
    /// Iterations to fixpoint: Bellman-Ford passes executed, or SPFA vertex
    /// dequeues. A solve that quiesces early reports fewer than |V| passes.
    std::uint64_t iterations = 0;
    /// SPFA queue operations (pushes; initial seeding included).
    std::uint64_t queue_pushes = 0;
    /// SPFA queue operations (pops == vertex dequeues).
    std::uint64_t queue_pops = 0;
    /// ResourceGuard steps consumed by metered scans (0 when no guard).
    std::uint64_t guard_steps = 0;
    /// Relaxations whose result came within 1/8 of the weight domain's
    /// overflow cap: early warning that inputs are drifting toward the
    /// Overflow hard stop.
    std::uint64_t overflow_warnings = 0;
    /// All-sources solves that started from a caller-supplied previous
    /// fixpoint instead of the all-zero potential (incremental re-solve of a
    /// grown constraint system; see graph/bellman_ford.hpp).
    std::uint64_t warm_starts = 0;
    /// Solves that initialized from scratch (no usable warm hint). Every
    /// accounted solve is exactly one of warm_starts / cold_solves.
    std::uint64_t cold_solves = 0;
    /// Ladder rungs that reused the shared constraint-system core (edge
    /// arrays, cached schedulability verdict, previous-rung fixpoints)
    /// instead of rebuilding their system from the MLDG (fusion/ladder.cpp).
    std::uint64_t rungs_shared = 0;
    /// Wall time spent inside solver entry points, in nanoseconds. Only
    /// meaningful on the machine that produced it; report emission omits it
    /// under the determinism contract (include_timings=false).
    std::uint64_t wall_ns = 0;

    void merge(const SolverStats& o) {
        solves += o.solves;
        edge_scans += o.edge_scans;
        relaxations += o.relaxations;
        iterations += o.iterations;
        queue_pushes += o.queue_pushes;
        queue_pops += o.queue_pops;
        guard_steps += o.guard_steps;
        overflow_warnings += o.overflow_warnings;
        warm_starts += o.warm_starts;
        cold_solves += o.cold_solves;
        rungs_shared += o.rungs_shared;
        wall_ns += o.wall_ns;
    }

    /// True when any solver work was accounted (gates report emission).
    /// A rung can share the core without solving (fault-injected phases),
    /// so rungs_shared counts as work of its own.
    [[nodiscard]] bool any() const { return solves != 0 || rungs_shared != 0; }
};

}  // namespace lf
