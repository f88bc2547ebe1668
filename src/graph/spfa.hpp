#pragma once
// SPFA (queue-based Bellman-Ford) over the same generic weight domains:
// an independent implementation of the shortest-path core, used as a
// differential cross-check of graph/bellman_ford.hpp. Same O(|V| * |E|)
// worst case; negative cycles are detected by counting relaxations per
// vertex (a vertex relaxed |V| times sits on or behind a negative cycle).
//
// Carries the same hardening as bellman_ford.hpp: ResourceGuard metering
// (one step per edge scan), overflow-checked relaxation, and the
// "solver.spfa" fault point. Telemetry mirrors bellman_ford.hpp as well --
// pass a SolverStats* to account queue traffic and relaxations, null to keep
// the stats-free path untouched.
//
// Hot path: the solve runs on a SolverWorkspace (FIFO ring buffer instead of
// std::deque -- at most num_nodes vertices are ever enqueued, so a fixed ring
// of num_nodes + 1 slots suffices) and takes an optional pre-built
// CsrAdjacency so callers that solve the same edge list repeatedly (e.g.
// DifferenceConstraintSystem::solve_spfa) stop rebuilding the adjacency per
// call. Without one, the CSR is built into workspace buffers -- still no
// per-solve vector-of-vectors. Both queue disciplines are FIFO over the same
// per-node ascending edge-id order, so results are bit-for-bit identical to
// the historical implementation.

#include <vector>

#include "graph/bellman_ford.hpp"

namespace lf {

template <typename W>
struct SpfaResult {
    std::vector<W> dist;
    bool has_negative_cycle = false;
    /// Ok when the solve completed; ResourceExhausted / Overflow / Internal
    /// when aborted (dist is then partial).
    StatusCode status = StatusCode::Ok;
};

/// Shortest distances with every vertex a zero-distance source (the virtual
/// source construction of the paper's constraint graphs).
///
/// `ws` (optional): scratch arena; reuse for an allocation-free steady state.
/// `csr` (optional): out-adjacency for `edges` built once by the caller
/// (CsrAdjacency::build over the same edge list); must match `edges` exactly.
template <typename W>
SpfaResult<W> spfa_all_sources(int num_nodes, const std::vector<WeightedEdge<W>>& edges,
                               ResourceGuard* guard = nullptr, SolverStats* stats = nullptr,
                               const WeightTraits<W>& traits = {},
                               SolverWorkspace<W>* ws = nullptr,
                               const CsrAdjacency* csr = nullptr) {
    detail::StatsScope scope(stats);
    ++scope.cold_solves;
    SolverWorkspace<W> local;
    SolverWorkspace<W>& arena = ws != nullptr ? *ws : local;
    const auto n = static_cast<std::size_t>(num_nodes);
    auto& dist = arena.dist;
    dist.assign(n, traits.zero());

    SpfaResult<W> r;
    auto finish = [&]() {
        r.dist.assign(dist.begin(), dist.end());
        return std::move(r);
    };
    if (faultpoint::triggered("solver.spfa")) {
        r.status = StatusCode::Internal;
        return finish();
    }

    // Out-adjacency over edge indices: the caller's cached CSR when provided,
    // otherwise built into the workspace (counting sort, no inner vectors).
    const int* offsets = nullptr;
    const int* edge_ids = nullptr;
    if (csr != nullptr) {
        check(csr->num_nodes() == num_nodes && csr->num_edges() == edges.size(),
              "spfa_all_sources: adjacency does not match edge list");
        offsets = csr->offsets.data();
        edge_ids = csr->edge_ids.data();
    } else {
        auto& offs = arena.csr_offsets;
        auto& ids = arena.csr_edge_ids;
        offs.assign(n + 1, 0);
        ids.assign(edges.size(), -1);
        for (const auto& e : edges) ++offs[static_cast<std::size_t>(e.from) + 1];
        for (std::size_t v = 0; v < n; ++v) offs[v + 1] += offs[v];
        auto& cursor = arena.relax_count;  // reuse as the counting-sort cursor
        cursor.assign(offs.begin(), offs.end() - 1);
        for (std::size_t k = 0; k < edges.size(); ++k) {
            const auto from = static_cast<std::size_t>(edges[k].from);
            ids[static_cast<std::size_t>(cursor[from]++)] = static_cast<int>(k);
        }
        offsets = offs.data();
        edge_ids = ids.data();
    }

    // FIFO ring: at most num_nodes vertices are queued at once (queued flags
    // dedupe), so num_nodes + 1 slots never wrap onto live entries.
    auto& ring = arena.queue;
    ring.assign(n + 1, -1);
    auto& queued = arena.queued;
    queued.assign(n, 1);
    auto& relaxations = arena.relax_count;
    relaxations.assign(n, 0);
    std::size_t head = 0;
    std::size_t tail = 0;
    const std::size_t cap = n + 1;
    for (int v = 0; v < num_nodes; ++v) {
        ring[tail] = v;
        tail = (tail + 1) % cap;
    }
    scope.queue_pushes += static_cast<std::uint64_t>(num_nodes);

    while (head != tail) {
        const int u = ring[head];
        head = (head + 1) % cap;
        ++scope.queue_pops;
        ++scope.iterations;
        queued[static_cast<std::size_t>(u)] = 0;
        const int begin = offsets[static_cast<std::size_t>(u)];
        const int end = offsets[static_cast<std::size_t>(u) + 1];
        for (int k = begin; k < end; ++k) {
            const int ei = edge_ids[static_cast<std::size_t>(k)];
            const auto& e = edges[static_cast<std::size_t>(ei)];
            ++scope.edge_scans;
            if (guard != nullptr) {
                ++scope.guard_steps;
                if (!guard->consume()) {
                    r.status = StatusCode::ResourceExhausted;
                    return finish();
                }
            }
            W cand;
            if (!traits.checked_add(dist[static_cast<std::size_t>(u)], e.weight, cand)) {
                r.status = StatusCode::Overflow;
                return finish();
            }
            if (cand < dist[static_cast<std::size_t>(e.to)]) {
                ++scope.relaxations;
                if (scope.enabled() && traits.near_overflow(cand)) ++scope.overflow_warnings;
                dist[static_cast<std::size_t>(e.to)] = cand;
                if (++relaxations[static_cast<std::size_t>(e.to)] >= num_nodes) {
                    r.has_negative_cycle = true;
                    return finish();
                }
                if (queued[static_cast<std::size_t>(e.to)] == 0) {
                    queued[static_cast<std::size_t>(e.to)] = 1;
                    ring[tail] = e.to;
                    tail = (tail + 1) % cap;
                    ++scope.queue_pushes;
                }
            }
        }
    }
    return finish();
}

}  // namespace lf
