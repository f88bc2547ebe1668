#pragma once
// Reusable scratch arenas for the shortest-path solvers.
//
// Every Bellman-Ford / SPFA solve needs the same per-vertex scratch: the
// distance vector, predecessor edges, and (for SPFA) a FIFO ring, queued
// flags and per-vertex relaxation counters. Allocating these per solve puts
// the allocator on the planner's hot path -- the degradation ladder solves
// several near-identical constraint systems per plan, and the fusion service
// plans thousands of jobs per batch. A SolverWorkspace owns those buffers
// across solves: the first solve sizes them, every later solve of the same
// or smaller order reuses the capacity, and a CountingAllocator makes the
// residual allocation traffic *measurable* (BENCH_plan.json reports
// allocations/solve; steady state must be zero).
//
// Ownership model: one workspace per thread. The solvers never share one
// workspace across threads, and a workspace pins no solver state between
// calls -- any solve may use any workspace (buffers are fully re-initialized
// per solve; only the capacity is reused).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/lexvec.hpp"

namespace lf {

/// A weighted edge for the solver; decoupled from Digraph so constraint
/// systems can feed edge lists directly.
template <typename W>
struct WeightedEdge {
    int from = -1;
    int to = -1;
    W weight{};
};

/// Allocation telemetry for one workspace: every heap request the workspace's
/// buffers make is counted here. Steady-state solves perform zero.
struct AllocCounter {
    std::uint64_t allocations = 0;
    std::uint64_t deallocations = 0;
    std::uint64_t bytes = 0;

    void reset() { *this = AllocCounter{}; }
};

/// Minimal standard allocator that counts (de)allocations into an
/// AllocCounter. A null counter makes it behave exactly like std::allocator.
template <typename T>
class CountingAllocator {
  public:
    using value_type = T;

    CountingAllocator() = default;
    explicit CountingAllocator(AllocCounter* counter) : counter_(counter) {}
    template <typename U>
    CountingAllocator(const CountingAllocator<U>& other)  // NOLINT(google-explicit-constructor)
        : counter_(other.counter()) {}

    T* allocate(std::size_t n) {
        if (counter_ != nullptr) {
            ++counter_->allocations;
            counter_->bytes += n * sizeof(T);
        }
        return std::allocator<T>().allocate(n);
    }
    void deallocate(T* p, std::size_t n) {
        if (counter_ != nullptr) ++counter_->deallocations;
        std::allocator<T>().deallocate(p, n);
    }

    [[nodiscard]] AllocCounter* counter() const { return counter_; }

    friend bool operator==(const CountingAllocator& a, const CountingAllocator& b) {
        return a.counter_ == b.counter_;
    }

  private:
    AllocCounter* counter_ = nullptr;
};

/// CSR out-adjacency over edge indices: edge_ids[offsets[v] .. offsets[v+1])
/// are the ids of edges leaving v, in ascending edge-id order (identical to
/// the per-node iteration order of the historical vector-of-vectors
/// adjacency, so solves are bit-for-bit reproducible either way).
struct CsrAdjacency {
    std::vector<int> offsets;   // num_nodes + 1 entries
    std::vector<int> edge_ids;  // num_edges entries

    /// Counting-sort build; EdgeVec needs only `.from` per element.
    template <typename EdgeVec>
    void build(int num_nodes, const EdgeVec& edges) {
        offsets.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
        edge_ids.assign(edges.size(), -1);
        for (const auto& e : edges) ++offsets[static_cast<std::size_t>(e.from) + 1];
        for (int v = 0; v < num_nodes; ++v) {
            offsets[static_cast<std::size_t>(v) + 1] += offsets[static_cast<std::size_t>(v)];
        }
        std::vector<int> cursor(offsets.begin(), offsets.end() - 1);
        for (std::size_t k = 0; k < edges.size(); ++k) {
            const auto from = static_cast<std::size_t>(edges[k].from);
            edge_ids[static_cast<std::size_t>(cursor[from]++)] = static_cast<int>(k);
        }
    }

    [[nodiscard]] int num_nodes() const {
        return offsets.empty() ? 0 : static_cast<int>(offsets.size()) - 1;
    }
    [[nodiscard]] std::size_t num_edges() const { return edge_ids.size(); }
};

/// Per-thread scratch arena for one weight domain. The solvers run entirely
/// on these buffers and copy only the result out; allocation happens the
/// first time a problem size is seen, never again afterwards.
template <typename W>
class SolverWorkspace {
  public:
    template <typename T>
    using Buffer = std::vector<T, CountingAllocator<T>>;

    SolverWorkspace()
        : dist(CountingAllocator<W>(&counter_)),
          pred_edge(CountingAllocator<int>(&counter_)),
          queue(CountingAllocator<int>(&counter_)),
          queued(CountingAllocator<unsigned char>(&counter_)),
          relax_count(CountingAllocator<int>(&counter_)),
          csr_offsets(CountingAllocator<int>(&counter_)),
          csr_edge_ids(CountingAllocator<int>(&counter_)),
          cycle_mark(CountingAllocator<signed char>(&counter_)),
          cycle_walk(CountingAllocator<int>(&counter_)),
          edges(CountingAllocator<WeightedEdge<W>>(&counter_)),
          edges_eq(CountingAllocator<WeightedEdge<W>>(&counter_)) {}

    // The buffers' allocators point into this object; moving or copying the
    // workspace would leave them dangling.
    SolverWorkspace(const SolverWorkspace&) = delete;
    SolverWorkspace& operator=(const SolverWorkspace&) = delete;

    [[nodiscard]] const AllocCounter& counter() const { return counter_; }
    void reset_counter() { counter_.reset(); }

  private:
    AllocCounter counter_;  // must precede the buffers (initialization order)

  public:
    Buffer<W> dist;
    Buffer<int> pred_edge;
    Buffer<int> queue;             // SPFA FIFO ring (capacity num_nodes + 1)
    Buffer<unsigned char> queued;  // SPFA in-queue flags
    Buffer<int> relax_count;       // SPFA per-vertex relaxation counters
    Buffer<int> csr_offsets;       // fallback CSR when the caller caches none
    Buffer<int> csr_edge_ids;
    Buffer<signed char> cycle_mark;  // predecessor-cycle probe: visit marks
    Buffer<int> cycle_walk;          // predecessor-cycle probe: current walk
    /// Caller-staged edge lists: the planning ladder fills the endpoints
    /// once per job and rewrites only the bounds from rung to rung
    /// (`edges_eq` holds Algorithm 4 phase 2's equality pairs).
    Buffer<WeightedEdge<W>> edges;
    Buffer<WeightedEdge<W>> edges_eq;
};

/// The planner's full arena: one workspace per weight domain the 2-D ladder
/// and the n-D generalizations solve over, plus reusable warm-start scratch.
/// svc workers own one PlannerWorkspace per thread and thread it through
/// TryPlanOptions::workspace.
struct PlannerWorkspace {
    SolverWorkspace<std::int64_t> scalar;  // Alg. 4 phases, forced carry, compact
    SolverWorkspace<Vec2> vec2;            // Algs. 2/3/5 constraint systems
    SolverWorkspace<VecN> vecn;            // n-D schedulability / planning
    /// Scratch for rung-to-rung warm-start vectors (e.g. the x components a
    /// compact post-pass seeds its base solve with).
    std::vector<std::int64_t> warm_x;

    [[nodiscard]] std::uint64_t total_allocations() const {
        return scalar.counter().allocations + vec2.counter().allocations +
               vecn.counter().allocations;
    }
    void reset_counters() {
        scalar.reset_counter();
        vec2.reset_counter();
        vecn.reset_counter();
    }
};

}  // namespace lf
