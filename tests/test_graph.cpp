// Unit tests for src/graph: digraph container, 1-D and lexicographic 2-D
// Bellman-Ford, difference-constraint systems (Problems ILP / 2-ILP of
// Section 2.4), SCC, topological sort and simple-cycle enumeration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "graph/algorithms.hpp"
#include "graph/bellman_ford.hpp"
#include "graph/constraint_system.hpp"
#include "graph/digraph.hpp"
#include "graph/spfa.hpp"
#include "support/rng.hpp"
#include "support/lexvec.hpp"

namespace lf {
namespace {

TEST(Digraph, BasicConstruction) {
    Digraph<std::string, int> g;
    const int a = g.add_node("a");
    const int b = g.add_node("b");
    const int e = g.add_edge(a, b, 7);
    EXPECT_EQ(g.num_nodes(), 2);
    EXPECT_EQ(g.num_edges(), 1);
    EXPECT_EQ(g.node(a), "a");
    EXPECT_EQ(g.edge(e).data, 7);
    ASSERT_EQ(g.out_edges(a).size(), 1u);
    EXPECT_EQ(g.out_edges(a)[0], e);
    ASSERT_EQ(g.in_edges(b).size(), 1u);
    EXPECT_TRUE(g.out_edges(b).empty());
}

TEST(Digraph, UncheckedAccessorsAgreeWithChecked) {
    Digraph<std::string, int> g;
    const int a = g.add_node("a");
    const int b = g.add_node("b");
    const int e = g.add_edge(a, b, 7);
    EXPECT_EQ(&g.node_ref(a), &g.node(a));
    EXPECT_EQ(&g.edge_ref(e), &g.edge(e));
    EXPECT_EQ(g.node_ref(b), "b");
    EXPECT_EQ(g.edge_ref(e).data, 7);
}

TEST(Digraph, RejectsBadEndpoints) {
    Digraph<int, int> g;
    g.add_node(0);
    EXPECT_THROW(g.add_edge(0, 5, 1), Error);
}

TEST(BellmanFord, SingleSourceShortestPaths) {
    // Classic 5-node graph with negative edges but no negative cycle.
    std::vector<WeightedEdge<std::int64_t>> edges{
        {0, 1, 6}, {0, 3, 7}, {1, 2, 5}, {1, 3, 8}, {1, 4, -4},
        {2, 1, -2}, {3, 2, -3}, {3, 4, 9}, {4, 2, 7}, {4, 0, 2},
    };
    const auto r = bellman_ford<std::int64_t>(5, edges, 0);
    ASSERT_FALSE(r.has_negative_cycle);
    EXPECT_EQ(r.dist[0], 0);
    EXPECT_EQ(r.dist[1], 2);
    EXPECT_EQ(r.dist[2], 4);
    EXPECT_EQ(r.dist[3], 7);
    EXPECT_EQ(r.dist[4], -2);
}

TEST(BellmanFord, DetectsNegativeCycleAndExtractsWitness) {
    std::vector<WeightedEdge<std::int64_t>> edges{
        {0, 1, 1}, {1, 2, -3}, {2, 1, 1}, {2, 3, 4},
    };
    const auto r = bellman_ford<std::int64_t>(4, edges, 0);
    ASSERT_TRUE(r.has_negative_cycle);
    // The witness must be a real cycle with negative total weight.
    ASSERT_FALSE(r.negative_cycle.empty());
    std::int64_t total = 0;
    for (std::size_t k = 0; k < r.negative_cycle.size(); ++k) {
        const auto& e = edges[static_cast<std::size_t>(r.negative_cycle[k])];
        const auto& next =
            edges[static_cast<std::size_t>(r.negative_cycle[(k + 1) % r.negative_cycle.size()])];
        EXPECT_EQ(e.to, next.from) << "witness edges must chain";
        total += e.weight;
    }
    EXPECT_LT(total, 0);
}

TEST(BellmanFord, UnreachableNodesStayInfinite) {
    std::vector<WeightedEdge<std::int64_t>> edges{{0, 1, 1}};
    const auto r = bellman_ford<std::int64_t>(3, edges, 0);
    EXPECT_TRUE(WeightTraits<std::int64_t>::is_infinite(r.dist[2]));
}

TEST(BellmanFord, LexicographicWeightsPickLexicographicMinimum) {
    // Two routes 0 -> 2: via 1 costs (1,-5), direct costs (1,-1).
    // Lexicographically (1,-5) < (1,-1).
    std::vector<WeightedEdge<Vec2>> edges{
        {0, 1, Vec2{0, -5}}, {1, 2, Vec2{1, 0}}, {0, 2, Vec2{1, -1}},
    };
    const auto r = bellman_ford<Vec2>(3, edges, 0);
    ASSERT_FALSE(r.has_negative_cycle);
    EXPECT_EQ(r.dist[2], Vec2(1, -5));
}

TEST(BellmanFord, LexicographicNegativeCycleRequiresBelowZeroZero) {
    // Cycle weight (0,-3) is lexicographically negative...
    std::vector<WeightedEdge<Vec2>> neg{{0, 1, Vec2{0, -1}}, {1, 0, Vec2{0, -2}}};
    EXPECT_TRUE(bellman_ford_all_sources<Vec2>(2, neg).has_negative_cycle);
    // ...but (1,-100) is not: the first coordinate dominates.
    std::vector<WeightedEdge<Vec2>> pos{{0, 1, Vec2{0, -50}}, {1, 0, Vec2{1, -50}}};
    EXPECT_FALSE(bellman_ford_all_sources<Vec2>(2, pos).has_negative_cycle);
}

TEST(BellmanFord, AllSourcesDistancesAreNonPositive) {
    // With every vertex a zero-distance source, distances can only drop.
    std::vector<WeightedEdge<std::int64_t>> edges{{0, 1, -2}, {1, 2, 3}, {2, 0, 1}};
    const auto r = bellman_ford_all_sources<std::int64_t>(3, edges);
    ASSERT_FALSE(r.has_negative_cycle);
    for (auto d : r.dist) EXPECT_LE(d, 0);
    EXPECT_EQ(r.dist[1], -2);
}

TEST(ConstraintSystem, FeasibleSystemSatisfiesAllConstraints) {
    DifferenceConstraintSystem<std::int64_t> sys;
    for (int k = 0; k < 4; ++k) sys.add_variable();
    // x1 - x0 <= 3, x2 - x1 <= -2, x3 - x2 <= 1, x3 - x0 <= 0
    sys.add_constraint(0, 1, 3);
    sys.add_constraint(1, 2, -2);
    sys.add_constraint(2, 3, 1);
    sys.add_constraint(0, 3, 0);
    const auto s = sys.solve();
    ASSERT_TRUE(s.feasible);
    EXPECT_LE(s.values[1] - s.values[0], 3);
    EXPECT_LE(s.values[2] - s.values[1], -2);
    EXPECT_LE(s.values[3] - s.values[2], 1);
    EXPECT_LE(s.values[3] - s.values[0], 0);
}

TEST(ConstraintSystem, InfeasibleSystemReportsConflictCycle) {
    DifferenceConstraintSystem<std::int64_t> sys;
    sys.add_variable("a");
    sys.add_variable("b");
    sys.add_constraint(0, 1, 1);    // b - a <= 1
    sys.add_constraint(1, 0, -2);   // a - b <= -2  => b - a >= 2: contradiction
    const auto s = sys.solve();
    EXPECT_FALSE(s.feasible);
    EXPECT_FALSE(s.conflict.empty());
    EXPECT_FALSE(sys.describe_conflict(s.conflict).empty());
}

TEST(ConstraintSystem, EqualityConstraintsHold) {
    DifferenceConstraintSystem<std::int64_t> sys;
    for (int k = 0; k < 3; ++k) sys.add_variable();
    sys.add_equality(0, 1, 5);   // x1 - x0 == 5
    sys.add_equality(1, 2, -3);  // x2 - x1 == -3
    const auto s = sys.solve();
    ASSERT_TRUE(s.feasible);
    EXPECT_EQ(s.values[1] - s.values[0], 5);
    EXPECT_EQ(s.values[2] - s.values[1], -3);
}

TEST(ConstraintSystem, InconsistentEqualitiesAreInfeasible) {
    DifferenceConstraintSystem<std::int64_t> sys;
    for (int k = 0; k < 3; ++k) sys.add_variable();
    sys.add_equality(0, 1, 1);
    sys.add_equality(1, 2, 1);
    sys.add_equality(0, 2, 3);  // should be 2
    EXPECT_FALSE(sys.solve().feasible);
}

TEST(ConstraintSystem, EqualityParityAcrossDimensions) {
    // add_equality must behave identically on every instantiation of the
    // unified system: 1-D, 2-D, and runtime-dimension N-D.
    DifferenceConstraintSystem<Vec2> sys2;
    for (int k = 0; k < 3; ++k) sys2.add_variable();
    sys2.add_equality(0, 1, Vec2{2, -1});
    sys2.add_equality(1, 2, Vec2{0, 4});
    const auto s2 = sys2.solve();
    ASSERT_TRUE(s2.feasible);
    EXPECT_EQ(s2.values[1] - s2.values[0], (Vec2{2, -1}));
    EXPECT_EQ(s2.values[2] - s2.values[1], (Vec2{0, 4}));

    DifferenceConstraintSystem<VecN> sysn(3);
    for (int k = 0; k < 3; ++k) sysn.add_variable();
    sysn.add_equality(0, 1, VecN{2, -1, 0});
    sysn.add_equality(1, 2, VecN{0, 4, -2});
    const auto sn = sysn.solve();
    ASSERT_TRUE(sn.feasible);
    EXPECT_EQ(sn.values[1] - sn.values[0], (VecN{2, -1, 0}));
    EXPECT_EQ(sn.values[2] - sn.values[1], (VecN{0, 4, -2}));

    // And inconsistent equalities stay infeasible in N-D too.
    DifferenceConstraintSystem<VecN> bad(2);
    for (int k = 0; k < 3; ++k) bad.add_variable();
    bad.add_equality(0, 1, VecN{1, 0});
    bad.add_equality(1, 2, VecN{1, 0});
    bad.add_equality(0, 2, VecN{3, 0});  // should be (2,0)
    EXPECT_FALSE(bad.solve().feasible);
}

TEST(ConstraintSystem, NdRejectsDimensionMismatch) {
    DifferenceConstraintSystem<VecN> sys(3);
    sys.add_variable();
    sys.add_variable();
    EXPECT_THROW(sys.add_constraint(0, 1, VecN{1, 2}), Error);
    EXPECT_THROW(sys.add_equality(0, 1, VecN{1, 2, 3, 4}), Error);
}

TEST(LexVec, StaticExtentGenericCore) {
    // The dimension-generic template at a compile-time extent other than 2.
    using V3 = LexVec<3>;
    static_assert(V3::dim() == 3);
    const V3 a{1, -2, 3};
    const V3 b{1, -2, 4};
    EXPECT_LT(a, b);                       // lexicographic order
    EXPECT_EQ(a + b, (V3{2, -4, 7}));
    EXPECT_EQ(b - a, (V3{0, 0, 1}));
    EXPECT_EQ(-a, (V3{-1, 2, -3}));
    EXPECT_EQ(a * 2, (V3{2, -4, 6}));
    EXPECT_EQ(a.dot(b), 1 + 4 + 12);
    EXPECT_TRUE(V3::zeros().is_zero());
    EXPECT_EQ((V3{0, 0, -5}).leading_index(), 2);
    EXPECT_EQ(a.str(), "(1,-2,3)");

    // Saturating checked_add matches the Vec2 specialization's contract.
    WeightTraits<V3> traits;
    EXPECT_FALSE(traits.is_infinite(a));
    EXPECT_TRUE(traits.is_infinite(traits.infinity()));
    EXPECT_TRUE(traits.compatible(a));
}

TEST(SolverStats, BellmanFordAccountsWork) {
    std::vector<WeightedEdge<std::int64_t>> edges{{0, 1, 2}, {1, 2, -1}, {0, 2, 5}};
    SolverStats stats;
    const auto sp = bellman_ford_all_sources<std::int64_t>(3, edges, nullptr, &stats);
    EXPECT_EQ(sp.status, StatusCode::Ok);
    EXPECT_EQ(stats.solves, 1u);
    EXPECT_GT(stats.edge_scans, 0u);
    EXPECT_GT(stats.relaxations, 0u);
    EXPECT_GT(stats.iterations, 0u);
    EXPECT_EQ(stats.queue_pushes, 0u);  // queue counters are SPFA-only

    SolverStats spfa_stats;
    const auto sq = spfa_all_sources<std::int64_t>(3, edges, nullptr, &spfa_stats);
    EXPECT_EQ(sq.status, StatusCode::Ok);
    EXPECT_EQ(spfa_stats.solves, 1u);
    EXPECT_GT(spfa_stats.queue_pushes, 0u);
    EXPECT_GT(spfa_stats.queue_pops, 0u);

    // merge() sums every counter; any() keys off solves.
    SolverStats merged;
    EXPECT_FALSE(merged.any());
    merged.merge(stats);
    merged.merge(spfa_stats);
    EXPECT_TRUE(merged.any());
    EXPECT_EQ(merged.solves, 2u);
    EXPECT_EQ(merged.edge_scans, stats.edge_scans + spfa_stats.edge_scans);
}

TEST(ConstraintSystem, TwoDimensionalTheorem23) {
    // Theorem 2.3: feasible iff every constraint-graph cycle >= (0,0).
    DifferenceConstraintSystem<Vec2> ok;
    ok.add_variable();
    ok.add_variable();
    ok.add_constraint(0, 1, Vec2{0, -2});
    ok.add_constraint(1, 0, Vec2{1, -5});  // cycle weight (1,-7) >= (0,0)
    EXPECT_TRUE(ok.solve().feasible);

    DifferenceConstraintSystem<Vec2> bad;
    bad.add_variable();
    bad.add_variable();
    bad.add_constraint(0, 1, Vec2{0, -2});
    bad.add_constraint(1, 0, Vec2{0, 1});  // cycle weight (0,-1) < (0,0)
    EXPECT_FALSE(bad.solve().feasible);
}

TEST(Spfa, DifferentialAgainstBellmanFord1D) {
    // Two independent shortest-path implementations must agree on
    // feasibility and, when feasible, on every distance.
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        Rng rng(seed * 71 + 13);
        const int n = static_cast<int>(rng.uniform(2, 12));
        std::vector<WeightedEdge<std::int64_t>> edges;
        const int m = static_cast<int>(rng.uniform(1, 4 * n));
        for (int k = 0; k < m; ++k) {
            edges.push_back({static_cast<int>(rng.uniform(0, n - 1)),
                             static_cast<int>(rng.uniform(0, n - 1)), rng.uniform(-3, 8)});
        }
        const auto bf = bellman_ford_all_sources<std::int64_t>(n, edges);
        const auto sp = spfa_all_sources<std::int64_t>(n, edges);
        ASSERT_EQ(bf.has_negative_cycle, sp.has_negative_cycle) << "seed " << seed;
        if (!bf.has_negative_cycle) {
            EXPECT_EQ(bf.dist, sp.dist) << "seed " << seed;
        }
    }
}

TEST(Spfa, DifferentialAgainstBellmanFord2D) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        Rng rng(seed * 101 + 29);
        const int n = static_cast<int>(rng.uniform(2, 10));
        std::vector<WeightedEdge<Vec2>> edges;
        const int m = static_cast<int>(rng.uniform(1, 3 * n));
        for (int k = 0; k < m; ++k) {
            edges.push_back({static_cast<int>(rng.uniform(0, n - 1)),
                             static_cast<int>(rng.uniform(0, n - 1)),
                             Vec2{rng.uniform(-1, 4), rng.uniform(-5, 5)}});
        }
        const auto bf = bellman_ford_all_sources<Vec2>(n, edges);
        const auto sp = spfa_all_sources<Vec2>(n, edges);
        ASSERT_EQ(bf.has_negative_cycle, sp.has_negative_cycle) << "seed " << seed;
        if (!bf.has_negative_cycle) {
            EXPECT_EQ(bf.dist, sp.dist) << "seed " << seed;
        }
    }
}

/// Solves `edges` with the predecessor-cycle probe off and on; the verdict,
/// the status and a feasible fixpoint must not depend on it, and the
/// probe's witness must be a real negative cycle. Returns whether feasible.
template <typename W>
bool expect_probe_transparent(int n, const std::vector<WeightedEdge<W>>& edges,
                              std::uint64_t seed) {
    const auto plain = bellman_ford_all_sources<W>(n, edges);
    const auto probed = bellman_ford_all_sources<W>(n, edges, nullptr, nullptr, {}, nullptr,
                                                    nullptr, /*early_cycle_exit=*/true);
    EXPECT_EQ(plain.status, StatusCode::Ok) << "seed " << seed;
    EXPECT_EQ(probed.status, plain.status) << "seed " << seed;
    EXPECT_EQ(probed.has_negative_cycle, plain.has_negative_cycle) << "seed " << seed;
    if (!plain.has_negative_cycle) {
        EXPECT_EQ(probed.dist, plain.dist) << "seed " << seed;
        return true;
    }
    const std::vector<int>& cycle = probed.negative_cycle;
    EXPECT_FALSE(cycle.empty()) << "seed " << seed;
    W sum{};
    for (std::size_t k = 0; k < cycle.size(); ++k) {
        const auto& e = edges[static_cast<std::size_t>(cycle[k])];
        const auto& next = edges[static_cast<std::size_t>(cycle[(k + 1) % cycle.size()])];
        EXPECT_EQ(e.to, next.from) << "seed " << seed;
        sum = sum + e.weight;
    }
    EXPECT_LT(sum, W{}) << "seed " << seed;
    return false;
}

TEST(BellmanFord, CycleProbeNeverChangesTheOutcome1D) {
    // Same random systems as the SPFA differential above.
    int feasible = 0;
    int infeasible = 0;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        Rng rng(seed * 71 + 13);
        const int n = static_cast<int>(rng.uniform(2, 12));
        std::vector<WeightedEdge<std::int64_t>> edges;
        const int m = static_cast<int>(rng.uniform(1, 4 * n));
        for (int k = 0; k < m; ++k) {
            edges.push_back({static_cast<int>(rng.uniform(0, n - 1)),
                             static_cast<int>(rng.uniform(0, n - 1)), rng.uniform(-3, 8)});
        }
        ++(expect_probe_transparent(n, edges, seed) ? feasible : infeasible);
    }
    EXPECT_GT(feasible, 0);
    EXPECT_GT(infeasible, 0);
}

TEST(BellmanFord, CycleProbeNeverChangesTheOutcome2D) {
    int feasible = 0;
    int infeasible = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        Rng rng(seed * 101 + 29);
        const int n = static_cast<int>(rng.uniform(2, 10));
        std::vector<WeightedEdge<Vec2>> edges;
        const int m = static_cast<int>(rng.uniform(1, 3 * n));
        for (int k = 0; k < m; ++k) {
            edges.push_back({static_cast<int>(rng.uniform(0, n - 1)),
                             static_cast<int>(rng.uniform(0, n - 1)),
                             Vec2{rng.uniform(-1, 4), rng.uniform(-5, 5)}});
        }
        ++(expect_probe_transparent(n, edges, seed) ? feasible : infeasible);
    }
    EXPECT_GT(feasible, 0);
    EXPECT_GT(infeasible, 0);
}

TEST(Algorithms, SccOnTwoComponents) {
    // 0 <-> 1 strongly connected; 2 alone; 3 -> 2.
    Adjacency adj{{1}, {0}, {}, {2}};
    const auto comp = strongly_connected_components(adj);
    EXPECT_EQ(comp[0], comp[1]);
    EXPECT_NE(comp[0], comp[2]);
    EXPECT_NE(comp[2], comp[3]);
    EXPECT_EQ(count_sccs(adj), 3);
}

TEST(Algorithms, TopologicalOrderRespectsEdges) {
    Adjacency adj{{1, 2}, {3}, {3}, {}};
    const auto order = topological_order(adj);
    ASSERT_TRUE(order.has_value());
    std::vector<int> pos(4);
    for (std::size_t k = 0; k < order->size(); ++k) pos[static_cast<std::size_t>((*order)[k])] = static_cast<int>(k);
    EXPECT_LT(pos[0], pos[1]);
    EXPECT_LT(pos[0], pos[2]);
    EXPECT_LT(pos[1], pos[3]);
    EXPECT_LT(pos[2], pos[3]);
}

TEST(Algorithms, CycleDetection) {
    EXPECT_TRUE(is_acyclic({{1}, {2}, {}}));
    EXPECT_FALSE(is_acyclic({{1}, {2}, {0}}));
    EXPECT_FALSE(is_acyclic({{0}}));  // self-loop
}

TEST(Algorithms, SimpleCyclesOnBidirectionalTriangle) {
    // Complete symmetric digraph on 3 nodes: three 2-cycles + two 3-cycles.
    Adjacency adj{{1, 2}, {0, 2}, {0, 1}};
    const auto cycles = simple_cycles(adj);
    EXPECT_EQ(cycles.size(), 5u);
}

TEST(Algorithms, SimpleCyclesFindsSelfLoops) {
    Adjacency adj{{0, 1}, {}};
    const auto cycles = simple_cycles(adj);
    ASSERT_EQ(cycles.size(), 1u);
    EXPECT_EQ(cycles[0], std::vector<int>{0});
}

TEST(Algorithms, SimpleCyclesHonorsCap) {
    Adjacency adj{{1, 2}, {0, 2}, {0, 1}};
    EXPECT_EQ(simple_cycles(adj, 2).size(), 2u);
}

TEST(Algorithms, Reachability) {
    Adjacency adj{{1}, {2}, {}, {1}};
    EXPECT_EQ(reachable_from(adj, 0), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(reachable_from(adj, 2), (std::vector<int>{2}));
}

}  // namespace
}  // namespace lf
