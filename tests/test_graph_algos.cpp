#include <gtest/gtest.h>

#include <algorithm>

#include "ir/graph_algos.h"
#include "ir/parser.h"
#include "support/rng.h"
#include "workload/kernels.h"

namespace qvliw {
namespace {

Ddg chain(int n, int latency = 1) {
  Ddg graph(n);
  for (int v = 0; v + 1 < n; ++v) graph.add_edge({v, v + 1, latency, 0, DepKind::kFlow, -1});
  return graph;
}

TEST(PositiveCycle, AcyclicNeverPositive) {
  RecurrenceCore core(chain(6, 10));
  EXPECT_TRUE(core.acyclic());
  for (int ii = 1; ii <= 4; ++ii) EXPECT_FALSE(core.has_positive_cycle(ii));
}

TEST(PositiveCycle, SelfLoopThreshold) {
  Ddg graph(1);
  graph.add_edge({0, 0, 5, 2, DepKind::kFlow, -1});  // needs II >= ceil(5/2) = 3
  RecurrenceCore core(graph);
  EXPECT_TRUE(core.has_positive_cycle(1));
  EXPECT_TRUE(core.has_positive_cycle(2));
  EXPECT_FALSE(core.has_positive_cycle(3));
  EXPECT_FALSE(core.has_positive_cycle(10));
}

TEST(PositiveCycle, LongCycleThreshold) {
  // Cycle latency 7, distance 2 -> needs II >= 4.
  Ddg graph(3);
  graph.add_edge({0, 1, 3, 0, DepKind::kFlow, -1});
  graph.add_edge({1, 2, 3, 1, DepKind::kFlow, -1});
  graph.add_edge({2, 0, 1, 1, DepKind::kFlow, -1});
  RecurrenceCore core(graph);
  EXPECT_TRUE(core.has_positive_cycle(3));
  EXPECT_FALSE(core.has_positive_cycle(4));
}

TEST(Circuits, FindsSelfLoop) {
  Ddg graph(2);
  graph.add_edge({0, 0, 4, 1, DepKind::kFlow, -1});
  const auto circuits = elementary_circuits(graph);
  ASSERT_EQ(circuits.size(), 1u);
  EXPECT_EQ(circuits[0].latency_sum, 4);
  EXPECT_EQ(circuits[0].distance_sum, 1);
  EXPECT_EQ(circuits[0].min_ii(), 4);
}

TEST(Circuits, FindsAllElementaryCircuits) {
  // Two overlapping cycles: 0->1->0 and 0->1->2->0.
  Ddg graph(3);
  graph.add_edge({0, 1, 1, 0, DepKind::kFlow, -1});
  graph.add_edge({1, 0, 1, 1, DepKind::kFlow, -1});
  graph.add_edge({1, 2, 1, 0, DepKind::kFlow, -1});
  graph.add_edge({2, 0, 1, 1, DepKind::kFlow, -1});
  const auto circuits = elementary_circuits(graph);
  EXPECT_EQ(circuits.size(), 2u);
}

TEST(Circuits, MaxCircuitsBound) {
  // Complete-ish digraph on 6 nodes has many circuits; the bound caps it.
  Ddg graph(6);
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      if (a != b) graph.add_edge({a, b, 1, 1, DepKind::kFlow, -1});
    }
  }
  const auto circuits = elementary_circuits(graph, 10);
  EXPECT_EQ(circuits.size(), 10u);
}

TEST(Circuits, RecMiiMatchesCircuitMax) {
  // On real kernels: max over circuits of min_ii == smallest feasible II.
  for (const char* name : {"dot", "rec1", "rec2", "horner", "cmul_acc", "lk5_tridiag"}) {
    const Loop loop = kernel_by_name(name);
    const Ddg graph = Ddg::build(loop, LatencyModel::classic());
    const auto circuits = elementary_circuits(graph);
    ASSERT_FALSE(circuits.empty()) << name;
    int bound = 1;
    for (const Circuit& c : circuits) bound = std::max(bound, c.min_ii());
    RecurrenceCore core(graph);
    EXPECT_TRUE(bound == 1 || core.has_positive_cycle(bound - 1)) << name;
    EXPECT_FALSE(core.has_positive_cycle(bound)) << name;
  }
}

TEST(Height, SinkIsZero) {
  const Ddg graph = chain(3, 2);
  std::vector<int> h;
  height_priority(graph, 1, h);
  EXPECT_EQ(h[2], 0);
  EXPECT_EQ(h[1], 2);
  EXPECT_EQ(h[0], 4);
}

TEST(Height, BackEdgeDiscountedByII) {
  Ddg graph(2);
  graph.add_edge({0, 1, 3, 0, DepKind::kFlow, -1});
  graph.add_edge({1, 0, 1, 1, DepKind::kFlow, -1});
  // At II=4: h(1) = max(0, h(0) + 1 - 4) = 0; h(0) = 3.
  std::vector<int> h;
  height_priority(graph, 4, h);
  EXPECT_EQ(h[1], 0);
  EXPECT_EQ(h[0], 3);
}

TEST(Height, NeverNegative) {
  const Loop loop = kernel_by_name("rec2");
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  std::vector<int> heights;
  height_priority(graph, 8, heights);
  for (int h : heights) EXPECT_GE(h, 0);
}

/// Heights by the textbook relaxation: every edge in insertion order,
/// round after round, until a round changes nothing.
std::vector<int> forward_order_heights(const Ddg& graph, int ii) {
  std::vector<int> height(static_cast<std::size_t>(graph.node_count()), 0);
  for (bool changed = true; changed;) {
    changed = false;
    for (const DepEdge& e : graph.edges()) {
      const int candidate =
          std::max(0, height[static_cast<std::size_t>(e.dst)] + e.latency - ii * e.distance);
      if (candidate > height[static_cast<std::size_t>(e.src)]) {
        height[static_cast<std::size_t>(e.src)] = candidate;
        changed = true;
      }
    }
  }
  return height;
}

// height_priority relaxes the edges last to first.  Any order reaches the
// same least fixed point; this pins it on seeded random DDGs with
// loop-carried, latency-0, self and parallel edges in shuffled order, at
// the smallest II without a positive circuit and above it.
TEST(Height, ConsumerFirstOrderMatchesForwardBellmanFord) {
  Rng rng(0x4e16477);
  int cyclic = 0;
  int raised = 0;  // graphs where some height exceeds every single edge's
  for (int g = 0; g < 400; ++g) {
    const int n = rng.uniform_int(1, 24);
    std::vector<DepEdge> edges;
    for (int i = rng.uniform_int(0, 3 * n); i > 0; --i) {
      DepEdge e;
      e.src = rng.uniform_int(0, n - 1);
      e.dst = rng.uniform_int(0, n - 1);
      e.latency = rng.uniform_int(0, 4);
      // Only forward edges may stay within one iteration, so every circuit
      // carries a distance and some II admits the graph.
      e.distance = e.src < e.dst && rng.chance(0.7) ? 0 : rng.uniform_int(1, 3);
      e.kind = rng.chance(0.8) ? DepKind::kFlow : DepKind::kMemFlow;
      edges.push_back(e);
      if (rng.chance(0.15)) edges.push_back(e);  // a parallel edge
    }
    for (int i = static_cast<int>(edges.size()) - 1; i > 0; --i) {
      std::swap(edges[static_cast<std::size_t>(i)],
                edges[static_cast<std::size_t>(rng.uniform_int(0, i))]);
    }
    Ddg graph(n);
    for (const DepEdge& e : edges) graph.add_edge(e);

    RecurrenceCore core(graph);
    int min_ii = 1;
    while (core.has_positive_cycle(min_ii)) ++min_ii;
    cyclic += core.acyclic() ? 0 : 1;
    for (const int ii : {min_ii, min_ii + 1, min_ii + 3, 2 * min_ii + 5}) {
      std::vector<int> heights;
      height_priority(graph, ii, heights);
      const std::vector<int> want = forward_order_heights(graph, ii);
      EXPECT_EQ(heights, want) << "graph " << g << " at II " << ii;
      int longest_edge = 0;
      for (const DepEdge& e : edges) longest_edge = std::max(longest_edge, e.latency);
      raised += *std::max_element(want.begin(), want.end()) > longest_edge ? 1 : 0;
    }
  }
  EXPECT_GT(cyclic, 200);
  EXPECT_GT(raised, 400);
}

}  // namespace
}  // namespace qvliw
