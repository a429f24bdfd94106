#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ir/ddg.h"
#include "ir/parser.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "workload/kernels.h"
#include "workload/suite.h"
#include "xform/copy_insert.h"

namespace qvliw {
namespace {

Suite suite_120() {
  SynthConfig config;
  config.loops = 120;
  return full_suite(config);
}

/// Asserts that out_edges(n) and in_edges(n) list exactly the ids of the
/// edges with source / destination n, in ascending order.
void expect_adjacency_lists_edges(const Ddg& graph, const std::string& name) {
  const auto n = static_cast<std::size_t>(graph.node_count());
  std::vector<std::vector<int>> out(n);
  std::vector<std::vector<int>> in(n);
  for (int e = 0; e < graph.edge_count(); ++e) {
    out[static_cast<std::size_t>(graph.edge(e).src)].push_back(e);
    in[static_cast<std::size_t>(graph.edge(e).dst)].push_back(e);
  }
  for (int v = 0; v < graph.node_count(); ++v) {
    const std::span<const int> got_out = graph.out_edges(v);
    const std::span<const int> got_in = graph.in_edges(v);
    ASSERT_EQ(std::vector<int>(got_out.begin(), got_out.end()), out[static_cast<std::size_t>(v)])
        << name << " node " << v;
    ASSERT_EQ(std::vector<int>(got_in.begin(), got_in.end()), in[static_cast<std::size_t>(v)])
        << name << " node " << v;
  }
}

TEST(Ddg, FlowEdgesFromOperands) {
  const Loop loop = parse_loop("loop t { x = load X[i]; s = fadd x, x; store Y[i], s; }");
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  EXPECT_EQ(graph.node_count(), 3);
  int flow_edges = 0;
  for (const DepEdge& e : graph.edges()) {
    if (e.is_value_flow()) ++flow_edges;
  }
  EXPECT_EQ(flow_edges, 3);  // x twice into fadd, s into store
}

TEST(Ddg, FlowEdgeCarriesProducerLatency) {
  const Loop loop = parse_loop("loop t { x = load X[i]; s = fmul x, 3; store Y[i], s; }");
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  for (const DepEdge& e : graph.edges()) {
    if (!e.is_value_flow()) continue;
    if (e.src == 0) {
      EXPECT_EQ(e.latency, 2);  // load latency
    }
    if (e.src == 1) {
      EXPECT_EQ(e.latency, 3);  // fmul latency
    }
  }
}

TEST(Ddg, FlowEdgeRecordsConsumerArgSlot) {
  const Loop loop = parse_loop("loop t { x = load X[i]; y = load Y[i]; s = fadd y, x; store Z[i], s; }");
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  for (const DepEdge& e : graph.edges()) {
    if (!e.is_value_flow() || e.dst != 2) continue;
    if (e.src == 1) {
      EXPECT_EQ(e.dst_arg, 0);
    }
    if (e.src == 0) {
      EXPECT_EQ(e.dst_arg, 1);
    }
  }
}

TEST(Ddg, DistanceFromOperand) {
  const Loop loop = parse_loop("loop t { x = load X[i]; acc = fadd acc@1, x; store Y[i], acc; }");
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  bool found_self = false;
  for (const DepEdge& e : graph.edges()) {
    if (e.src == 1 && e.dst == 1) {
      found_self = true;
      EXPECT_EQ(e.distance, 1);
      EXPECT_EQ(e.latency, 2);  // fadd
    }
  }
  EXPECT_TRUE(found_self);
}

TEST(Ddg, MemoryEdgesIncluded) {
  const Loop loop = kernel_by_name("lk5_tridiag");
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  bool found_mem_flow = false;
  for (const DepEdge& e : graph.edges()) {
    if (e.kind == DepKind::kMemFlow) {
      found_mem_flow = true;
      EXPECT_EQ(e.latency, 1);
      EXPECT_EQ(e.distance, 1);
    }
  }
  EXPECT_TRUE(found_mem_flow);
}

TEST(Ddg, AdjacencyListsEveryEdgeAscendingOnSuite) {
  for (const Loop& loop : suite_120().loops) {
    expect_adjacency_lists_edges(Ddg::build(loop, LatencyModel::classic()), loop.name);
  }
}

TEST(Ddg, AdjacencyListsEveryEdgeAscendingAfterCopyInsertion) {
  for (const Loop& loop : suite_120().loops) {
    const Loop rewritten = insert_copies(loop).loop;
    expect_adjacency_lists_edges(Ddg::build(rewritten, LatencyModel::classic()), loop.name);
  }
}

TEST(Ddg, AdjacencyListsEveryEdgeAscendingUnderRandomLatencies) {
  Rng rng(0x5eedULL);
  const Suite suite = suite_120();
  for (int trial = 0; trial < 8; ++trial) {
    LatencyModel lat = LatencyModel::classic();
    for (int& l : lat.latency) l = rng.uniform_int(0, 9);
    for (std::size_t i = static_cast<std::size_t>(trial) % 7; i < suite.loops.size(); i += 7) {
      expect_adjacency_lists_edges(Ddg::build(suite.loops[i], lat), suite.loops[i].name);
    }
  }
}

TEST(Ddg, AddEdgeKeepsAdjacencyCompleteAndAscending) {
  // Sources and destinations out of order, a self-loop and parallel edges.
  Ddg graph(4);
  const std::vector<DepEdge> edges = {
      {3, 0, 1, 1, DepKind::kFlow, 0},     {0, 3, 2, 0, DepKind::kFlow, 0},
      {2, 2, 1, 1, DepKind::kFlow, 0},     {0, 1, 1, 0, DepKind::kMemFlow, -1},
      {3, 0, 4, 2, DepKind::kMemAnti, -1}, {1, 2, 0, 0, DepKind::kFlow, 1},
  };
  for (const DepEdge& edge : edges) {
    graph.add_edge(edge);
    expect_adjacency_lists_edges(graph, "hand-built");
  }
  EXPECT_EQ(std::vector<int>(graph.out_edges(3).begin(), graph.out_edges(3).end()),
            (std::vector<int>{0, 4}));
  EXPECT_EQ(std::vector<int>(graph.in_edges(2).begin(), graph.in_edges(2).end()),
            (std::vector<int>{2, 5}));
  EXPECT_THROW((void)graph.out_edges(4), Error);
  EXPECT_THROW((void)graph.in_edges(-1), Error);
}

TEST(Ddg, EmptyGraph) {
  const Ddg graph(0);
  EXPECT_EQ(graph.node_count(), 0);
  EXPECT_EQ(graph.edge_count(), 0);
}

TEST(Ddg, AddEdgeValidation) {
  Ddg graph(2);
  EXPECT_THROW(graph.add_edge({0, 5, 1, 0, DepKind::kFlow, -1}), Error);
  EXPECT_THROW(graph.add_edge({0, 1, -1, 0, DepKind::kFlow, -1}), Error);
  EXPECT_THROW(graph.add_edge({0, 1, 1, -2, DepKind::kFlow, -1}), Error);
  EXPECT_NO_THROW(graph.add_edge({0, 1, 1, 0, DepKind::kFlow, -1}));
}

TEST(Ddg, DepKindNames) {
  EXPECT_EQ(dep_kind_name(DepKind::kFlow), "flow");
  EXPECT_EQ(dep_kind_name(DepKind::kMemAnti), "mem-anti");
}

TEST(Ddg, CorpusBuildsEverywhere) {
  for (const Loop& loop : kernel_corpus()) {
    EXPECT_NO_THROW({
      const Ddg graph = Ddg::build(loop, LatencyModel::classic());
      EXPECT_EQ(graph.node_count(), loop.op_count());
    }) << loop.name;
  }
}

}  // namespace
}  // namespace qvliw
