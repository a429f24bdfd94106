// Golden equivalence of the SoA/CSR dependence-graph mirror and the fused
// copy-insertion path against the pointer-chasing originals.
//
// DdgFlat must be a bit-faithful mirror of Ddg: identical edge ids, field
// values, and per-node adjacency order, over the workload suite (plain and
// copy-inserted forms) and under randomized latency models.  The fused
// insert_copies_with_graph must reproduce the exact loop of insert_copies
// and the exact edge list of Ddg::build on that loop — the invariant that
// lets the pipeline skip the quadratic memdep recomputation.
#include <gtest/gtest.h>

#include "ir/ddg.h"
#include "ir/parser.h"
#include "support/rng.h"
#include "workload/suite.h"
#include "xform/copy_insert.h"

namespace qvliw {
namespace {

Suite small_suite() {
  SynthConfig config;
  config.loops = 120;
  return full_suite(config);
}

/// Asserts `flat` mirrors `graph` exactly: fields, ids, adjacency order.
void expect_flat_mirrors(const Ddg& graph, const DdgFlat& flat, const std::string& name) {
  ASSERT_EQ(flat.node_count, graph.node_count()) << name;
  ASSERT_EQ(flat.edge_count(), graph.edge_count()) << name;
  for (int e = 0; e < graph.edge_count(); ++e) {
    const DepEdge& edge = graph.edge(e);
    const std::size_t i = static_cast<std::size_t>(e);
    ASSERT_EQ(flat.src[i], edge.src) << name << " edge " << e;
    ASSERT_EQ(flat.dst[i], edge.dst) << name << " edge " << e;
    ASSERT_EQ(flat.latency[i], edge.latency) << name << " edge " << e;
    ASSERT_EQ(flat.distance[i], edge.distance) << name << " edge " << e;
    ASSERT_EQ(flat.kind[i], edge.kind) << name << " edge " << e;
    ASSERT_EQ(flat.dst_arg[i], edge.dst_arg) << name << " edge " << e;
    ASSERT_EQ(flat.is_value_flow(e), edge.is_value_flow()) << name << " edge " << e;
  }
  for (int n = 0; n < graph.node_count(); ++n) {
    const std::vector<int>& out = graph.out_edges(n);
    const std::vector<int>& in = graph.in_edges(n);
    const DdgFlat::IdRange fout = flat.out(n);
    const DdgFlat::IdRange fin = flat.in(n);
    ASSERT_EQ(fout.end() - fout.begin(), static_cast<std::ptrdiff_t>(out.size()))
        << name << " node " << n;
    ASSERT_EQ(fin.end() - fin.begin(), static_cast<std::ptrdiff_t>(in.size()))
        << name << " node " << n;
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(fout.begin()[i], out[i]) << name << " node " << n << " out slot " << i;
    }
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(fin.begin()[i], in[i]) << name << " node " << n << " in slot " << i;
    }
  }
}

void expect_same_edges(const Ddg& a, const Ddg& b, const std::string& name) {
  ASSERT_EQ(a.node_count(), b.node_count()) << name;
  ASSERT_EQ(a.edge_count(), b.edge_count()) << name;
  for (int e = 0; e < a.edge_count(); ++e) {
    const DepEdge& x = a.edge(e);
    const DepEdge& y = b.edge(e);
    ASSERT_EQ(x.src, y.src) << name << " edge " << e;
    ASSERT_EQ(x.dst, y.dst) << name << " edge " << e;
    ASSERT_EQ(x.latency, y.latency) << name << " edge " << e;
    ASSERT_EQ(x.distance, y.distance) << name << " edge " << e;
    ASSERT_EQ(x.kind, y.kind) << name << " edge " << e;
    ASSERT_EQ(x.dst_arg, y.dst_arg) << name << " edge " << e;
  }
}

TEST(DdgFlat, MirrorsSuiteGraphs) {
  for (const Loop& loop : small_suite().loops) {
    const Ddg graph = Ddg::build(loop, LatencyModel::classic());
    expect_flat_mirrors(graph, DdgFlat::from(graph), loop.name);
  }
}

TEST(DdgFlat, MirrorsCopyInsertedGraphs) {
  for (const Loop& loop : small_suite().loops) {
    const Loop rewritten = insert_copies(loop).loop;
    const Ddg graph = Ddg::build(rewritten, LatencyModel::classic());
    expect_flat_mirrors(graph, DdgFlat::from(graph), loop.name);
  }
}

TEST(DdgFlat, MirrorsUnderRandomLatencyModels) {
  Rng rng(0x5eedULL);
  const Suite suite = small_suite();
  for (int trial = 0; trial < 8; ++trial) {
    LatencyModel lat = LatencyModel::classic();
    for (int& l : lat.latency) l = rng.uniform_int(1, 9);
    for (std::size_t i = trial % 7; i < suite.loops.size(); i += 7) {
      const Ddg graph = Ddg::build(suite.loops[i], lat);
      expect_flat_mirrors(graph, DdgFlat::from(graph), suite.loops[i].name);
    }
  }
}

TEST(DdgFlat, MirrorsEmptyAndSingleNodeGraphs) {
  expect_flat_mirrors(Ddg(0), DdgFlat::from(Ddg(0)), "empty");
  const Loop one = parse_loop("loop t { s = fadd s@1, 2; }");
  const Ddg graph = Ddg::build(one, LatencyModel::classic());
  expect_flat_mirrors(graph, DdgFlat::from(graph), "self-dependence");
}

TEST(BuildFrom, FusedCopyInsertMatchesColdRebuild) {
  const Suite suite = full_suite();  // the paper's 1258 loops
  for (const CopyTreeShape shape : {CopyTreeShape::kBalanced, CopyTreeShape::kChain}) {
    for (const Loop& loop : suite.loops) {
      const CopyInsertResult cold = insert_copies(loop, shape);
      const Ddg cold_graph = Ddg::build(cold.loop, LatencyModel::classic());
      const CopyInsertWithGraph fused =
          insert_copies_with_graph(loop, LatencyModel::classic(), shape);
      ASSERT_EQ(fused.rewrite.loop.content_hash(), cold.loop.content_hash()) << loop.name;
      ASSERT_EQ(fused.rewrite.copies_added, cold.copies_added) << loop.name;
      ASSERT_EQ(fused.rewrite.op_map, cold.op_map) << loop.name;
      expect_same_edges(cold_graph, fused.graph, loop.name);
    }
  }
}

TEST(BuildFrom, MatchesBuildOnUntouchedLoop) {
  // build_from with the memdeps build() itself would compute must agree
  // with build() — exercised here through the fused path on loops that
  // need no copies at all (op_map is the identity, memdeps map to
  // themselves).
  const Loop loop = parse_loop(
      "loop t { x = load X[i]; y = fmul x, 3; store Y[i], y; s = fadd s@1, 2; }");
  ASSERT_TRUE(fanout_legal(loop));
  const CopyInsertWithGraph fused = insert_copies_with_graph(loop, LatencyModel::classic());
  ASSERT_EQ(fused.rewrite.copies_added, 0);
  expect_same_edges(Ddg::build(loop, LatencyModel::classic()), fused.graph, loop.name);
}

}  // namespace
}  // namespace qvliw
