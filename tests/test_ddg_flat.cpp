// Golden equivalence of the fused copy-insertion path against a cold
// rebuild of the dependence graph.
//
// The fused insert_copies_with_graph must reproduce the exact loop of
// insert_copies and the exact edge list of Ddg::build on that loop — the
// invariant that lets the pipeline skip the quadratic memdep recomputation.
// Ddg's CSR adjacency is filled from that edge list, so equal edge lists
// give equal out_edges/in_edges; test_ddg checks the adjacency itself.
#include <gtest/gtest.h>

#include "ir/ddg.h"
#include "ir/parser.h"
#include "workload/suite.h"
#include "xform/copy_insert.h"

namespace qvliw {
namespace {

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
