#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ir/parser.h"
#include "sim/interp.h"
#include "workload/kernels.h"
#include "workload/synth.h"
#include "xform/copy_insert.h"

namespace qvliw {
namespace {

TEST(CopyInsert, SingleUseUntouched) {
  const Loop loop = parse_loop("loop t { x = load X[i]; store Y[i], x; }");
  const CopyInsertResult r = insert_copies(loop);
  EXPECT_EQ(r.copies_added, 0);
  EXPECT_EQ(r.loop.op_count(), 2);
}

TEST(CopyInsert, TwoUsesCostOneCopy) {
  const Loop loop = parse_loop("loop t { x = load X[i]; s = fmul x, x; store Y[i], s; }");
  const CopyInsertResult r = insert_copies(loop);
  EXPECT_EQ(r.copies_added, 1);
  EXPECT_TRUE(fanout_legal(r.loop));
  // The multiply must now read two different values (the copy's two slots).
  const int mul = r.loop.find_value("s");
  ASSERT_GE(mul, 0);
  const Op& op = r.loop.ops[static_cast<std::size_t>(mul)];
  EXPECT_TRUE(op.args[0].is_value());
  EXPECT_TRUE(op.args[1].is_value());
}

TEST(CopyInsert, NUsesCostNMinusOneCopies) {
  // x used 4 times -> 3 copies; 8 times -> 7 copies.
  const Loop four = parse_loop(
      "loop t { x = load X[i]; a = fadd x, x; b = fadd x, x; store Y[i], a; store Z[i], b; }");
  EXPECT_EQ(insert_copies(four).copies_added, 3);
  const Loop fir8 = kernel_by_name("fir8");  // x used 8 times
  const CopyInsertResult r = insert_copies(fir8);
  // fir8 also has multi-use sums; x alone accounts for 7.
  EXPECT_GE(r.copies_added, 7);
  EXPECT_TRUE(fanout_legal(r.loop));
}

TEST(CopyInsert, IdempotentOnConformingLoops) {
  const Loop loop = insert_copies(kernel_by_name("fir4")).loop;
  const CopyInsertResult again = insert_copies(loop);
  EXPECT_EQ(again.copies_added, 0);
  EXPECT_EQ(again.loop.op_count(), loop.op_count());
}

TEST(CopyInsert, FanoutLegalAfterInsertionOnWholeCorpus) {
  for (const Loop& loop : kernel_corpus()) {
    const CopyInsertResult r = insert_copies(loop);
    EXPECT_TRUE(fanout_legal(r.loop)) << loop.name;
    EXPECT_NO_THROW(r.loop.validate()) << loop.name;
  }
}

TEST(CopyInsert, FanoutLegalDetectsViolations) {
  const Loop loop = parse_loop("loop t { x = load X[i]; s = fmul x, x; store Y[i], s; }");
  EXPECT_FALSE(fanout_legal(loop));
  EXPECT_TRUE(fanout_legal(insert_copies(loop).loop));
}

TEST(CopyInsert, CopyValuesMayFeedTwo) {
  const Loop loop = parse_loop("loop t { x = load X[i]; c = copy x; a = fadd c, 1; b = fadd c, 2; store Y[i], a; store Z[i], b; }");
  EXPECT_TRUE(fanout_legal(loop));
  EXPECT_EQ(insert_copies(loop).copies_added, 0);
}

TEST(CopyInsert, PreservesSemanticsOnCorpus) {
  for (const Loop& loop : kernel_corpus()) {
    const CopyInsertResult r = insert_copies(loop);
    const long long trip = 24;
    const InterpResult before = interpret(loop, trip, 0xabcd);
    const InterpResult after = interpret(r.loop, trip, 0xabcd);
    EXPECT_TRUE(before.memory == after.memory) << loop.name;
  }
}

TEST(CopyInsert, PreservesSemanticsOnSyntheticLoops) {
  SynthConfig config;
  config.loops = 30;
  config.seed = 4242;
  for (const Loop& loop : synthesize_suite(config)) {
    const CopyInsertResult r = insert_copies(loop);
    EXPECT_TRUE(fanout_legal(r.loop)) << loop.name;
    const InterpResult before = interpret(loop, 16, 7);
    const InterpResult after = interpret(r.loop, 16, 7);
    EXPECT_TRUE(before.memory == after.memory) << loop.name;
  }
}

TEST(CopyInsert, ChainShapePreservesSemantics) {
  for (const char* name : {"fir8", "stencil3_reuse", "correl"}) {
    const Loop loop = kernel_by_name(name);
    const CopyInsertResult balanced = insert_copies(loop, CopyTreeShape::kBalanced);
    const CopyInsertResult chain = insert_copies(loop, CopyTreeShape::kChain);
    EXPECT_EQ(balanced.copies_added, chain.copies_added) << name;  // same count, different shape
    const InterpResult a = interpret(balanced.loop, 20, 3);
    const InterpResult b = interpret(chain.loop, 20, 3);
    EXPECT_TRUE(a.memory == b.memory) << name;
  }
}

TEST(CopyInsert, BalancedTreeShallowerThanChain) {
  // With 8 uses, the balanced tree should give the consumers shorter
  // copy-depth than the chain: compare the maximum chain length from the
  // producer to any consumer (count of copy hops).
  const Loop loop = kernel_by_name("fir8");
  auto max_copy_depth = [](const Loop& l) {
    // Depth of each copy op above the original producer.
    std::vector<int> depth(static_cast<std::size_t>(l.op_count()), 0);
    int deepest = 0;
    for (int v = 0; v < l.op_count(); ++v) {
      const Op& op = l.ops[static_cast<std::size_t>(v)];
      if (op.opcode != Opcode::kCopy) continue;
      const int src = op.args[0].value_op;
      depth[static_cast<std::size_t>(v)] = depth[static_cast<std::size_t>(src)] + 1;
      deepest = std::max(deepest, depth[static_cast<std::size_t>(v)]);
    }
    return deepest;
  };
  const int balanced = max_copy_depth(insert_copies(loop, CopyTreeShape::kBalanced).loop);
  const int chain = max_copy_depth(insert_copies(loop, CopyTreeShape::kChain).loop);
  EXPECT_LT(balanced, chain);
}

TEST(CopyInsert, LoopCarriedUsesKeepDistance) {
  const Loop loop = parse_loop("loop t { x = load X[i]; acc = fadd acc@1, x; store Y[i], acc; }");
  const CopyInsertResult r = insert_copies(loop);
  EXPECT_EQ(r.copies_added, 1);
  // Verify semantics (accumulator behaviour intact).
  const InterpResult before = interpret(loop, 12, 5);
  const InterpResult after = interpret(r.loop, 12, 5);
  EXPECT_TRUE(before.memory == after.memory);
}

TEST(CopyInsert, FreshNamesSkipTakenNames) {
  // x's copies would be x_c0, x_c1 and x_c2, but the source already
  // defines x_c0 and x_c1 and their first fallbacks x_c0_0 and x_c1_0.
  const Loop loop = parse_loop(
      "loop t { x = load X[i]; x_c0 = load A[i]; x_c1 = load B[i]; x_c0_0 = load C[i];"
      " x_c1_0 = load D[i]; a = fadd x, x_c0; b = fadd x, x_c1; c = fadd x, x_c0_0;"
      " d = fadd x, x_c1_0; store Y[i], a; store Z[i], b; store W[i], c; store V[i], d; }");
  for (const CopyTreeShape shape : {CopyTreeShape::kBalanced, CopyTreeShape::kChain}) {
    const CopyInsertResult r = insert_copies(loop, shape);
    std::vector<std::string> copies;
    for (const Op& op : r.loop.ops) {
      if (op.opcode == Opcode::kCopy) copies.push_back(op.name);
    }
    EXPECT_EQ(copies, (std::vector<std::string>{"x_c0_1", "x_c1_1", "x_c2"}));
  }
}

TEST(CopyInsert, OpMapTracksOriginals) {
  const Loop loop = kernel_by_name("norm2");
  const CopyInsertResult r = insert_copies(loop);
  ASSERT_EQ(r.op_map.size(), static_cast<std::size_t>(loop.op_count()));
  for (int v = 0; v < loop.op_count(); ++v) {
    const int mapped = r.op_map[static_cast<std::size_t>(v)];
    ASSERT_GE(mapped, 0);
    EXPECT_EQ(loop.ops[static_cast<std::size_t>(v)].opcode,
              r.loop.ops[static_cast<std::size_t>(mapped)].opcode);
  }
}

}  // namespace
}  // namespace qvliw
