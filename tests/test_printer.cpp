#include <gtest/gtest.h>

#include "ir/parser.h"
#include "ir/printer.h"
#include "workload/suite.h"

namespace qvliw {
namespace {

/// Structural equality good enough for round-trip checks.
void expect_same_loop(const Loop& a, const Loop& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.stride, b.stride);
  EXPECT_EQ(a.trip_hint, b.trip_hint);
  EXPECT_EQ(a.invariants, b.invariants);
  EXPECT_EQ(a.arrays, b.arrays);
  ASSERT_EQ(a.op_count(), b.op_count());
  for (int v = 0; v < a.op_count(); ++v) {
    const Op& oa = a.ops[static_cast<std::size_t>(v)];
    const Op& ob = b.ops[static_cast<std::size_t>(v)];
    EXPECT_EQ(oa.opcode, ob.opcode) << "op " << v;
    EXPECT_EQ(oa.name, ob.name) << "op " << v;
    EXPECT_EQ(oa.array, ob.array) << "op " << v;
    EXPECT_EQ(oa.mem_offset, ob.mem_offset) << "op " << v;
    ASSERT_EQ(oa.args.size(), ob.args.size()) << "op " << v;
    for (std::size_t k = 0; k < oa.args.size(); ++k) {
      EXPECT_EQ(oa.args[k], ob.args[k]) << "op " << v << " arg " << k;
    }
  }
}

TEST(Printer, OperandText) {
  const Loop loop = parse_loop(
      "loop t { invariant a; x = load X[i]; s = fadd s@2, x; u = fmul s, a; w = add i+3, 7; "
      "store Y[i], u; }");
  EXPECT_EQ(operand_text(loop, loop.ops[1].args[0]), "s@2");
  EXPECT_EQ(operand_text(loop, loop.ops[1].args[1]), "x");
  EXPECT_EQ(operand_text(loop, loop.ops[2].args[1]), "a");
  EXPECT_EQ(operand_text(loop, loop.ops[3].args[0]), "i+3");
  EXPECT_EQ(operand_text(loop, loop.ops[3].args[1]), "7");
}

TEST(Printer, OpText) {
  const Loop loop = parse_loop("loop t { x = load X[i-1]; store Y[i+2], x; }");
  EXPECT_EQ(op_text(loop, loop.ops[0]), "x = load X[i-1]");
  EXPECT_EQ(op_text(loop, loop.ops[1]), "store Y[i+2], x");
}

TEST(Printer, RoundTripSimple) {
  const Loop loop = parse_loop(
      "loop t { invariant a, b; trip 77; x = load X[i]; s = fmul x, a; acc = fadd acc@1, s; "
      "store Y[i], acc; }");
  const Loop again = parse_loop(to_text(loop));
  expect_same_loop(loop, again);
}

TEST(Printer, RoundTripWithStride) {
  Loop loop = parse_loop("loop t { trip 64; stride 4; x = load X[i]; store Y[i], x; }");
  const Loop again = parse_loop(to_text(loop));
  expect_same_loop(loop, again);
}

TEST(Printer, RoundTripEntireCorpus) {
  // The whole paper suite: synthetic loops name their arrays out of
  // first-use order, so the printed array declaration must keep the ids.
  for (const Loop& loop : full_suite().loops) {
    const Loop again = parse_loop(to_text(loop));
    expect_same_loop(loop, again);
    EXPECT_EQ(again.content_hash(), loop.content_hash()) << loop.name;
  }
}

}  // namespace
}  // namespace qvliw
