#include <gtest/gtest.h>

#include "ir/parser.h"
#include "sim/eval.h"
#include "sim/interp.h"
#include "sim/memory.h"
#include "support/diagnostics.h"
#include "workload/kernels.h"

namespace qvliw {
namespace {

TEST(Eval, ArithmeticSemantics) {
  EXPECT_EQ(eval_arith(Opcode::kAdd, 2, 3), 5);
  EXPECT_EQ(eval_arith(Opcode::kSub, 2, 3), -1);
  EXPECT_EQ(eval_arith(Opcode::kMul, -4, 3), -12);
  EXPECT_EQ(eval_arith(Opcode::kDiv, 7, 2), 3);
  EXPECT_EQ(eval_arith(Opcode::kDiv, 7, 0), 0);  // guarded
  EXPECT_EQ(eval_arith(Opcode::kDiv, std::numeric_limits<std::int64_t>::min(), -1),
            std::numeric_limits<std::int64_t>::min());
  // Float flavours share integer semantics.
  EXPECT_EQ(eval_arith(Opcode::kFAdd, 2, 3), eval_arith(Opcode::kAdd, 2, 3));
  EXPECT_EQ(eval_arith(Opcode::kFMul, 5, 7), eval_arith(Opcode::kMul, 5, 7));
  EXPECT_THROW((void)eval_arith(Opcode::kLoad, 1, 2), Error);
}

TEST(Eval, WrappingIsDefined) {
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(eval_arith(Opcode::kAdd, big, 1), std::numeric_limits<std::int64_t>::min());
}

TEST(Eval, DeterministicInits) {
  EXPECT_EQ(initial_array_value(1, 0, 5), initial_array_value(1, 0, 5));
  EXPECT_NE(initial_array_value(1, 0, 5), initial_array_value(1, 0, 6));
  EXPECT_NE(initial_array_value(1, 0, 5), initial_array_value(2, 0, 5));
  EXPECT_EQ(invariant_value(9, 1), invariant_value(9, 1));
  EXPECT_NE(invariant_value(9, 1), invariant_value(9, 2));
}

TEST(Memory, LoadStoreRoundTrip) {
  MemoryImage mem(2, 100, 42);
  mem.store(1, 50, 12345);
  EXPECT_EQ(mem.load(1, 50), 12345);
  // Pads are addressable on both sides.
  mem.store(0, -3, 7);
  EXPECT_EQ(mem.load(0, -3), 7);
  mem.store(0, 100 + 10, 8);
  EXPECT_EQ(mem.load(0, 110), 8);
  EXPECT_THROW((void)mem.load(0, -MemoryImage::kPad - 1), Error);
  // An array out of range throws on both sides before anything is indexed.
  EXPECT_THROW((void)mem.load(2, 0), Error);
  EXPECT_THROW((void)mem.load(-1, 0), Error);
  EXPECT_THROW(mem.store(2, 0, 1), Error);
  EXPECT_THROW(mem.store(-1, 0, 1), Error);
}

TEST(Memory, EqualityAndDifference) {
  MemoryImage a(1, 50, 7);
  MemoryImage b(1, 50, 7);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.first_difference(b).first, -1);
  b.store(0, 13, 999999);
  EXPECT_FALSE(a == b);
  const auto [array, index] = a.first_difference(b);
  EXPECT_EQ(array, 0);
  EXPECT_EQ(index, 13);
}

TEST(Interp, VcopyMovesData) {
  const Loop loop = kernel_by_name("vcopy");
  const InterpResult r = interpret(loop, 10, 3);
  for (long long i = 0; i < 10; ++i) {
    EXPECT_EQ(r.memory.load(1, i), initial_array_value(3, 0, i)) << i;
  }
  EXPECT_EQ(r.ops_executed, 2 * 10);
}

TEST(Interp, DaxpyComputes) {
  const Loop loop = kernel_by_name("daxpy");
  const std::uint64_t seed = 11;
  const InterpResult r = interpret(loop, 8, seed);
  const std::int64_t a = invariant_value(seed, 0);
  for (long long i = 0; i < 8; ++i) {
    const std::int64_t x = initial_array_value(seed, 0, i);
    const std::int64_t y = initial_array_value(seed, 1, i);
    EXPECT_EQ(r.memory.load(1, i), eval_arith(Opcode::kAdd, eval_arith(Opcode::kMul, x, a), y));
  }
}

TEST(Interp, AccumulatorStartsAtZero) {
  const Loop loop = parse_loop("loop t { x = load X[i]; acc = fadd acc@1, x; store Y[i], acc; }");
  const InterpResult r = interpret(loop, 4, 5);
  std::int64_t acc = 0;
  for (long long i = 0; i < 4; ++i) {
    acc = eval_arith(Opcode::kAdd, acc, initial_array_value(5, 0, i));
    EXPECT_EQ(r.memory.load(1, i), acc) << i;
  }
}

TEST(Interp, DeepHistory) {
  const Loop loop = parse_loop("loop t { x = load X[i]; s = fadd x@3, 1; store Y[i], s; }");
  const InterpResult r = interpret(loop, 6, 9);
  for (long long i = 0; i < 6; ++i) {
    const std::int64_t expected =
        i >= 3 ? initial_array_value(9, 0, i - 3) + 1 : 1;  // init history is 0
    EXPECT_EQ(r.memory.load(1, i), expected) << i;
  }
}

TEST(Interp, IndexOperand) {
  const Loop loop = parse_loop("loop t { s = add i+2, 10; store Y[i], s; }");
  const InterpResult r = interpret(loop, 5, 1);
  for (long long i = 0; i < 5; ++i) EXPECT_EQ(r.memory.load(0, i), i + 12);
}

TEST(Interp, StrideScalesIndexAndMemory) {
  Loop loop = parse_loop("loop t { stride 2; s = add i, 0; store Y[i], s; }");
  const InterpResult r = interpret(loop, 5, 1);
  for (long long j = 0; j < 5; ++j) EXPECT_EQ(r.memory.load(0, 2 * j), 2 * j);
}

TEST(Interp, MemoryCarriedRecurrence) {
  const Loop loop = kernel_by_name("lk11_partial_sum");
  const std::uint64_t seed = 13;
  const InterpResult r = interpret(loop, 6, seed);
  // x[k] = x[k-1] + y[k]; x[-1] is the initial pad value.
  std::int64_t prev = initial_array_value(seed, 0, -1);
  for (long long k = 0; k < 6; ++k) {
    prev = eval_arith(Opcode::kAdd, prev, initial_array_value(seed, 1, k));
    EXPECT_EQ(r.memory.load(0, k), prev) << k;
  }
}

TEST(Interp, SameSeedSameResult) {
  const Loop loop = kernel_by_name("cmul_acc");
  const InterpResult a = interpret(loop, 20, 123);
  const InterpResult b = interpret(loop, 20, 123);
  EXPECT_TRUE(a.memory == b.memory);
  const InterpResult c = interpret(loop, 20, 124);
  EXPECT_FALSE(a.memory == c.memory);
}

TEST(Interp, WholeCorpusRuns) {
  for (const Loop& loop : kernel_corpus()) {
    EXPECT_NO_THROW((void)interpret(loop, 16, 0xfeed)) << loop.name;
  }
}

TEST(Interp, TripValidation) {
  const Loop loop = kernel_by_name("vcopy");
  EXPECT_THROW((void)interpret(loop, 0, 1), Error);
}

}  // namespace
}  // namespace qvliw
