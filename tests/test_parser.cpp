#include <gtest/gtest.h>

#include <exception>
#include <string>

#include "ir/parser.h"
#include "ir/printer.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "workload/kernels.h"

namespace qvliw {
namespace {

TEST(Parser, MinimalLoop) {
  const Loop loop = parse_loop("loop t { x = load X[i]; store Y[i], x; }");
  EXPECT_EQ(loop.name, "t");
  ASSERT_EQ(loop.op_count(), 2);
  EXPECT_EQ(loop.ops[0].opcode, Opcode::kLoad);
  EXPECT_EQ(loop.ops[0].name, "x");
  EXPECT_EQ(loop.ops[1].opcode, Opcode::kStore);
  EXPECT_EQ(loop.arrays.size(), 2u);
}

TEST(Parser, CommentsAndWhitespace) {
  const Loop loop = parse_loop(R"(
    # leading comment
    loop t {   # trailing comment
      x = load X[i];  # another
      store Y[i], x;
    }
  )");
  EXPECT_EQ(loop.op_count(), 2);
}

TEST(Parser, MemoryOffsets) {
  const Loop loop = parse_loop("loop t { a = load X[i+3]; b = load X[i-2]; store Y[i], a; store Z[i+1], b; }");
  EXPECT_EQ(loop.ops[0].mem_offset, 3);
  EXPECT_EQ(loop.ops[1].mem_offset, -2);
  EXPECT_EQ(loop.ops[3].mem_offset, 1);
}

TEST(Parser, Distances) {
  const Loop loop = parse_loop("loop t { x = load X[i]; acc = fadd acc@1, x; store Y[i], acc; }");
  EXPECT_EQ(loop.ops[1].args[0].value_op, 1);
  EXPECT_EQ(loop.ops[1].args[0].distance, 1);
  EXPECT_EQ(loop.ops[1].args[1].value_op, 0);
  EXPECT_EQ(loop.ops[1].args[1].distance, 0);
}

TEST(Parser, ForwardReferenceWithDistance) {
  const Loop loop = parse_loop("loop t { a = fadd b@2, 1; b = fadd a, 2; store X[i], b; }");
  EXPECT_EQ(loop.ops[0].args[0].value_op, 1);
  EXPECT_EQ(loop.ops[0].args[0].distance, 2);
}

TEST(Parser, Invariants) {
  const Loop loop = parse_loop("loop t { invariant a, b; x = load X[i]; s = fmul x, a; t2 = fadd s, b; store Y[i], t2; }");
  ASSERT_EQ(loop.invariants.size(), 2u);
  EXPECT_EQ(loop.ops[1].args[1].kind, Operand::Kind::kInvariant);
  EXPECT_EQ(loop.ops[1].args[1].invariant, 0);
  EXPECT_EQ(loop.ops[2].args[1].invariant, 1);
}

TEST(Parser, Immediates) {
  const Loop loop = parse_loop("loop t { x = load X[i]; s = add x, 5; u = sub s, -3; store Y[i], u; }");
  EXPECT_EQ(loop.ops[1].args[1].imm, 5);
  EXPECT_EQ(loop.ops[2].args[1].imm, -3);
}

TEST(Parser, IndexOperands) {
  const Loop loop = parse_loop("loop t { a = add i, 1; b = add i+2, a; c = mul i-3, b; store X[i], c; }");
  EXPECT_EQ(loop.ops[0].args[0].kind, Operand::Kind::kIndex);
  EXPECT_EQ(loop.ops[0].args[0].index_offset, 0);
  EXPECT_EQ(loop.ops[1].args[0].index_offset, 2);
  EXPECT_EQ(loop.ops[2].args[0].index_offset, -3);
}

TEST(Parser, TripAndStride) {
  const Loop loop = parse_loop("loop t { trip 64; stride 2; x = load X[i]; store Y[i], x; }");
  EXPECT_EQ(loop.trip_hint, 64);
  EXPECT_EQ(loop.stride, 2);
}

TEST(Parser, ArrayDeclaration) {
  const Loop loop = parse_loop("loop t { array P, Q; x = load P[i]; store Q[i], x; }");
  EXPECT_EQ(loop.arrays.size(), 2u);
  EXPECT_EQ(loop.arrays[0], "P");
}

TEST(Parser, MultipleLoops) {
  const auto loops = parse_loops(
      "loop a { x = load X[i]; store Y[i], x; }"
      "loop b { y = load P[i]; store Q[i], y; }");
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_EQ(loops[0].name, "a");
  EXPECT_EQ(loops[1].name, "b");
}

TEST(Parser, CopyAndMoveOpcodes) {
  const Loop loop = parse_loop("loop t { x = load X[i]; c = copy x; m = move c; store Y[i], m; }");
  EXPECT_EQ(loop.ops[1].opcode, Opcode::kCopy);
  EXPECT_EQ(loop.ops[2].opcode, Opcode::kMove);
}

// --- error cases ------------------------------------------------------------

TEST(ParserErrors, UndefinedName) {
  EXPECT_THROW((void)parse_loop("loop t { s = add ghost, 1; store X[i], s; }"), Error);
}

TEST(ParserErrors, DuplicateName) {
  try {
    (void)parse_loop("loop t { x = load X[i]; x = load Y[i]; store Z[i], x; }");
    ADD_FAILURE() << "a duplicate value name parsed";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(), "parse error at line 1: duplicate value name 'x'");
  }
}

TEST(ParserErrors, InvariantWithDistance) {
  EXPECT_THROW((void)parse_loop("loop t { invariant a; s = add a@1, 1; store X[i], s; }"), Error);
}

TEST(ParserErrors, ReservedIndexName) {
  EXPECT_THROW((void)parse_loop("loop t { i = add 1, 2; store X[i], i; }"), Error);
}

TEST(ParserErrors, UnknownOpcode) {
  EXPECT_THROW((void)parse_loop("loop t { x = frobnicate 1, 2; store X[i], x; }"), Error);
}

TEST(ParserErrors, StoreDefiningValue) {
  EXPECT_THROW((void)parse_loop("loop t { x = store X[i], 1; }"), Error);
}

TEST(ParserErrors, MissingSemicolon) {
  EXPECT_THROW((void)parse_loop("loop t { x = load X[i] store Y[i], x; }"), Error);
}

TEST(ParserErrors, MissingBrace) {
  EXPECT_THROW((void)parse_loop("loop t { x = load X[i];"), Error);
}

TEST(ParserErrors, TrailingGarbage) {
  EXPECT_THROW((void)parse_loop("loop t { x = load X[i]; store Y[i], x; } extra"), Error);
}

TEST(ParserErrors, EmptyInput) { EXPECT_THROW((void)parse_loops(""), Error); }

TEST(ParserErrors, ErrorMentionsLine) {
  try {
    (void)parse_loop("loop t {\n  x = load X[i];\n  s = add ghost, 1;\n store X[i], s; }");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(ParserErrors, BadIndexExpression) {
  EXPECT_THROW((void)parse_loop("loop t { x = load X[j]; store Y[i], x; }"), Error);
}

TEST(ParserErrors, LoadWithDistanceZeroForwardUse) {
  // Distance-0 use before definition must be rejected by validation.
  EXPECT_THROW((void)parse_loop("loop t { s = add x, 1; x = load X[i]; store Y[i], s; }"), Error);
}

// Literals that do not fit their field used to wrap silently (the int
// fields) or escape as std::out_of_range (anything past int64).  Each
// must be a parse error naming the literal's line and column.
TEST(ParserErrors, OutOfRangeNumbersRejectedWithPosition) {
  const struct {
    const char* text;
    const char* literal;
    const char* says;
  } cases[] = {
      {"loop t {\n  acc = fadd acc@4294967297, 1;\n  store Y[i], acc;\n}", "4294967297",
       "distance does not fit in an int"},
      {"loop t {\n  x = load X[i+4294967299];\n  store Y[i], x;\n}", "4294967299",
       "index offset does not fit in an int"},
      {"loop t {\n  trip 4294967297;\n  x = load X[i];\n  store Y[i], x;\n}", "4294967297",
       "trip count does not fit in an int"},
      {"loop t {\n  s = add 1, 12345678901234567890;\n  store Y[i], s;\n}",
       "12345678901234567890", "immediate does not fit in 64 bits"},
  };
  for (const auto& c : cases) {
    const std::string text = c.text;
    const std::size_t at = text.find(c.literal);
    const std::size_t line_start = text.rfind('\n', at) + 1;
    const std::string where = cat("line 2, column ", at - line_start + 1, ": ", c.says);
    try {
      (void)parse_loop(text);
      ADD_FAILURE() << c.literal << " parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos) << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.literal << ": threw a non-Error " << e.what();
    }
  }
  // The largest literals that fit still parse.
  const Loop loop = parse_loop(
      "loop t { trip 2147483647; s = add -9223372036854775807, 9223372036854775807; "
      "store Y[i], s; }");
  EXPECT_EQ(loop.trip_hint, 2147483647);
}

// Deterministic mutation sweep over the DSL parser, modelled on
// VerifyCodec.BundleRejectsCorruption: every truncation, and every
// single-byte XOR with 0x01, 0x7f, 0x80 and 0xff, of each printed kernel
// either parses into validated loops or is rejected with Error.  Any
// other exception fails here, and undefined behaviour fails the
// sanitizer CI job that runs this test.
TEST(ParserErrors, MutatedKernelTextParsesOrThrowsError) {
  int parsed = 0;
  int rejected = 0;
  for (const Loop& kernel : kernel_corpus()) {
    const std::string text = to_text(kernel);
    const auto judge = [&](const std::string& mutant, const std::string& where) {
      try {
        (void)parse_loops(mutant);
        ++parsed;
      } catch (const Error&) {
        ++rejected;
      } catch (const std::exception& error) {
        ADD_FAILURE() << kernel.name << ", " << where << ": parser threw " << error.what();
      }
    };
    for (std::size_t size = 0; size < text.size(); ++size) {
      judge(text.substr(0, size), cat("truncated to ", size));
    }
    for (std::size_t at = 0; at < text.size(); ++at) {
      for (const unsigned char mask : {0x01, 0x7f, 0x80, 0xff}) {
        std::string mutant = text;
        mutant[at] = static_cast<char>(static_cast<unsigned char>(mutant[at]) ^ mask);
        judge(mutant, cat("byte ", at, " ^ ", static_cast<int>(mask)));
      }
    }
  }
  EXPECT_GT(parsed, 0);    // some mutants are still valid loops
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace qvliw
