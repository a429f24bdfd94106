#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "ir/loop.h"
#include "support/diagnostics.h"

namespace qvliw {
namespace {

Loop minimal_loop() {
  Loop loop;
  loop.name = "t";
  const int a = loop.intern_array("X");
  Op load;
  load.opcode = Opcode::kLoad;
  load.name = "x";
  load.array = a;
  loop.add_op(load);
  Op store;
  store.opcode = Opcode::kStore;
  store.array = a;
  store.args.push_back(Operand::value(0, 0));
  loop.add_op(store);
  return loop;
}

TEST(Operand, Factories) {
  const Operand v = Operand::value(3, 2);
  EXPECT_EQ(v.kind, Operand::Kind::kValue);
  EXPECT_EQ(v.value_op, 3);
  EXPECT_EQ(v.distance, 2);
  EXPECT_TRUE(v.is_value());

  const Operand inv = Operand::invariant_ref(1);
  EXPECT_EQ(inv.kind, Operand::Kind::kInvariant);
  EXPECT_EQ(inv.invariant, 1);
  EXPECT_FALSE(inv.is_value());

  const Operand imm = Operand::immediate(-7);
  EXPECT_EQ(imm.kind, Operand::Kind::kImmediate);
  EXPECT_EQ(imm.imm, -7);

  const Operand idx = Operand::index(4);
  EXPECT_EQ(idx.kind, Operand::Kind::kIndex);
  EXPECT_EQ(idx.index_offset, 4);
}

TEST(Opcode, Names) {
  EXPECT_EQ(opcode_name(Opcode::kLoad), "load");
  EXPECT_EQ(opcode_name(Opcode::kFMul), "fmul");
  Opcode out;
  EXPECT_TRUE(parse_opcode("fadd", out));
  EXPECT_EQ(out, Opcode::kFAdd);
  EXPECT_FALSE(parse_opcode("nonsense", out));
}

TEST(Opcode, Classification) {
  EXPECT_TRUE(is_memory(Opcode::kLoad));
  EXPECT_TRUE(is_memory(Opcode::kStore));
  EXPECT_FALSE(is_memory(Opcode::kAdd));
  EXPECT_TRUE(defines_value(Opcode::kLoad));
  EXPECT_FALSE(defines_value(Opcode::kStore));
  EXPECT_EQ(operand_count(Opcode::kLoad), 0);
  EXPECT_EQ(operand_count(Opcode::kStore), 1);
  EXPECT_EQ(operand_count(Opcode::kCopy), 1);
  EXPECT_EQ(operand_count(Opcode::kFMul), 2);
}

TEST(LatencyModel, ClassicValues) {
  const LatencyModel lat = LatencyModel::classic();
  EXPECT_EQ(lat.of(Opcode::kLoad), 2);
  EXPECT_EQ(lat.of(Opcode::kAdd), 1);
  EXPECT_EQ(lat.of(Opcode::kFMul), 3);
  EXPECT_EQ(lat.of(Opcode::kDiv), 8);
  EXPECT_EQ(lat.of(Opcode::kCopy), 1);
  const LatencyModel unit = LatencyModel::unit();
  for (int i = 0; i < kNumOpcodes; ++i) EXPECT_EQ(unit.of(static_cast<Opcode>(i)), 1);
}

TEST(Loop, MinimalValidates) { EXPECT_NO_THROW(minimal_loop().validate()); }

TEST(Loop, FindValue) {
  const Loop loop = minimal_loop();
  EXPECT_EQ(loop.find_value("x"), 0);
  EXPECT_EQ(loop.find_value("missing"), -1);
}

TEST(Loop, InternArrayDeduplicates) {
  Loop loop;
  EXPECT_EQ(loop.intern_array("X"), 0);
  EXPECT_EQ(loop.intern_array("Y"), 1);
  EXPECT_EQ(loop.intern_array("X"), 0);
  EXPECT_EQ(loop.arrays.size(), 2u);
}

TEST(Loop, InternInvariantDeduplicates) {
  Loop loop;
  EXPECT_EQ(loop.intern_invariant("a"), 0);
  EXPECT_EQ(loop.intern_invariant("a"), 0);
  EXPECT_EQ(loop.invariants.size(), 1u);
}

TEST(Loop, UseCountsAndMaxDistance) {
  Loop loop = minimal_loop();
  Op add;
  add.opcode = Opcode::kAdd;
  add.name = "s";
  add.args.push_back(Operand::value(0, 0));
  add.args.push_back(Operand::value(2, 3));  // self at distance 3
  loop.add_op(add);
  EXPECT_EQ(loop.max_distance(), 3);
  EXPECT_EQ(loop.use_count(0), 2);  // store + add
  EXPECT_EQ(loop.use_count(2), 1);  // self
  EXPECT_EQ(loop.value_use_count(), 3);
}

TEST(LoopValidate, RejectsUnnamedValue) {
  Loop loop = minimal_loop();
  loop.ops[0].name.clear();
  EXPECT_THROW(loop.validate(), Error);
}

TEST(LoopValidate, RejectsNamedStore) {
  Loop loop = minimal_loop();
  loop.ops[1].name = "oops";
  EXPECT_THROW(loop.validate(), Error);
}

TEST(LoopValidate, RejectsDuplicateNames) {
  Loop loop = minimal_loop();
  Op dup;
  dup.opcode = Opcode::kCopy;
  dup.name = "x";
  dup.args.push_back(Operand::value(0, 0));
  loop.add_op(dup);
  EXPECT_THROW(loop.validate(), Error);
}

/// What validate() throws, or "" when the loop is valid.
std::string validate_error(const Loop& loop) {
  try {
    loop.validate();
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

/// A loop of loads from X named `names`, in order.
Loop named_loads(std::initializer_list<const char*> names) {
  Loop loop;
  loop.name = "t";
  const int array = loop.intern_array("X");
  for (const char* name : names) {
    Op load;
    load.opcode = Opcode::kLoad;
    load.name = name;
    load.array = array;
    loop.add_op(load);
  }
  return loop;
}

TEST(LoopValidate, DuplicateNameNamesTheFirstRedefinition) {
  // 'b' is defined again at op #3, before 'a' is at op #4.
  EXPECT_EQ(validate_error(named_loads({"a", "b", "c", "b", "a"})),
            "loop 't', op #3 (load): duplicate value name 'b'");
}

TEST(LoopValidate, EarlierViolationWinsOverALaterDuplicate) {
  // Op #1 has one operand where add takes two; op #3 redefines 'a'.
  Loop loop = named_loads({"a", "s", "c", "a"});
  Op& add = loop.ops[1];
  add.opcode = Opcode::kAdd;
  add.array = -1;
  add.args.push_back(Operand::value(0, 0));
  EXPECT_EQ(validate_error(loop), "loop 't', op #1 (add): expected 2 operands, got 1");
}

TEST(LoopValidate, RejectsBadArity) {
  Loop loop = minimal_loop();
  Op add;
  add.opcode = Opcode::kAdd;
  add.name = "s";
  add.args.push_back(Operand::immediate(1));  // needs two operands
  loop.add_op(add);
  EXPECT_THROW(loop.validate(), Error);
}

TEST(LoopValidate, RejectsValueRefOutOfRange) {
  Loop loop = minimal_loop();
  loop.ops[1].args[0] = Operand::value(99, 0);
  EXPECT_THROW(loop.validate(), Error);
}

TEST(LoopValidate, RejectsReferenceToStore) {
  Loop loop = minimal_loop();
  Op add;
  add.opcode = Opcode::kAdd;
  add.name = "s";
  add.args.push_back(Operand::value(1, 0));  // references the store
  add.args.push_back(Operand::immediate(1));
  loop.add_op(add);
  EXPECT_THROW(loop.validate(), Error);
}

TEST(LoopValidate, RejectsNegativeDistance) {
  Loop loop = minimal_loop();
  loop.ops[1].args[0].distance = -1;
  EXPECT_THROW(loop.validate(), Error);
}

TEST(LoopValidate, RejectsForwardDistanceZero) {
  Loop loop = minimal_loop();
  Op add;
  add.opcode = Opcode::kAdd;
  add.name = "s";
  add.args.push_back(Operand::value(2, 0));  // itself, distance 0
  add.args.push_back(Operand::immediate(1));
  loop.add_op(add);
  EXPECT_THROW(loop.validate(), Error);
}

TEST(LoopValidate, AllowsForwardDistancePositive) {
  Loop loop = minimal_loop();
  Op add;
  add.opcode = Opcode::kAdd;
  add.name = "s";
  add.args.push_back(Operand::value(2, 1));  // itself, one iteration back
  add.args.push_back(Operand::immediate(1));
  loop.add_op(add);
  EXPECT_NO_THROW(loop.validate());
}

TEST(LoopValidate, RejectsMemoryOpWithoutArray) {
  Loop loop = minimal_loop();
  loop.ops[0].array = -1;
  EXPECT_THROW(loop.validate(), Error);
}

TEST(LoopValidate, RejectsArithmeticWithArray) {
  Loop loop = minimal_loop();
  Op add;
  add.opcode = Opcode::kAdd;
  add.name = "s";
  add.array = 0;
  add.args.push_back(Operand::immediate(1));
  add.args.push_back(Operand::immediate(2));
  loop.add_op(add);
  EXPECT_THROW(loop.validate(), Error);
}

TEST(LoopValidate, RejectsBadInvariantRef) {
  Loop loop = minimal_loop();
  loop.ops[1].args[0] = Operand::invariant_ref(0);  // none declared
  EXPECT_THROW(loop.validate(), Error);
}

TEST(LoopValidate, RejectsBadStride) {
  Loop loop = minimal_loop();
  loop.stride = 0;
  EXPECT_THROW(loop.validate(), Error);
}

TEST(LoopValidate, RejectsBadTrip) {
  Loop loop = minimal_loop();
  loop.trip_hint = 0;
  EXPECT_THROW(loop.validate(), Error);
}

TEST(LoopContentHash, StableAndStructureSensitive) {
  const Loop loop = minimal_loop();
  Loop copy = loop;
  EXPECT_EQ(loop.content_hash(), copy.content_hash());

  copy.trip_hint += 1;
  EXPECT_NE(loop.content_hash(), copy.content_hash());

  copy = loop;
  copy.name = "other";
  EXPECT_NE(loop.content_hash(), copy.content_hash());

  copy = loop;
  copy.ops[0].mem_offset += 1;
  EXPECT_NE(loop.content_hash(), copy.content_hash());

  copy = loop;
  copy.ops.push_back(copy.ops.back());
  EXPECT_NE(loop.content_hash(), copy.content_hash());
}

}  // namespace
}  // namespace qvliw
