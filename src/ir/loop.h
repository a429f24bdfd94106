// Loop intermediate representation.
//
// A `Loop` is the body of a counted innermost loop in a renamed,
// SSA-flavoured form: every operation defines at most one named value, and
// operands refer to values by defining operation plus an iteration
// *distance* (`x@1` = the instance of x produced one iteration earlier).
// Memory is addressed through named arrays with affine stride-1 indices
// `A[i + offset]`; after unrolling the loop carries a `stride` so index
// `i` denotes `stride * iteration + offset`.
//
// Loop-carried register dependences are explicit via distances, so the
// register-level DDG follows directly from operands; memory-level
// dependences are derived in memdep.h.  A read from before iteration 0
// (distance > iteration) is a live-in, and every live-in is 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/opcode.h"

namespace qvliw {

/// One operand of an operation.
struct Operand {
  enum class Kind : std::uint8_t {
    kValue,      // result of another op, `distance` iterations ago
    kInvariant,  // loop invariant (kept in a register or immediate)
    kImmediate,  // literal constant
    kIndex,      // loop index: stride * iteration + index_offset
  };

  Kind kind = Kind::kImmediate;
  int value_op = -1;        // kValue: index of the defining op in Loop::ops
  int distance = 0;         // kValue: iterations ago (>= 0)
  int invariant = -1;       // kInvariant: index into Loop::invariants
  std::int64_t imm = 0;     // kImmediate
  int index_offset = 0;     // kIndex

  [[nodiscard]] static Operand value(int op, int dist = 0);
  [[nodiscard]] static Operand invariant_ref(int inv);
  [[nodiscard]] static Operand immediate(std::int64_t value);
  [[nodiscard]] static Operand index(int offset = 0);

  [[nodiscard]] bool is_value() const { return kind == Kind::kValue; }

  friend bool operator==(const Operand&, const Operand&) = default;
};

/// One operation of the loop body.
struct Op {
  Opcode opcode = Opcode::kAdd;
  std::string name;            // result name; empty iff opcode == kStore
  std::vector<Operand> args;   // arity per operand_count(opcode)
  int array = -1;              // memory ops: index into Loop::arrays
  int mem_offset = 0;          // memory ops: A[stride*i + mem_offset]

  [[nodiscard]] bool defines_value() const { return qvliw::defines_value(opcode); }
};

/// A counted innermost loop body.
class Loop {
 public:
  std::string name = "loop";
  int stride = 1;       // index stride (1 originally; U after unrolling by U)
  int trip_hint = 100;  // default trip count for dynamic analyses
  std::vector<std::string> invariants;
  std::vector<std::string> arrays;
  std::vector<Op> ops;

  /// Appends `op`, returning its index.
  int add_op(Op op);

  /// Index of the op defining `value_name`, or -1.
  [[nodiscard]] int find_value(std::string_view value_name) const;

  /// Adds (or finds) an array by name; returns its index.
  int intern_array(std::string_view array_name);

  /// Adds (or finds) an invariant by name; returns its index.
  int intern_invariant(std::string_view invariant_name);

  [[nodiscard]] int op_count() const { return static_cast<int>(ops.size()); }

  /// Largest operand distance in the body (0 when loop-independent).
  [[nodiscard]] int max_distance() const;

  /// Number of operand slots that read values (queue pops per iteration).
  [[nodiscard]] int value_use_count() const;

  /// Number of uses of the value defined by op `def` (operand instances).
  [[nodiscard]] int use_count(int def) const;

  /// Deterministic structural hash of the whole loop: hash_bytes over
  /// serialize_loop's blob, so the hash and the serialization share one
  /// schema walker (a field added to Op/Operand is either in both or in
  /// neither).  Stable across processes and platforms; equal hashes mean
  /// the loops are interchangeable inputs for the compilation pipeline.
  [[nodiscard]] std::uint64_t content_hash() const;

  /// Structural validation; throws Error with a description on violation.
  ///
  /// Rules: opcodes and operand kinds in range; unique non-empty names for
  /// value-defining ops; stores unnamed; operand arity matches opcode;
  /// value operands reference value-defining ops with distance in
  /// [0, kMaxOperandDistance], and distance-0 references respect program
  /// order; memory ops carry a valid array and an offset within
  /// +-kMaxMemOffset, non-memory ops none; stride >= 1.
  void validate() const;
};

/// Bounds Loop::validate enforces, far above anything the suite produces
/// (distance 7, offset 11), so that distance * II and offset differences
/// stay inside int arithmetic for every loop that validates.
inline constexpr int kMaxOperandDistance = 1 << 10;
inline constexpr int kMaxMemOffset = 1 << 20;

class BlobReader;
class BlobWriter;

/// Serialises `loop` into the portable blob format (support/blob.h) — the
/// single schema walker shared by content_hash and the verify bundle.
void serialize_loop(BlobWriter& out, const Loop& loop);

/// Inverse of serialize_loop; throws Error on truncation.  The result is
/// *not* validated — run Loop::validate (or Ddg::build, which does) before
/// trusting a deserialised loop.
[[nodiscard]] Loop deserialize_loop(BlobReader& in);

}  // namespace qvliw
