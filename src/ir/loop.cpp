#include "ir/loop.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <tuple>
#include <vector>

#include "support/blob.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qvliw {

Operand Operand::value(int op, int dist) {
  Operand out;
  out.kind = Kind::kValue;
  out.value_op = op;
  out.distance = dist;
  return out;
}

Operand Operand::invariant_ref(int inv) {
  Operand out;
  out.kind = Kind::kInvariant;
  out.invariant = inv;
  return out;
}

Operand Operand::immediate(std::int64_t value) {
  Operand out;
  out.kind = Kind::kImmediate;
  out.imm = value;
  return out;
}

Operand Operand::index(int offset) {
  Operand out;
  out.kind = Kind::kIndex;
  out.index_offset = offset;
  return out;
}

int Loop::add_op(Op op) {
  ops.push_back(std::move(op));
  return static_cast<int>(ops.size()) - 1;
}

int Loop::find_value(std::string_view value_name) const {
  for (int i = 0; i < op_count(); ++i) {
    if (ops[static_cast<std::size_t>(i)].defines_value() &&
        ops[static_cast<std::size_t>(i)].name == value_name) {
      return i;
    }
  }
  return -1;
}

int Loop::intern_array(std::string_view array_name) {
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    if (arrays[i] == array_name) return static_cast<int>(i);
  }
  arrays.emplace_back(array_name);
  return static_cast<int>(arrays.size()) - 1;
}

int Loop::intern_invariant(std::string_view invariant_name) {
  for (std::size_t i = 0; i < invariants.size(); ++i) {
    if (invariants[i] == invariant_name) return static_cast<int>(i);
  }
  invariants.emplace_back(invariant_name);
  return static_cast<int>(invariants.size()) - 1;
}

int Loop::max_distance() const {
  int max_dist = 0;
  for (const Op& op : ops) {
    for (const Operand& arg : op.args) {
      if (arg.is_value() && arg.distance > max_dist) max_dist = arg.distance;
    }
  }
  return max_dist;
}

int Loop::value_use_count() const {
  int uses = 0;
  for (const Op& op : ops) {
    for (const Operand& arg : op.args) {
      if (arg.is_value()) ++uses;
    }
  }
  return uses;
}

void serialize_loop(BlobWriter& out, const Loop& loop) {
  out.put_string(loop.name);
  out.put_i32(loop.stride);
  out.put_i32(loop.trip_hint);
  out.put_u64(loop.invariants.size());
  for (const std::string& inv : loop.invariants) out.put_string(inv);
  out.put_u64(loop.arrays.size());
  for (const std::string& arr : loop.arrays) out.put_string(arr);
  out.put_u64(static_cast<std::uint64_t>(loop.op_count()));
  for (const Op& op : loop.ops) {
    out.put_i32(static_cast<std::int32_t>(op.opcode));
    out.put_string(op.name);
    out.put_i32(op.array);
    out.put_i32(op.mem_offset);
    out.put_u64(op.args.size());
    for (const Operand& arg : op.args) {
      out.put_i32(static_cast<std::int32_t>(arg.kind));
      out.put_i32(arg.value_op);
      out.put_i32(arg.distance);
      out.put_i32(arg.invariant);
      out.put_i64(arg.imm);
      out.put_i32(arg.index_offset);
    }
  }
}

Loop deserialize_loop(BlobReader& in) {
  Loop loop;
  loop.name = in.get_string();
  loop.stride = in.get_i32();
  loop.trip_hint = in.get_i32();
  const std::uint64_t invariants = in.get_u64();
  for (std::uint64_t i = 0; i < invariants; ++i) loop.invariants.push_back(in.get_string());
  const std::uint64_t arrays = in.get_u64();
  for (std::uint64_t i = 0; i < arrays; ++i) loop.arrays.push_back(in.get_string());
  const std::uint64_t op_count = in.get_u64();
  for (std::uint64_t i = 0; i < op_count; ++i) {
    Op op;
    op.opcode = static_cast<Opcode>(in.get_i32());
    op.name = in.get_string();
    op.array = in.get_i32();
    op.mem_offset = in.get_i32();
    const std::uint64_t args = in.get_u64();
    for (std::uint64_t a = 0; a < args; ++a) {
      Operand arg;
      arg.kind = static_cast<Operand::Kind>(in.get_i32());
      arg.value_op = in.get_i32();
      arg.distance = in.get_i32();
      arg.invariant = in.get_i32();
      arg.imm = in.get_i64();
      arg.index_offset = in.get_i32();
      op.args.push_back(arg);
    }
    loop.ops.push_back(std::move(op));
  }
  return loop;
}

std::uint64_t Loop::content_hash() const {
  BlobWriter out;
  serialize_loop(out, *this);
  return hash_combine(hash64(0x100bULL), hash_bytes(out.take()));  // domain-tagged
}

namespace {

/// The first op whose value name an earlier op already defines, or -1:
/// one sort of the named value-defining ops by (name hash, name, index),
/// so each run of equal names lists its ops in program order and the
/// run's second op is its first duplicate.  O(n log n) whatever the
/// names, colliding hashes included (the parser and verify bundles hand
/// validate() outside input).
int first_duplicate_name(const std::vector<Op>& ops) {
  struct Named {
    std::size_t hash;
    std::string_view name;
    int op;
  };
  std::vector<Named> named;
  named.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (!op.defines_value() || op.name.empty()) continue;
    named.push_back({std::hash<std::string_view>{}(op.name), op.name, static_cast<int>(i)});
  }
  std::sort(named.begin(), named.end(), [](const Named& a, const Named& b) {
    return std::tie(a.hash, a.name, a.op) < std::tie(b.hash, b.name, b.op);
  });
  int first = -1;
  for (std::size_t k = 1; k < named.size(); ++k) {
    const Named& prev = named[k - 1];
    const Named& cur = named[k];
    if (cur.hash == prev.hash && cur.name == prev.name && (first < 0 || cur.op < first)) {
      first = cur.op;
    }
  }
  return first;
}

}  // namespace

void Loop::validate() const {
  // Hot path: validate() runs on every success of every transform, so the
  // diagnostic strings must only be materialised on the (cold) failure
  // branches: `if (!cond) fail(cat(...))`, never a check() handed a
  // formatted message (CI's lint job rejects that form).
  if (stride < 1) fail(cat("loop '", name, "': stride must be >= 1"));
  if (trip_hint < 1) fail(cat("loop '", name, "': trip_hint must be >= 1"));

  const int duplicate = first_duplicate_name(ops);
  for (int i = 0; i < op_count(); ++i) {
    const Op& op = ops[static_cast<std::size_t>(i)];
    // Checked first: every other diagnostic names the opcode.
    if (static_cast<int>(op.opcode) >= kNumOpcodes) {
      fail(cat("loop '", name, "', op #", i, ": opcode ", static_cast<int>(op.opcode),
               " out of range"));
    }
    const auto where = [&] {
      return cat("loop '", name, "', op #", i, " (", opcode_name(op.opcode), ")");
    };

    if (op.defines_value()) {
      if (op.name.empty()) fail(cat(where(), ": value-defining op needs a name"));
      if (i == duplicate) fail(cat(where(), ": duplicate value name '", op.name, "'"));
    } else {
      if (!op.name.empty()) fail(cat(where(), ": store must not name a result"));
    }

    if (static_cast<int>(op.args.size()) != operand_count(op.opcode)) {
      fail(cat(where(), ": expected ", operand_count(op.opcode), " operands, got ",
               op.args.size()));
    }

    if (is_memory(op.opcode)) {
      if (op.array < 0 || op.array >= static_cast<int>(arrays.size())) {
        fail(cat(where(), ": memory op with invalid array index"));
      }
      if (op.mem_offset < -kMaxMemOffset || op.mem_offset > kMaxMemOffset) {
        fail(cat(where(), ": memory offset ", op.mem_offset, " beyond +-", kMaxMemOffset));
      }
    } else {
      if (op.array != -1) fail(cat(where(), ": non-memory op must not reference an array"));
    }

    for (std::size_t a = 0; a < op.args.size(); ++a) {
      const Operand& arg = op.args[a];
      switch (arg.kind) {
        case Operand::Kind::kValue: {
          if (arg.value_op < 0 || arg.value_op >= op_count()) {
            fail(cat(where(), ": operand ", a, " references op out of range"));
          }
          const Op& def = ops[static_cast<std::size_t>(arg.value_op)];
          if (!def.defines_value()) fail(cat(where(), ": operand ", a, " references a store"));
          if (arg.distance < 0) fail(cat(where(), ": operand ", a, " has negative distance"));
          if (arg.distance > kMaxOperandDistance) {
            fail(cat(where(), ": operand ", a, " distance ", arg.distance, " beyond ",
                     kMaxOperandDistance));
          }
          if (arg.distance == 0 && arg.value_op >= i) {
            fail(cat(where(), ": operand ", a, " uses '", def.name,
                     "' at distance 0 before it is defined"));
          }
          break;
        }
        case Operand::Kind::kInvariant:
          if (arg.invariant < 0 || arg.invariant >= static_cast<int>(invariants.size())) {
            fail(cat(where(), ": operand ", a, " references invalid invariant"));
          }
          break;
        case Operand::Kind::kImmediate:
        case Operand::Kind::kIndex:
          break;
        default:
          fail(cat(where(), ": operand ", a, " has unknown kind ", static_cast<int>(arg.kind)));
      }
    }
  }
}

}  // namespace qvliw
