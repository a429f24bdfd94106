#include "sim/interp.h"

#include "sim/eval.h"
#include "support/diagnostics.h"

namespace qvliw {

long long memory_elements(const Loop& loop, long long trip) {
  return static_cast<long long>(loop.stride) * trip;
}

InterpResult interpret(const Loop& loop, long long trip, std::uint64_t seed) {
  loop.validate();
  check(trip >= 1, "interpret: trip must be >= 1");

  const int n = loop.op_count();
  const int max_dist = loop.max_distance();

  InterpResult result{
      MemoryImage(static_cast<int>(loop.arrays.size()), memory_elements(loop, trip), seed), 0};

  // history[op][d-1] = value d iterations ago (d in [1, max_dist]).
  std::vector<std::vector<std::int64_t>> history(
      static_cast<std::size_t>(n),
      std::vector<std::int64_t>(static_cast<std::size_t>(max_dist), 0));
  std::vector<std::int64_t> current(static_cast<std::size_t>(n), 0);

  for (long long j = 0; j < trip; ++j) {
    for (int v = 0; v < n; ++v) {
      const Op& op = loop.ops[static_cast<std::size_t>(v)];
      auto operand = [&](const Operand& arg) -> std::int64_t {
        switch (arg.kind) {
          case Operand::Kind::kValue: {
            if (arg.distance == 0) return current[static_cast<std::size_t>(arg.value_op)];
            if (arg.distance > j) return 0;  // live-in
            return history[static_cast<std::size_t>(arg.value_op)]
                          [static_cast<std::size_t>(arg.distance - 1)];
          }
          case Operand::Kind::kInvariant:
            return invariant_value(seed, arg.invariant);
          case Operand::Kind::kImmediate:
            return arg.imm;
          case Operand::Kind::kIndex:
            return static_cast<std::int64_t>(loop.stride) * j + arg.index_offset;
        }
        QVLIW_ASSERT(false, "bad operand kind");
      };

      switch (op.opcode) {
        case Opcode::kLoad:
          current[static_cast<std::size_t>(v)] =
              result.memory.load(op.array, static_cast<long long>(loop.stride) * j + op.mem_offset);
          break;
        case Opcode::kStore:
          result.memory.store(op.array, static_cast<long long>(loop.stride) * j + op.mem_offset,
                              operand(op.args[0]));
          break;
        case Opcode::kCopy:
        case Opcode::kMove:
          current[static_cast<std::size_t>(v)] = operand(op.args[0]);
          break;
        default:
          current[static_cast<std::size_t>(v)] =
              eval_arith(op.opcode, operand(op.args[0]), operand(op.args[1]));
      }
      ++result.ops_executed;
    }
    // Age the histories.
    if (max_dist > 0) {
      for (int v = 0; v < n; ++v) {
        auto& h = history[static_cast<std::size_t>(v)];
        for (int d = max_dist - 1; d >= 1; --d) h[static_cast<std::size_t>(d)] = h[static_cast<std::size_t>(d - 1)];
        h[0] = current[static_cast<std::size_t>(v)];
      }
    }
  }
  return result;
}

}  // namespace qvliw
