#include "xform/move_insert.h"

#include <set>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

MoveInsertResult insert_move_chain(const Loop& src, int dst, int dst_arg, int hops) {
  src.validate();
  check(hops >= 1, "insert_move_chain: hops must be >= 1");
  check(dst >= 0 && dst < src.op_count(), "insert_move_chain: dst out of range");
  const Op& consumer = src.ops[static_cast<std::size_t>(dst)];
  check(dst_arg >= 0 && dst_arg < static_cast<int>(consumer.args.size()),
        "insert_move_chain: dst_arg out of range");
  const Operand target = consumer.args[static_cast<std::size_t>(dst_arg)];
  check(target.is_value(), "insert_move_chain: operand is not a value flow");
  const int producer = target.value_op;

  MoveInsertResult result;
  result.loop.name = src.name;
  result.loop.stride = src.stride;
  result.loop.trip_hint = src.trip_hint;
  result.loop.invariants = src.invariants;
  result.loop.arrays = src.arrays;
  result.op_map.assign(static_cast<std::size_t>(src.op_count()), -1);

  std::set<std::string> taken;
  for (const Op& op : src.ops) {
    if (op.defines_value()) taken.insert(op.name);
  }
  auto fresh_name = [&taken](const std::string& base) {
    std::string name = base;
    int counter = 0;
    while (!taken.insert(name).second) name = cat(base, "_", counter++);
    return name;
  };

  // Emit originals; right after the producer, emit the move chain.
  std::vector<int> chain;
  for (int v = 0; v < src.op_count(); ++v) {
    result.op_map[static_cast<std::size_t>(v)] =
        result.loop.add_op(src.ops[static_cast<std::size_t>(v)]);
    if (v == producer) {
      int feed = result.op_map[static_cast<std::size_t>(v)];
      for (int hop = 0; hop < hops; ++hop) {
        Op move;
        move.opcode = Opcode::kMove;
        move.name =
            fresh_name(cat(src.ops[static_cast<std::size_t>(producer)].name, "_m", hop));
        move.args.push_back(Operand::value(feed, 0));
        feed = result.loop.add_op(std::move(move));
        chain.push_back(feed);
        ++result.moves_added;
      }
    }
  }

  // Remap all value operands through op_map; the split operand instead
  // reads the chain's tail at the original distance.
  for (int v = 0; v < src.op_count(); ++v) {
    Op& op = result.loop.ops[static_cast<std::size_t>(result.op_map[static_cast<std::size_t>(v)])];
    for (std::size_t a = 0; a < op.args.size(); ++a) {
      if (!op.args[a].is_value()) continue;
      if (v == dst && static_cast<int>(a) == dst_arg) {
        op.args[a] = Operand::value(chain.back(), target.distance);
      } else {
        op.args[a] =
            Operand::value(result.op_map[static_cast<std::size_t>(op.args[a].value_op)],
                           op.args[a].distance);
      }
    }
  }

  result.loop.validate();
  return result;
}

}  // namespace qvliw
