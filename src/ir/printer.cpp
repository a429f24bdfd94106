#include "ir/printer.h"

#include <sstream>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

namespace {
std::string index_text(int offset) {
  if (offset == 0) return "i";
  if (offset > 0) return cat("i+", offset);
  return cat("i-", -offset);
}
}  // namespace

std::string operand_text(const Loop& loop, const Operand& operand) {
  switch (operand.kind) {
    case Operand::Kind::kValue: {
      const Op& def = loop.ops[static_cast<std::size_t>(operand.value_op)];
      if (operand.distance == 0) return def.name;
      return cat(def.name, "@", operand.distance);
    }
    case Operand::Kind::kInvariant:
      return loop.invariants[static_cast<std::size_t>(operand.invariant)];
    case Operand::Kind::kImmediate:
      return std::to_string(operand.imm);
    case Operand::Kind::kIndex:
      return index_text(operand.index_offset);
  }
  QVLIW_ASSERT(false, "bad operand kind");
}

std::string op_text(const Loop& loop, const Op& op) {
  std::ostringstream os;
  if (op.opcode == Opcode::kStore) {
    os << "store " << loop.arrays[static_cast<std::size_t>(op.array)] << "["
       << index_text(op.mem_offset) << "], " << operand_text(loop, op.args[0]);
    return os.str();
  }
  os << op.name << " = " << opcode_name(op.opcode);
  if (op.opcode == Opcode::kLoad) {
    os << ' ' << loop.arrays[static_cast<std::size_t>(op.array)] << "[" << index_text(op.mem_offset)
       << "]";
    return os.str();
  }
  for (std::size_t a = 0; a < op.args.size(); ++a) {
    os << (a == 0 ? " " : ", ") << operand_text(loop, op.args[a]);
  }
  return os.str();
}

std::string to_text(const Loop& loop) {
  std::ostringstream os;
  os << "loop " << loop.name << " {\n";
  // Declared in id order, so a re-parse interns invariants and arrays
  // with the same ids instead of in first-use order.
  const auto declare = [&os](const char* keyword, const std::vector<std::string>& names) {
    if (names.empty()) return;
    os << "  " << keyword << ' ';
    for (std::size_t i = 0; i < names.size(); ++i) os << (i == 0 ? "" : ", ") << names[i];
    os << ";\n";
  };
  declare("invariant", loop.invariants);
  declare("array", loop.arrays);
  os << "  trip " << loop.trip_hint << ";\n";
  if (loop.stride != 1) os << "  stride " << loop.stride << ";\n";
  for (const Op& op : loop.ops) {
    os << "  " << op_text(loop, op) << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace qvliw
