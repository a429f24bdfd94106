// Functional-unit classes of the clustered VLIW model.
//
// The paper's cluster is {1 L/S, 1 ADD, 1 MUL} plus one dedicated COPY unit
// (Fig. 5a / Fig. 7).  Every FU is fully pipelined: it accepts one
// operation per cycle and produces the result after the opcode's latency.
#pragma once

#include <cstdint>
#include <string_view>

#include "ir/opcode.h"

namespace qvliw {

enum class FuKind : std::uint8_t {
  kLS,    // load/store unit (implicit address generation)
  kAdd,   // integer/FP adder-subtracter
  kMul,   // multiplier (also executes divides)
  kCopy,  // copy/move unit: 1 queue read port, 2 queue write ports
};

inline constexpr int kNumFuKinds = 4;

[[nodiscard]] std::string_view fu_kind_name(FuKind kind);

/// The FU class that executes `opcode`.
[[nodiscard]] constexpr FuKind fu_for(Opcode opcode) {
  switch (opcode) {
    case Opcode::kLoad:
    case Opcode::kStore:
      return FuKind::kLS;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kFAdd:
    case Opcode::kFSub:
      return FuKind::kAdd;
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kFMul:
    case Opcode::kFDiv:
      return FuKind::kMul;
    case Opcode::kCopy:
    case Opcode::kMove:
      return FuKind::kCopy;
  }
  return FuKind::kAdd;  // unreachable; keeps constexpr total
}

}  // namespace qvliw
