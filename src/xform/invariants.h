// Loop-invariant handling.
//
// The paper lists "strategies to deal with loop invariants" as ongoing
// work: with queue register files an invariant consumed every iteration
// would be destroyed by its first read.  Its experiments charge
// invariants nothing, and so does this library: invariant operands stay
// in place, encoded in the instruction word or a scalar register outside
// the QRF, and cost no queue traffic.
//
// The enum and the pass keep their one-value shape only because the
// benchmark's traced pipeline (perfbench/traced.cpp) calls
// materialize_invariants(source, options.invariants); they go with the
// next change to the benchmark.
#pragma once

#include "ir/loop.h"

namespace qvliw {

enum class InvariantStrategy {
  kImmediate,  // leave invariant operands in place
};

/// Validates `loop` and returns it unchanged.
[[nodiscard]] Loop materialize_invariants(const Loop& loop, InvariantStrategy strategy);

}  // namespace qvliw
