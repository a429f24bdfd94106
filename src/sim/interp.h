// Sequential reference interpreter.
//
// Executes the loop body iteration by iteration in program order — the
// golden semantics every transformed/scheduled/simulated variant must
// reproduce.  Loop-carried reads (`v@d`) before iteration d are live-ins
// and resolve to 0.
#pragma once

#include <cstdint>

#include "ir/loop.h"
#include "sim/memory.h"

namespace qvliw {

struct InterpResult {
  MemoryImage memory;
  long long ops_executed = 0;
};

/// Runs `trip` iterations against a fresh memory image derived from `seed`.
[[nodiscard]] InterpResult interpret(const Loop& loop, long long trip, std::uint64_t seed);

/// Memory footprint in elements for `trip` iterations of `loop`
/// (stride * trip; unrolling-invariant).
[[nodiscard]] long long memory_elements(const Loop& loop, long long trip);

}  // namespace qvliw
