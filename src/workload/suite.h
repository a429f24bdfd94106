// Benchmark suite assembly and loop classification.
#pragma once

#include <vector>

#include "ir/loop.h"
#include "machine/machine.h"
#include "workload/synth.h"

namespace qvliw {

struct Suite {
  std::vector<Loop> loops;
  int kernel_count = 0;  // loops[0..kernel_count) are the hand-written corpus
};

/// Hand-written corpus followed by the synthetic loops (config.loops of
/// them; the default reproduces the paper's 1258-loop suite size in total).
[[nodiscard]] Suite full_suite(const SynthConfig& config = {});

/// A small suite for unit tests (corpus + a few dozen synthetic loops).
[[nodiscard]] Suite small_suite(int synthetic = 48, std::uint64_t seed = 42);

/// Fig. 9's subset: loops whose execution is limited by FU availability
/// even on the largest machine studied (18 FUs), i.e. the recurrence bound
/// never overtakes the best per-source-iteration resource bound achievable
/// with unrolling up to `max_unroll`.
[[nodiscard]] bool is_resource_constrained(const Loop& loop, int max_unroll = 8);

}  // namespace qvliw
