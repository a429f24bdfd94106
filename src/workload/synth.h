// Calibrated synthetic loop generator.
//
// Stands in for the paper's 1258 Perfect Club innermost loops.  The
// scheduler, allocators and partitioner only observe the DDG — operation
// mix, latencies, dependence distances and recurrence circuits — so the
// generator is calibrated on those axes to the published statistics of
// scientific innermost loops of the era: body sizes of a few to a few
// dozen operations (log-normally distributed), roughly a third memory
// operations, and about half the loops carrying a register and/or memory
// recurrence of small distance.  tests/test_workload.cpp pins the
// calibration; the experiment module (harness/experiment.h, run by
// bench/paper) compares the resulting suite with the paper's aggregates.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/loop.h"
#include "support/rng.h"

namespace qvliw {

struct SynthConfig {
  int loops = 1258;          // the paper's suite size
  std::uint64_t seed = 1998; // IPPS'98

  // Body size: a bimodal mixture, as in real innermost-loop populations —
  // with probability small_loop_prob a tiny streaming body (uniform in
  // [small_lo, small_hi]), otherwise clamp(round(lognormal(mu, sigma)),
  // min_ops, max_ops).  The small mode is what loop unrolling (Fig. 4)
  // exists for: bodies too narrow to fill a wide machine at integer II.
  double small_loop_prob = 0.35;
  int small_lo = 3;
  int small_hi = 8;
  double size_mu = 2.5;
  double size_sigma = 0.6;
  int min_ops = 4;
  int max_ops = 64;

  // Memory mix (fractions of the body, drawn per loop).
  double load_fraction_lo = 0.15;
  double load_fraction_hi = 0.32;
  double store_fraction_lo = 0.06;
  double store_fraction_hi = 0.16;

  // Probability that a loop carries >= 1 register recurrence; extra
  // recurrences are added geometrically.
  double recurrence_prob = 0.55;
  double extra_recurrence_prob = 0.35;

  // Probability of a memory-carried recurrence (store feeding a later
  // iteration's load of the same array).
  double memory_recurrence_prob = 0.12;

  // Operand sourcing.
  double invariant_operand_prob = 0.14;
  double immediate_operand_prob = 0.10;
  double index_operand_prob = 0.03;

  int max_invariants = 4;
  int max_arrays = 4;
  int trip_lo = 24;
  int trip_hi = 192;
};

/// Generates one loop (deterministic in rng state and index).
[[nodiscard]] Loop synthesize_loop(Rng& rng, const SynthConfig& config, int index);

/// Generates config.loops loops from config.seed.
[[nodiscard]] std::vector<Loop> synthesize_suite(const SynthConfig& config = {});

}  // namespace qvliw
