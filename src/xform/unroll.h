// Loop unrolling (Section 3 of the paper).
//
// Unrolling by U replicates the body U times; the unrolled loop initiates
// U source iterations per kernel iteration, so its fair comparison metric
// is II/U per source iteration.  The paper's II_speedup for a loop is
//
//     II_speedup = II(original) / (II(unrolled) / U).
//
// Value operands are re-indexed: a use of `v@d` in replica k reads replica
// (k-d) of the same unrolled iteration when k >= d, otherwise replica
// (k-d mod U) of ceil((d-k)/U) unrolled iterations earlier.  Memory
// offsets and index operands shift by stride*k, and the unrolled stride is
// stride*U, which keeps the memory-dependence algebra exact.
//
// Factor selection probes MII(factor)/factor over candidate factors.  The
// incremental prober (probe_unroll_factor) does this without materialising
// any candidate: the DDG of the unrolled loop is the U-fold *replica lift*
// of the base DDG (value edges by the operand rewrite above, memory edges
// because affine dependences scale with the stride), so per-factor RecMII
// is decidable on the base graph under scaled weights (one RecMii answers
// every factor) and per-factor ResMII follows from FU-class counts.  The
// one place the lift argument breaks is memdep's distance cutoff — loops
// carrying a same-array offset pair further than kMemDepMaxDistance
// iterations apart fall back to the naive materialise-and-measure probe so
// the chosen factor stays bit-identical (the golden-equivalence tests
// enforce this).
#pragma once

#include <memory>

#include "ir/ddg.h"
#include "ir/loop.h"
#include "machine/machine.h"
#include "sched/mii.h"

namespace qvliw {

/// Unrolls `loop` by `factor` (>= 1; factor 1 returns a copy).
/// The result's trip_hint is ceil(trip_hint/factor) (>= 1): one unrolled
/// iteration performs `factor` source iterations, and a partial trailing
/// group still costs a full kernel iteration.
[[nodiscard]] Loop unroll(const Loop& loop, int factor);

struct UnrollChoice {
  int factor = 1;
  /// Estimated per-source-iteration interval MII(factor)/factor.
  double rate = 0.0;
};

/// Everything a factor probe learned, so callers compute nothing twice.
struct UnrollProbe {
  UnrollChoice choice;

  /// MII bounds of the winning factor's (pre-copy-insertion) loop.
  MiiInfo mii;

  /// The materialised winner, null iff choice.factor == 1 (the caller's
  /// loop already is the winner).  The caller owns it and may move it out.
  std::unique_ptr<Loop> loop;

  int factors_probed = 0;     // candidate factors examined, incl. factor 1
  bool incremental = false;   // fast path used (no per-factor materialisation)
};

/// Lavery/Hwu-style selection: the smallest factor in [1, max_factor]
/// minimising the estimated per-source-iteration MII.  Factors whose
/// unrolled body exceeds `max_ops` are skipped (they cannot pay off on the
/// machines considered and blow up scheduling time).  Uses the incremental
/// prober when unroll_probe_is_exact(loop), the naive one otherwise; the
/// chosen factor and bounds are bit-identical either way.
[[nodiscard]] UnrollProbe probe_unroll_factor(const Loop& loop, const MachineConfig& machine,
                                              int max_factor = 8, int max_ops = 512);

/// Reference brute-force probe: materialises every candidate factor and
/// measures compute_mii on its DDG.  Kept as the golden-equivalence oracle
/// for probe_unroll_factor and as its fallback when the fast path cannot
/// be exact.
[[nodiscard]] UnrollProbe probe_unroll_factor_naive(const Loop& loop, const MachineConfig& machine,
                                                    int max_factor = 8, int max_ops = 512);

/// True when the incremental prober is provably exact for `loop`: no
/// same-array reference pair (at least one store) aliases at a dependence
/// distance beyond kMemDepMaxDistance.  Such a pair is dropped from the
/// base DDG by the cutoff yet can re-enter the unrolled DDG at a shorter
/// distance, which only the naive probe observes.
[[nodiscard]] bool unroll_probe_is_exact(const Loop& loop);

/// Convenience wrapper over probe_unroll_factor returning the choice only.
[[nodiscard]] UnrollChoice select_unroll_factor(const Loop& loop, const MachineConfig& machine,
                                                int max_factor = 8, int max_ops = 512);

}  // namespace qvliw
