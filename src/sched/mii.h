// Lower bounds on the initiation interval.
//
// ResMII: most-used FU class (operation count over FU instances, summed
// machine-wide — a clustered machine is bounded as if monolithic; the
// partitioner's job is to approach this bound).
// RecMII: smallest II for which no dependence circuit requires
// sigma-progress faster than II per iteration (no positive cycle under
// weights latency - II*distance).
#pragma once

#include "ir/ddg.h"
#include "ir/loop.h"
#include "machine/machine.h"

namespace qvliw {

struct MiiInfo {
  bool feasible = false;  // false when some op class has no FU at all
  int res_mii = 0;
  int rec_mii = 0;
  int mii = 0;  // max(res_mii, rec_mii)

  friend bool operator==(const MiiInfo&, const MiiInfo&) = default;
};

/// Resource-constrained MII; 0-feasible only if every used FU kind exists.
[[nodiscard]] MiiInfo compute_mii(const Loop& loop, const Ddg& graph, const MachineConfig& machine);

/// ResMII alone (ops per FU kind vs machine-wide instances).
[[nodiscard]] int res_mii(const Loop& loop, const MachineConfig& machine);

/// RecMII alone: binary search over II with positive-cycle detection.
[[nodiscard]] int rec_mii(const Ddg& graph);

/// MII bounds of unroll(loop, factor) computed on the *base* loop and DDG,
/// without materialising the unrolled loop:
///   - ResMII scales analytically (factor*ops per FU class, ceil-divided
///     by machine-wide instances);
///   - RecMII is the smallest II admitting no positive cycle in the base
///     graph under weights (factor*latency - II*distance), which equals
///     RecMII of the replica-lifted (unrolled) DDG exactly — see
///     has_positive_cycle_scaled.
/// `rec_floor` (>= 1) is an optional known lower bound on the answer's
/// RecMII component (RecMII is nondecreasing in the factor, so the
/// previous factor's value is a valid floor for an incremental sweep).
/// Exact versus compute_mii on the materialised unrolled loop whenever the
/// unrolled DDG is the replica lift of `graph`; unroll_probe_is_exact
/// (xform/unroll.h) decides that precondition.
[[nodiscard]] MiiInfo unrolled_mii(const Loop& loop, const Ddg& graph,
                                   const MachineConfig& machine, int factor, int rec_floor = 1);

}  // namespace qvliw
