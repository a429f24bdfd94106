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

/// ResMII of unroll(loop, factor): every FU-class count scales by the
/// factor and is ceil-divided by the machine-wide instances.  0 when some
/// used FU kind has no instance at all (infeasible marker).
[[nodiscard]] int res_mii(const Loop& loop, const MachineConfig& machine, int factor = 1);

/// RecMII of `graph` unrolled by `factor`, computed on `graph` itself:
/// the smallest II admitting no positive cycle under weights
/// (factor*latency - II*distance), found by binary search.  That equals
/// RecMII of the replica-lifted (unrolled) DDG exactly; see
/// has_positive_cycle.  `rec_floor` (>= 1) is a known lower bound on the
/// answer (RecMII is nondecreasing in the factor, so the previous
/// factor's value is a valid floor for an incremental sweep).
[[nodiscard]] int rec_mii(const Ddg& graph, int factor = 1, int rec_floor = 1);

/// MII bounds of unroll(loop, factor) from the *base* loop and DDG,
/// without materialising the unrolled loop; factor 1 bounds `loop`
/// itself.  Exact versus the bounds of the materialised unrolled loop
/// whenever the unrolled DDG is the replica lift of `graph`;
/// unroll_probe_is_exact (xform/unroll.h) decides that precondition.
/// Infeasible when the machine lacks an FU kind the loop uses.
[[nodiscard]] MiiInfo compute_mii(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                                  int factor = 1, int rec_floor = 1);

}  // namespace qvliw
