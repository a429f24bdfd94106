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
#include "ir/graph_algos.h"
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

/// RecMII of one DDG at any unroll factor, asked of its recurrence core.
///
/// RecMII(U) = max(1, ceil(U * lambda)), where lambda is the graph's
/// largest circuit ratio latency/distance; RecurrenceCore decides
/// "II >= RecMII(U)" as "no positive cycle under weights
/// U*latency - II*distance".  Every answer narrows a bracket
/// lo < lambda <= hi: lambda <= r/U after an answer r, and lambda >
/// (r - 1)/U once r - 1 was tested and rejected.  So factor U searches only
/// [floor(U*lo) + 1, ceil(U*hi)], in any order of factors.  An acyclic
/// graph answers 1 with no test, and the zero-distance-cycle assertion
/// runs once, when the object is built.
class RecMii {
 public:
  explicit RecMii(const Ddg& graph);

  /// RecMII of the graph unrolled by `factor` (>= 1), computed on the
  /// graph itself.  That equals RecMII of the replica-lifted (unrolled)
  /// DDG exactly; see RecurrenceCore::has_positive_cycle.
  [[nodiscard]] int at(int factor);

 private:
  RecurrenceCore core_;
  // lo_ = lo_num_/lo_den_ < lambda <= hi_num_/hi_den_ = hi_.
  long long lo_num_ = 0;
  long long lo_den_ = 1;
  long long hi_num_ = 1;
  long long hi_den_ = 1;
};

/// RecMII of `graph` unrolled by `factor`: RecMii(graph).at(factor).
[[nodiscard]] int rec_mii(const Ddg& graph, int factor = 1);

/// MII bounds of unroll(loop, factor) from the *base* loop and DDG,
/// without materialising the unrolled loop; factor 1 bounds `loop`
/// itself.  Exact versus the bounds of the materialised unrolled loop
/// whenever the unrolled DDG is the replica lift of `graph`;
/// unroll_probe_is_exact (xform/unroll.h) decides that precondition.
/// Infeasible when the machine lacks an FU kind the loop uses.
[[nodiscard]] MiiInfo compute_mii(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                                  int factor = 1);

/// compute_mii with RecMII asked of `rec`, built from `loop`'s DDG: the
/// unroll prober asks one RecMii for every factor.
[[nodiscard]] MiiInfo compute_mii(const Loop& loop, RecMii& rec, const MachineConfig& machine,
                                  int factor);

}  // namespace qvliw
