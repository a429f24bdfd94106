#include "sched/mii.h"

#include <algorithm>

#include "ir/graph_algos.h"
#include "support/diagnostics.h"

namespace qvliw {

int res_mii(const Loop& loop, const MachineConfig& machine, int factor) {
  check(factor >= 1, "res_mii: factor must be >= 1");
  std::array<int, kNumFuKinds> ops_per_kind{};
  for (const Op& op : loop.ops) {
    ops_per_kind[static_cast<std::size_t>(fu_for(op.opcode))] += 1;
  }
  int bound = 1;
  for (int k = 0; k < kNumFuKinds; ++k) {
    const int ops = ops_per_kind[static_cast<std::size_t>(k)] * factor;
    if (ops == 0) continue;
    const int fus = machine.total_fus(static_cast<FuKind>(k));
    if (fus == 0) return 0;  // infeasible marker
    bound = std::max(bound, (ops + fus - 1) / fus);
  }
  return bound;
}

int rec_mii(const Ddg& graph, int factor, int rec_floor) {
  check(factor >= 1, "rec_mii: factor must be >= 1");
  check(rec_floor >= 1, "rec_mii: rec_floor must be >= 1");
  // Feasibility is monotone in II: raising II only lowers the weight of
  // distance-carrying edges.  An elementary circuit leaves each node on
  // it by one edge, so the sum over nodes of the largest out-edge latency
  // bounds its latency, and with distance >= 1 (a valid DDG) II = that
  // sum is feasible; each of the factor replicas adds the same sum.  The
  // sum of op latencies is no bound: a memory-order edge has latency 1
  // even from a latency-0 op.
  int circuit_latency = 0;
  for (int v = 0; v < graph.node_count(); ++v) {
    int longest = 0;
    for (const int e : graph.out_edges(v)) longest = std::max(longest, graph.edge(e).latency);
    circuit_latency += longest;
  }
  int lo = rec_floor;
  int hi = std::max(lo, factor * std::max(1, circuit_latency));
  QVLIW_ASSERT(!has_positive_cycle(graph, hi, factor), "DDG has a zero-distance cycle");
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (has_positive_cycle(graph, mid, factor)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

MiiInfo compute_mii(const Loop& loop, const Ddg& graph, const MachineConfig& machine, int factor,
                    int rec_floor) {
  MiiInfo info;
  info.res_mii = res_mii(loop, machine, factor);
  if (info.res_mii == 0) {
    info.feasible = false;
    return info;
  }
  info.rec_mii = rec_mii(graph, factor, rec_floor);
  info.mii = std::max(info.res_mii, info.rec_mii);
  info.feasible = true;
  return info;
}

}  // namespace qvliw
