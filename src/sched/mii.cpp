#include "sched/mii.h"

#include <algorithm>

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

RecMii::RecMii(const Ddg& graph) : core_(graph) {
  if (core_.acyclic()) return;
  // With distance >= 1 on every circuit (a valid DDG), lambda is at most
  // the core's circuit latency bound, so II = that bound is feasible at
  // factor 1; only a zero-distance circuit of positive latency fails it.
  hi_num_ = std::max(1, core_.circuit_latency_bound());
  QVLIW_ASSERT(!core_.has_positive_cycle(static_cast<int>(hi_num_)),
               "DDG has a zero-distance cycle");
}

int RecMii::at(int factor) {
  check(factor >= 1, "rec_mii: factor must be >= 1");
  if (core_.acyclic()) return 1;
  // Feasibility is monotone in II: raising II only lowers the weight of
  // distance-carrying edges.  lo < lambda <= hi puts the answer in
  // [floor(U*lo) + 1, ceil(U*hi)], and the top of that range is feasible.
  const long long u = factor;
  long long lo = u * lo_num_ / lo_den_ + 1;
  long long hi = (u * hi_num_ + hi_den_ - 1) / hi_den_;
  QVLIW_ASSERT(lo <= hi, "rec_mii: empty circuit-ratio bracket");
  while (lo < hi) {
    const long long mid = lo + (hi - lo) / 2;
    if (core_.has_positive_cycle(static_cast<int>(mid), factor)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // lambda <= lo/U, and lambda > (lo - 1)/U: the search rejected lo - 1
  // unless lo is the bottom of its range, where (lo - 1)/U <= lo_ already.
  if (lo * hi_den_ < hi_num_ * u) {
    hi_num_ = lo;
    hi_den_ = u;
  }
  if ((lo - 1) * lo_den_ > lo_num_ * u) {
    lo_num_ = lo - 1;
    lo_den_ = u;
  }
  return static_cast<int>(lo);
}

int rec_mii(const Ddg& graph, int factor) { return RecMii(graph).at(factor); }

namespace {

/// MII bounds from ResMII `res` (0: infeasible), asking `rec` for RecMII
/// only on a feasible machine.
template <typename RecOf>
MiiInfo bounds(int res, RecOf rec) {
  MiiInfo info;
  info.res_mii = res;
  if (res == 0) return info;
  info.rec_mii = rec();
  info.mii = std::max(info.res_mii, info.rec_mii);
  info.feasible = true;
  return info;
}

}  // namespace

MiiInfo compute_mii(const Loop& loop, const Ddg& graph, const MachineConfig& machine, int factor) {
  return bounds(res_mii(loop, machine, factor), [&] { return rec_mii(graph, factor); });
}

MiiInfo compute_mii(const Loop& loop, RecMii& rec, const MachineConfig& machine, int factor) {
  return bounds(res_mii(loop, machine, factor), [&] { return rec.at(factor); });
}

}  // namespace qvliw
