// Shared sweep fixtures: the budget-ladder point set and the run_pipeline
// reference every SweepRunner result is checked against.
#pragma once

#include <string>
#include <vector>

#include "harness/sweep.h"
#include "support/strings.h"

namespace qvliw {

/// Three cluster heuristics x ascending IMS budgets {6, 12} on `machine`,
/// all sharing one unrolled front end: three budget ladders the
/// MII-optimality memo short-circuits.  Labels read "<prefix>-<heuristic>-<budget>x".
inline std::vector<SweepPoint> ladder_points(const MachineConfig& machine,
                                             const std::string& prefix) {
  PipelineOptions base;
  base.unroll = true;
  base.max_unroll = 8;
  base.scheduler = SchedulerKind::kClustered;

  std::vector<SweepPoint> points;
  for (const ClusterHeuristic heuristic :
       {ClusterHeuristic::kAffinity, ClusterHeuristic::kLoadBalance,
        ClusterHeuristic::kFirstFit}) {
    for (const int budget : {6, 12}) {
      PipelineOptions options = base;
      options.heuristic = heuristic;
      options.ims.budget_ratio = budget;
      points.push_back(
          {cat(prefix, "-", cluster_heuristic_name(heuristic), "-", budget, "x"), machine, options});
    }
  }
  return points;
}

/// The sweep computed without any cache: one run_pipeline call per cell,
/// under the options `mode` gives the cell (kStrict forces strict
/// verification, as SweepRunner does).  A SweepRunner result must have the
/// same sweep_result_fingerprint; only search-effort stats may differ,
/// where the runner installed a memoized MII-optimal schedule.
inline SweepResult run_pipeline_sweep(const std::vector<Loop>& loops,
                                      const std::vector<SweepPoint>& points,
                                      SweepVerifyMode mode = SweepVerifyMode::kOff) {
  SweepResult sweep;
  for (const SweepPoint& point : points) {
    PipelineOptions options = point.options;
    if (mode == SweepVerifyMode::kStrict) options.verify = VerifyPolicy::kStrict;
    std::vector<LoopResult>& row = sweep.by_point.emplace_back();
    for (const Loop& loop : loops) row.push_back(run_pipeline(loop, point.machine, options));
  }
  sweep.pipelines = loops.size() * points.size();
  return sweep;
}

}  // namespace qvliw
