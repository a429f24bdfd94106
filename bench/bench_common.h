// Shared plumbing for the figure-reproduction benches.
//
// Every bench assembles its experiment as a vector of SweepPoints and
// hands the whole cross product to SweepRunner in one call, so points
// sharing an options prefix (same invariants/unroll/copy choices) reuse
// the cached front-end artifacts instead of recomputing them per point.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/stage.h"
#include "harness/sweep.h"
#include "support/strings.h"
#include "workload/suite.h"

namespace qvliw::bench {

/// Suite size: the paper's 1258 loops by default; override with
/// QVLIW_LOOPS=<n> for quick runs.
inline int suite_size() {
  if (const char* env = std::getenv("QVLIW_LOOPS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1258;
}

/// Default worker-thread request for the benches: QVLIW_WORKERS=<n>, 0 =
/// auto (one per hardware thread).  Benches overriding it with a
/// --workers flag still fall back here when the flag is absent.
inline int env_workers() {
  if (const char* env = std::getenv("QVLIW_WORKERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 0;
}

/// Unroll search bound (QVLIW_MAX_UNROLL, default 8 as in the library).
inline int max_unroll() {
  if (const char* env = std::getenv("QVLIW_MAX_UNROLL")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 8;
}

inline Suite make_suite() {
  SynthConfig config;
  config.loops = suite_size();
  return full_suite(config);
}

/// Short label prefix for a bench machine: "ring-4", "mesh-9", "xbar-4".
inline std::string topology_label(TopologyKind kind, int clusters) {
  return cat(kind == TopologyKind::kCrossbar ? "xbar" : topology_kind_name(kind), "-", clusters);
}

/// Shared `--topology ring|mesh|crossbar` / `--clusters N` parsing for the
/// bench drivers.  Defaults to the paper's 4-cluster ring, so benches run
/// without flags keep their historical labels and fingerprints.
struct TopologyChoice {
  TopologyKind kind = TopologyKind::kRing;
  int clusters = 4;

  [[nodiscard]] MachineConfig machine() const {
    return MachineConfig::topology_machine(kind, clusters);
  }
  [[nodiscard]] std::string label() const { return topology_label(kind, clusters); }

  /// Consumes `--topology`/`--clusters` at argv[a] (advancing `a` past the
  /// value).  Returns false on an unknown flag or a bad value; callers fall
  /// through to their own flag handling.
  bool parse_flag(int argc, char** argv, int& a) {
    const std::string flag = argv[a];
    if (flag == "--topology") {
      if (a + 1 >= argc) return false;
      const auto parsed = parse_topology_kind(argv[++a]);
      if (!parsed.has_value()) return false;
      kind = *parsed;
      return true;
    }
    if (flag == "--clusters") {
      if (a + 1 >= argc) return false;
      clusters = std::atoi(argv[++a]);
      return clusters >= 1;
    }
    return false;
  }
};

/// The multi-heuristic back-end sweep perf_micro and sweep_scaling share:
/// every point reuses the unrolled/copy-inserted front end of one machine
/// (default: the paper's 4-cluster ring) and differs only in (heuristic,
/// IMS budget), so the points form ascending-budget ladders per heuristic
/// that the MII-optimality memo short-circuits.
inline std::vector<SweepPoint> perf_sweep_points(const TopologyChoice& choice = {}) {
  PipelineOptions base;
  base.unroll = true;
  base.max_unroll = max_unroll();

  std::vector<SweepPoint> points;
  const MachineConfig machine = choice.machine();
  for (const ClusterHeuristic heuristic :
       {ClusterHeuristic::kAffinity, ClusterHeuristic::kLoadBalance,
        ClusterHeuristic::kFirstFit}) {
    for (const int budget : {6, 12}) {
      PipelineOptions options = base;
      options.scheduler = SchedulerKind::kClustered;
      options.heuristic = heuristic;
      options.ims.budget_ratio = budget;
      points.push_back({cat(choice.label(), "-", cluster_heuristic_name(heuristic), "-", budget,
                            "x"),
                        machine, options});
    }
  }
  return points;
}

inline void print_suite_line(std::ostream& os, const Suite& suite) {
  os << "suite: " << suite.loops.size() << " loops (" << suite.kernel_count
     << " hand-written kernels + " << suite.loops.size() - static_cast<std::size_t>(suite.kernel_count)
     << " calibrated synthetic); override size with QVLIW_LOOPS=<n>\n\n";
}

/// Instrumentation footer: sweep throughput, cache effectiveness and the
/// per-stage wall-time split.
inline void print_sweep_footer(std::ostream& os, const SweepResult& sweep) {
  os << "\n[sweep] " << sweep.pipelines << " pipeline runs in " << fixed(sweep.wall_seconds, 2)
     << " s (" << fixed(sweep.pipelines_per_second(), 1) << " pipelines/s); artifact cache hit rate "
     << percent(sweep.cache.hit_rate()) << " (" << sweep.cache.hits() << "/"
     << sweep.cache.probes() << " probes)\n[sweep] stage time:";
  for (const StageTotal& total : sweep.stage_totals) {
    os << " " << total.stage << " " << fixed(total.seconds, 2) << "s";
  }
  os << "\n";
}

/// Sum of the back-end stages' wall time.
inline double backend_seconds(const SweepResult& sweep) {
  return sweep.stage_seconds(kStageSchedule) + sweep.stage_seconds(kStageQueueAlloc) +
         sweep.stage_seconds(kStageSim);
}

}  // namespace qvliw::bench
