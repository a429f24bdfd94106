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

}  // namespace qvliw::bench
