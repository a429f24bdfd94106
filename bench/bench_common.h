// Shared plumbing for the bench programs: the suite they run on.
#pragma once

#include <cstdlib>
#include <iostream>

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

inline Suite make_suite() {
  SynthConfig config;
  config.loops = suite_size();
  return full_suite(config);
}

inline void print_suite_line(std::ostream& os, const Suite& suite) {
  os << "suite: " << suite.loops.size() << " loops (" << suite.kernel_count
     << " hand-written kernels + " << suite.loops.size() - static_cast<std::size_t>(suite.kernel_count)
     << " calibrated synthetic); override size with QVLIW_LOOPS=<n>\n\n";
}

}  // namespace qvliw::bench
