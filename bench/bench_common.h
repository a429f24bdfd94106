// Shared plumbing for the bench programs and examples: the suite they run on.
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string_view>
#include <system_error>

#include "workload/suite.h"

namespace qvliw::bench {

/// `text` as an int when the whole of it is one, and it is at least
/// `least`; nullopt otherwise ("12x", "", "abc", out of range).
inline std::optional<int> parse_int(std::string_view text, int least) {
  int n = 0;
  const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), n);
  if (error != std::errc{} || end != text.data() + text.size() || n < least) return std::nullopt;
  return n;
}

/// Suite size: the paper's 1258 loops by default; override with
/// QVLIW_LOOPS=<n> for quick runs.  A value that is not a positive int
/// as a whole exits with status 2 instead of running the full suite.
inline int suite_size() {
  const char* env = std::getenv("QVLIW_LOOPS");
  if (env == nullptr) return 1258;
  const std::optional<int> n = parse_int(env, 1);
  if (!n) {
    std::cerr << "QVLIW_LOOPS must be a positive integer, got '" << env << "'\n";
    std::exit(2);
  }
  return *n;
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
