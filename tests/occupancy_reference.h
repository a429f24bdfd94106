// Reference occupancy scans — the per-phase loops queue allocation and
// MaxLive used before peak_live.
//
// Each scan evaluates every lifetime's live-instance count at every phase
// of one period past the last pop, where the count has reached its
// steady state: O(II x lifetimes) with two floor divisions per term.
// peak_live's closed form must agree with these exactly
// (tests/test_lifetime.cpp, tests/test_queue_alloc.cpp).  Do not
// "optimise" this file; its directness is the point of comparison.
#pragma once

#include <algorithm>
#include <vector>

#include "qrf/lifetime.h"
#include "qrf/rf_alloc.h"
#include "support/diagnostics.h"

namespace qvliw {

inline long long reference_floor_div(long long a, long long b) {
  QVLIW_ASSERT(b > 0, "floor_div: divisor must be positive");
  long long q = a / b;
  if (a % b != 0 && a < 0) --q;
  return q;
}

/// Number of live instances of a (push, pop, II)-periodic lifetime at
/// absolute cycle `t`, counting residency inclusively on both ends
/// (instances with push+k*II <= t <= pop+k*II, k >= 0).
inline int live_instances(int push, int pop, int ii, long long t) {
  check(ii >= 1, "live_instances: ii must be >= 1");
  check(pop >= push, "live_instances: pop before push");
  // Count k >= 0 with push + k*ii <= t and t <= pop + k*ii:
  //   k <= floor((t - push) / ii)  and  k >= ceil((t - pop) / ii).
  const long long k_hi = reference_floor_div(t - push, ii);
  const long long k_lo = std::max<long long>(0, -reference_floor_div(pop - t, ii));
  if (k_hi < k_lo) return 0;
  return static_cast<int>(k_hi - k_lo + 1);
}

/// A queue's steady-state positions: maximum summed occupancy of its
/// members over one period, evaluated past the longest member's first pop.
inline int reference_queue_occupancy(const std::vector<Lifetime>& lifetimes,
                                     const std::vector<int>& members, int ii) {
  long long t0 = 0;
  for (int member : members) {
    t0 = std::max<long long>(t0, lifetimes[static_cast<std::size_t>(member)].pop);
  }
  int best = 0;
  for (int phase = 0; phase < ii; ++phase) {
    int live = 0;
    for (int member : members) {
      const Lifetime& lt = lifetimes[static_cast<std::size_t>(member)];
      live += live_instances(lt.push, lt.pop, ii, t0 + phase);
    }
    best = std::max(best, live);
  }
  return best;
}

/// MaxLive over conventional register lifetimes, by the same scan.
inline int reference_register_requirement(const std::vector<RfLifetime>& lifetimes, int ii) {
  long long t0 = 0;
  for (const RfLifetime& lt : lifetimes) t0 = std::max<long long>(t0, lt.end);
  int best = 0;
  for (int phase = 0; phase < ii; ++phase) {
    int live = 0;
    for (const RfLifetime& lt : lifetimes) {
      live += live_instances(lt.start, lt.end, ii, t0 + phase);
    }
    best = std::max(best, live);
  }
  return best;
}

}  // namespace qvliw
