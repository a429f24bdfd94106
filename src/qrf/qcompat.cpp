#include "qrf/qcompat.h"

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "support/diagnostics.h"

namespace qvliw {

bool q_compatible(int push_a, int pop_a, int push_b, int pop_b, int ii) {
  return q_compatible(phase_span(push_a, pop_a, ii), phase_span(push_b, pop_b, ii), ii);
}

bool q_compatible(const Lifetime& a, const Lifetime& b, int ii) {
  return q_compatible(a.push, a.pop, b.push, b.pop, ii);
}

bool q_compatible_bruteforce(int push_a, int pop_a, int push_b, int pop_b, int ii) {
  check(ii >= 1, "q_compatible_bruteforce: ii must be >= 1");
  check(pop_a >= push_a && pop_b >= push_b, "q_compatible_bruteforce: pop before push");
  // Enough periods that every instance-pair phase interaction occurs even
  // when the representatives' push times are far apart (deep pipelines).
  const int max_len = std::max(pop_a - push_a, pop_b - push_b);
  const int skew = std::abs(push_a - push_b);
  const int periods = (max_len + skew) / ii + 8;

  // Tag = (lifetime id, iteration). Gather push/pop events per cycle.
  struct Events {
    std::vector<std::pair<int, int>> pushes;
    std::vector<std::pair<int, int>> pops;
  };
  std::map<long long, Events> timeline;
  for (int k = 0; k < periods; ++k) {
    timeline[static_cast<long long>(push_a) + static_cast<long long>(k) * ii].pushes.push_back({0, k});
    timeline[static_cast<long long>(pop_a) + static_cast<long long>(k) * ii].pops.push_back({0, k});
    timeline[static_cast<long long>(push_b) + static_cast<long long>(k) * ii].pushes.push_back({1, k});
    timeline[static_cast<long long>(pop_b) + static_cast<long long>(k) * ii].pops.push_back({1, k});
  }

  std::deque<std::pair<int, int>> fifo;
  for (auto& [cycle, events] : timeline) {
    (void)cycle;
    if (events.pushes.size() > 1) return false;  // one write port per queue
    if (events.pops.size() > 1) return false;    // one read port per queue
    // Pushes land at the start of the cycle, pops read at the end, so a
    // zero-length lifetime passes through within its cycle.
    for (const auto& tag : events.pushes) fifo.push_back(tag);
    for (const auto& tag : events.pops) {
      if (fifo.empty() || fifo.front() != tag) return false;  // FIFO order broken
      fifo.pop_front();
    }
  }
  return true;
}

}  // namespace qvliw
