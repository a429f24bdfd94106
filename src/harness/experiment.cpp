#include "harness/experiment.h"

#include "harness/sweep.h"

namespace qvliw {

std::vector<LoopResult> run_suite(const std::vector<Loop>& loops, const MachineConfig& machine,
                                  const PipelineOptions& options) {
  SweepResult sweep = SweepRunner().run(loops, machine, {options});
  return std::move(sweep.by_point.front());
}

double fraction_ok(const std::vector<LoopResult>& results) {
  if (results.empty()) return 0.0;
  std::size_t ok = 0;
  for (const LoopResult& r : results) {
    if (r.ok) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(results.size());
}

double fraction_of_scheduled(const std::vector<LoopResult>& results,
                             const std::function<bool(const LoopResult&)>& predicate) {
  std::size_t scheduled = 0;
  std::size_t hits = 0;
  for (const LoopResult& r : results) {
    if (!r.ok) continue;
    ++scheduled;
    if (predicate(r)) ++hits;
  }
  return scheduled == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(scheduled);
}

double mean_of_scheduled(const std::vector<LoopResult>& results,
                         const std::function<double(const LoopResult&)>& metric) {
  std::size_t scheduled = 0;
  double total = 0.0;
  for (const LoopResult& r : results) {
    if (!r.ok) continue;
    ++scheduled;
    total += metric(r);
  }
  return scheduled == 0 ? 0.0 : total / static_cast<double>(scheduled);
}

}  // namespace qvliw
