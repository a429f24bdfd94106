// Workload point sets, the correctness checks and the latency pass.
#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "bench.h"
#include "harness/shard.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qvliw::perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ring4_ladder", "queue_fit"};
  return names;
}

namespace {

// perf_micro's sweep: 3 cluster heuristics x IMS budgets 6/12 on the
// 4-cluster ring.  One shared front end, three budget ladders.
std::vector<SweepPoint> ring4_ladder_points() {
  PipelineOptions base;
  base.unroll = true;
  const MachineConfig machine = MachineConfig::topology_machine(TopologyKind::kRing, 4);
  std::vector<SweepPoint> points;
  for (const ClusterHeuristic heuristic :
       {ClusterHeuristic::kAffinity, ClusterHeuristic::kLoadBalance, ClusterHeuristic::kFirstFit}) {
    for (const int budget : {6, 12}) {
      PipelineOptions options = base;
      options.scheduler = SchedulerKind::kClustered;
      options.heuristic = heuristic;
      options.ims.budget_ratio = budget;
      points.push_back(
          {cat("ring-4-", cluster_heuristic_name(heuristic), "-", budget, "x"), machine, options});
    }
  }
  return points;
}

// Fig. 3: single-cluster 4/6/12 FUs, 12 FUs without copies, and 6 FUs
// under 4/8/16/32-queue limits with II escalation.  No unrolling.
std::vector<SweepPoint> queue_fit_points() {
  std::vector<SweepPoint> points;
  for (const int fus : {4, 6, 12}) {
    points.push_back({cat(fus, "-fus"), MachineConfig::single_cluster_machine(fus), {}});
  }
  PipelineOptions without;
  without.insert_copies = false;
  points.push_back({"12-fus-no-copies", MachineConfig::single_cluster_machine(12), without});
  for (const int queues : {4, 8, 16, 32}) {
    PipelineOptions options;
    options.enforce_queue_limits = true;
    points.push_back(
        {cat("6-fus-", queues, "q"), MachineConfig::single_cluster_machine(6, queues), options});
  }
  return points;
}

}  // namespace

std::vector<SweepPoint> workload_points(std::string_view workload) {
  if (workload == "ring4_ladder") return ring4_ladder_points();
  if (workload == "queue_fit") return queue_fit_points();
  fail(cat("unknown workload '", workload, "' (known: ring4_ladder, queue_fit)"));
}

PipelineOptions cell_options(const SweepPoint& point) {
  PipelineOptions options = point.options;
  options.verify = VerifyPolicy::kStrict;
  return options;
}

// --- checks -------------------------------------------------------------------

std::string cell_mismatch(const LoopResult& expected, const LoopResult& actual) {
  const auto field = [](std::string_view name, auto want, auto got) {
    std::ostringstream out;
    out << name << " " << want << " != " << got;
    return out.str();
  };
  if (expected.ok != actual.ok) return field("ok", expected.ok, actual.ok);
  if (expected.failed_stage != actual.failed_stage) {
    return field("failed_stage", expected.failed_stage, actual.failed_stage);
  }
  if (expected.ii != actual.ii) return field("ii", expected.ii, actual.ii);
  if (expected.mii != actual.mii) return field("mii", expected.mii, actual.mii);
  if (expected.total_queues != actual.total_queues) {
    return field("queues", expected.total_queues, actual.total_queues);
  }
  if (expected.registers != actual.registers) {
    return field("registers", expected.registers, actual.registers);
  }
  if (expected.copies != actual.copies) return field("copies", expected.copies, actual.copies);
  if (expected.moves != actual.moves) return field("moves", expected.moves, actual.moves);
  if (expected.unroll_factor != actual.unroll_factor) {
    return field("unroll", expected.unroll_factor, actual.unroll_factor);
  }
  if (expected.sched_ops != actual.sched_ops) {
    return field("sched_ops", expected.sched_ops, actual.sched_ops);
  }
  return "";
}

std::vector<std::string> verify_problems(const SweepResult& sweep,
                                         const std::vector<SweepPoint>& points) {
  std::vector<std::string> problems;
  for (std::size_t p = 0; p < sweep.by_point.size(); ++p) {
    for (std::size_t i = 0; i < sweep.by_point[p].size(); ++i) {
      const LoopResult& r = sweep.by_point[p][i];
      if (r.verify_violations > 0) {
        problems.push_back(cat(points[p].label, "/", r.name, ": ", r.verify_violations,
                               " verify violation(s): ", r.failure));
      } else if (r.ok && !r.verify_checked) {
        problems.push_back(cat(points[p].label, "/", r.name, ": scheduled but never verified"));
      }
    }
  }
  return problems;
}

std::string fingerprint_hex(const SweepResult& sweep) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0')
      << hash_bytes(sweep_result_fingerprint(sweep));
  return out.str();
}

std::vector<std::string> outcome_mismatches(std::string_view what, const SweepResult& sweep,
                                            const std::vector<std::vector<LoopResult>>& actual,
                                            const std::vector<SweepPoint>& points) {
  std::vector<std::string> problems;
  if (actual.size() != sweep.by_point.size()) {
    problems.push_back(cat(what, ": ", actual.size(), " points, the sweep has ",
                           sweep.by_point.size()));
    return problems;
  }
  for (std::size_t p = 0; p < actual.size(); ++p) {
    if (actual[p].size() != sweep.by_point[p].size()) {
      problems.push_back(cat(what, ": point ", points[p].label, " has ", actual[p].size(),
                             " cells, the sweep has ", sweep.by_point[p].size()));
      continue;
    }
    for (std::size_t i = 0; i < actual[p].size(); ++i) {
      const std::string diff = cell_mismatch(sweep.by_point[p][i], actual[p][i]);
      if (!diff.empty()) {
        problems.push_back(cat(what, ": ", points[p].label, "/", actual[p][i].name,
                               ": sweep vs ", what, ": ", diff));
      }
    }
  }
  return problems;
}

// --- latency pass -------------------------------------------------------------

LatencyPass run_latency_pass(const std::vector<Loop>& loops,
                             const std::vector<SweepPoint>& points) {
  std::vector<PipelineOptions> options;
  for (const SweepPoint& point : points) options.push_back(cell_options(point));
  LatencyPass pass;
  pass.by_point.assign(points.size(), std::vector<LoopResult>(loops.size()));
  pass.micros.reserve(loops.size() * points.size());
  const Clock::time_point pass_start = Clock::now();
  for (std::size_t i = 0; i < loops.size(); ++i) {
    for (std::size_t p = 0; p < points.size(); ++p) {
      const Clock::time_point start = Clock::now();
      LoopResult result = run_pipeline(loops[i], points[p].machine, options[p]);
      pass.micros.push_back(1e6 * seconds_between(start, Clock::now()));
      pass.by_point[p][i] = std::move(result);
    }
  }
  pass.wall_seconds = seconds_between(pass_start, Clock::now());
  return pass;
}

// --- statistics -------------------------------------------------------------------

double median(std::vector<double> values) {
  check(!values.empty(), "median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  check(!values.empty(), "percentile of no values");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace qvliw::perfbench
