#include "harness/sweep.h"

#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "harness/stage.h"
#include "sched/mii.h"
#include "support/parallel.h"
#include "support/strings.h"

namespace qvliw {

double SweepCacheStats::hit_rate() const {
  const std::uint64_t p = probes();
  return p == 0 ? 0.0 : static_cast<double>(hits()) / static_cast<double>(p);
}

SweepCacheStats& SweepCacheStats::operator+=(const SweepCacheStats& other) {
  front_probes += other.front_probes;
  front_hits += other.front_hits;
  mii_probes += other.mii_probes;
  mii_hits += other.mii_hits;
  sched_memo_probes += other.sched_memo_probes;
  sched_memo_hits += other.sched_memo_hits;
  verify_memo_probes += other.verify_memo_probes;
  verify_memo_hits += other.verify_memo_hits;
  alloc_memo_probes += other.alloc_memo_probes;
  alloc_memo_hits += other.alloc_memo_hits;
  return *this;
}

double SweepResult::pipelines_per_second() const {
  return wall_seconds > 0.0 ? static_cast<double>(pipelines) / wall_seconds : 0.0;
}

double SweepResult::stage_seconds(Stage stage) const {
  const auto s = static_cast<std::size_t>(stage);
  return s < stage_totals.size() ? stage_totals[s].seconds : 0.0;
}

std::uint64_t SweepResult::verify_checked() const {
  std::uint64_t checked = 0;
  for (const auto& row : by_point) {
    for (const LoopResult& result : row) {
      if (result.verify_checked) ++checked;
    }
  }
  return checked;
}

std::uint64_t SweepResult::verify_violations() const {
  std::uint64_t violations = 0;
  for (const auto& row : by_point) {
    for (const LoopResult& result : row) {
      violations += static_cast<std::uint64_t>(result.verify_violations);
    }
  }
  return violations;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void add(StageSeconds& into, const StageSeconds& seconds) {
  for (std::size_t s = 0; s < kStageCount; ++s) into[s] += seconds[s];
}

// --- the plan -------------------------------------------------------------

/// Whether two points' front ends produce the same artifacts.  Only the
/// unroll policy and the DDG read the machine: the policy factor
/// (probe_unroll_factor) all of it, the DDG its latencies.
bool same_front(const SweepPoint& a, const SweepPoint& b, bool same_machine) {
  const PipelineOptions& x = a.options;
  const PipelineOptions& y = b.options;
  if (x.unroll != y.unroll) return false;
  if (x.unroll) {
    const bool forced = x.forced_unroll >= 1;
    if (forced != (y.forced_unroll >= 1)) return false;
    if (forced ? x.forced_unroll != y.forced_unroll
               : x.max_unroll != y.max_unroll || !same_machine) {
      return false;
    }
  }
  if (x.insert_copies != y.insert_copies) return false;
  if (x.insert_copies && x.copy_shape != y.copy_shape) return false;
  return a.machine.latency.latency == b.machine.latency.latency;
}

/// Whether two points on one front end and machine, with the same
/// backend, search the same schedules: everything the scheduler reads
/// except the placement budget, the effort axis a ladder spans.
bool same_search(const PipelineOptions& x, const PipelineOptions& y) {
  ImsOptions ims = x.ims;
  ims.budget_ratio = y.ims.budget_ratio;
  return x.heuristic == y.heuristic && ims == y.ims;
}

// --- per-task caches ------------------------------------------------------

struct FrontEntry {
  Loop loop;  // copy-inserted scheduler input
  std::shared_ptr<const Ddg> graph;
  bool ok = false;    // every front-end stage passed
  LoopResult result;  // the front end's result; when !ok, the canonical
                      // failing LoopResult replayed for every point
                      // (stage_seconds zeroed; its cost is charged once)
};

/// A schedule a point of a budget ladder accepted at II == MII.  An MII
/// schedule cannot be beaten, so any later point of the ladder whose
/// budget is at least the publisher's installs it outright instead of
/// re-searching — the cold attempt at MII is deterministic and completes
/// within the publisher's (smaller) budget, so the installed schedule is
/// bit-identical to what the skipped search would have produced.
struct SchedEntry {
  WarmStartSeed seed;
  int budget_ratio = 0;  // smallest budget that proved the MII schedule
};

/// The two caches one sweep task (one loop, every point) keeps, each
/// indexed by the plan's slots.
struct TaskCache {
  explicit TaskCache(std::size_t points) : front(points), mii(points), sched(points) {}

  std::vector<std::optional<FrontEntry>> front;
  std::vector<std::optional<MiiInfo>> mii;
  std::vector<std::optional<SchedEntry>> sched;  // MII-optimality memo
};

/// The front end of one (loop, front slot): run once by the slot's first
/// point, its time charged to the task's `seconds`, then replayed —
/// artifacts or canonical failure — for every point sharing the slot.
const FrontEntry& front_for(const Loop& source, const SweepPoint& point,
                            std::optional<FrontEntry>& slot, SweepCacheStats& stats,
                            StageSeconds& seconds) {
  ++stats.front_probes;
  if (slot) {
    ++stats.front_hits;
    return *slot;
  }

  PipelineContext ctx(source, point.machine, point.options);
  const bool ok = run_front_end(ctx);
  add(seconds, ctx.result.stage_seconds);
  ctx.result.stage_seconds = {};
  return slot.emplace(FrontEntry{std::move(ctx.loop), std::move(ctx.graph), ok,
                                 std::move(ctx.result)});
}

MiiInfo mii_for(const FrontEntry& front, const MachineConfig& machine,
                std::optional<MiiInfo>& slot, SweepCacheStats& stats, StageSeconds& seconds) {
  ++stats.mii_probes;
  if (slot) {
    ++stats.mii_hits;
    return *slot;
  }
  const Clock::time_point start = Clock::now();
  slot = compute_mii(front.loop, *front.graph, machine);
  seconds[static_cast<std::size_t>(Stage::kMii)] += seconds_since(start);
  return *slot;
}

/// Runs the back end of one (loop, point) cell on a cached front entry.
/// `mii` and `ladder` are the point's slots in the task's caches, null
/// where the plan gives it none; from the ladder slot the cell installs a
/// sibling's MII-optimal schedule when its budget may use it, and
/// publishes its own.
LoopResult run_cell(const Loop& source, const SweepPoint& point, const PipelineOptions& options,
                    const FrontEntry& front, std::optional<MiiInfo>* mii,
                    std::optional<SchedEntry>* ladder, SweepCacheStats& stats,
                    StageSeconds& seconds) {
  PipelineContext ctx(source, point.machine, options);
  ctx.loop = front.loop;
  ctx.graph = front.graph;
  ctx.result.unroll_factor = front.result.unroll_factor;
  ctx.result.copies = front.result.copies;
  if (mii != nullptr) ctx.known_mii = mii_for(front, point.machine, *mii, stats, seconds);

  const int budget = point.options.ims.budget_ratio;
  if (ladder != nullptr) {
    ++stats.sched_memo_probes;
    if (*ladder && budget >= (*ladder)->budget_ratio) ctx.seed = &(*ladder)->seed;
  }
  run_back_end(ctx);
  if (ctx.result.warm_started) ++stats.sched_memo_hits;

  // Publish a proven-optimal accepted schedule (II == MII, post queue-fit
  // escalation) for this task's later ladder siblings, keeping the
  // smallest budget that proved it.
  if (ladder != nullptr && ctx.sched.ok && ctx.sched.stats.mii_optimal &&
      (!*ladder || budget < (*ladder)->budget_ratio)) {
    *ladder = SchedEntry{WarmStartSeed{ctx.sched.schedule, ctx.sched.ii}, budget};
  }
  return std::move(ctx.result);
}

}  // namespace

SweepPlan plan_sweep(const std::vector<SweepPoint>& points) {
  const std::size_t n = points.size();
  std::vector<std::uint64_t> machine(n);
  std::vector<const SchedulerBackend*> backend(n);
  for (std::size_t p = 0; p < n; ++p) {
    machine[p] = points[p].machine.signature();
    backend[p] = find_scheduler_backend(points[p].options.scheduler, points[p].options.backend);
  }

  SweepPlan plan{std::vector<std::size_t>(n), std::vector<std::size_t>(n, SweepPlan::kNone),
                 std::vector<std::size_t>(n, SweepPlan::kNone)};
  for (std::size_t p = 0; p < n; ++p) {
    // Each sharing relation is an equivalence, so the first earlier point
    // it holds for is that point's own slot.
    const auto first_sharing = [p](const auto& shares) {
      std::size_t q = 0;
      while (q < p && !shares(q)) ++q;
      return q;
    };
    plan.front[p] = first_sharing([&](std::size_t q) {
      return same_front(points[q], points[p], machine[q] == machine[p]);
    });
    // An unknown backend name shares nothing more; the point fails in its
    // schedule stage.
    if (backend[p] == nullptr) continue;
    const auto same_front_and_machine = [&](std::size_t q) {
      return plan.front[q] == plan.front[p] && machine[q] == machine[p];
    };
    if (backend[p]->consumes_cached_mii()) {
      plan.mii[p] = first_sharing([&](std::size_t q) {
        return plan.mii[q] != SweepPlan::kNone && same_front_and_machine(q);
      });
    }
    if (backend[p]->supports_warm_start()) {
      plan.ladder[p] = first_sharing([&](std::size_t q) {
        return plan.ladder[q] != SweepPlan::kNone && backend[q] == backend[p] &&
               same_front_and_machine(q) && same_search(points[q].options, points[p].options);
      });
    }
  }
  return plan;
}

int resolved_sweep_workers(const SweepOptions& options) {
  if (!options.parallel) return 1;
  if (options.workers > 0) return options.workers;
  return static_cast<int>(worker_count());
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

SweepResult SweepRunner::run(const std::vector<Loop>& loops,
                             const std::vector<SweepPoint>& points) const {
  const Clock::time_point sweep_start = Clock::now();

  SweepResult sweep;
  sweep.by_point.assign(points.size(), std::vector<LoopResult>(loops.size()));
  sweep.pipelines = loops.size() * points.size();

  const SweepPlan plan = plan_sweep(points);

  // Effective per-point options: strict sweep verification overrides each
  // point's own (weaker or equal) verify policy.
  std::vector<PipelineOptions> cell_options(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    cell_options[p] = points[p].options;
    if (options_.verify_mode == SweepVerifyMode::kStrict) {
      cell_options[p].verify = VerifyPolicy::kStrict;
    }
  }

  // One accounting slot per task; each task writes only its own slot and
  // its own by_point cells, so tasks share no mutable state.
  std::vector<SweepCacheStats> task_stats(loops.size());
  std::vector<StageSeconds> task_seconds(loops.size());

  auto run_task = [&](std::size_t i) {
    TaskCache cache(points.size());
    SweepCacheStats stats;
    StageSeconds seconds{};
    const auto slot = [](auto& cache_slots, std::size_t index) {
      return index == SweepPlan::kNone ? nullptr : &cache_slots[index];
    };
    for (std::size_t p = 0; p < points.size(); ++p) {
      const SweepPoint& point = points[p];
      LoopResult& out = sweep.by_point[p][i];
      const FrontEntry& front =
          front_for(loops[i], point, cache.front[plan.front[p]], stats, seconds);
      out = front.ok ? run_cell(loops[i], point, cell_options[p], front,
                                slot(cache.mii, plan.mii[p]), slot(cache.sched, plan.ladder[p]),
                                stats, seconds)
                     : front.result;
    }
    task_stats[i] = stats;
    task_seconds[i] = seconds;
  };
  parallel_for(loops.size(), static_cast<std::size_t>(resolved_sweep_workers(options_)),
               run_task);

  // Sum the task slots in loop order, then per-stage wall time: each
  // cell's back end plus the front-end and MII work the tasks charged
  // once.
  StageSeconds totals{};
  for (std::size_t i = 0; i < loops.size(); ++i) {
    sweep.cache += task_stats[i];
    add(totals, task_seconds[i]);
  }
  for (const std::vector<LoopResult>& results : sweep.by_point) {
    for (const LoopResult& result : results) add(totals, result.stage_seconds);
  }
  for (std::size_t s = 0; s < kStageCount; ++s) {
    sweep.stage_totals.push_back({static_cast<Stage>(s), totals[s]});
  }

  sweep.wall_seconds = seconds_since(sweep_start);
  return sweep;
}

SweepResult SweepRunner::run(const std::vector<Loop>& loops, const MachineConfig& machine,
                             const std::vector<PipelineOptions>& options_points) const {
  std::vector<SweepPoint> points;
  points.reserve(options_points.size());
  for (std::size_t p = 0; p < options_points.size(); ++p) {
    points.push_back({cat("point-", p), machine, options_points[p]});
  }
  return run(loops, points);
}

}  // namespace qvliw
