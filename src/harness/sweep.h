// Sweep-level execution with prefix-artifact caching.
//
// Every figure of the paper is the same pipeline swept over ~1258 loops
// under varying options/machines.  `SweepRunner` executes the full
// (loop x sweep point) cross product, fanning loops across worker
// threads, and exploits the pipeline's front/back split (harness/stage.h):
// sweep points that share an options *prefix* — same unroll choice, same
// copy insertion — reuse the cached post-transform loop, its DDG, and the
// MII bounds instead of recomputing them, and only the back end
// (schedule, queue allocation, simulation, verification) runs per point.
// Which points share what is planned once per sweep (plan_sweep), by
// comparing points, before any loop runs.
//
// One task per loop: a task owns the loop's two caches (the front-prefix
// cache with its MII bounds, and the MII-optimality schedule memo),
// writes its own by_point cells and its own accounting slot, and touches
// nothing another task writes — so it needs no locks, and the runner sums
// the slots in loop order once every task is done.  Every cell is
// identical to run_pipeline's result for it, at every worker count
// (golden tests enforce both).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/pipeline.h"

namespace qvliw {

/// One point of a sweep: a machine plus pipeline options, with a label
/// for reporting.
struct SweepPoint {
  std::string label;
  MachineConfig machine;
  PipelineOptions options;
};

/// Hit accounting of a sweep task's two caches.  A "probe" is one lookup
/// by one (loop, point) pair; misses (probes - hits) are the computations
/// actually performed.
struct SweepCacheStats {
  std::uint64_t front_probes = 0, front_hits = 0;  // front-end artifacts (loop + DDG)
  std::uint64_t mii_probes = 0, mii_hits = 0;      // MII bounds per front entry and machine

  /// MII-optimality short-circuit: per warm-capable point, one probe of
  /// the task-local memo of schedules a sibling budget-ladder point already
  /// accepted at II == MII; a hit means the point installed that
  /// proven-optimal schedule instead of re-searching.
  std::uint64_t sched_memo_probes = 0, sched_memo_hits = 0;

  /// Counters of the retired queue-allocation and verification memos.
  /// Nothing writes them any more (they stay 0); they remain only because
  /// perfbench still reports them, and go with its next metric change.
  std::uint64_t verify_memo_probes = 0, verify_memo_hits = 0;
  std::uint64_t alloc_memo_probes = 0, alloc_memo_hits = 0;

  [[nodiscard]] std::uint64_t probes() const { return front_probes + mii_probes; }
  [[nodiscard]] std::uint64_t hits() const { return front_hits + mii_hits; }
  [[nodiscard]] double hit_rate() const;  // hits/probes; 0 when no probes

  SweepCacheStats& operator+=(const SweepCacheStats& other);
};

/// Wall time of one stage summed over every pipeline run of the sweep.
/// Front-end stages computed once per cache miss are charged once; kMii is
/// the runner's own pre-computation of MII bounds for the back end.
struct StageTotal {
  Stage stage = Stage::kInvariants;
  double seconds = 0.0;
};

/// Sweep-level translation validation (see PipelineOptions::verify).
enum class SweepVerifyMode : std::uint8_t {
  kOff,     // leave every point's own policy untouched
  kStrict,  // verify every cell; a violation fails the loop
};

struct SweepOptions {
  bool parallel = true;  // false forces serial regardless of `workers`

  /// Worker threads executing tasks (one per loop).  0 = auto (one per
  /// hardware thread); 1 = serial; N > 1 = exactly N threads, even when
  /// the machine has fewer cores (how tests exercise real concurrency on
  /// small runners).  Results are sweep_result_fingerprint-identical at
  /// every worker count.
  int workers = 0;

  SweepVerifyMode verify_mode = SweepVerifyMode::kOff;
};

/// The worker-thread count SweepRunner::run will actually use under
/// `options`: 1 when parallel is false, `workers` when explicit, hardware
/// concurrency otherwise.
[[nodiscard]] int resolved_sweep_workers(const SweepOptions& options);

/// Which earlier point each point of a sweep shares work with, worked out
/// once per sweep by comparing the points' options and machines (machines
/// are equal when their MachineConfig::signature is).  Entry p of each
/// vector is the first point q <= p whose artifact point p reuses (q == p
/// when p is the first of its kind), or kNone where p shares nothing of
/// that kind.
struct SweepPlan {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Front-end artifacts (post-transform loop and DDG, or the canonical
  /// front-end failure): the same unroll choice (the policy's on an equal
  /// machine) and copy insertion, and equal latency models.  Never kNone.
  std::vector<std::size_t> front;

  /// MII bounds: the same front slot on an equal machine.  kNone for
  /// backends that do not consume cached bounds
  /// (SchedulerBackend::consumes_cached_mii) and unknown backend names.
  std::vector<std::size_t> mii;

  /// Budget ladder, whose MII-optimal schedules the task-local memo
  /// shares: the same front slot, an equal machine, the same resolved
  /// backend and heuristic, and ImsOptions equal apart from budget_ratio.
  /// Options read only after scheduling (queue limits, simulation,
  /// verification, seed) do not separate ladders.  kNone for backends
  /// without warm starts (SchedulerBackend::supports_warm_start) and
  /// unknown backend names.
  std::vector<std::size_t> ladder;
};

[[nodiscard]] SweepPlan plan_sweep(const std::vector<SweepPoint>& points);

struct SweepResult {
  /// results[point][loop], index-aligned with the inputs.
  std::vector<std::vector<LoopResult>> by_point;
  SweepCacheStats cache;
  std::vector<StageTotal> stage_totals;  // one per Stage, in enum order
  double wall_seconds = 0.0;
  std::uint64_t pipelines = 0;  // loops x points executed

  [[nodiscard]] double pipelines_per_second() const;

  /// Translation-validation roll-up over by_point: cells whose verify
  /// stage ran, and the summed violation count (0 on a legal sweep).
  [[nodiscard]] std::uint64_t verify_checked() const;
  [[nodiscard]] std::uint64_t verify_violations() const;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Executes the cross product of `loops` and `points`.
  [[nodiscard]] SweepResult run(const std::vector<Loop>& loops,
                                const std::vector<SweepPoint>& points) const;

  /// Cross product of `loops` with several options on one machine
  /// (labels are the point indices).
  [[nodiscard]] SweepResult run(const std::vector<Loop>& loops, const MachineConfig& machine,
                                const std::vector<PipelineOptions>& options_points) const;

 private:
  SweepOptions options_;
};

}  // namespace qvliw
