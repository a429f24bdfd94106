// The canonical compilation pipeline of the experiments.
//
// source loop
//   -> invariants (left in place as immediates; validates the loop)
//   -> loop unrolling (off | policy-selected | forced factor)
//   -> copy insertion (fan-out trees for the QRF)
//   -> modulo scheduling (single cluster | partitioned | partitioned+moves)
//   -> queue allocation (+ conventional-RF register baseline)
//   -> optional cycle-accurate simulation checked against the reference
//      interpreter
//
// Every paper experiment is a sweep of this pipeline under different
// options; benches only aggregate LoopResult records.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "cluster/partition.h"
#include "ir/loop.h"
#include "machine/machine.h"
#include "sched/backend.h"
#include "sched/ims.h"
#include "xform/copy_insert.h"
#include "xform/invariants.h"

namespace qvliw {

/// Whether the pipeline's verify stage runs the independent legality
/// checker (src/verify); under kStrict a violation fails the loop like any
/// other stage failure.
enum class VerifyPolicy : std::uint8_t { kOff, kStrict };

struct PipelineOptions {
  /// The one strategy (xform/invariants.h); no sweep point differs in it.
  InvariantStrategy invariants = InvariantStrategy::kImmediate;

  bool unroll = false;
  int forced_unroll = 0;  // 0 = policy choice; >= 1 = exact factor
  int max_unroll = 8;

  bool insert_copies = true;
  CopyTreeShape copy_shape = CopyTreeShape::kBalanced;

  SchedulerKind scheduler = SchedulerKind::kSingleCluster;

  /// Name of a scheduler backend (sched/backend.h); empty selects the
  /// backend of `scheduler`.  Unknown names fail the schedule stage with a
  /// diagnostic listing the three backends.
  std::string backend;

  ClusterHeuristic heuristic = ClusterHeuristic::kAffinity;
  ImsOptions ims;

  bool simulate = false;
  long long sim_trip = 0;  // 0 = the (unrolled) loop's trip_hint
  std::uint64_t seed = 0x5eedULL;

  /// When true, the schedule must also *fit the machine's queues* (counts
  /// and depths).  A larger II shortens the per-iteration overlap of
  /// lifetimes, so the pipeline escalates the II until the allocation
  /// fits or `queue_fit_attempts` retries are exhausted — the scheduling-
  /// side alternative to the spill code the paper mentions for finite
  /// QRFs.
  bool enforce_queue_limits = false;
  int queue_fit_attempts = 16;

  /// Translation validation of the emitted artifacts (DDG, schedule,
  /// routing, queue allocation) by the independent verifier.
  VerifyPolicy verify = VerifyPolicy::kOff;

  friend bool operator==(const PipelineOptions&, const PipelineOptions&) = default;
};

/// The pipeline's stages in execution order (harness/stage.h), plus the
/// sweep runner's MII pre-computation (kMii, 0 under run_pipeline).
enum class Stage : std::uint8_t {
  kInvariants,
  kUnroll,
  kCopyInsert,
  kMii,
  kSchedule,
  kQueueAlloc,
  kSim,
  kVerify,
};
inline constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kVerify) + 1;

/// "invariants", "unroll", "copy_insert", "mii", "schedule",
/// "queue_alloc", "sim" or "verify".
[[nodiscard]] std::string_view stage_name(Stage stage);

/// Wall seconds per stage, indexed by Stage.
using StageSeconds = std::array<double, kStageCount>;

struct LoopResult {
  std::string name;
  bool ok = false;
  std::string failure;
  /// stage_name of the stage that reported the failure (empty when ok).
  std::string failed_stage;

  // Shape.
  int src_ops = 0;    // operations in the source loop
  int sched_ops = 0;  // operations actually scheduled (replicas + copies + moves)
  int copies = 0;
  int moves = 0;
  int unroll_factor = 1;

  // Bounds and schedule.
  int res_mii = 0;
  int rec_mii = 0;
  int mii = 0;
  int ii = 0;
  int stage_count = 0;
  double ii_per_source = 0.0;  // ii / unroll_factor

  // Issue rates (useful ops only; copies/moves are plumbing).
  double ipc_static = 0.0;
  double ipc_dynamic = 0.0;

  // Queue demand.
  int total_queues = 0;
  int max_private_queues = 0;
  int max_segment_queues = 0;
  int max_positions = 0;

  // Conventional-RF register baseline for the same schedule.
  int registers = 0;

  // Queue-capacity enforcement (when requested).
  bool fits_machine_queues = false;  // QueueAllocation::fits(machine)
  int queue_fit_retries = 0;         // II escalations spent to fit

  // Simulation (when requested).
  bool sim_ok = false;
  long long sim_cycles = 0;

  // Translation validation (when requested).
  bool verify_checked = false;  // the verify stage ran the legality passes
  int verify_violations = 0;    // diagnostics found (0 on a legal artifact set)

  /// Scheduling effort: placements, evictions, forced placements and II
  /// attempts summed over the first schedule and every queue-fit
  /// escalation, a failing one included (an escalation settled by
  /// reschedule_invariant counts as the one attempt placing every op once
  /// that it stands for); budget_spent and mii_optimal are the accepted
  /// schedule's.
  ImsStats sched_stats;

  /// Name of the backend that scheduled this loop (empty when the run
  /// failed before the schedule stage).
  std::string backend;

  /// True when the accepted schedule came from a warm-start seed instead
  /// of a search (see sched/ims.h).  Like stage_seconds, this records how
  /// the result was obtained, not what it is, and is excluded from
  /// result-equivalence comparisons.
  bool warm_started = false;

  /// Per-stage wall time of this run; stages that did not run read 0, as
  /// do the front-end stages of a cell the SweepRunner served from its
  /// cache (the sweep charges that cost once, to the task).  Excluded from
  /// result-equivalence comparisons: timing is measurement, not outcome.
  StageSeconds stage_seconds{};
};

/// Runs the full pipeline on one loop.  Failures (loop does not fit the
/// machine within the II ladder, simulation mismatch, ...) are reported in
/// ok/failure, never thrown.
[[nodiscard]] LoopResult run_pipeline(const Loop& loop, const MachineConfig& machine,
                                      const PipelineOptions& options = {});

}  // namespace qvliw
