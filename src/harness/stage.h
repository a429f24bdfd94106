// The compile pipeline as an explicit stage graph.
//
//   InvariantStage -> UnrollStage -> CopyInsertStage ->          (front end)
//   ScheduleStage -> QueueAllocStage -> SimStage -> VerifyStage  (back end)
//
// A `PipelineContext` carries the typed artifacts between stages: the
// working Loop after each transform, the DDG, the schedule, the queue
// allocation — plus the `LoopResult` being assembled.  Each stage is
// stateless (all state lives in the context), reports its wall time into
// `LoopResult::stage_times`, and records failure provenance in
// `LoopResult::failed_stage`.
//
// The front/back split is the caching seam: every artifact a front-end
// stage produces is a pure function of (source loop, options prefix,
// machine signature), so the sweep runner (harness/sweep.h) computes it
// once per distinct prefix and replays only the back end per sweep point.
// `run_pipeline` is the degenerate case: full plan, no injected artifacts.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "harness/pipeline.h"
#include "ir/ddg.h"
#include "qrf/queue_alloc.h"
#include "sched/mii.h"

namespace qvliw {

/// Artifact bundle flowing through the stage graph for one loop + one
/// sweep point.
struct PipelineContext {
  PipelineContext(const Loop& source_loop, const MachineConfig& machine_config,
                  const PipelineOptions& pipeline_options);

  const Loop* source;
  const MachineConfig* machine;
  const PipelineOptions* options;

  // --- artifacts, populated stage by stage --------------------------------
  Loop loop;                         // working loop (post the latest transform)
  std::shared_ptr<const Ddg> graph;  // built by CopyInsertStage (or injected)
  MiiInfo known_mii;                 // injected by the sweep cache; feasible
                                     // == false means "compute it"
  const WarmStartSeed* seed = nullptr;  // injected by the sweep runner's
                                        // MII-optimality memo (may be null)
  ImsResult sched;
  QueueAllocation allocation;

  LoopResult result;
};

/// One pipeline stage.  Stages are stateless singletons: `run` reads and
/// writes only the context.  Returning false stops the pipeline; the stage
/// has then filled ctx.result.failure.
class Stage {
 public:
  virtual ~Stage() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  virtual bool run(PipelineContext& ctx) = 0;
};

// Canonical stage names (also the keys of StageTiming/failed_stage).
inline constexpr std::string_view kStageInvariants = "invariants";
inline constexpr std::string_view kStageUnroll = "unroll";
inline constexpr std::string_view kStageCopyInsert = "copy_insert";
inline constexpr std::string_view kStageSchedule = "schedule";
inline constexpr std::string_view kStageQueueAlloc = "queue_alloc";
inline constexpr std::string_view kStageSim = "sim";
inline constexpr std::string_view kStageVerify = "verify";

/// Applies the loop-invariant strategy to ctx.loop.
class InvariantStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return kStageInvariants; }
  bool run(PipelineContext& ctx) override;
};

/// Unrolls ctx.loop (policy-selected or forced factor) when requested.
class UnrollStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return kStageUnroll; }
  bool run(PipelineContext& ctx) override;
};

/// Restores queue fan-out legality with copy trees, then builds the DDG
/// (the artifact every back-end stage consumes).
class CopyInsertStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return kStageCopyInsert; }
  bool run(PipelineContext& ctx) override;
};

/// Modulo-schedules ctx.loop through the scheduler-backend registry
/// (options.backend when set, else the built-in backend of
/// options.scheduler).  A rewriting backend (clustered-moves inserts
/// relay ops) replaces ctx.loop/ctx.graph with its rewritten versions.
class ScheduleStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return kStageSchedule; }
  bool run(PipelineContext& ctx) override;
};

/// Allocates lifetimes to queues; under enforce_queue_limits escalates the
/// II (re-entering the scheduler) until the machine's queues fit.  Fills
/// the schedule/queue metric fields of the result.
class QueueAllocStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return kStageQueueAlloc; }
  bool run(PipelineContext& ctx) override;
};

/// Cycle-accurate simulation checked against the reference interpreter.
class SimStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return kStageSim; }
  bool run(PipelineContext& ctx) override;
};

/// Translation validation of the emitted artifacts by the independent
/// static verifier (src/verify), governed by PipelineOptions::verify:
/// audit records verify_checked/verify_violations and keeps the result;
/// strict additionally fails the loop on the first violation.
class VerifyStage final : public Stage {
 public:
  [[nodiscard]] std::string_view name() const override { return kStageVerify; }
  bool run(PipelineContext& ctx) override;
};

/// The full seven-stage plan, and its two halves around the caching seam.
[[nodiscard]] const std::vector<Stage*>& full_stage_plan();
[[nodiscard]] const std::vector<Stage*>& front_stage_plan();
[[nodiscard]] const std::vector<Stage*>& back_stage_plan();

/// Runs `stages` over ctx in order: times every stage into
/// result.stage_times, stops at the first failure (recording
/// result.failed_stage), converts a thrown Error into the monolithic
/// pipeline's "pipeline error: ..." failure, and sets result.ok when every
/// stage passed.
void run_stages(PipelineContext& ctx, const std::vector<Stage*>& stages);

/// One scheduling attempt starting at `start_ii` (0 = from MII), exactly
/// the monolith's schedule_once: shared by ScheduleStage and the queue-fit
/// escalation in QueueAllocStage.
[[nodiscard]] ImsResult schedule_attempt(PipelineContext& ctx, int start_ii);

}  // namespace qvliw
