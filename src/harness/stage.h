// The compile pipeline as two fixed halves.
//
//   invariants -> unroll -> copy_insert                (front end)
//   schedule -> queue_alloc -> sim -> verify           (back end)
//
// A `PipelineContext` carries the typed artifacts between stages: the
// working Loop after each transform, the DDG, the schedule, the queue
// allocation — plus the `LoopResult` being assembled.  Each stage reports
// its wall time into `LoopResult::stage_seconds` and, when it fails,
// its stage_name into `LoopResult::failed_stage`.
//
// The front/back split is the caching seam: every artifact the front end
// produces is a pure function of (source loop, options prefix, machine
// signature), so the sweep runner (harness/sweep.h) computes it once per
// distinct prefix and replays only the back end per sweep point.
// `run_pipeline` runs both halves with no injected artifacts.
#pragma once

#include <memory>

#include "harness/pipeline.h"
#include "ir/ddg.h"
#include "qrf/queue_alloc.h"
#include "sched/mii.h"

namespace qvliw {

/// Artifact bundle flowing through the pipeline for one loop + one sweep
/// point.
struct PipelineContext {
  PipelineContext(const Loop& source_loop, const MachineConfig& machine_config,
                  const PipelineOptions& pipeline_options);

  const Loop* source;
  const MachineConfig* machine;
  const PipelineOptions* options;

  // --- artifacts, populated stage by stage --------------------------------
  Loop loop;                         // working loop (post the latest transform)
  std::shared_ptr<const Ddg> graph;  // built by the copy_insert stage (or injected)
  // The next two are passed to the backend as they are: the sweep runner
  // injects them only where its plan allows (SweepPlan::mii, ::ladder).
  MiiInfo known_mii;                 // injected by the sweep cache; feasible
                                     // == false means "compute it"
  const WarmStartSeed* seed = nullptr;  // injected by the sweep runner's
                                        // MII-optimality memo (may be null)
  ImsResult sched;
  QueueAllocation allocation;

  LoopResult result;
};

/// Runs the invariant strategy, unrolling (policy-selected or forced
/// factor) and copy insertion with the DDG build over ctx.  Returns
/// whether every stage passed; a failing stage stops the half and fills
/// result.failure and result.failed_stage.  A thrown Error becomes the
/// failure "pipeline error: ...".
bool run_front_end(PipelineContext& ctx);

/// Runs scheduling through the backend registry, queue allocation (with
/// II escalation under enforce_queue_limits), simulation and verification
/// over ctx, whose loop and graph the front end (or the sweep cache)
/// supplied.  Sets and returns result.ok; failures as in run_front_end.
bool run_back_end(PipelineContext& ctx);

}  // namespace qvliw
