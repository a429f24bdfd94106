#include "harness/stage.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "cluster/route.h"
#include "qrf/rf_alloc.h"
#include "sim/vliwsim.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "verify/verify.h"
#include "xform/copy_insert.h"
#include "xform/unroll.h"

namespace qvliw {

PipelineContext::PipelineContext(const Loop& source_loop, const MachineConfig& machine_config,
                                 const PipelineOptions& pipeline_options)
    : source(&source_loop), machine(&machine_config), options(&pipeline_options) {
  result.name = source_loop.name;
  result.src_ops = source_loop.op_count();
}

namespace {

// --- stages ----------------------------------------------------------------
//
// Each returns false on failure, having filled ctx.result.failure.

bool invariant_stage(PipelineContext& ctx) {
  ctx.loop = materialize_invariants(*ctx.source, ctx.options->invariants);
  return true;
}

bool unroll_stage(PipelineContext& ctx) {
  if (!ctx.options->unroll) return true;
  if (ctx.options->forced_unroll >= 1) {
    ctx.result.unroll_factor = ctx.options->forced_unroll;
    ctx.loop = unroll(ctx.loop, ctx.result.unroll_factor);
    return true;
  }
  // The probe already materialised the winning factor's loop, and it is
  // moved in; a null loop means factor 1 (the working loop is the winner
  // as-is).
  UnrollProbe probe = probe_unroll_factor(ctx.loop, *ctx.machine, ctx.options->max_unroll);
  ctx.result.unroll_factor = probe.choice.factor;
  if (probe.loop != nullptr) ctx.loop = std::move(*probe.loop);
  return true;
}

bool copy_insert_stage(PipelineContext& ctx) {
  if (ctx.options->insert_copies) {
    // Fused rewrite + incremental DDG derivation: the post-copy graph is
    // built from the pre-copy memory dependences mapped through op_map,
    // skipping both the quadratic memdep recomputation and the redundant
    // revalidation of the rewritten loop.
    CopyInsertWithGraph fused =
        insert_copies_with_graph(ctx.loop, ctx.machine->latency, ctx.options->copy_shape);
    ctx.result.copies = fused.rewrite.copies_added;
    ctx.loop = std::move(fused.rewrite.loop);
    ctx.graph = std::make_shared<const Ddg>(std::move(fused.graph));
  } else {
    ctx.graph = std::make_shared<const Ddg>(Ddg::build(ctx.loop, ctx.machine->latency));
  }
  return true;
}

/// The point's scheduler backend.  Unknown backend names throw Error
/// here; run_stage converts that into the canonical "pipeline error: ..."
/// failure with the backend table's known-names diagnostic.
const SchedulerBackend& backend_of(const PipelineContext& ctx) {
  return ctx.options->backend.empty() ? scheduler_backend(ctx.options->scheduler)
                                      : SchedulerRegistry::instance().require(ctx.options->backend);
}

/// One scheduling attempt starting at `start_ii` (0 = from MII): shared by
/// the schedule stage and the queue-fit escalation of queue_alloc.
ImsResult schedule_attempt(PipelineContext& ctx, int start_ii) {
  const SchedulerBackend& backend = backend_of(ctx);

  ScheduleRequest request;
  request.loop = &ctx.loop;
  request.graph = ctx.graph.get();
  request.machine = ctx.machine;
  request.ims = ctx.options->ims;
  request.ims.start_ii = std::max(request.ims.start_ii, start_ii);
  request.ims.known_mii = ctx.known_mii;
  request.heuristic = ctx.options->heuristic;
  request.seed = ctx.seed;

  ScheduleOutcome outcome = backend.schedule(request);
  ctx.result.backend = backend.name();
  if (outcome.rewrote) {
    ctx.result.moves = outcome.moves_added;
    ctx.loop = std::move(outcome.rewritten_loop);
    ctx.graph = std::move(outcome.rewritten_graph);
    ctx.known_mii = MiiInfo{};  // cached bounds no longer apply to the rewrite
  }
  return std::move(outcome.ims);
}

bool schedule_stage(PipelineContext& ctx) {
  ctx.sched = schedule_attempt(ctx, 0);
  ctx.result.warm_started = ctx.sched.warm_started;
  ctx.result.sched_ops = ctx.loop.op_count();
  ctx.result.res_mii = ctx.sched.mii.res_mii;
  ctx.result.rec_mii = ctx.sched.mii.rec_mii;
  ctx.result.mii = ctx.sched.mii.mii;
  ctx.result.sched_stats = ctx.sched.stats;
  if (!ctx.sched.ok) {
    ctx.result.failure = ctx.sched.failure;
    return false;
  }
  return true;
}

bool queue_alloc_stage(PipelineContext& ctx) {
  LoopResult& result = ctx.result;
  if (!ctx.options->enforce_queue_limits) {
    // A cell that does not fit still reports its queue counts.
    ctx.allocation = allocate_queues(ctx.loop, *ctx.graph, *ctx.machine, ctx.sched.schedule);
    result.fits_machine_queues = ctx.allocation.fits(*ctx.machine);
  } else {
    // Only a fitting allocation is read under queue limits, so every step
    // allocates through allocate_fitting_queues, which stops at the first
    // excess.
    const auto allocate = [&] {
      return allocate_fitting_queues(ctx.loop, *ctx.graph, *ctx.machine, ctx.sched.schedule);
    };
    std::optional<QueueAllocation> fitting = allocate();
    result.fits_machine_queues = fitting.has_value();
    // Every escalation schedules the same loop and graph, so a backend
    // that takes cached bounds reuses the accepted schedule's.
    if (!result.fits_machine_queues && backend_of(ctx).consumes_cached_mii()) {
      ctx.known_mii = ctx.sched.mii;
    }
    // Escalate the II until the allocation fits the machine's queues.
    // result.sched_stats sums the effort; its budget_spent and mii_optimal
    // stay the accepted schedule's.
    ImsStats& effort = result.sched_stats;
    while (!result.fits_machine_queues &&
           result.queue_fit_retries < ctx.options->queue_fit_attempts) {
      if (ctx.sched.ii_invariant && ctx.sched.ii < ctx.options->ims.max_ii) {
        // Every larger II repeats these placements and so this allocation
        // (ImsResult::ii_invariant): no escalation up to the II cap can
        // fit, so count them instead of rescheduling each one, each as the
        // one attempt that places every op once.  Past the cap, IMS runs
        // and reports its own failure.
        const int steps = std::min(ctx.options->queue_fit_attempts - result.queue_fit_retries,
                                   ctx.options->ims.max_ii - ctx.sched.ii);
        result.queue_fit_retries += steps;
        ctx.sched = reschedule_invariant(ctx.sched, ctx.sched.ii + steps);
        add_effort(effort, ctx.sched.stats, steps);
        effort.budget_spent = ctx.sched.stats.budget_spent;
        effort.mii_optimal = ctx.sched.stats.mii_optimal;
        continue;
      }
      ++result.queue_fit_retries;
      ImsResult retry = schedule_attempt(ctx, ctx.sched.ii + 1);
      add_effort(effort, retry.stats);
      if (!retry.ok) {
        result.failure = cat("queue-fit retry failed: ", retry.failure);
        return false;
      }
      ctx.sched = std::move(retry);
      effort.budget_spent = ctx.sched.stats.budget_spent;
      effort.mii_optimal = ctx.sched.stats.mii_optimal;
      // Provenance tracks the accepted schedule: a retry that searched
      // replaces a warm install (and vice versa).
      ctx.result.warm_started = ctx.sched.warm_started;
      fitting = allocate();
      result.fits_machine_queues = fitting.has_value();
    }
    if (!fitting.has_value()) {
      result.failure = cat("allocation does not fit machine queues after ",
                           result.queue_fit_retries, " II escalations");
      return false;
    }
    ctx.allocation = std::move(*fitting);
  }

  result.sched_ops = ctx.loop.op_count();  // retries may have added moves
  result.ii = ctx.sched.ii;
  result.stage_count = ctx.sched.schedule.stage_count();
  result.ii_per_source = static_cast<double>(ctx.sched.ii) / result.unroll_factor;
  result.ipc_static = static_ipc(ctx.loop, ctx.sched.schedule);
  const long long trip = std::max(1, ctx.loop.trip_hint);
  result.ipc_dynamic = dynamic_ipc(ctx.loop, ctx.machine->latency, ctx.sched.schedule, trip);
  result.total_queues = ctx.allocation.total_queues();
  result.max_private_queues = ctx.allocation.max_private_queues();
  result.max_segment_queues = ctx.allocation.max_segment_queues();
  result.max_positions = ctx.allocation.max_positions();
  result.registers =
      register_requirement(ctx.loop, *ctx.graph, ctx.machine->latency, ctx.sched.schedule);
  return true;
}

bool sim_stage(PipelineContext& ctx) {
  if (!ctx.options->simulate) return true;
  SimOptions sim_options;
  sim_options.seed = ctx.options->seed;
  const long long trip = std::max(1, ctx.loop.trip_hint);
  const long long sim_trip = ctx.options->sim_trip > 0 ? ctx.options->sim_trip : trip;
  const CheckedSim checked = simulate_and_check(ctx.loop, *ctx.graph, *ctx.machine,
                                                ctx.sched.schedule, ctx.allocation, sim_trip,
                                                sim_options);
  ctx.result.sim_ok = checked.ok;
  ctx.result.sim_cycles = checked.sim.cycles;
  if (!checked.ok) {
    ctx.result.failure = checked.failure;
    return false;
  }
  return true;
}

bool verify_stage(PipelineContext& ctx) {
  if (ctx.options->verify == VerifyPolicy::kOff) return true;
  // Earlier-stage failures stop the back end before this stage, so a complete
  // artifact set (loop, graph, schedule, allocation) is guaranteed here.
  // `must_fit` verifies the producer's capacity *claim*: only when the
  // pipeline reported a fitting allocation must queues/depths check out.
  const bool check_fanout = ctx.options->insert_copies;
  const bool must_fit = ctx.result.fits_machine_queues;
  const VerifyReport report = verify_artifacts(ctx.loop, *ctx.graph, *ctx.machine,
                                               ctx.sched.schedule, &ctx.allocation, check_fanout,
                                               must_fit);
  const int violations = report.violations();
  ctx.result.verify_checked = true;
  ctx.result.verify_violations = violations;
  if (violations > 0) {
    ctx.result.failure = cat("legality verification failed: ", report.summary());
    return false;
  }
  return true;
}

// --- the two halves -------------------------------------------------------

/// Runs one stage: times it into result.stage_seconds, turns a thrown
/// Error into the "pipeline error: ..." failure, and records failed_stage.
bool run_stage(PipelineContext& ctx, Stage stage, bool (*body)(PipelineContext&)) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  bool passed = false;
  try {
    passed = body(ctx);
  } catch (const Error& error) {
    ctx.result.failure = cat("pipeline error: ", error.what());
  }
  ctx.result.stage_seconds[static_cast<std::size_t>(stage)] =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!passed) ctx.result.failed_stage = stage_name(stage);
  return passed;
}

}  // namespace

bool run_front_end(PipelineContext& ctx) {
  return run_stage(ctx, Stage::kInvariants, invariant_stage) &&
         run_stage(ctx, Stage::kUnroll, unroll_stage) &&
         run_stage(ctx, Stage::kCopyInsert, copy_insert_stage);
}

bool run_back_end(PipelineContext& ctx) {
  ctx.result.ok = run_stage(ctx, Stage::kSchedule, schedule_stage) &&
                  run_stage(ctx, Stage::kQueueAlloc, queue_alloc_stage) &&
                  run_stage(ctx, Stage::kSim, sim_stage) &&
                  run_stage(ctx, Stage::kVerify, verify_stage);
  return ctx.result.ok;
}

}  // namespace qvliw
