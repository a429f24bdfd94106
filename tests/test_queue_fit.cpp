// Queue-capacity-constrained scheduling: the pipeline escalates the II
// until the allocation fits the machine's configured queue counts/depths.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "harness/pipeline.h"
#include "harness/shard.h"
#include "harness/stage.h"
#include "harness/sweep.h"
#include "qrf/queue_alloc.h"
#include "support/strings.h"
#include "workload/kernels.h"
#include "workload/suite.h"
#include "workload/synth.h"

namespace qvliw {
namespace {

/// A cell whose queue_alloc stage failed: the front end's and the schedule
/// stage's fields of `first`, the walk's summed `effort`, nothing of a
/// later stage.
LoopResult failed_escalation(const LoopResult& first, int retries, const ImsStats& effort,
                             std::string failure) {
  LoopResult r;
  r.name = first.name;
  r.failure = std::move(failure);
  r.failed_stage = "queue_alloc";
  r.src_ops = first.src_ops;
  r.sched_ops = first.sched_ops;
  r.copies = first.copies;
  r.moves = first.moves;
  r.unroll_factor = first.unroll_factor;
  r.res_mii = first.res_mii;
  r.rec_mii = first.rec_mii;
  r.mii = first.mii;
  r.queue_fit_retries = retries;
  r.sched_stats = effort;
  r.backend = first.backend;
  return r;
}

/// Queue-fit escalation as a full walk: every step reschedules from
/// scratch one II above the last step and reallocates.  A step is a
/// run_pipeline call without enforcement whose search starts at that II.
/// The effort sums over the first call and every step, a failing one
/// included; budget_spent and mii_optimal are the last accepted step's.
LoopResult full_walk(const Loop& loop, const MachineConfig& machine, PipelineOptions options) {
  const int attempts = options.queue_fit_attempts;
  options.enforce_queue_limits = false;
  const LoopResult first = run_pipeline(loop, machine, options);
  if (first.failed_stage == "schedule") return first;
  LoopResult step = first;
  ImsStats effort = first.sched_stats;
  int retries = 0;
  while (!step.fits_machine_queues && retries < attempts) {
    ++retries;
    options.ims.start_ii = step.ii + 1;
    LoopResult next = run_pipeline(loop, machine, options);
    effort.placements += next.sched_stats.placements;
    effort.evictions += next.sched_stats.evictions;
    effort.forced += next.sched_stats.forced;
    effort.ii_attempts += next.sched_stats.ii_attempts;
    if (next.failed_stage == "schedule") {
      return failed_escalation(first, retries, effort, "queue-fit retry failed: " + next.failure);
    }
    effort.budget_spent = next.sched_stats.budget_spent;
    effort.mii_optimal = next.sched_stats.mii_optimal;
    step = std::move(next);
  }
  if (!step.fits_machine_queues) {
    return failed_escalation(
        first, retries, effort,
        cat("allocation does not fit machine queues after ", retries, " II escalations"));
  }
  step.queue_fit_retries = retries;
  step.sched_stats = effort;
  return step;
}

/// The cell's outcome bytes, every fingerprinted field.
std::string fingerprint(const LoopResult& cell) {
  SweepResult sweep;
  sweep.by_point.push_back({cell});
  return sweep_result_fingerprint(sweep);
}

void expect_same_cell(const LoopResult& got, const LoopResult& want, const std::string& where) {
  EXPECT_EQ(got.ok, want.ok) << where;
  EXPECT_EQ(got.failure, want.failure) << where;
  EXPECT_EQ(got.queue_fit_retries, want.queue_fit_retries) << where;
  EXPECT_EQ(got.ii, want.ii) << where;
  EXPECT_EQ(got.total_queues, want.total_queues) << where;
  EXPECT_EQ(got.sched_stats.placements, want.sched_stats.placements) << where;
  EXPECT_EQ(got.sched_stats.evictions, want.sched_stats.evictions) << where;
  EXPECT_EQ(got.sched_stats.forced, want.sched_stats.forced) << where;
  EXPECT_EQ(got.sched_stats.ii_attempts, want.sched_stats.ii_attempts) << where;
  EXPECT_EQ(got.sched_stats.budget_spent, want.sched_stats.budget_spent) << where;
  EXPECT_EQ(got.sched_stats.mii_optimal, want.sched_stats.mii_optimal) << where;
  EXPECT_EQ(fingerprint(got), fingerprint(want)) << where;
}

TEST(QueueFit, EscalationMatchesTheFullWalk) {
  // Fig. 3's finite-queue points, where most escalations go to cells
  // that never fit: on those the pipeline counts the retries an
  // ii_invariant schedule cannot win instead of rescheduling them.
  SynthConfig config;
  config.loops = 120;
  const Suite suite = full_suite(config);
  PipelineOptions options;
  options.enforce_queue_limits = true;
  int exhausted = 0;
  for (const int queues : {4, 8, 16}) {
    const MachineConfig machine = MachineConfig::single_cluster_machine(6, queues);
    for (const Loop& loop : suite.loops) {
      const LoopResult got = run_pipeline(loop, machine, options);
      const std::string where = cat(loop.name, " at ", queues, " queues");
      expect_same_cell(got, full_walk(loop, machine, options), where);
      if (!got.ok && got.queue_fit_retries == options.queue_fit_attempts) {
        ++exhausted;
        // The first schedule and every escalation each made an attempt.
        EXPECT_GE(got.sched_stats.ii_attempts, 1 + got.queue_fit_retries) << where;
      }
    }
  }
  EXPECT_GT(exhausted, 0);
}

TEST(QueueFit, EscalationPastTheIiCapEndsInImsFailure) {
  // fir8 never fits 4 queues.  Searched from II 32, its schedule lands in
  // the first period and repeats at every larger II.  With the II cap one
  // above it, one escalation is counted and the next runs IMS past the cap.
  const Loop loop = kernel_by_name("fir8");
  const MachineConfig machine = MachineConfig::single_cluster_machine(6, 4);
  PipelineOptions options;
  options.enforce_queue_limits = true;
  options.ims.start_ii = 32;
  PipelineContext ctx(loop, machine, options);
  ASSERT_TRUE(run_front_end(ctx));
  const ImsResult first = ims_schedule(ctx.loop, *ctx.graph, machine, options.ims);
  ASSERT_TRUE(first.ok && first.ii_invariant);  // the premise of the test
  ASSERT_FALSE(allocate_queues(ctx.loop, *ctx.graph, machine, first.schedule)
                   .capacity_violations(machine)
                   .empty());

  options.ims.max_ii = first.ii + 1;
  const LoopResult got = run_pipeline(loop, machine, options);
  EXPECT_EQ(got.failure, cat("queue-fit retry failed: start II ", first.ii + 2,
                             " above II limit ", first.ii + 1));
  EXPECT_EQ(got.queue_fit_retries, 2);
  expect_same_cell(got, full_walk(loop, machine, options), "fir8");
}

TEST(QueueFit, GenerousMachineNeedsNoRetries) {
  MachineConfig machine = MachineConfig::single_cluster_machine(6, 32);
  machine.clusters[0].queue_depth = 64;
  PipelineOptions options;
  options.enforce_queue_limits = true;
  const LoopResult r = run_pipeline(kernel_by_name("daxpy"), machine, options);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.fits_machine_queues);
  EXPECT_EQ(r.queue_fit_retries, 0);
}

TEST(QueueFit, TightQueueCountForcesLargerII) {
  // fir4 wants 7 queues at its natural II; a 6-queue file forces a larger
  // II at which more lifetimes become Q-compatible.
  MachineConfig tight = MachineConfig::single_cluster_machine(6, 6);
  PipelineOptions relaxed;
  const LoopResult natural = run_pipeline(kernel_by_name("fir4"),
                                          MachineConfig::single_cluster_machine(6, 32), relaxed);
  ASSERT_TRUE(natural.ok);
  ASSERT_GT(natural.total_queues, 6);  // the premise of the test

  PipelineOptions options;
  options.enforce_queue_limits = true;
  const LoopResult fitted = run_pipeline(kernel_by_name("fir4"), tight, options);
  ASSERT_TRUE(fitted.ok) << fitted.failure;
  EXPECT_TRUE(fitted.fits_machine_queues);
  EXPECT_GT(fitted.queue_fit_retries, 0);
  EXPECT_GT(fitted.ii, natural.ii);
  EXPECT_LE(fitted.total_queues, 6);
}

TEST(QueueFit, SomeLoopsNeedSpillCode) {
  // fir8's copy tree produces many same-phase lifetimes; no II fits it in
  // a 6-queue file — exactly the case the paper reserves for spill code.
  MachineConfig tight = MachineConfig::single_cluster_machine(6, 6);
  PipelineOptions options;
  options.enforce_queue_limits = true;
  const LoopResult r = run_pipeline(kernel_by_name("fir8"), tight, options);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("queues"), std::string::npos);
}

TEST(QueueFit, WithoutEnforcementOnlyReports) {
  MachineConfig tight = MachineConfig::single_cluster_machine(6, 6);
  PipelineOptions options;  // enforcement off
  const LoopResult r = run_pipeline(kernel_by_name("fir8"), tight, options);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_FALSE(r.fits_machine_queues);
  EXPECT_EQ(r.queue_fit_retries, 0);
}

TEST(QueueFit, ImpossibleBudgetFailsCleanly) {
  MachineConfig impossible = MachineConfig::single_cluster_machine(6, 1);
  impossible.clusters[0].queue_depth = 1;
  PipelineOptions options;
  options.enforce_queue_limits = true;
  options.queue_fit_attempts = 4;
  const LoopResult r = run_pipeline(kernel_by_name("fir8"), impossible, options);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.failure.empty());
}

TEST(QueueFit, FittedSchedulesStillSimulate) {
  MachineConfig tight = MachineConfig::single_cluster_machine(6, 8);
  PipelineOptions options;
  options.enforce_queue_limits = true;
  options.simulate = true;
  options.sim_trip = 24;
  for (const char* name : {"fir4", "cmul_acc", "stencil3_reuse"}) {
    const LoopResult r = run_pipeline(kernel_by_name(name), tight, options);
    ASSERT_TRUE(r.ok) << name << ": " << r.failure;
    EXPECT_TRUE(r.sim_ok) << name;
    EXPECT_TRUE(r.fits_machine_queues) << name;
  }
}

TEST(QueueFit, ClusteredMachineEnforcement) {
  MachineConfig ring = MachineConfig::clustered_machine(4);
  // The paper's 8-queue private files with a tighter depth.
  for (auto& cluster : ring.clusters) cluster.queue_depth = 4;
  ring.segment.queue_depth = 4;
  PipelineOptions options;
  options.scheduler = SchedulerKind::kClustered;
  options.enforce_queue_limits = true;
  options.simulate = true;
  options.sim_trip = 20;
  SynthConfig config;
  config.loops = 8;
  config.seed = 321;
  for (const Loop& loop : synthesize_suite(config)) {
    const LoopResult r = run_pipeline(loop, ring, options);
    if (!r.ok) continue;  // a tight budget may be genuinely unsatisfiable
    EXPECT_TRUE(r.fits_machine_queues) << loop.name;
    EXPECT_TRUE(r.sim_ok) << loop.name;
  }
}

TEST(QueueFit, HigherIiNeverNeedsMoreQueues) {
  // Monotonicity sanity: allocating the same loop at II and II+4 should
  // not increase the queue demand (longer interval, less overlap).
  const Loop loop = kernel_by_name("fir8");
  const MachineConfig machine = MachineConfig::single_cluster_machine(6, 32);
  PipelineOptions base;
  const LoopResult natural = run_pipeline(loop, machine, base);
  ASSERT_TRUE(natural.ok);
  PipelineOptions slowed;
  slowed.ims.start_ii = natural.ii + 4;
  const LoopResult slower = run_pipeline(loop, machine, slowed);
  ASSERT_TRUE(slower.ok);
  EXPECT_LE(slower.total_queues, natural.total_queues + 1);
}

}  // namespace
}  // namespace qvliw
