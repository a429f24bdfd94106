#include <gtest/gtest.h>

#include "harness/shard.h"
#include "harness/sweep.h"
#include "support/strings.h"
#include "sweep_reference.h"
#include "workload/kernels.h"
#include "workload/suite.h"
#include "workload/synth.h"

namespace qvliw {
namespace {

// A sweep mixing shared and distinct prefixes: plain single-cluster,
// queue-limit enforcement (same prefix), policy unrolling, the three
// clustered heuristics over one unrolled front end, the moves router, and
// a simulated point.
std::vector<SweepPoint> demo_points() {
  std::vector<SweepPoint> points;

  points.push_back({"single-6fu", MachineConfig::single_cluster_machine(6), {}});

  SweepPoint limits{"single-6fu-limits", MachineConfig::single_cluster_machine(6), {}};
  limits.options.enforce_queue_limits = true;
  points.push_back(limits);

  SweepPoint unrolled{"single-12fu-unroll", MachineConfig::single_cluster_machine(12), {}};
  unrolled.options.unroll = true;
  points.push_back(unrolled);

  SweepPoint ring{"ring4-affinity", MachineConfig::clustered_machine(4), {}};
  ring.options.unroll = true;
  ring.options.scheduler = SchedulerKind::kClustered;
  points.push_back(ring);

  SweepPoint ring_lb = ring;
  ring_lb.label = "ring4-loadbalance";
  ring_lb.options.heuristic = ClusterHeuristic::kLoadBalance;
  points.push_back(ring_lb);

  SweepPoint moves = ring;
  moves.label = "ring4-moves";
  moves.options.scheduler = SchedulerKind::kClusteredMoves;
  points.push_back(moves);

  SweepPoint sim{"single-6fu-sim", MachineConfig::single_cluster_machine(6), {}};
  sim.options.simulate = true;
  sim.options.sim_trip = 8;
  points.push_back(sim);

  return points;
}

// Every semantic field of LoopResult.  stage_seconds is deliberately
// excluded: wall time is measurement, not outcome.  ImsStats are compared
// too — but only when both sides actually searched (warm_started false on
// both): a schedule the MII-optimality ladder memo installed is
// bit-identical with less search.
void expect_identical(const LoopResult& a, const LoopResult& b, const std::string& where) {
  EXPECT_EQ(a.name, b.name) << where;
  EXPECT_EQ(a.ok, b.ok) << where;
  EXPECT_EQ(a.failure, b.failure) << where;
  EXPECT_EQ(a.failed_stage, b.failed_stage) << where;
  EXPECT_EQ(a.src_ops, b.src_ops) << where;
  EXPECT_EQ(a.sched_ops, b.sched_ops) << where;
  EXPECT_EQ(a.copies, b.copies) << where;
  EXPECT_EQ(a.moves, b.moves) << where;
  EXPECT_EQ(a.unroll_factor, b.unroll_factor) << where;
  EXPECT_EQ(a.res_mii, b.res_mii) << where;
  EXPECT_EQ(a.rec_mii, b.rec_mii) << where;
  EXPECT_EQ(a.mii, b.mii) << where;
  EXPECT_EQ(a.ii, b.ii) << where;
  EXPECT_EQ(a.stage_count, b.stage_count) << where;
  EXPECT_EQ(a.ii_per_source, b.ii_per_source) << where;
  EXPECT_EQ(a.ipc_static, b.ipc_static) << where;
  EXPECT_EQ(a.ipc_dynamic, b.ipc_dynamic) << where;
  EXPECT_EQ(a.total_queues, b.total_queues) << where;
  EXPECT_EQ(a.max_private_queues, b.max_private_queues) << where;
  EXPECT_EQ(a.max_segment_queues, b.max_segment_queues) << where;
  EXPECT_EQ(a.max_positions, b.max_positions) << where;
  EXPECT_EQ(a.registers, b.registers) << where;
  EXPECT_EQ(a.fits_machine_queues, b.fits_machine_queues) << where;
  EXPECT_EQ(a.queue_fit_retries, b.queue_fit_retries) << where;
  EXPECT_EQ(a.sim_ok, b.sim_ok) << where;
  EXPECT_EQ(a.sim_cycles, b.sim_cycles) << where;
  EXPECT_EQ(a.backend, b.backend) << where;
  if (!a.warm_started && !b.warm_started) {
    EXPECT_EQ(a.sched_stats.placements, b.sched_stats.placements) << where;
    EXPECT_EQ(a.sched_stats.evictions, b.sched_stats.evictions) << where;
    EXPECT_EQ(a.sched_stats.ii_attempts, b.sched_stats.ii_attempts) << where;
    EXPECT_EQ(a.sched_stats.forced, b.sched_stats.forced) << where;
    EXPECT_EQ(a.sched_stats.budget_spent, b.sched_stats.budget_spent) << where;
    EXPECT_EQ(a.sched_stats.mii_optimal, b.sched_stats.mii_optimal) << where;
  }
}

TEST(Sweep, GoldenEquivalenceWithDirectPipeline) {
  const Suite suite = small_suite(8, 7);
  const std::vector<SweepPoint> points = demo_points();

  const SweepResult cached = SweepRunner().run(suite.loops, points);

  ASSERT_EQ(cached.by_point.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    ASSERT_EQ(cached.by_point[p].size(), suite.loops.size());
    for (std::size_t i = 0; i < suite.loops.size(); ++i) {
      const LoopResult direct =
          run_pipeline(suite.loops[i], points[p].machine, points[p].options);
      expect_identical(cached.by_point[p][i], direct,
                       points[p].label + " / " + suite.loops[i].name);
    }
  }

  EXPECT_GT(cached.cache.hits(), 0u);
  EXPECT_EQ(cached.pipelines, points.size() * suite.loops.size());
}

TEST(Sweep, CacheHitMissAccounting) {
  SynthConfig config;
  config.loops = 10;
  config.seed = 21;
  const std::vector<Loop> loops = synthesize_suite(config);
  const std::uint64_t n = loops.size();

  const MachineConfig machine = MachineConfig::clustered_machine(4);
  PipelineOptions affinity;
  affinity.scheduler = SchedulerKind::kClustered;
  PipelineOptions balance = affinity;
  balance.heuristic = ClusterHeuristic::kLoadBalance;
  PipelineOptions first_fit = affinity;
  first_fit.heuristic = ClusterHeuristic::kFirstFit;
  PipelineOptions no_copies = affinity;  // distinct front prefix
  no_copies.insert_copies = false;

  const SweepResult sweep =
      SweepRunner().run(loops, machine, {affinity, balance, first_fit, no_copies});

  // Front level: four probes per loop; the 2nd and 3rd point hit the 1st
  // point's entry, the no-copies point misses.
  EXPECT_EQ(sweep.cache.front_probes, 4 * n);
  EXPECT_EQ(sweep.cache.front_hits, 2 * n);
  // MII bounds: one computation per distinct front entry and machine.
  EXPECT_EQ(sweep.cache.mii_probes, 4 * n);
  EXPECT_EQ(sweep.cache.mii_hits, 2 * n);
  EXPECT_GT(sweep.cache.hit_rate(), 0.0);
}

TEST(Sweep, SerialMatchesParallel) {
  const Suite suite = small_suite(6, 11);
  SweepPoint point{"single-6fu", MachineConfig::single_cluster_machine(6), {}};
  SweepOptions serial_options;
  serial_options.parallel = false;
  const SweepResult parallel = SweepRunner().run(suite.loops, {point});
  const SweepResult serial = SweepRunner(serial_options).run(suite.loops, {point});
  ASSERT_EQ(parallel.by_point[0].size(), serial.by_point[0].size());
  for (std::size_t i = 0; i < suite.loops.size(); ++i) {
    expect_identical(parallel.by_point[0][i], serial.by_point[0][i], suite.loops[i].name);
  }
}

// The tentpole determinism contract: the multi-threaded sweep is
// fingerprint-identical to the serial sweep at every worker count.
// Explicit worker counts build that many real threads even above the
// core count, so this exercises true concurrency on any machine.
TEST(Sweep, FingerprintIdenticalAcrossWorkerCounts) {
  const Suite suite = small_suite(8, 41);
  std::vector<SweepPoint> points = demo_points();
  // A larger-budget sibling of ring4-affinity makes a budget ladder, so the
  // task-local MII-optimality memo installs schedules at every count too.
  SweepPoint ladder{"ring4-affinity-b12", MachineConfig::clustered_machine(4), {}};
  ladder.options.unroll = true;
  ladder.options.scheduler = SchedulerKind::kClustered;
  ladder.options.ims.budget_ratio = 12;
  points.push_back(ladder);

  SweepOptions serial_options;
  serial_options.parallel = false;
  const SweepResult serial = SweepRunner(serial_options).run(suite.loops, points);
  const std::string oracle = sweep_result_fingerprint(serial);
  EXPECT_GT(serial.cache.sched_memo_hits, 0u);

  for (const int workers : {1, 2, 4, 8}) {
    SweepOptions options;
    options.workers = workers;
    EXPECT_EQ(resolved_sweep_workers(options), workers);
    const SweepResult threaded = SweepRunner(options).run(suite.loops, points);
    EXPECT_EQ(sweep_result_fingerprint(threaded), oracle) << workers << " workers";
    // Per-thread accounting sums to the serial totals: the cache counters
    // are task-local, so the merge order cannot change them.
    EXPECT_EQ(threaded.cache.probes(), serial.cache.probes()) << workers << " workers";
    EXPECT_EQ(threaded.cache.hits(), serial.cache.hits()) << workers << " workers";
    EXPECT_EQ(threaded.cache.sched_memo_hits, serial.cache.sched_memo_hits)
        << workers << " workers";
    EXPECT_EQ(threaded.pipelines, serial.pipelines) << workers << " workers";
  }
}

TEST(Sweep, StageTotalsCoverBackEnd) {
  const Suite suite = small_suite(4, 13);
  SweepPoint point{"single-6fu", MachineConfig::single_cluster_machine(6), {}};
  const SweepResult sweep = SweepRunner().run(suite.loops, {point});
  ASSERT_EQ(sweep.stage_totals.size(), kStageCount);
  for (std::size_t s = 0; s < kStageCount; ++s) {
    EXPECT_EQ(sweep.stage_totals[s].stage, static_cast<Stage>(s));
    EXPECT_GE(sweep.stage_totals[s].seconds, 0.0);
  }
  EXPECT_GT(sweep.stage_totals[static_cast<std::size_t>(Stage::kSchedule)].seconds, 0.0);
  EXPECT_GT(sweep.stage_totals[static_cast<std::size_t>(Stage::kQueueAlloc)].seconds, 0.0);
  EXPECT_GT(sweep.wall_seconds, 0.0);
  EXPECT_GT(sweep.pipelines_per_second(), 0.0);
}

// Regression for the additive-salt aliasing of the hashed prefix keys
// the plan replaced: a forced factor of 0x1100 + m once landed in the
// policy branch's salt range for max_unroll m.
TEST(SweepPlan, ForcedFactorAndPolicyNeverShareAFront) {
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  for (const int m : {1, 4, 8, 16}) {
    SweepPoint forced{"forced", machine, {}};
    forced.options.unroll = true;
    forced.options.forced_unroll = 0x1100 + m;
    SweepPoint policy{"policy", machine, {}};
    policy.options.unroll = true;
    policy.options.max_unroll = m;
    EXPECT_EQ(plan_sweep({forced, policy}).front, (std::vector<std::size_t>{0, 1})) << m;
  }
}

TEST(SweepPlan, UnrollOffForcedAndPolicyAreThreeFronts) {
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  SweepPoint off{"off", machine, {}};
  SweepPoint forced{"forced", machine, {}};
  forced.options.unroll = true;
  forced.options.forced_unroll = 2;
  SweepPoint policy{"policy", machine, {}};
  policy.options.unroll = true;
  const std::vector<SweepPoint> points = {off, forced, policy, off, forced, policy};
  EXPECT_EQ(plan_sweep(points).front, (std::vector<std::size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(SweepPlan, MachineSeparatesFrontsOnlyUnderThePolicyOrThroughLatencies) {
  const MachineConfig ring4 = MachineConfig::clustered_machine(4);
  const MachineConfig ring5 = MachineConfig::clustered_machine(5);
  MachineConfig slow_loads = ring4;
  slow_loads.latency.latency[static_cast<std::size_t>(Opcode::kLoad)] = 5;

  PipelineOptions forced;
  forced.unroll = true;
  forced.forced_unroll = 2;
  PipelineOptions policy;
  policy.unroll = true;

  for (const PipelineOptions& options : {PipelineOptions{}, forced}) {
    const SweepPlan plan =
        plan_sweep({{"ring4", ring4, options}, {"ring5", ring5, options},
                    {"slow-loads", slow_loads, options}});
    EXPECT_EQ(plan.front, (std::vector<std::size_t>{0, 0, 2}));
    // The MII bounds read the whole machine.
    EXPECT_EQ(plan.mii, (std::vector<std::size_t>{0, 1, 2}));
  }
  const SweepPlan plan = plan_sweep({{"ring4", ring4, policy}, {"ring5", ring5, policy}});
  EXPECT_EQ(plan.front, (std::vector<std::size_t>{0, 1}));
}

TEST(SweepPlan, SearchOptionsSeparateLaddersAndBudgetsDoNot) {
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  SweepPoint base{"base", machine, {}};
  base.options.scheduler = SchedulerKind::kClustered;

  std::vector<SweepPoint> apart(5, base);
  apart[0].options.scheduler = SchedulerKind::kSingleCluster;
  apart[1].options.heuristic = ClusterHeuristic::kLoadBalance;
  apart[2].options.ims.max_ii = 7;
  apart[3].options.ims.start_ii = 3;
  apart[4].options.ims.max_ii_attempts = 4;
  for (std::size_t v = 0; v < apart.size(); ++v) {
    const SweepPlan plan = plan_sweep({base, apart[v]});
    EXPECT_EQ(plan.front[1], 0u) << v;
    EXPECT_EQ(plan.mii[1], 0u) << v;  // bounds do not depend on the search
    EXPECT_EQ(plan.ladder[1], 1u) << v;
  }

  // Options read only after scheduling stay on the ladder with the budget.
  std::vector<SweepPoint> together(6, base);
  together[0].options.ims.budget_ratio = 12;
  together[1].options.enforce_queue_limits = true;
  together[2].options.queue_fit_attempts = 3;
  together[3].options.verify = VerifyPolicy::kStrict;
  together[4].options.simulate = true;
  together[4].options.sim_trip = 8;
  together[5].options.seed = 7;
  for (std::size_t v = 0; v < together.size(); ++v) {
    const SweepPlan plan = plan_sweep({base, together[v]});
    EXPECT_EQ(plan.mii[1], 0u) << v;
    EXPECT_EQ(plan.ladder[1], 0u) << v;
  }
}

TEST(SweepPlan, MovesAndUnknownBackendsGetNoMiiOrLadderSlot) {
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  SweepPoint clustered{"clustered", machine, {}};
  clustered.options.scheduler = SchedulerKind::kClustered;
  SweepPoint moves = clustered;
  moves.options.scheduler = SchedulerKind::kClusteredMoves;
  SweepPoint unknown = clustered;
  unknown.options.backend = "no-such-backend";

  const SweepPlan plan = plan_sweep({clustered, moves, unknown, moves, unknown});
  EXPECT_EQ(plan.front, (std::vector<std::size_t>(5, 0)));
  const std::size_t none = SweepPlan::kNone;
  EXPECT_EQ(plan.mii, (std::vector<std::size_t>{0, none, none, none, none}));
  EXPECT_EQ(plan.ladder, (std::vector<std::size_t>{0, none, none, none, none}));
}

// Fig. 3's 6-fus and 6-fus-32q points share one machine and differ only in
// queue-limit enforcement, which the back end reads after scheduling: they
// form one ladder, and the memo's installs leave every cell as
// run_pipeline computes it.
TEST(Sweep, QueueLimitsDoNotSeparateALadder) {
  const Suite suite = small_suite(8, 23);
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  SweepPoint limits{"6-fus-limits", machine, {}};
  limits.options.enforce_queue_limits = true;
  const std::vector<SweepPoint> points = {{"6-fus", machine, {}}, limits};

  const SweepResult sweep = SweepRunner().run(suite.loops, points);
  EXPECT_GT(sweep.cache.sched_memo_hits, 0u);
  const SweepResult direct = run_pipeline_sweep(suite.loops, points);
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t i = 0; i < suite.loops.size(); ++i) {
      expect_identical(sweep.by_point[p][i], direct.by_point[p][i],
                       points[p].label + " / " + suite.loops[i].name);
    }
  }
}

TEST(Sweep, FailingPrefixComputedOnceWithExactParity) {
  // A machine with no multiplier: loops using kMul fail in the unroll
  // stage (the factor policy's feasibility check), which is a front-end
  // failure shared by every point of the prefix.
  MachineConfig machine = MachineConfig::single_cluster_machine(6);
  for (ClusterConfig& cluster : machine.clusters) cluster.fus(FuKind::kMul) = 0;
  machine.name = "no-mul";

  std::vector<Loop> loops;
  for (const Loop& loop : kernel_corpus()) loops.push_back(loop);

  std::vector<SweepPoint> points;
  for (const int budget : {4, 6, 12}) {
    SweepPoint point{"nm", machine, {}};
    point.options.unroll = true;
    point.options.ims.budget_ratio = budget;
    points.push_back(point);
  }

  const SweepResult cached = SweepRunner().run(loops, points);

  bool saw_failure = false;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t i = 0; i < loops.size(); ++i) {
      const LoopResult direct = run_pipeline(loops[i], points[p].machine, points[p].options);
      expect_identical(cached.by_point[p][i], direct, cat("point ", p, " / ", loops[i].name));
      // Loops using the missing FU class fail in the unroll stage (the
      // factor policy's feasibility check) — a front-end failure; mul-free
      // kernels only fail later, in the back end, when IMS validates the
      // machine.  Only the former exercises failure-provenance caching.
      if (direct.failed_stage == "unroll") saw_failure = true;
    }
  }
  EXPECT_TRUE(saw_failure);

  // The failing prefix is computed once per loop and *replayed* for the
  // other points.
  EXPECT_EQ(cached.cache.front_probes, points.size() * loops.size());
  EXPECT_EQ(cached.cache.front_hits, (points.size() - 1) * loops.size());

  // Its time is charged once, to the task: no cell replaying it carries
  // any stage time, the first included.
  SweepOptions serial_options;
  serial_options.workers = 1;
  const SweepResult serial = SweepRunner(serial_options).run(loops, points);
  for (const SweepResult* sweep : {&cached, &serial}) {
    for (const std::vector<LoopResult>& cells : sweep->by_point) {
      for (const LoopResult& cell : cells) {
        if (cell.failed_stage != "unroll") continue;
        for (std::size_t s = 0; s < kStageCount; ++s) {
          EXPECT_EQ(cell.stage_seconds[s], 0.0)
              << cell.name << " " << stage_name(static_cast<Stage>(s));
        }
      }
    }
  }
  // Charged once, a serial sweep's stage time cannot exceed its wall time.
  double stage_sum = 0.0;
  for (const StageTotal& total : serial.stage_totals) stage_sum += total.seconds;
  EXPECT_GT(stage_sum, 0.0);
  EXPECT_LE(stage_sum, serial.wall_seconds);
}

// A point that requests strict verification itself, run under a sweep
// whose verify_mode is also strict: the budget ladder accepts identical
// schedules at both budgets, and the cached path still runs the
// independent verifier on every cell.
TEST(Sweep, StrictPointUnderStrictModeVerifiesEveryCell) {
  SynthConfig config;
  config.loops = 6;
  config.seed = 17;
  const std::vector<Loop> loops = synthesize_suite(config);

  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  std::vector<SweepPoint> points;
  for (const int budget : {6, 12}) {
    SweepPoint point{cat("6fu-budget-", budget, "x"), machine, {}};
    point.options.verify = VerifyPolicy::kStrict;  // the point's own request
    point.options.ims.budget_ratio = budget;
    points.push_back(point);
  }

  SweepOptions options;
  options.verify_mode = SweepVerifyMode::kStrict;  // the sweep's blanket policy
  const SweepResult sweep = SweepRunner(options).run(loops, points);

  EXPECT_EQ(sweep.verify_checked(), loops.size() * points.size());
  EXPECT_EQ(sweep.verify_violations(), 0u);

  // The cached path produces the same outcomes as run_pipeline per cell.
  ASSERT_EQ(sweep_result_fingerprint(sweep),
            sweep_result_fingerprint(run_pipeline_sweep(loops, points, options.verify_mode)));
}

// The budget-ladder sweep on the 6-cluster ring: strict sweeps at 1 and 2
// workers match run_pipeline cell for cell and verify every scheduled cell
// clean.  Some ring-6 cells fail before the verify stage (legitimately),
// so the count is of ok cells, and the failing-cell path is exercised.
TEST(Sweep, Ring6LadderSweepsVerifyCleanAndDeterministic) {
  SynthConfig config;
  config.loops = 120;
  const Suite suite = full_suite(config);

  const MachineConfig machine = MachineConfig::clustered_machine(6);
  const std::vector<SweepPoint> points = ladder_points(machine, "ring-6");
  const std::string reference = sweep_result_fingerprint(
      run_pipeline_sweep(suite.loops, points, SweepVerifyMode::kStrict));

  for (const int workers : {1, 2}) {
    SweepOptions options;
    options.workers = workers;
    options.verify_mode = SweepVerifyMode::kStrict;
    const SweepResult sweep = SweepRunner(options).run(suite.loops, points);
    const std::string where = cat("ring-6 at ", workers, " workers");

    EXPECT_EQ(sweep_result_fingerprint(sweep), reference) << where;
    std::uint64_t scheduled = 0;
    for (const std::vector<LoopResult>& row : sweep.by_point) {
      for (const LoopResult& r : row) scheduled += r.ok ? 1 : 0;
    }
    EXPECT_GT(scheduled, 0u) << where;
    EXPECT_LT(scheduled, sweep.pipelines) << where << ": no cell failed";
    EXPECT_EQ(sweep.verify_checked(), scheduled) << where;
    EXPECT_EQ(sweep.verify_violations(), 0u) << where;
  }
}

}  // namespace
}  // namespace qvliw
