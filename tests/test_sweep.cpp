#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/shard.h"
#include "harness/sweep.h"
#include "support/strings.h"
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

// Every semantic field of LoopResult.  stage_times is deliberately
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

  SweepOptions uncached_options;
  uncached_options.use_cache = false;
  const SweepResult cached = SweepRunner().run(suite.loops, points);
  const SweepResult uncached = SweepRunner(uncached_options).run(suite.loops, points);

  ASSERT_EQ(cached.by_point.size(), points.size());
  ASSERT_EQ(uncached.by_point.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    ASSERT_EQ(cached.by_point[p].size(), suite.loops.size());
    for (std::size_t i = 0; i < suite.loops.size(); ++i) {
      const LoopResult direct =
          run_pipeline(suite.loops[i], points[p].machine, points[p].options);
      const std::string where = points[p].label + " / " + suite.loops[i].name;
      expect_identical(cached.by_point[p][i], direct, "cached: " + where);
      expect_identical(uncached.by_point[p][i], direct, "uncached: " + where);
    }
  }

  EXPECT_GT(cached.cache.hits(), 0u);
  EXPECT_EQ(uncached.cache.probes(), 0u);
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
  EXPECT_GT(sweep.stage_seconds("schedule"), 0.0);
  EXPECT_GT(sweep.stage_seconds("queue_alloc"), 0.0);
  EXPECT_GT(sweep.wall_seconds, 0.0);
  EXPECT_GT(sweep.pipelines_per_second(), 0.0);
  EXPECT_EQ(sweep.stage_seconds("no-such-stage"), 0.0);
}

TEST(Sweep, PrefixKeyDomainsAreDisjoint) {
  // Regression for the additive-salt aliasing: a forced factor of
  // 0x1100 + m used to land in the policy branch's salt range for
  // max_unroll m, letting two structurally different prefixes share one
  // cache slot.
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  for (const int m : {1, 4, 8, 16}) {
    SweepPoint forced{"forced", machine, {}};
    forced.options.unroll = true;
    forced.options.forced_unroll = 0x1100 + m;
    SweepPoint policy{"policy", machine, {}};
    policy.options.unroll = true;
    policy.options.max_unroll = m;
    EXPECT_NE(sweep_prefix_keys(forced).front, sweep_prefix_keys(policy).front) << m;
  }

  // The three unroll branches are pairwise distinct for ordinary options.
  SweepPoint off{"off", machine, {}};
  SweepPoint forced2{"forced2", machine, {}};
  forced2.options.unroll = true;
  forced2.options.forced_unroll = 2;
  SweepPoint policy8{"policy8", machine, {}};
  policy8.options.unroll = true;
  const SweepPrefixKeys off_keys = sweep_prefix_keys(off);
  const SweepPrefixKeys forced_keys = sweep_prefix_keys(forced2);
  const SweepPrefixKeys policy_keys = sweep_prefix_keys(policy8);
  EXPECT_NE(off_keys.front, forced_keys.front);
  EXPECT_NE(off_keys.front, policy_keys.front);
  EXPECT_NE(forced_keys.front, policy_keys.front);
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

  SweepOptions uncached_options;
  uncached_options.use_cache = false;
  const SweepResult cached = SweepRunner().run(loops, points);
  const SweepResult uncached = SweepRunner(uncached_options).run(loops, points);

  bool saw_failure = false;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t i = 0; i < loops.size(); ++i) {
      const LoopResult direct = run_pipeline(loops[i], points[p].machine, points[p].options);
      const std::string where = cat("point ", p, " / ", loops[i].name);
      expect_identical(cached.by_point[p][i], direct, "cached: " + where);
      expect_identical(uncached.by_point[p][i], direct, "uncached: " + where);
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
}

// Regression: backends with different cache-key contributions must never
// share a schedule memo slot, even when every other key component agrees.
TEST(Sweep, BackendContributionsNeverAliasCacheSlots) {
  const MachineConfig machine = MachineConfig::clustered_machine(4);

  SweepPoint clustered{"clustered", machine, {}};
  clustered.options.scheduler = SchedulerKind::kClustered;
  SweepPoint single = clustered;
  single.label = "single";
  single.options.scheduler = SchedulerKind::kSingleCluster;
  SweepPoint moves = clustered;
  moves.label = "moves";
  moves.options.scheduler = SchedulerKind::kClusteredMoves;
  SweepPoint balance = clustered;
  balance.label = "balance";
  balance.options.heuristic = ClusterHeuristic::kLoadBalance;

  const SweepPrefixKeys ck = sweep_prefix_keys(clustered);
  const SweepPrefixKeys sk = sweep_prefix_keys(single);
  const SweepPrefixKeys mk = sweep_prefix_keys(moves);
  const SweepPrefixKeys bk = sweep_prefix_keys(balance);

  // Identical front/machine keys (the points differ only in back end)...
  EXPECT_EQ(ck.front, sk.front);
  EXPECT_EQ(ck.front, mk.front);
  EXPECT_EQ(ck.machine, sk.machine);
  // ...but pairwise-distinct backend contributions.
  EXPECT_NE(ck.backend, sk.backend);
  EXPECT_NE(ck.backend, mk.backend);
  EXPECT_NE(sk.backend, mk.backend);
  EXPECT_NE(ck.backend, bk.backend);  // heuristic is part of the contribution

  // The declared MII-consumption replaces the old wants_mii special case.
  EXPECT_TRUE(ck.consumes_cached_mii);
  EXPECT_TRUE(sk.consumes_cached_mii);
  EXPECT_FALSE(mk.consumes_cached_mii);

  // Budget is the ladder axis: same memo slot by design.
  SweepPoint bigger = clustered;
  bigger.options.ims.budget_ratio = 12;
  EXPECT_EQ(sweep_prefix_keys(bigger).backend, ck.backend);
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
  options.use_cache = true;
  options.verify_mode = SweepVerifyMode::kStrict;  // the sweep's blanket policy
  const SweepResult sweep = SweepRunner(options).run(loops, points);

  EXPECT_EQ(sweep.verify_checked(), loops.size() * points.size());
  EXPECT_EQ(sweep.verify_violations(), 0u);

  // The cached path produces the same outcomes as the uncached one.
  SweepOptions uncached = options;
  uncached.use_cache = false;
  const SweepResult baseline = SweepRunner(uncached).run(loops, points);
  ASSERT_EQ(sweep_result_fingerprint(sweep), sweep_result_fingerprint(baseline));
}

TEST(Sweep, RunSuiteWrapperMatchesSweep) {
  SynthConfig config;
  config.loops = 8;
  config.seed = 5;
  const std::vector<Loop> loops = synthesize_suite(config);
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  const std::vector<LoopResult> via_suite = run_suite(loops, machine);
  const SweepResult via_sweep = SweepRunner().run(loops, machine, {PipelineOptions{}});
  ASSERT_EQ(via_suite.size(), via_sweep.by_point[0].size());
  for (std::size_t i = 0; i < loops.size(); ++i) {
    expect_identical(via_suite[i], via_sweep.by_point[0][i], loops[i].name);
  }
}

}  // namespace
}  // namespace qvliw
