// Scheduler-backend table: lookups by kind and by name and the
// unknown-name diagnostic, golden equivalence of table dispatch against
// the legacy SchedulerKind switch, and warm-start properties (final II
// never worse than cold, seeds verified before adoption).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/route.h"
#include "harness/pipeline.h"
#include "harness/shard.h"
#include "harness/sweep.h"
#include "sched/backend.h"
#include "workload/kernels.h"
#include "workload/synth.h"
#include "xform/copy_insert.h"

namespace qvliw {
namespace {

ScheduleRequest request_for(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                            ClusterHeuristic heuristic, int budget_ratio) {
  ScheduleRequest request;
  request.loop = &loop;
  request.graph = &graph;
  request.machine = &machine;
  request.heuristic = heuristic;
  request.ims.budget_ratio = budget_ratio;
  return request;
}

void expect_same_schedule(const Schedule& a, const Schedule& b, const std::string& where) {
  ASSERT_EQ(a.op_count(), b.op_count()) << where;
  ASSERT_EQ(a.ii(), b.ii()) << where;
  for (int op = 0; op < a.op_count(); ++op) {
    ASSERT_EQ(a.scheduled(op), b.scheduled(op)) << where << " op " << op;
    if (a.scheduled(op)) {
      EXPECT_TRUE(a.place(op) == b.place(op)) << where << " op " << op;
    }
  }
}

/// Every fingerprinted field of one cell, as bytes.
std::string outcome_bytes(const LoopResult& cell) {
  SweepResult sweep;
  sweep.by_point.push_back({cell});
  return sweep_result_fingerprint(sweep);
}

void expect_same_ims(const ImsResult& a, const ImsResult& b, const std::string& where) {
  EXPECT_EQ(a.ok, b.ok) << where;
  EXPECT_EQ(a.failure, b.failure) << where;
  EXPECT_EQ(a.ii, b.ii) << where;
  EXPECT_EQ(a.mii.feasible, b.mii.feasible) << where;
  EXPECT_EQ(a.mii.mii, b.mii.mii) << where;
  EXPECT_EQ(a.stats.placements, b.stats.placements) << where;
  EXPECT_EQ(a.stats.evictions, b.stats.evictions) << where;
  EXPECT_EQ(a.stats.ii_attempts, b.stats.ii_attempts) << where;
  if (a.ok && b.ok) expect_same_schedule(a.schedule, b.schedule, where);
}

TEST(BackendRegistry, BuiltinsRegisteredAndEnumLooksThemUp) {
  const std::vector<std::string> names = SchedulerRegistry::instance().names();
  EXPECT_EQ(names, (std::vector<std::string>{"single-cluster", "clustered", "clustered-moves"}));
  for (const std::string& name : names) {
    ASSERT_NE(SchedulerRegistry::instance().find(name), nullptr) << name;
    EXPECT_EQ(SchedulerRegistry::instance().find(name)->name(), name);
  }
  for (const SchedulerKind kind :
       {SchedulerKind::kSingleCluster, SchedulerKind::kClustered,
        SchedulerKind::kClusteredMoves}) {
    EXPECT_EQ(scheduler_backend(kind).name(), scheduler_kind_name(kind));
    EXPECT_EQ(find_scheduler_backend(kind, ""), &scheduler_backend(kind));
  }
  EXPECT_FALSE(scheduler_backend(SchedulerKind::kClusteredMoves).consumes_cached_mii());
  EXPECT_FALSE(scheduler_backend(SchedulerKind::kClusteredMoves).supports_warm_start());
  EXPECT_TRUE(scheduler_backend(SchedulerKind::kClustered).consumes_cached_mii());
}

TEST(BackendRegistry, UnknownNameDiagnosticListsRegisteredBackends) {
  EXPECT_EQ(SchedulerRegistry::instance().find("no-such-backend"), nullptr);
  EXPECT_EQ(find_scheduler_backend(SchedulerKind::kClustered, "no-such-backend"), nullptr);
  try {
    (void)SchedulerRegistry::instance().require("no-such-backend");
    FAIL() << "require() accepted an unknown backend";
  } catch (const Error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("no-such-backend"), std::string::npos) << message;
    EXPECT_NE(message.find("single-cluster"), std::string::npos) << message;
    EXPECT_NE(message.find("clustered-moves"), std::string::npos) << message;
  }
}

TEST(BackendRegistry, BackendByNameRunsThroughThePipeline) {
  // Naming a backend overrides the default kind: "clustered" on the
  // 4-cluster ring gives the same cell as SchedulerKind::kClustered.
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  PipelineOptions via_enum;
  via_enum.scheduler = SchedulerKind::kClustered;
  PipelineOptions via_name;
  via_name.backend = "clustered";
  for (const char* name : {"dot", "daxpy", "fir4", "lk1_hydro"}) {
    const Loop loop = kernel_by_name(name);
    const LoopResult enum_result = run_pipeline(loop, machine, via_enum);
    const LoopResult name_result = run_pipeline(loop, machine, via_name);
    ASSERT_TRUE(enum_result.ok) << name << ": " << enum_result.failure;
    EXPECT_EQ(name_result.backend, "clustered") << name;
    EXPECT_EQ(outcome_bytes(name_result), outcome_bytes(enum_result)) << name;
    EXPECT_EQ(name_result.sched_stats.placements, enum_result.sched_stats.placements) << name;
    EXPECT_EQ(name_result.sched_stats.ii_attempts, enum_result.sched_stats.ii_attempts) << name;
  }

  PipelineOptions bad;
  bad.backend = "not-a-backend";
  const LoopResult bad_result = run_pipeline(kernel_by_name("dot"), machine, bad);
  EXPECT_FALSE(bad_result.ok);
  EXPECT_NE(bad_result.failure.find("unknown scheduler backend"), std::string::npos)
      << bad_result.failure;
  EXPECT_NE(bad_result.failure.find("not-a-backend"), std::string::npos) << bad_result.failure;
}

// The pre-registry ScheduleStage hard-coded this switch; table dispatch
// must reproduce it bit for bit across the kernel corpus.
TEST(BackendGolden, RegistryDispatchMatchesLegacySwitch) {
  const MachineConfig single = MachineConfig::single_cluster_machine(6);
  const MachineConfig ring = MachineConfig::clustered_machine(4);

  for (const Loop& source : kernel_corpus()) {
    const Loop loop = insert_copies(source).loop;
    for (const int budget : {4, 6}) {
      {
        const Ddg graph = Ddg::build(loop, single.latency);
        ScheduleRequest request =
            request_for(loop, graph, single, ClusterHeuristic::kAffinity, budget);
        const ScheduleOutcome outcome =
            scheduler_backend(SchedulerKind::kSingleCluster).schedule(request);
        EXPECT_FALSE(outcome.rewrote);
        expect_same_ims(outcome.ims, ims_schedule(loop, graph, single, request.ims),
                        "single/" + source.name);
      }
      {
        const Ddg graph = Ddg::build(loop, ring.latency);
        ScheduleRequest request =
            request_for(loop, graph, ring, ClusterHeuristic::kLoadBalance, budget);
        const ScheduleOutcome outcome =
            scheduler_backend(SchedulerKind::kClustered).schedule(request);
        EXPECT_FALSE(outcome.rewrote);
        PartitionOptions popts;
        popts.heuristic = ClusterHeuristic::kLoadBalance;
        popts.ims = request.ims;
        expect_same_ims(outcome.ims, partition_schedule(loop, graph, ring, popts),
                        "clustered/" + source.name);
      }
      {
        const Ddg graph = Ddg::build(loop, ring.latency);
        ScheduleRequest request =
            request_for(loop, graph, ring, ClusterHeuristic::kAffinity, budget);
        const ScheduleOutcome outcome =
            scheduler_backend(SchedulerKind::kClusteredMoves).schedule(request);
        PartitionOptions popts;
        popts.heuristic = ClusterHeuristic::kAffinity;
        popts.ims = request.ims;
        const RouteResult routed = partition_with_moves(loop, ring, popts);
        EXPECT_EQ(outcome.rewrote, routed.ok) << source.name;
        if (routed.ok) {
          expect_same_ims(outcome.ims, routed.ims, "moves/" + source.name);
          EXPECT_EQ(outcome.moves_added, routed.moves_added) << source.name;
          EXPECT_EQ(outcome.rewritten_loop.content_hash(), routed.loop.content_hash())
              << source.name;
        } else {
          EXPECT_EQ(outcome.ims.failure, routed.failure) << source.name;
        }
      }
    }
  }
}

// Warm-start property over randomized loops and machines: offering the
// smaller budget's accepted schedule as a seed never worsens the final
// II, and the result always verifies clean.
TEST(WarmStart, NeverWorseThanColdOnRandomizedMachines) {
  int warm_installs = 0;
  for (const std::uint64_t seed : {3u, 17u}) {
    SynthConfig config;
    config.loops = 12;
    config.seed = seed;
    for (const Loop& source : synthesize_suite(config)) {
      const Loop loop = insert_copies(source).loop;
      for (const int clusters : {2, 4}) {
        const MachineConfig machine = MachineConfig::clustered_machine(clusters);
        const Ddg graph = Ddg::build(loop, machine.latency);

        PartitionOptions small;
        small.ims.budget_ratio = 3;
        const ImsResult cold_small = partition_schedule(loop, graph, machine, small);
        if (!cold_small.ok) continue;

        PartitionOptions large = small;
        large.ims.budget_ratio = 12;
        const ImsResult cold_large = partition_schedule(loop, graph, machine, large);
        const WarmStartSeed warm_seed{cold_small.schedule, cold_small.ii};
        const ImsResult warm = partition_schedule(loop, graph, machine, large, &warm_seed);

        ASSERT_TRUE(warm.ok) << loop.name << ": " << warm.failure;
        ASSERT_TRUE(cold_large.ok) << loop.name << ": " << cold_large.failure;
        EXPECT_LE(warm.ii, cold_large.ii) << loop.name;
        // On an ascending-budget ladder the warm run is outcome-identical.
        EXPECT_EQ(warm.ii, cold_large.ii) << loop.name;
        expect_same_schedule(warm.schedule, cold_large.schedule, loop.name);
        EXPECT_TRUE(verify_schedule(loop, graph, machine, warm.schedule).empty()) << loop.name;
        if (warm.warm_started) ++warm_installs;
      }
    }
  }
  EXPECT_GT(warm_installs, 0);
}

TEST(WarmStart, InvalidSeedsAreIgnored) {
  const Loop dot = insert_copies(kernel_by_name("dot")).loop;
  const Loop daxpy = insert_copies(kernel_by_name("daxpy")).loop;
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  const Ddg dot_graph = Ddg::build(dot, machine.latency);
  const Ddg daxpy_graph = Ddg::build(daxpy, machine.latency);

  PartitionOptions options;
  const ImsResult cold = partition_schedule(dot, dot_graph, machine, options);
  ASSERT_TRUE(cold.ok) << cold.failure;

  // A seed from a different loop (op counts differ) must be ignored.
  const ImsResult other = partition_schedule(daxpy, daxpy_graph, machine, options);
  ASSERT_TRUE(other.ok) << other.failure;
  const WarmStartSeed foreign{other.schedule, other.ii};
  const ImsResult warm_foreign = partition_schedule(dot, dot_graph, machine, options, &foreign);
  EXPECT_FALSE(warm_foreign.warm_started);
  expect_same_ims(warm_foreign, cold, "foreign seed");

  // An incomplete schedule fails verification and must be ignored.
  WarmStartSeed corrupted{cold.schedule, cold.ii};
  corrupted.schedule.clear(0);
  const ImsResult warm_corrupted =
      partition_schedule(dot, dot_graph, machine, options, &corrupted);
  EXPECT_FALSE(warm_corrupted.warm_started);
  expect_same_ims(warm_corrupted, cold, "incomplete seed");

  // A seed whose claimed II disagrees with its schedule must be ignored.
  const WarmStartSeed lying{cold.schedule, cold.ii + 1};
  const ImsResult warm_lying = partition_schedule(dot, dot_graph, machine, options, &lying);
  EXPECT_FALSE(warm_lying.warm_started);
  expect_same_ims(warm_lying, cold, "ii-mismatched seed");

  // The genuine seed, by contrast, is adopted.
  const WarmStartSeed genuine{cold.schedule, cold.ii};
  const ImsResult warm_genuine = partition_schedule(dot, dot_graph, machine, options, &genuine);
  EXPECT_TRUE(warm_genuine.warm_started);
  EXPECT_EQ(warm_genuine.ii, cold.ii);
  expect_same_schedule(warm_genuine.schedule, cold.schedule, "genuine seed");
}

}  // namespace
}  // namespace qvliw
