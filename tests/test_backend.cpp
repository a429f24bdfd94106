// Scheduler-backend registry: round-trip and diagnostics, golden
// equivalence of registry dispatch against the legacy SchedulerKind
// switch, cache-key contribution separation, and warm-start properties
// (final II never worse than cold, seeds verified before adoption).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "cluster/route.h"
#include "harness/pipeline.h"
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
  for (const char* expected : {"single-cluster", "clustered", "clustered-moves"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
    EXPECT_NE(SchedulerRegistry::instance().find(expected), nullptr) << expected;
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

TEST(BackendRegistry, DuplicateNameRejected) {
  class Dup final : public SchedulerBackend {
   public:
    [[nodiscard]] std::string_view name() const override { return "single-cluster"; }
    [[nodiscard]] ScheduleOutcome schedule(const ScheduleRequest&) const override { return {}; }
  };
  EXPECT_THROW(SchedulerRegistry::instance().add(std::make_unique<Dup>()), Error);
}

/// A registrable external backend: classic IMS under a new name, with a
/// distinctive cache-key contribution.  Stands in for the SMT-style
/// reference scheduler the registry seam is built for.
class EchoBackend final : public SchedulerBackend {
 public:
  explicit EchoBackend(std::string name, std::uint64_t salt) : name_(std::move(name)), salt_(salt) {}
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::uint64_t cache_key(ClusterHeuristic, const ImsOptions&) const override {
    return salt_;
  }
  [[nodiscard]] ScheduleOutcome schedule(const ScheduleRequest& request) const override {
    ScheduleOutcome outcome;
    outcome.ims = ims_schedule(*request.loop, *request.graph, *request.machine, request.ims,
                               nullptr, request.seed);
    return outcome;
  }

 private:
  std::string name_;
  std::uint64_t salt_;
};

TEST(BackendRegistry, CustomBackendRunsThroughThePipeline) {
  SchedulerRegistry::instance().add(std::make_unique<EchoBackend>("test-echo", 0x71u));

  const Loop loop = kernel_by_name("dot");
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);

  PipelineOptions via_enum;
  PipelineOptions via_name;
  via_name.backend = "test-echo";
  const LoopResult enum_result = run_pipeline(loop, machine, via_enum);
  const LoopResult name_result = run_pipeline(loop, machine, via_name);

  ASSERT_TRUE(enum_result.ok) << enum_result.failure;
  ASSERT_TRUE(name_result.ok) << name_result.failure;
  EXPECT_EQ(enum_result.ii, name_result.ii);
  EXPECT_EQ(enum_result.backend, "single-cluster");
  EXPECT_EQ(name_result.backend, "test-echo");

  PipelineOptions bad;
  bad.backend = "not-a-backend";
  const LoopResult bad_result = run_pipeline(loop, machine, bad);
  EXPECT_FALSE(bad_result.ok);
  EXPECT_NE(bad_result.failure.find("unknown scheduler backend"), std::string::npos)
      << bad_result.failure;
  EXPECT_NE(bad_result.failure.find("not-a-backend"), std::string::npos) << bad_result.failure;
}

// The pre-registry ScheduleStage hard-coded this switch; registry
// dispatch must reproduce it bit for bit across the kernel corpus.
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

TEST(BackendKeys, ContributionsNeverAlias) {
  const ImsOptions ims;
  const auto& single = scheduler_backend(SchedulerKind::kSingleCluster);
  const auto& clustered = scheduler_backend(SchedulerKind::kClustered);
  const auto& moves = scheduler_backend(SchedulerKind::kClusteredMoves);

  // Distinct backends never share a slot.
  const std::uint64_t s = single.cache_key(ClusterHeuristic::kAffinity, ims);
  const std::uint64_t c = clustered.cache_key(ClusterHeuristic::kAffinity, ims);
  const std::uint64_t m = moves.cache_key(ClusterHeuristic::kAffinity, ims);
  EXPECT_NE(s, c);
  EXPECT_NE(s, m);
  EXPECT_NE(c, m);

  // The partitioned backends fold the heuristic (it changes the
  // schedule); the single-cluster backend ignores it (it does not).
  EXPECT_NE(clustered.cache_key(ClusterHeuristic::kAffinity, ims),
            clustered.cache_key(ClusterHeuristic::kLoadBalance, ims));
  EXPECT_EQ(single.cache_key(ClusterHeuristic::kAffinity, ims),
            single.cache_key(ClusterHeuristic::kLoadBalance, ims));

  // The II window changes reachable schedules and is folded; the budget
  // is the ladder axis and is not.
  ImsOptions limited = ims;
  limited.max_ii = 7;
  EXPECT_NE(clustered.cache_key(ClusterHeuristic::kAffinity, ims),
            clustered.cache_key(ClusterHeuristic::kAffinity, limited));
  ImsOptions budgeted = ims;
  budgeted.budget_ratio = 12;
  EXPECT_EQ(clustered.cache_key(ClusterHeuristic::kAffinity, ims),
            clustered.cache_key(ClusterHeuristic::kAffinity, budgeted));
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
