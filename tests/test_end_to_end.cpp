// Whole-pipeline property tests over synthetic loops: transform, schedule,
// allocate, simulate, and demand bit-identical memory against the
// sequential reference — across single-cluster, clustered, and routed
// configurations, with and without unrolling.
#include <gtest/gtest.h>

#include "harness/pipeline.h"
#include "workload/suite.h"
#include "workload/synth.h"

namespace qvliw {
namespace {

struct EndToEndCase {
  SchedulerKind scheduler;
  bool unroll;
  bool clustered_machine;
  int machine_size;  // FUs or clusters
  std::uint64_t seed;
};

class EndToEnd : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(EndToEnd, SimulationMatchesReference) {
  const EndToEndCase param = GetParam();
  const MachineConfig machine = param.clustered_machine
                                    ? MachineConfig::clustered_machine(param.machine_size)
                                    : MachineConfig::single_cluster_machine(param.machine_size);
  SynthConfig config;
  config.loops = 12;
  config.seed = param.seed;
  config.max_ops = 40;

  PipelineOptions options;
  options.scheduler = param.scheduler;
  options.unroll = param.unroll;
  options.max_unroll = 4;
  options.simulate = true;
  options.sim_trip = 24;

  int simulated = 0;
  for (const Loop& loop : synthesize_suite(config)) {
    const LoopResult r = run_pipeline(loop, machine, options);
    ASSERT_TRUE(r.ok) << loop.name << ": " << r.failure;
    EXPECT_TRUE(r.sim_ok) << loop.name << ": " << r.failure;
    EXPECT_GE(r.ii, r.mii) << loop.name;
    ++simulated;
  }
  EXPECT_EQ(simulated, config.loops);
}

INSTANTIATE_TEST_SUITE_P(
    PipelineMatrix, EndToEnd,
    ::testing::Values(
        EndToEndCase{SchedulerKind::kSingleCluster, false, false, 4, 101},
        EndToEndCase{SchedulerKind::kSingleCluster, false, false, 12, 102},
        EndToEndCase{SchedulerKind::kSingleCluster, true, false, 6, 103},
        EndToEndCase{SchedulerKind::kSingleCluster, true, false, 12, 104},
        EndToEndCase{SchedulerKind::kClustered, false, true, 2, 105},
        EndToEndCase{SchedulerKind::kClustered, false, true, 4, 106},
        EndToEndCase{SchedulerKind::kClustered, true, true, 4, 107},
        EndToEndCase{SchedulerKind::kClustered, false, true, 5, 108},
        EndToEndCase{SchedulerKind::kClusteredMoves, false, true, 5, 109},
        EndToEndCase{SchedulerKind::kClusteredMoves, false, true, 6, 110},
        EndToEndCase{SchedulerKind::kClusteredMoves, true, true, 6, 111}),
    [](const ::testing::TestParamInfo<EndToEndCase>& info) {
      std::string name;
      switch (info.param.scheduler) {
        case SchedulerKind::kSingleCluster:
          name = "single";
          break;
        case SchedulerKind::kClustered:
          name = "clustered";
          break;
        case SchedulerKind::kClusteredMoves:
          name = "moves";
          break;
      }
      name += std::to_string(info.param.machine_size);
      if (info.param.unroll) name += "_unrolled";
      name += "_seed" + std::to_string(info.param.seed);
      return name;
    });

TEST(EndToEndKernels, CorpusThroughFullPipelineOnRing) {
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  PipelineOptions options;
  options.scheduler = SchedulerKind::kClustered;
  options.simulate = true;
  options.sim_trip = 24;
  const Suite suite = small_suite(0);
  for (const Loop& loop : suite.loops) {
    const LoopResult r = run_pipeline(loop, machine, options);
    ASSERT_TRUE(r.ok) << loop.name << ": " << r.failure;
    EXPECT_TRUE(r.sim_ok) << loop.name;
  }
}

TEST(EndToEndKernels, UnrolledTripDivisibilityHandled) {
  // Pipeline simulates the unrolled loop with its own trip_hint; memory
  // equality is checked against the unrolled reference, so any factor is
  // safe regardless of divisibility.
  const MachineConfig machine = MachineConfig::single_cluster_machine(12);
  PipelineOptions options;
  options.unroll = true;
  options.forced_unroll = 3;
  options.simulate = true;
  SynthConfig config;
  config.loops = 6;
  config.seed = 901;
  for (const Loop& loop : synthesize_suite(config)) {
    const LoopResult r = run_pipeline(loop, machine, options);
    ASSERT_TRUE(r.ok) << loop.name << ": " << r.failure;
    EXPECT_EQ(r.unroll_factor, 3);
    EXPECT_TRUE(r.sim_ok) << loop.name;
  }
}

}  // namespace
}  // namespace qvliw
