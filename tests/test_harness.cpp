#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.h"
#include "workload/kernels.h"
#include "workload/synth.h"

namespace qvliw {
namespace {

TEST(Pipeline, PopulatesShapeAndBounds) {
  const LoopResult r =
      run_pipeline(kernel_by_name("daxpy"), MachineConfig::single_cluster_machine(6));
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.name, "daxpy");
  EXPECT_EQ(r.src_ops, 5);
  EXPECT_GE(r.sched_ops, r.src_ops);
  EXPECT_GE(r.ii, r.mii);
  EXPECT_GE(r.stage_count, 1);
  EXPECT_GT(r.ipc_static, 0.0);
  EXPECT_GT(r.ipc_dynamic, 0.0);
  EXPECT_GT(r.total_queues, 0);
  EXPECT_GT(r.registers, 0);
  EXPECT_EQ(r.unroll_factor, 1);
  EXPECT_DOUBLE_EQ(r.ii_per_source, static_cast<double>(r.ii));
}

TEST(Pipeline, CopyInsertionReported) {
  const LoopResult with_copies =
      run_pipeline(kernel_by_name("norm2"), MachineConfig::single_cluster_machine(6));
  ASSERT_TRUE(with_copies.ok);
  EXPECT_GT(with_copies.copies, 0);

  PipelineOptions no_copies;
  no_copies.insert_copies = false;
  const LoopResult without =
      run_pipeline(kernel_by_name("norm2"), MachineConfig::single_cluster_machine(6), no_copies);
  ASSERT_TRUE(without.ok);
  EXPECT_EQ(without.copies, 0);
  EXPECT_LT(without.sched_ops, with_copies.sched_ops);
}

TEST(Pipeline, UnrollReportsFactorAndRate) {
  PipelineOptions options;
  options.unroll = true;
  const LoopResult r = run_pipeline(kernel_by_name("offset_add"),
                                    MachineConfig::single_cluster_machine(12), options);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_GT(r.unroll_factor, 1);
  EXPECT_NEAR(r.ii_per_source, static_cast<double>(r.ii) / r.unroll_factor, 1e-12);
}

TEST(Pipeline, ClusteredPathReportsRingQueues) {
  PipelineOptions options;
  options.scheduler = SchedulerKind::kClustered;
  const LoopResult r =
      run_pipeline(kernel_by_name("fir8"), MachineConfig::clustered_machine(4), options);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_GE(r.max_segment_queues, 0);
  EXPECT_GT(r.max_private_queues, 0);
}

TEST(Pipeline, MovesPathCounted) {
  PipelineOptions options;
  options.scheduler = SchedulerKind::kClusteredMoves;
  const LoopResult r =
      run_pipeline(kernel_by_name("fir8"), MachineConfig::clustered_machine(6), options);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_GE(r.moves, 0);
}

TEST(Pipeline, FailureIsReportedNotThrown) {
  PipelineOptions options;
  options.ims.max_ii = 1;
  const LoopResult r = run_pipeline(kernel_by_name("geo_decay"),
                                    MachineConfig::single_cluster_machine(6), options);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.failure.empty());
}

TEST(Experiment, Aggregations) {
  SynthConfig config;
  config.loops = 12;
  config.seed = 8;
  const auto loops = synthesize_suite(config);
  const SweepResult sweep =
      SweepRunner().run(loops, MachineConfig::single_cluster_machine(12), {PipelineOptions{}});
  const std::vector<LoopResult>& results = sweep.by_point[0];
  EXPECT_GT(fraction_ok(results), 0.9);
  const double all = fraction_of_scheduled(results, [](const LoopResult&) { return true; });
  EXPECT_DOUBLE_EQ(all, 1.0);
  const double mean_ii =
      mean_of_scheduled(results, [](const LoopResult& r) { return static_cast<double>(r.ii); });
  EXPECT_GE(mean_ii, 1.0);
}

TEST(Report, CumulativeFractionsMonotone) {
  SynthConfig config;
  config.loops = 15;
  config.seed = 9;
  const auto loops = synthesize_suite(config);
  const SweepResult sweep =
      SweepRunner().run(loops, MachineConfig::single_cluster_machine(6), {PipelineOptions{}});
  const std::vector<LoopResult>& results = sweep.by_point[0];
  const std::vector<int> bounds = {4, 8, 16, 32};
  const auto fractions =
      cumulative_fractions(results, bounds, [](const LoopResult& r) { return r.total_queues; });
  ASSERT_EQ(fractions.size(), bounds.size());
  for (std::size_t i = 1; i < fractions.size(); ++i) {
    EXPECT_GE(fractions[i], fractions[i - 1]);
  }
  EXPECT_LE(fractions.back(), 1.0);
}

TEST(Report, TableRendering) {
  std::ostringstream os;
  print_banner(os, "Fig. X", "a claim");
  print_cumulative_table(os, {4, 8}, {"series-a"}, {{0.5, 1.0}}, "Queues");
  const std::string out = os.str();
  EXPECT_NE(out.find("Fig. X"), std::string::npos);
  EXPECT_NE(out.find("series-a"), std::string::npos);
  EXPECT_NE(out.find("50.0%"), std::string::npos);
  EXPECT_NE(out.find("100.0%"), std::string::npos);
}

TEST(Pipeline, SimulationFlagVerifies) {
  PipelineOptions options;
  options.simulate = true;
  options.sim_trip = 16;
  const LoopResult r =
      run_pipeline(kernel_by_name("cmul_acc"), MachineConfig::single_cluster_machine(6), options);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.sim_ok);
  EXPECT_GT(r.sim_cycles, 0);
}

}  // namespace
}  // namespace qvliw
