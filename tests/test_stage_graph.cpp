#include <gtest/gtest.h>

#include <iterator>

#include "harness/stage.h"
#include "workload/kernels.h"

namespace qvliw {
namespace {

TEST(StageGraph, StageNamesInEnumOrder) {
  const char* const names[] = {"invariants", "unroll",      "copy_insert", "mii",
                               "schedule",   "queue_alloc", "sim",         "verify"};
  ASSERT_EQ(std::size(names), kStageCount);
  for (std::size_t s = 0; s < kStageCount; ++s) {
    EXPECT_EQ(stage_name(static_cast<Stage>(s)), names[s]);
  }
}

TEST(StageGraph, StageSecondsRecordedPerStage) {
  const LoopResult r =
      run_pipeline(kernel_by_name("daxpy"), MachineConfig::single_cluster_machine(6));
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.failed_stage.empty());
  for (std::size_t s = 0; s < kStageCount; ++s) {
    EXPECT_GE(r.stage_seconds[s], 0.0) << stage_name(static_cast<Stage>(s));
  }
  // MII pre-computation is the sweep runner's; run_pipeline leaves it 0.
  EXPECT_EQ(r.stage_seconds[static_cast<std::size_t>(Stage::kMii)], 0.0);
  EXPECT_GT(r.stage_seconds[static_cast<std::size_t>(Stage::kSchedule)], 0.0);
}

TEST(StageGraph, ScheduleFailureProvenance) {
  PipelineOptions options;
  options.ims.max_ii = 1;  // geo_decay's recurrence cannot fit II=1
  const LoopResult r = run_pipeline(kernel_by_name("geo_decay"),
                                    MachineConfig::single_cluster_machine(6), options);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.failed_stage, stage_name(Stage::kSchedule));
  // The pipeline stopped at the failing stage: nothing after it ran.
  EXPECT_GT(r.stage_seconds[static_cast<std::size_t>(Stage::kSchedule)], 0.0);
  for (const Stage later : {Stage::kQueueAlloc, Stage::kSim, Stage::kVerify}) {
    EXPECT_EQ(r.stage_seconds[static_cast<std::size_t>(later)], 0.0) << stage_name(later);
  }
}

TEST(StageGraph, QueueAllocFailureProvenance) {
  PipelineOptions options;
  options.enforce_queue_limits = true;
  options.queue_fit_attempts = 0;  // no escalation allowed
  const LoopResult r = run_pipeline(kernel_by_name("fir8"),
                                    MachineConfig::single_cluster_machine(6, 1), options);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.failed_stage, stage_name(Stage::kQueueAlloc));
  EXPECT_NE(r.failure.find("does not fit machine queues"), std::string::npos) << r.failure;
}

TEST(StageGraph, ContextSeedsResultIdentity) {
  const Loop loop = kernel_by_name("daxpy");
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  const PipelineOptions options;
  PipelineContext ctx(loop, machine, options);
  EXPECT_EQ(ctx.result.name, "daxpy");
  EXPECT_EQ(ctx.result.src_ops, loop.op_count());
  EXPECT_FALSE(ctx.result.ok);
}

}  // namespace
}  // namespace qvliw
