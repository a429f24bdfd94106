#include <gtest/gtest.h>

#include "cluster/route.h"
#include "harness/stage.h"
#include "sched/schedule.h"
#include "sim/interp.h"
#include "workload/kernels.h"
#include "workload/suite.h"
#include "workload/synth.h"
#include "xform/copy_insert.h"

namespace qvliw {
namespace {

TEST(Route, SucceedsWhereStrictAlreadyWorks) {
  const Loop loop = insert_copies(kernel_by_name("daxpy")).loop;
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  const RouteResult r = partition_with_moves(loop, machine);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.moves_added, 0);  // no moves needed
  EXPECT_EQ(r.rounds, 1);
}

TEST(Route, FinalScheduleIsCommLegal) {
  for (const char* name : {"fir8", "cmul_acc", "wide8", "chain12"}) {
    const Loop loop = insert_copies(kernel_by_name(name)).loop;
    const MachineConfig machine = MachineConfig::clustered_machine(6);
    const RouteResult r = partition_with_moves(loop, machine);
    ASSERT_TRUE(r.ok) << name << ": " << r.failure;
    const Ddg graph = Ddg::build(r.loop, machine.latency);
    EXPECT_TRUE(communication_violations(graph, machine, r.ims.schedule).empty()) << name;
  }
}

TEST(Route, MovesPreserveSemantics) {
  for (const char* name : {"fir8", "cmul_acc"}) {
    const Loop loop = insert_copies(kernel_by_name(name)).loop;
    const MachineConfig machine = MachineConfig::clustered_machine(6);
    const RouteResult r = partition_with_moves(loop, machine);
    ASSERT_TRUE(r.ok) << name;
    const InterpResult a = interpret(loop, 20, 0x99);
    const InterpResult b = interpret(r.loop, 20, 0x99);
    EXPECT_TRUE(a.memory == b.memory) << name;
  }
}

TEST(Route, SyntheticSweepOnSixClusters) {
  SynthConfig config;
  config.loops = 15;
  config.seed = 4321;
  const MachineConfig machine = MachineConfig::clustered_machine(6);
  int succeeded = 0;
  for (const Loop& source : synthesize_suite(config)) {
    const Loop loop = insert_copies(source).loop;
    const RouteResult r = partition_with_moves(loop, machine);
    if (!r.ok) continue;
    ++succeeded;
    const Ddg graph = Ddg::build(r.loop, machine.latency);
    EXPECT_TRUE(communication_violations(graph, machine, r.ims.schedule).empty()) << source.name;
    EXPECT_TRUE(verify_schedule(r.loop, graph, machine, r.ims.schedule).empty()) << source.name;
  }
  // The router should rescue nearly everything on 6 clusters.
  EXPECT_GE(succeeded, 13);
}

TEST(Route, ReportsFailureGracefully) {
  // An impossible II cap forces clean failure.
  const Loop loop = insert_copies(kernel_by_name("fir8")).loop;
  const MachineConfig machine = MachineConfig::clustered_machine(6);
  PartitionOptions options;
  options.ims.max_ii = 1;  // below MII
  const RouteResult r = partition_with_moves(loop, machine, options);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.failure.empty());
}

// A cell's effort sums every round of the router, also when routing
// fails: a loop whose first strict round fails reports that round's
// search, the relaxed round's and the later strict rounds', and keeps the
// accepted schedule's budget and optimality.  The loops are the pipeline's unrolled, copy-inserted ones
// on the 6-cluster ring, where some strict partitions fail.
TEST(Route, EffortSumsEveryRound) {
  const MachineConfig machine = MachineConfig::clustered_machine(6);
  SynthConfig config;
  config.loops = 120;
  const Suite suite = full_suite(config);
  PipelineOptions options;
  options.unroll = true;
  options.scheduler = SchedulerKind::kClusteredMoves;
  PartitionOptions relaxed;
  relaxed.strict = false;
  int rerouted = 0;
  for (const Loop& source : suite.loops) {
    PipelineContext ctx(source, machine, options);
    if (!run_front_end(ctx)) continue;
    const Loop& loop = ctx.loop;
    const ImsResult first = partition_schedule(loop, *ctx.graph, machine);
    if (first.ok) continue;
    ++rerouted;
    ImsStats earlier = first.stats;
    add_effort(earlier, partition_schedule(loop, *ctx.graph, machine, relaxed).stats);

    // Cut after one round, routing fails and reports both searches.
    const RouteResult cut = partition_with_moves(loop, machine, {}, 1);
    ASSERT_FALSE(cut.ok) << source.name;
    EXPECT_EQ(cut.ims.stats.ii_attempts, earlier.ii_attempts) << source.name;
    EXPECT_EQ(cut.ims.stats.placements, earlier.placements) << source.name;
    EXPECT_EQ(cut.ims.stats.budget_spent, 0) << source.name;

    const RouteResult r = partition_with_moves(loop, machine);
    EXPECT_GE(r.ims.stats.ii_attempts, earlier.ii_attempts) << source.name;
    EXPECT_GE(r.ims.stats.placements, earlier.placements) << source.name;
    if (!r.ok) {
      EXPECT_EQ(r.ims.stats.budget_spent, 0) << source.name;
      continue;
    }
    const ImsResult last =
        partition_schedule(r.loop, Ddg::build(r.loop, machine.latency), machine);
    ASSERT_TRUE(last.ok) << source.name;
    EXPECT_GE(r.ims.stats.ii_attempts, earlier.ii_attempts + last.stats.ii_attempts)
        << source.name;
    if (r.rounds == 2) {
      EXPECT_EQ(r.ims.stats.ii_attempts, earlier.ii_attempts + last.stats.ii_attempts)
          << source.name;
      EXPECT_EQ(r.ims.stats.placements, earlier.placements + last.stats.placements)
          << source.name;
      EXPECT_EQ(r.ims.stats.evictions, earlier.evictions + last.stats.evictions) << source.name;
    }
    EXPECT_EQ(r.ims.stats.budget_spent, last.stats.budget_spent) << source.name;
    EXPECT_EQ(r.ims.stats.mii_optimal, last.stats.mii_optimal) << source.name;

    // The cell reports the same effort through the moves backend.
    const LoopResult cell = run_pipeline(source, machine, options);
    ASSERT_TRUE(cell.ok) << source.name;
    EXPECT_EQ(cell.queue_fit_retries, 0) << source.name;
    EXPECT_EQ(cell.sched_stats.ii_attempts, r.ims.stats.ii_attempts) << source.name;
    EXPECT_EQ(cell.sched_stats.placements, r.ims.stats.placements) << source.name;
  }
  EXPECT_GT(rerouted, 0) << "no loop needed a second round";
}

// The one loop of the paper's suite that the moves router cannot place on
// six clusters: its cell reports the searches of all six rounds, each a
// full strict walk plus a relaxed one.
TEST(Route, FailedCellReportsEveryRound) {
  const Suite suite = full_suite();
  const Loop& source = suite.loops[736];
  ASSERT_EQ(source.name, "synth694");
  const MachineConfig machine = MachineConfig::clustered_machine(6);
  PipelineOptions options;
  options.unroll = true;
  options.scheduler = SchedulerKind::kClusteredMoves;
  const LoopResult cell = run_pipeline(source, machine, options);
  ASSERT_FALSE(cell.ok);
  EXPECT_EQ(cell.failure, "no legal routed schedule after 6 rounds");

  PipelineContext ctx(source, machine, options);
  ASSERT_TRUE(run_front_end(ctx));
  const RouteResult r = partition_with_moves(ctx.loop, machine);
  ASSERT_FALSE(r.ok);
  EXPECT_GE(r.ims.stats.ii_attempts, 6 * (ImsOptions{}.max_ii_attempts + 1));
  EXPECT_EQ(cell.sched_stats.ii_attempts, r.ims.stats.ii_attempts);
  EXPECT_EQ(cell.sched_stats.placements, r.ims.stats.placements);
  EXPECT_EQ(cell.sched_stats.budget_spent, 0);
}

}  // namespace
}  // namespace qvliw
