// Behavioural tests of IMS internals: eviction traffic, budget effects,
// forced placement, and the II ladder.
#include <gtest/gtest.h>

#include "cluster/partition.h"
#include "ir/parser.h"
#include "sched/ims.h"
#include "workload/kernels.h"
#include "workload/synth.h"
#include "xform/copy_insert.h"

namespace qvliw {
namespace {

TEST(ImsBehavior, PressureCausesEvictionsSomewhere) {
  // Across a sweep of tight clustered schedules, force-and-evict must
  // actually fire (height priority alone cannot satisfy ring adjacency
  // for every loop).
  SynthConfig config;
  config.loops = 20;
  config.seed = 555;
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  int evictions = 0;
  for (const Loop& source : synthesize_suite(config)) {
    const Loop loop = insert_copies(source).loop;
    const Ddg graph = Ddg::build(loop, machine.latency);
    PartitionOptions options;
    const ImsResult r = partition_schedule(loop, graph, machine, options);
    if (r.ok) evictions += r.stats.evictions;
  }
  EXPECT_GT(evictions, 0);
}

TEST(ImsBehavior, StarvedBudgetFailsThenGenerousSucceeds) {
  const Loop loop = kernel_by_name("fir8");
  const MachineConfig machine = MachineConfig::single_cluster_machine(3);
  const Ddg graph = Ddg::build(loop, machine.latency);

  ImsOptions starved;
  starved.budget_ratio = 1;
  starved.max_ii_attempts = 1;
  starved.max_ii = 7;  // at the resource bound, ratio 1 cannot converge
  const ImsResult fail = ims_schedule(loop, graph, machine, starved);

  ImsOptions generous;
  generous.budget_ratio = 6;
  const ImsResult pass = ims_schedule(loop, graph, machine, generous);
  ASSERT_TRUE(pass.ok);
  // The generous run must do at least as well as any starved run could.
  if (fail.ok) {
    EXPECT_LE(pass.ii, fail.ii);
  }
}

TEST(ImsBehavior, AttemptCapRespected) {
  const Loop loop = kernel_by_name("fir8");
  const MachineConfig machine = MachineConfig::single_cluster_machine(3);
  const Ddg graph = Ddg::build(loop, machine.latency);
  ImsOptions options;
  options.budget_ratio = 1;  // likely to fail several IIs
  options.max_ii_attempts = 3;
  const ImsResult r = ims_schedule(loop, graph, machine, options);
  EXPECT_LE(r.stats.ii_attempts, 3);
}

TEST(ImsBehavior, LadderStopsAtFirstWorkingIi) {
  // With plentiful resources the first II attempt (at MII) must succeed.
  const Loop loop = kernel_by_name("daxpy");
  const MachineConfig machine = MachineConfig::single_cluster_machine(12);
  const Ddg graph = Ddg::build(loop, machine.latency);
  const ImsResult r = ims_schedule(loop, graph, machine);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.stats.ii_attempts, 1);
  EXPECT_EQ(r.ii, r.mii.mii);
}

TEST(ImsBehavior, HigherStartIiGivesMoreSlack) {
  // Scheduling far above MII should succeed with zero evictions: every op
  // finds a free slot in its first window.
  const Loop loop = kernel_by_name("fir4");
  const MachineConfig machine = MachineConfig::single_cluster_machine(3);
  const Ddg graph = Ddg::build(loop, machine.latency);
  ImsOptions options;
  options.start_ii = 16;
  const ImsResult r = ims_schedule(loop, graph, machine, options);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ii, 16);
  EXPECT_EQ(r.stats.evictions, 0);
}

TEST(ImsBehavior, SchedulesRespectPriorityShape) {
  // The height-priority rule schedules the critical recurrence first; the
  // achieved II of rec2 equals RecMII even on a tight machine.
  const Loop loop = kernel_by_name("rec2");
  const MachineConfig machine = MachineConfig::single_cluster_machine(3);
  const Ddg graph = Ddg::build(loop, machine.latency);
  const ImsResult r = ims_schedule(loop, graph, machine);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ii, r.mii.mii);
}

TEST(ImsBehavior, DeterministicAcrossRuns) {
  SynthConfig config;
  config.loops = 10;
  config.seed = 77;
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  for (const Loop& loop : synthesize_suite(config)) {
    const Ddg graph = Ddg::build(loop, machine.latency);
    const ImsResult a = ims_schedule(loop, graph, machine);
    const ImsResult b = ims_schedule(loop, graph, machine);
    ASSERT_EQ(a.ok, b.ok) << loop.name;
    if (!a.ok) continue;
    EXPECT_EQ(a.ii, b.ii) << loop.name;
    for (int op = 0; op < loop.op_count(); ++op) {
      EXPECT_EQ(a.schedule.place(op), b.schedule.place(op)) << loop.name << " op " << op;
    }
  }
}

TEST(ImsBehavior, MemEdgesConstrainScheduleEvenWithFreeFus) {
  // lk11: the store->load memory circuit forces II=5 even on 18 FUs.
  const Loop loop = kernel_by_name("lk11_partial_sum");
  const MachineConfig machine = MachineConfig::single_cluster_machine(18);
  const Ddg graph = Ddg::build(loop, machine.latency);
  const ImsResult r = ims_schedule(loop, graph, machine);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ii, 5);
}

}  // namespace
}  // namespace qvliw
