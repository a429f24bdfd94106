#include <gtest/gtest.h>

#include "cluster/route.h"
#include "sched/schedule.h"
#include "sim/interp.h"
#include "workload/kernels.h"
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

}  // namespace
}  // namespace qvliw
