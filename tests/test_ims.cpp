#include <gtest/gtest.h>

#include "ir/parser.h"
#include "sched/ims.h"
#include "sched/schedule.h"
#include "support/strings.h"
#include "workload/kernels.h"

namespace qvliw {
namespace {

ImsResult schedule_kernel(const char* name, int fus) {
  const Loop loop = kernel_by_name(name);
  const MachineConfig machine = MachineConfig::single_cluster_machine(fus);
  const Ddg graph = Ddg::build(loop, machine.latency);
  return ims_schedule(loop, graph, machine);
}

TEST(Ims, DaxpyAchievesMiiOnSmallMachine) {
  const ImsResult r = schedule_kernel("daxpy", 3);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.ii, r.mii.mii);
  EXPECT_EQ(r.ii, 3);  // 3 memory ops on 1 L/S unit
}

TEST(Ims, DaxpyOnWideMachine) {
  const ImsResult r = schedule_kernel("daxpy", 12);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.ii, 1);
}

TEST(Ims, RecurrenceBoundRespected) {
  const ImsResult r = schedule_kernel("rec2", 12);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_GE(r.ii, r.mii.rec_mii);
  EXPECT_EQ(r.ii, r.mii.mii);
}

TEST(Ims, DivRecurrence) {
  const ImsResult r = schedule_kernel("geo_decay", 6);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.ii, 10);  // div(8) + fadd(2) circuit
}

TEST(Ims, WholeCorpusSchedulesOnPaperMachines) {
  for (const Loop& loop : kernel_corpus()) {
    for (int fus : {3, 4, 6, 12}) {
      const MachineConfig machine = MachineConfig::single_cluster_machine(fus);
      const Ddg graph = Ddg::build(loop, machine.latency);
      const ImsResult r = ims_schedule(loop, graph, machine);
      ASSERT_TRUE(r.ok) << loop.name << " on " << machine.name << ": " << r.failure;
      EXPECT_GE(r.ii, r.mii.mii) << loop.name;
      EXPECT_TRUE(r.schedule.complete()) << loop.name;
      // Validators run inside ims_schedule; re-run them here explicitly.
      EXPECT_TRUE(verify_schedule(loop, graph, machine, r.schedule).empty()) << loop.name;
    }
  }
}

TEST(Ims, CorpusMostlyAchievesMii) {
  // IMS is near-optimal on these kernels; allow a small number of +1 IIs.
  int above_mii = 0;
  int total = 0;
  for (const Loop& loop : kernel_corpus()) {
    const MachineConfig machine = MachineConfig::single_cluster_machine(6);
    const Ddg graph = Ddg::build(loop, machine.latency);
    const ImsResult r = ims_schedule(loop, graph, machine);
    ASSERT_TRUE(r.ok) << loop.name;
    ++total;
    if (r.ii > r.mii.mii) ++above_mii;
  }
  EXPECT_LE(above_mii, total / 10) << "IMS missed MII on too many kernels";
}

TEST(Ims, MaxIiBelowMiiForcesFailure) {
  const Loop loop = kernel_by_name("stencil3");  // MII 4 on 3 FUs
  const MachineConfig machine = MachineConfig::single_cluster_machine(3);
  const Ddg graph = Ddg::build(loop, machine.latency);
  ImsOptions options;
  options.max_ii = 2;
  const ImsResult r = ims_schedule(loop, graph, machine, options);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("below MII"), std::string::npos);
}

TEST(Ims, StartIiHonoured) {
  const Loop loop = kernel_by_name("daxpy");
  const MachineConfig machine = MachineConfig::single_cluster_machine(12);
  const Ddg graph = Ddg::build(loop, machine.latency);
  ImsOptions options;
  options.start_ii = 5;
  const ImsResult r = ims_schedule(loop, graph, machine, options);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ii, 5);
}

TEST(Ims, InfeasibleMachineFailsCleanly) {
  MachineConfig machine = MachineConfig::single_cluster_machine(6);
  machine.clusters[0].fus(FuKind::kCopy) = 0;
  const Loop loop = parse_loop("loop t { x = load X[i]; c = copy x; store Y[i], c; }");
  const Ddg graph = Ddg::build(loop, machine.latency);
  const ImsResult r = ims_schedule(loop, graph, machine);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.failure.empty());
}

TEST(Ims, AttemptCapReportedDistinctlyFromLadderExhaustion) {
  // budget_ratio 0 gives every II attempt a zero placement budget, so each
  // attempt fails immediately and the ladder climbs until a cap stops it.
  const Loop loop = kernel_by_name("fir4");
  const MachineConfig machine = MachineConfig::single_cluster_machine(3);
  const Ddg graph = Ddg::build(loop, machine.latency);

  // Attempt cap fires first: the message must say how many attempts were
  // made, not pretend the whole II range was searched.
  ImsOptions capped;
  capped.budget_ratio = 0;
  capped.max_ii_attempts = 3;
  const ImsResult r = ims_schedule(loop, graph, machine, capped);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.stats.ii_attempts, 3);
  EXPECT_NE(r.failure.find("3 II attempts"), std::string::npos) << r.failure;
  EXPECT_EQ(r.failure.find("up to II="), std::string::npos) << r.failure;

  // Ladder exhaustion (II range ran out before the attempt cap) keeps the
  // original "up to II=" message.
  ImsOptions exhausted;
  exhausted.budget_ratio = 0;
  exhausted.max_ii = r.mii.mii + 1;
  const ImsResult e = ims_schedule(loop, graph, machine, exhausted);
  EXPECT_FALSE(e.ok);
  EXPECT_EQ(e.stats.ii_attempts, 2);  // MII and MII+1 both tried
  EXPECT_NE(e.failure.find(cat("up to II=", e.mii.mii + 1)), std::string::npos) << e.failure;
}

TEST(Ims, StatsPopulated) {
  const ImsResult r = schedule_kernel("fir4", 6);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.stats.placements, 0);
  EXPECT_GE(r.stats.ii_attempts, 1);
}

TEST(Ims, EmptyLoopSchedules) {
  Loop loop;
  loop.name = "empty";
  const MachineConfig machine = MachineConfig::single_cluster_machine(3);
  const Ddg graph = Ddg::build(loop, machine.latency);
  const ImsResult r = ims_schedule(loop, graph, machine);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.schedule.complete());
}

TEST(Ims, HighResourcePressureStillValid) {
  // fir8 has 15 arithmetic ops on 1 adder + 1 multiplier at 3 FUs: lots of
  // eviction traffic, II must reach the resource bound.
  const ImsResult r = schedule_kernel("fir8", 3);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.ii, r.mii.mii);
  EXPECT_GE(r.mii.res_mii, 7);  // 7 fmuls on one multiplier
}

TEST(Ims, MemoryCarriedKernelHonoursMemEdges) {
  const ImsResult r = schedule_kernel("lk5_tridiag", 12);
  ASSERT_TRUE(r.ok);
  // RecMII via memory: store->load (1) + load (2) + fsub(2)+fmul... >= 5.
  EXPECT_GE(r.ii, 5);
}

}  // namespace
}  // namespace qvliw
