#include <gtest/gtest.h>

#include <algorithm>

#include "harness/pipeline.h"
#include "ir/graph_algos.h"
#include "ir/parser.h"
#include "sched/mii.h"
#include "workload/kernels.h"
#include "workload/synth.h"

namespace qvliw {
namespace {

TEST(ResMii, CountsPerFuKind) {
  // 3 loads+1 store on 1 L/S unit -> ResMII 4.
  const Loop loop = kernel_by_name("stencil3");
  const MachineConfig m = MachineConfig::single_cluster_machine(3);
  EXPECT_EQ(res_mii(loop, m), 4);
}

TEST(ResMii, ScalesWithFus) {
  const Loop loop = kernel_by_name("stencil3");  // 4 mem, 2 add, 1 mul
  EXPECT_EQ(res_mii(loop, MachineConfig::single_cluster_machine(6)), 2);   // 2 L/S
  EXPECT_EQ(res_mii(loop, MachineConfig::single_cluster_machine(12)), 1);  // 4 L/S
}

TEST(ResMii, InfeasibleWhenKindMissing) {
  MachineConfig m = MachineConfig::single_cluster_machine(6);
  m.clusters[0].fus(FuKind::kCopy) = 0;
  Loop loop = parse_loop("loop t { x = load X[i]; c = copy x; store Y[i], c; }");
  EXPECT_EQ(res_mii(loop, m), 0);
}

TEST(ResMii, AtLeastOne) {
  const Loop loop = parse_loop("loop t { x = load X[i]; store Y[i], x; }");
  EXPECT_EQ(res_mii(loop, MachineConfig::single_cluster_machine(18)), 1);
}

TEST(RecMii, OneWithoutRecurrence) {
  const Loop loop = kernel_by_name("daxpy");
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  EXPECT_EQ(rec_mii(graph), 1);
}

TEST(RecMii, AccumulatorIsItsLatency) {
  const Loop loop = kernel_by_name("dot");  // fadd self-loop, latency 2
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  EXPECT_EQ(rec_mii(graph), 2);
}

TEST(RecMii, SecondOrderRecurrenceAveragesOverDistance) {
  // rec2: circuit y -> ay -> y latency fmul(3)+fadd(2)+fadd... check >= 3.
  const Loop loop = kernel_by_name("rec2");
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  const int rec = rec_mii(graph);
  EXPECT_GE(rec, 3);
  // Cross-check against explicit circuit enumeration.
  int bound = 1;
  for (const Circuit& c : elementary_circuits(graph)) bound = std::max(bound, c.min_ii());
  EXPECT_EQ(rec, bound);
}

TEST(RecMii, DivRecurrence) {
  const Loop loop = kernel_by_name("geo_decay");  // div(8) + fadd(2) circuit
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  EXPECT_EQ(rec_mii(graph), 10);
}

TEST(RecMii, MemoryCarriedRecurrence) {
  const Loop loop = kernel_by_name("lk11_partial_sum");
  // Circuit: store -> (mem flow, dist 1) -> load(2) -> fadd(2) -> store:
  // latencies 1 + 2 + 2 = 5 over distance 1.
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  EXPECT_EQ(rec_mii(graph), 5);
}

TEST(RecMii, ZeroLatencyMemoryOpsStillBoundTheSearch) {
  // Memory-order edges have latency 1 whatever their source's latency, so
  // with latency-0 loads and stores the circuit load -> store -> load
  // through A[i+1] needs more than the sum of op latencies (0).
  MachineConfig machine = MachineConfig::single_cluster_machine(6);
  machine.latency.latency[static_cast<std::size_t>(Opcode::kLoad)] = 0;
  machine.latency.latency[static_cast<std::size_t>(Opcode::kStore)] = 0;
  const Loop loop = parse_loop(
      "loop t { x = load A[i+2]; store A[i+1], x; y = load A[i+1]; store A[i+3], y; }");
  EXPECT_EQ(rec_mii(Ddg::build(loop, machine.latency)), 2);

  for (const bool unroll : {false, true}) {
    PipelineOptions options;
    options.unroll = unroll;
    options.verify = VerifyPolicy::kStrict;
    options.simulate = true;  // a latency-0 value is popped in its push cycle
    const LoopResult result = run_pipeline(loop, machine, options);
    ASSERT_TRUE(result.ok) << "unroll " << unroll << ": " << result.failure;
    EXPECT_TRUE(result.sim_ok);
    EXPECT_TRUE(result.verify_checked);
    EXPECT_EQ(result.verify_violations, 0);
    if (!unroll) {
      EXPECT_EQ(result.rec_mii, 2);
      EXPECT_EQ(result.ii, 2);
    }
  }
}

TEST(RecMii, MatchesCircuitEnumerationOnSyntheticLoops) {
  SynthConfig config;
  config.loops = 40;
  config.seed = 7;
  for (const Loop& loop : synthesize_suite(config)) {
    const Ddg graph = Ddg::build(loop, LatencyModel::classic());
    const auto circuits = elementary_circuits(graph, 20000);
    if (circuits.size() >= 20000) continue;  // enumeration truncated; skip
    int bound = 1;
    for (const Circuit& c : circuits) bound = std::max(bound, c.min_ii());
    EXPECT_EQ(rec_mii(graph), bound) << loop.name;
  }
}

TEST(Mii, CombinesBounds) {
  const Loop loop = kernel_by_name("dot");
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  // On 3 FUs: 3 mem ops on 1 L/S -> ResMII 3; RecMII 2 -> MII 3.
  const MiiInfo small = compute_mii(loop, graph, MachineConfig::single_cluster_machine(3));
  EXPECT_TRUE(small.feasible);
  EXPECT_EQ(small.res_mii, 3);
  EXPECT_EQ(small.rec_mii, 2);
  EXPECT_EQ(small.mii, 3);
  // On 12 FUs the recurrence dominates.
  const MiiInfo big = compute_mii(loop, graph, MachineConfig::single_cluster_machine(12));
  EXPECT_EQ(big.res_mii, 1);
  EXPECT_EQ(big.mii, 2);
}

TEST(Mii, InfeasibleMachineReported) {
  MachineConfig m = MachineConfig::single_cluster_machine(6);
  m.clusters[0].fus(FuKind::kCopy) = 0;
  const Loop loop = parse_loop("loop t { x = load X[i]; c = copy x; store Y[i], c; }");
  const Ddg graph = Ddg::build(loop, m.latency);
  EXPECT_FALSE(compute_mii(loop, graph, m).feasible);
}

TEST(Mii, ClusteredUsesMachineWideTotals) {
  const Loop loop = kernel_by_name("stencil3");
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  const MiiInfo clustered = compute_mii(loop, graph, MachineConfig::clustered_machine(4));
  const MiiInfo single = compute_mii(loop, graph, MachineConfig::single_cluster_machine(12));
  EXPECT_EQ(clustered.res_mii, single.res_mii);
}

}  // namespace
}  // namespace qvliw
