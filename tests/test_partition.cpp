#include <gtest/gtest.h>

#include "cluster/partition.h"
#include "sched/schedule.h"
#include "ir/parser.h"
#include "workload/kernels.h"
#include "workload/synth.h"
#include "xform/copy_insert.h"

namespace qvliw {
namespace {

ImsResult partition_kernel(const char* name, int clusters,
                           ClusterHeuristic heuristic = ClusterHeuristic::kAffinity) {
  const Loop loop = insert_copies(kernel_by_name(name)).loop;
  const MachineConfig machine = MachineConfig::clustered_machine(clusters);
  const Ddg graph = Ddg::build(loop, machine.latency);
  PartitionOptions options;
  options.heuristic = heuristic;
  return partition_schedule(loop, graph, machine, options);
}

TEST(Partition, DaxpySchedulesOnFourClusters) {
  const ImsResult r = partition_kernel("daxpy", 4);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_GE(r.ii, r.mii.mii);
}

TEST(Partition, CommunicationIsAdjacentOnly) {
  for (const char* name : {"daxpy", "fir4", "stencil3", "cmul_acc", "lk1_hydro"}) {
    const Loop loop = insert_copies(kernel_by_name(name)).loop;
    const MachineConfig machine = MachineConfig::clustered_machine(4);
    const Ddg graph = Ddg::build(loop, machine.latency);
    const ImsResult r = partition_schedule(loop, graph, machine);
    ASSERT_TRUE(r.ok) << name << ": " << r.failure;
    EXPECT_TRUE(communication_violations(graph, machine, r.schedule).empty()) << name;
  }
}

TEST(Partition, WholeCorpusOnFourClusters) {
  for (const Loop& source : kernel_corpus()) {
    const Loop loop = insert_copies(source).loop;
    const MachineConfig machine = MachineConfig::clustered_machine(4);
    const Ddg graph = Ddg::build(loop, machine.latency);
    const ImsResult r = partition_schedule(loop, graph, machine);
    ASSERT_TRUE(r.ok) << source.name << ": " << r.failure;
    EXPECT_TRUE(verify_schedule(loop, graph, machine, r.schedule).empty()) << source.name;
    EXPECT_TRUE(communication_violations(graph, machine, r.schedule).empty()) << source.name;
  }
}

TEST(Partition, SyntheticSweepAllHeuristics) {
  SynthConfig config;
  config.loops = 20;
  config.seed = 1234;
  for (const auto heuristic : {ClusterHeuristic::kAffinity, ClusterHeuristic::kLoadBalance,
                               ClusterHeuristic::kFirstFit}) {
    for (const Loop& source : synthesize_suite(config)) {
      const Loop loop = insert_copies(source).loop;
      const MachineConfig machine = MachineConfig::clustered_machine(4);
      const Ddg graph = Ddg::build(loop, machine.latency);
      PartitionOptions options;
      options.heuristic = heuristic;
      const ImsResult r = partition_schedule(loop, graph, machine, options);
      ASSERT_TRUE(r.ok) << source.name << " with " << cluster_heuristic_name(heuristic) << ": "
                        << r.failure;
      EXPECT_TRUE(communication_violations(graph, machine, r.schedule).empty()) << source.name;
    }
  }
}

TEST(Partition, UsesMultipleClustersUnderPressure) {
  // fir8 has 15+ arithmetic ops: one cluster (1 adder, 1 multiplier)
  // cannot hold them at a competitive II.
  const ImsResult r = partition_kernel("fir8", 4);
  ASSERT_TRUE(r.ok) << r.failure;
  std::set<int> used;
  for (int op = 0; op < r.schedule.op_count(); ++op) used.insert(r.schedule.cluster(op));
  EXPECT_GE(used.size(), 2u);
}

TEST(Partition, SingleClusterIiIsLowerBound) {
  // A clustered machine can never beat the single-cluster machine with the
  // same total FUs (it only adds constraints).
  for (const char* name : {"fir8", "cmul_acc", "wide8"}) {
    const Loop loop = insert_copies(kernel_by_name(name)).loop;
    const MachineConfig clustered = MachineConfig::clustered_machine(4);
    const MachineConfig single = MachineConfig::single_cluster_machine(12);
    const Ddg graph = Ddg::build(loop, clustered.latency);
    const ImsResult rc = partition_schedule(loop, graph, clustered);
    const ImsResult rs = ims_schedule(loop, graph, single);
    ASSERT_TRUE(rc.ok && rs.ok) << name;
    EXPECT_GE(rc.ii, rs.ii) << name;
  }
}

TEST(Partition, RelaxedModeAllowsAnyCluster) {
  const Loop loop = insert_copies(kernel_by_name("chain12")).loop;
  const MachineConfig machine = MachineConfig::clustered_machine(6);
  const Ddg graph = Ddg::build(loop, machine.latency);
  PartitionOptions options;
  options.strict = false;
  const ImsResult r = partition_schedule(loop, graph, machine, options);
  ASSERT_TRUE(r.ok) << r.failure;
  // Relaxed schedules may violate adjacency; find_comm_violations reports
  // rather than fails.
  (void)find_comm_violations(graph, machine, r.schedule);
}

TEST(Partition, HeuristicNames) {
  EXPECT_EQ(cluster_heuristic_name(ClusterHeuristic::kAffinity), "affinity");
  EXPECT_EQ(cluster_heuristic_name(ClusterHeuristic::kLoadBalance), "load-balance");
  EXPECT_EQ(cluster_heuristic_name(ClusterHeuristic::kFirstFit), "first-fit");
}

TEST(Partition, AssignerTracksPlacements) {
  const Loop loop = insert_copies(kernel_by_name("vadd")).loop;
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  const Ddg graph = Ddg::build(loop, machine.latency);
  TopologyClusterAssigner assigner(loop, graph, machine, ClusterHeuristic::kAffinity);
  assigner.reset(2);
  EXPECT_EQ(assigner.cluster_of(0), -1);
  assigner.on_place(0, 2);
  EXPECT_EQ(assigner.cluster_of(0), 2);
  assigner.on_remove(0);
  EXPECT_EQ(assigner.cluster_of(0), -1);
}

TEST(Partition, LegalityFollowsNeighbours) {
  // Two ops connected by a flow edge: once the producer sits in cluster 0
  // of a 5-ring, the consumer may go to {4, 0, 1} only.
  const Loop loop = parse_loop("loop t { x = load X[i]; store Y[i], x; }");
  const MachineConfig machine = MachineConfig::clustered_machine(5);
  const Ddg graph = Ddg::build(loop, machine.latency);
  TopologyClusterAssigner assigner(loop, graph, machine, ClusterHeuristic::kAffinity);
  assigner.reset(1);
  assigner.on_place(0, 0);
  EXPECT_TRUE(assigner.legal(1, 0));
  EXPECT_TRUE(assigner.legal(1, 1));
  EXPECT_TRUE(assigner.legal(1, 4));
  EXPECT_FALSE(assigner.legal(1, 2));
  EXPECT_FALSE(assigner.legal(1, 3));
  std::vector<int> evictions;
  assigner.adjacency_evictions(1, 3, evictions);
  ASSERT_EQ(evictions.size(), 1u);
  EXPECT_EQ(evictions[0], 0);
}

TEST(Partition, TwoClusterRingWorks) {
  const ImsResult r = partition_kernel("dot", 2);
  ASSERT_TRUE(r.ok) << r.failure;
}

TEST(Partition, SixClusterRingWorks) {
  const ImsResult r = partition_kernel("wide8", 6);
  ASSERT_TRUE(r.ok) << r.failure;
}

TEST(Partition, CommunicationViolationsCountRingHops) {
  const Loop loop = parse_loop("loop t { x = load X[i]; store Y[i], x; }");
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  const Ddg graph = Ddg::build(loop, machine.latency);
  Schedule schedule(loop.op_count(), 2);
  schedule.set(0, {0, 0, 0});
  schedule.set(1, {2, 2, 0});  // two ring hops away from its producer
  const std::vector<std::string> violations = communication_violations(graph, machine, schedule);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0], "flow edge 0->1 spans 2 ring hops (clusters 0 -> 2)");
}

}  // namespace
}  // namespace qvliw
