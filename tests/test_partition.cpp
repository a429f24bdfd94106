#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "cluster/partition.h"
#include "sched/schedule.h"
#include "ir/parser.h"
#include "support/rng.h"
#include "support/strings.h"
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

/// The assigner's rule, written out one cluster at a time: the score of
/// placing `op` in `cluster` given the placements in `cluster_of`.
double rule_score(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                  ClusterHeuristic heuristic, const std::vector<int>& cluster_of, int op,
                  int cluster) {
  const Topology topology = machine.topology();
  const FuKind kind = fu_for(loop.ops[static_cast<std::size_t>(op)].opcode);
  int load = 0;
  for (int v = 0; v < loop.op_count(); ++v) {
    const bool same_kind = fu_for(loop.ops[static_cast<std::size_t>(v)].opcode) == kind;
    load += same_kind && cluster_of[static_cast<std::size_t>(v)] == cluster ? 1 : 0;
  }
  const int fus = machine.fu_count(cluster, kind);
  const double pressure = fus > 0 ? static_cast<double>(load) / fus : 1e9;
  if (heuristic == ClusterHeuristic::kFirstFit) return -cluster;
  if (heuristic == ClusterHeuristic::kLoadBalance) return -pressure;
  double affinity = 0.0;
  for (const DepEdge& edge : graph.edges()) {
    if (!edge.is_value_flow() || edge.src == edge.dst || (edge.src != op && edge.dst != op)) {
      continue;
    }
    const int other = cluster_of[static_cast<std::size_t>(edge.src == op ? edge.dst : edge.src)];
    if (other < 0) continue;
    const int hops = topology.distance(cluster, other);
    affinity += hops == 0 ? 2.0 : hops == 1 ? 1.0 : -static_cast<double>(hops);
  }
  return affinity - 0.25 * pressure;
}

/// Strict legality, one cluster at a time: every placed flow neighbour of
/// `op` is at most one hop from `cluster`.
bool rule_legal(const Ddg& graph, const MachineConfig& machine,
                const std::vector<int>& cluster_of, int op, int cluster) {
  for (const DepEdge& edge : graph.edges()) {
    if (!edge.is_value_flow() || edge.src == edge.dst || (edge.src != op && edge.dst != op)) {
      continue;
    }
    const int other = cluster_of[static_cast<std::size_t>(edge.src == op ? edge.dst : edge.src)];
    if (other >= 0 && machine.topology().distance(cluster, other) > 1) return false;
  }
  return true;
}

// The searcher asks the assigner once per placement (legal_candidates).
// Its order and legal subset must equal the per-cluster rule: a stable
// sort of 0..k-1 by score, filtered by legality, and legal() agrees.
// Random partial placements (with some ops placed and removed again) on
// rings of 2-7 clusters, every heuristic, strict and relaxed.
TEST(Partition, OnePassChoiceMatchesPerClusterRule) {
  Rng rng(0x9a55);
  std::vector<Loop> loops;
  for (const char* name : {"daxpy", "fir4", "stencil3", "cmul_acc", "lk1_hydro", "rec2", "dot"}) {
    loops.push_back(insert_copies(kernel_by_name(name)).loop);
  }
  int none_legal = 0;  // strict queries where no cluster is legal
  int some_legal = 0;  // strict queries where some clusters are and some are not
  std::vector<int> got;
  std::vector<int> got_legal;
  for (int k = 2; k <= 7; ++k) {
    const MachineConfig machine = MachineConfig::clustered_machine(k);
    for (const Loop& loop : loops) {
      const Ddg graph = Ddg::build(loop, machine.latency);
      const int n = loop.op_count();
      for (const ClusterHeuristic heuristic :
           {ClusterHeuristic::kAffinity, ClusterHeuristic::kLoadBalance,
            ClusterHeuristic::kFirstFit}) {
        for (const bool strict : {true, false}) {
          TopologyClusterAssigner assigner(loop, graph, machine, heuristic, strict);
          for (int trial = 0; trial < 4; ++trial) {
            assigner.reset(1);
            std::vector<int> cluster_of(static_cast<std::size_t>(n), -1);
            const double share = rng.uniform(0.1, 0.9);
            for (int op = 0; op < n; ++op) {
              if (!rng.chance(share)) continue;
              cluster_of[static_cast<std::size_t>(op)] = rng.uniform_int(0, k - 1);
              assigner.on_place(op, cluster_of[static_cast<std::size_t>(op)]);
            }
            for (int op = 0; op < n; ++op) {
              if (cluster_of[static_cast<std::size_t>(op)] < 0 || !rng.chance(0.2)) continue;
              assigner.on_remove(op);
              cluster_of[static_cast<std::size_t>(op)] = -1;
            }
            for (int op = 0; op < n; ++op) {
              std::vector<double> score(static_cast<std::size_t>(k));
              for (int c = 0; c < k; ++c) {
                score[static_cast<std::size_t>(c)] =
                    rule_score(loop, graph, machine, heuristic, cluster_of, op, c);
              }
              std::vector<int> want(static_cast<std::size_t>(k));
              std::iota(want.begin(), want.end(), 0);
              std::stable_sort(want.begin(), want.end(), [&](int a, int b) {
                return score[static_cast<std::size_t>(a)] > score[static_cast<std::size_t>(b)];
              });
              std::vector<int> want_legal;
              for (const int c : want) {
                const bool legal = !strict || rule_legal(graph, machine, cluster_of, op, c);
                EXPECT_EQ(assigner.legal(op, c), legal) << loop.name << " op " << op;
                if (legal) want_legal.push_back(c);
              }
              const std::string where = cat(loop.name, " on ", machine.name, " / ",
                                            cluster_heuristic_name(heuristic),
                                            strict ? " strict" : " relaxed", ", op ", op);
              assigner.candidates(op, got);
              EXPECT_EQ(got, want) << where;
              EXPECT_EQ(assigner.legal_candidates(op, got_legal), want.front()) << where;
              EXPECT_EQ(got_legal, want_legal) << where;
              if (strict && want_legal.empty()) ++none_legal;
              if (strict && !want_legal.empty() && want_legal.size() < want.size()) ++some_legal;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(none_legal, 50);
  EXPECT_GT(some_legal, 100);
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
