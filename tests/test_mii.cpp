#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "harness/pipeline.h"
#include "ir/graph_algos.h"
#include "ir/parser.h"
#include "sched/mii.h"
#include "support/diagnostics.h"
#include "support/rng.h"
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

// --- the recurrence core against an independent oracle ---------------------

/// A seeded random DDG in which every circuit carries distance.  Each node
/// has a rank, and a distance-0 edge only climbs the ranks, so a circuit
/// must take a distance-carrying edge to close.  Circuits climb through a
/// rank window, mostly by distance-0 chains, and close with a
/// distance-carrying edge (a window of one rank is a self-loop).  Random
/// edges add further circuits, parallel edges repeat an edge with other
/// weights, latencies are 0 a quarter of the time, and acyclic tails
/// (nodes ranked below or above every other, with edges only up the ranks)
/// feed into and leave the circuits.  Node numbers are a random
/// permutation of the ranks, so Tarjan's walk may start anywhere.
Ddg random_recurrence_graph(Rng& rng) {
  const int body = rng.uniform_int(1, 7);
  const int feeders = rng.uniform_int(0, 2);
  const int sinks = rng.uniform_int(0, 2);
  const int n = feeders + body + sinks;
  // node_at[r]: the node of rank r.  Ranks [0, feeders) feed the body,
  // [feeders, feeders + body) hold the circuits, the rest are sinks.
  std::vector<int> node_at(static_cast<std::size_t>(n));
  std::iota(node_at.begin(), node_at.end(), 0);
  for (int r = n - 1; r > 0; --r) {
    std::swap(node_at[static_cast<std::size_t>(r)],
              node_at[static_cast<std::size_t>(rng.uniform_int(0, r))]);
  }
  const auto node = [&](int rank) { return node_at[static_cast<std::size_t>(rank)]; };

  Ddg graph(n);
  const auto add = [&](int from_rank, int to_rank, int distance) {
    const int latency = rng.chance(0.25) ? 0 : rng.uniform_int(1, 6);
    graph.add_edge({node(from_rank), node(to_rank), latency, distance, DepKind::kFlow, -1});
  };
  for (int circuits = rng.uniform_int(1, 3); circuits > 0; --circuits) {
    const int lo = feeders + rng.uniform_int(0, body - 1);
    const int hi = rng.uniform_int(lo, feeders + body - 1);
    for (int r = lo; r < hi; ++r) add(r, r + 1, rng.chance(0.75) ? 0 : rng.uniform_int(1, 2));
    add(hi, lo, rng.uniform_int(1, 3));
  }
  for (int extra = rng.uniform_int(0, body); extra > 0; --extra) {
    const int a = feeders + rng.uniform_int(0, body - 1);
    const int b = feeders + rng.uniform_int(0, body - 1);
    add(a, b, a < b && rng.chance(0.5) ? 0 : rng.uniform_int(1, 3));
  }
  for (int parallel = rng.uniform_int(0, 2); parallel > 0; --parallel) {
    const DepEdge& e = graph.edge(rng.uniform_int(0, graph.edge_count() - 1));
    graph.add_edge({e.src, e.dst, rng.uniform_int(0, 6), e.distance == 0 ? 0 : rng.uniform_int(1, 3),
                    DepKind::kFlow, -1});
  }
  for (int r = 0; r < feeders; ++r) add(r, rng.uniform_int(r + 1, feeders + body - 1), 0);
  for (int r = feeders + body; r < n; ++r) add(rng.uniform_int(feeders, r - 1), r, rng.uniform_int(0, 2));
  return graph;
}

/// max(1, max over circuits of ceil(U * latency_sum / distance_sum)).
int circuit_rec_mii(const std::vector<Circuit>& circuits, int factor) {
  int bound = 1;
  for (const Circuit& c : circuits) {
    bound = std::max(bound, (factor * c.latency_sum + c.distance_sum - 1) / c.distance_sum);
  }
  return bound;
}

TEST(RecMii, EveryFactorMatchesCircuitEnumerationInAnyOrder) {
  Rng rng(0x5eedc0deULL);
  std::vector<int> factors(12);
  std::iota(factors.begin(), factors.end(), 1);
  int with_circuits = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Ddg graph = random_recurrence_graph(rng);
    const std::vector<Circuit> circuits = elementary_circuits(graph, 100000);
    ASSERT_LT(circuits.size(), 100000u) << "trial " << trial;
    for (const Circuit& c : circuits) ASSERT_GT(c.distance_sum, 0) << "trial " << trial;
    if (!circuits.empty()) ++with_circuits;

    RecMii increasing(graph);
    for (const int factor : factors) {
      EXPECT_EQ(increasing.at(factor), circuit_rec_mii(circuits, factor))
          << "trial " << trial << " x" << factor << " increasing";
    }
    std::vector<int> shuffled = factors;
    for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
      std::swap(shuffled[i], shuffled[static_cast<std::size_t>(
                                 rng.uniform_int(0, static_cast<int>(i)))]);
    }
    RecMii fresh(graph);
    for (const int factor : shuffled) {
      EXPECT_EQ(fresh.at(factor), circuit_rec_mii(circuits, factor))
          << "trial " << trial << " x" << factor << " shuffled";
      EXPECT_EQ(increasing.at(factor), circuit_rec_mii(circuits, factor))
          << "trial " << trial << " x" << factor << " asked again";
    }
  }
  EXPECT_EQ(with_circuits, 400);
}

// --- the zero-distance-cycle assertion ---------------------------------------

void expect_zero_distance_cycle_error(const Ddg& graph) {
  try {
    (void)rec_mii(graph);
    FAIL() << "rec_mii accepted a zero-distance cycle";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("DDG has a zero-distance cycle"), std::string::npos)
        << error.what();
  }
}

TEST(RecMii, ZeroDistanceCycleOfPositiveLatencyThrows) {
  Ddg graph(2);
  graph.add_edge({0, 1, 1, 0, DepKind::kFlow, -1});
  graph.add_edge({1, 0, 0, 0, DepKind::kFlow, -1});
  expect_zero_distance_cycle_error(graph);
}

TEST(RecMii, ZeroDistanceCycleBehindAnAcyclicPartThrows) {
  // A legal recurrence 0 <-> 1, an acyclic chain 1 -> 2 -> 3, and the
  // zero-distance cycle 3 <-> 4 in a second component.
  Ddg graph(5);
  graph.add_edge({0, 1, 2, 0, DepKind::kFlow, -1});
  graph.add_edge({1, 0, 1, 1, DepKind::kFlow, -1});
  graph.add_edge({1, 2, 1, 0, DepKind::kFlow, -1});
  graph.add_edge({2, 3, 1, 0, DepKind::kFlow, -1});
  graph.add_edge({3, 4, 2, 0, DepKind::kFlow, -1});
  graph.add_edge({4, 3, 0, 0, DepKind::kFlow, -1});
  expect_zero_distance_cycle_error(graph);
}

TEST(RecMii, ZeroLatencyZeroDistanceCycleIsLegal) {
  // Weight 0 at every II: the cycle constrains nothing, and the self-loop
  // beside it (latency 4, distance 1) sets RecMII.
  Ddg graph(3);
  graph.add_edge({0, 1, 0, 0, DepKind::kFlow, -1});
  graph.add_edge({1, 0, 0, 0, DepKind::kFlow, -1});
  EXPECT_EQ(rec_mii(graph), 1);
  graph.add_edge({1, 2, 3, 0, DepKind::kFlow, -1});
  graph.add_edge({2, 2, 4, 1, DepKind::kFlow, -1});
  RecMii rec(graph);
  for (int factor = 1; factor <= 4; ++factor) EXPECT_EQ(rec.at(factor), 4 * factor);
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
