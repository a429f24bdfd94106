// Unit and mutation tests for the static legality verifier (src/verify).
//
// The mutation tests are the point: take a known-good artifact set from
// the real pipeline, corrupt it in one targeted way, and require the
// verifier to reject it with a diagnostic naming the violated rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "harness/stage.h"
#include "ir/parser.h"
#include "machine/fu.h"
#include "support/blob.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "support/strings.h"
#include "verify/verify.h"
#include "verify_reference.h"
#include "workload/kernels.h"
#include "workload/suite.h"

namespace qvliw {
namespace {

/// Full-pipeline artifacts for one loop + machine, kept alive for
/// mutation (run_pipeline alone discards everything but the result).
struct Artifacts {
  Loop loop;
  std::shared_ptr<const Ddg> graph;
  MachineConfig machine;
  Schedule schedule{0, 1};
  QueueAllocation allocation;
  bool fits = false;
};

Artifacts prepare(const Loop& source, const MachineConfig& machine,
                  PipelineOptions options = {}) {
  PipelineContext ctx(source, machine, options);
  if (run_front_end(ctx)) run_back_end(ctx);
  EXPECT_TRUE(ctx.result.ok) << ctx.result.failure;
  Artifacts a;
  a.loop = ctx.loop;
  a.graph = ctx.graph;
  a.machine = machine;
  a.schedule = ctx.sched.schedule;
  a.allocation = ctx.allocation;
  a.fits = ctx.result.fits_machine_queues;
  return a;
}

Artifacts prepare_clustered(const Loop& source, int clusters) {
  PipelineOptions options;
  options.scheduler = SchedulerKind::kClustered;
  return prepare(source, MachineConfig::clustered_machine(clusters), options);
}

TEST(Verify, CleanSingleClusterArtifactsPass) {
  const Artifacts a = prepare(kernel_by_name("daxpy"), MachineConfig::single_cluster_machine(6));
  const VerifyReport report =
      verify_artifacts(a.loop, *a.graph, a.machine, a.schedule, &a.allocation,
                       /*check_fanout=*/true, a.fits);
  EXPECT_TRUE(report.ok()) << report.summary(0);
}

TEST(Verify, CleanClusteredArtifactsPass) {
  const Artifacts a = prepare_clustered(kernel_by_name("daxpy"), 4);
  const VerifyReport report =
      verify_artifacts(a.loop, *a.graph, a.machine, a.schedule, &a.allocation,
                       /*check_fanout=*/true, a.fits);
  EXPECT_TRUE(report.ok()) << report.summary(0);
}

// --- pass 1: DDG ----------------------------------------------------------

TEST(VerifyDdg, CleanGraphPasses) {
  const Loop loop = kernel_by_name("daxpy");
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  EXPECT_TRUE(verify_ddg(loop, graph, LatencyModel::classic()).ok());
}

TEST(VerifyDdg, TamperedFlowLatencyCaught) {
  const Loop loop = kernel_by_name("daxpy");
  const Ddg real = Ddg::build(loop, LatencyModel::classic());
  Ddg forged(loop.op_count());
  bool tampered = false;
  for (const DepEdge& edge : real.edges()) {
    DepEdge copy = edge;
    if (!tampered && copy.is_value_flow()) {
      copy.latency += 1;  // claim the producer is one cycle slower
      tampered = true;
    }
    forged.add_edge(copy);
  }
  ASSERT_TRUE(tampered);
  const VerifyReport report = verify_ddg(loop, forged, LatencyModel::classic());
  EXPECT_TRUE(report.has_rule(VerifyRule::kDdgFlow)) << report.summary(0);
}

TEST(VerifyDdg, DroppedMemoryEdgeCaught) {
  // load X[i] then store X[i]: one anti dependence the graph must carry.
  const Loop loop = parse_loop("loop t { x = load X[i]; store X[i], x; }");
  const Ddg real = Ddg::build(loop, LatencyModel::classic());
  Ddg forged(loop.op_count());
  bool dropped = false;
  for (const DepEdge& edge : real.edges()) {
    if (!dropped && !edge.is_value_flow()) {
      dropped = true;  // forget the memory ordering constraint
      continue;
    }
    forged.add_edge(edge);
  }
  ASSERT_TRUE(dropped);
  const VerifyReport report = verify_ddg(loop, forged, LatencyModel::classic());
  EXPECT_TRUE(report.has_rule(VerifyRule::kDdgMem)) << report.summary(0);
  EXPECT_NE(report.summary(0).find("missing"), std::string::npos);
}

// --- pass 2: schedule mutations -------------------------------------------

TEST(VerifyScheduleMutation, ShiftedCycleBreaksDependence) {
  const Artifacts a = prepare(kernel_by_name("daxpy"), MachineConfig::single_cluster_machine(6));
  // Drag a consumer to its producer's own cycle across a latency-carrying
  // same-iteration edge.
  int edge_index = -1;
  for (int e = 0; e < a.graph->edge_count(); ++e) {
    const DepEdge& edge = a.graph->edge(e);
    if (edge.distance == 0 && edge.latency > 0 && edge.src != edge.dst) {
      edge_index = e;
      break;
    }
  }
  ASSERT_GE(edge_index, 0);
  const DepEdge& edge = a.graph->edge(edge_index);
  Schedule bad = a.schedule;
  Placement placement = bad.place(edge.dst);
  placement.cycle = bad.cycle(edge.src);
  bad.set(edge.dst, placement);
  const VerifyReport report = verify_modulo_schedule(a.loop, *a.graph, a.machine, bad);
  EXPECT_TRUE(report.has_rule(VerifyRule::kSchedDependence)) << report.summary(0);
}

TEST(VerifyScheduleMutation, DoubleBookedSlotCaught) {
  const Artifacts a = prepare(kernel_by_name("daxpy"), MachineConfig::single_cluster_machine(6));
  // Park one op on another same-class op's FU instance, II cycles later:
  // the same modulo slot.
  int first = -1;
  int second = -1;
  for (int i = 0; i < a.loop.op_count() && second < 0; ++i) {
    for (int j = i + 1; j < a.loop.op_count(); ++j) {
      if (fu_for(a.loop.ops[static_cast<std::size_t>(i)].opcode) ==
          fu_for(a.loop.ops[static_cast<std::size_t>(j)].opcode)) {
        first = i;
        second = j;
        break;
      }
    }
  }
  ASSERT_GE(second, 0);
  Schedule bad = a.schedule;
  Placement clash = bad.place(first);
  clash.cycle += bad.ii();
  bad.set(second, clash);
  const VerifyReport report = verify_modulo_schedule(a.loop, *a.graph, a.machine, bad);
  EXPECT_TRUE(report.has_rule(VerifyRule::kSchedResource)) << report.summary(0);
  EXPECT_NE(report.summary(0).find("double-book"), std::string::npos);
}

// --- pass 3: routing ------------------------------------------------------

TEST(VerifyRouting, MissingCopyTreeCaught) {
  // Two consumers of one load with no copy tree: the queue fan-out
  // discipline is violated exactly as if a copy had been dropped.
  const Loop loop = parse_loop("loop t { x = load X[i]; s = fadd x, x; store Y[i], s; }");
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  const Ddg graph = Ddg::build(loop, machine.latency);
  Schedule schedule(loop.op_count(), 2);
  schedule.set(0, {0, 0, 0});
  schedule.set(1, {2, 0, 0});
  schedule.set(2, {4, 0, 0});
  const VerifyReport strict = verify_routing(loop, graph, machine, schedule,
                                             /*check_fanout=*/true);
  EXPECT_TRUE(strict.has_rule(VerifyRule::kRouteFanout)) << strict.summary(0);
  EXPECT_TRUE(verify_routing(loop, graph, machine, schedule, /*check_fanout=*/false).ok());
}

// Every ordered cluster pair of rings of 2-8 and 12 clusters: the pass
// flags a flow exactly where Topology counts more than one hop, and its
// message carries that count.
TEST(VerifyRouting, NonAdjacentFlowCaught) {
  const Loop loop = parse_loop("loop t { x = load X[i]; store Y[i], x; }");
  int flagged = 0;
  for (const int k : {2, 3, 4, 5, 6, 7, 8, 12}) {
    const MachineConfig machine = MachineConfig::clustered_machine(k);
    const Topology ring = Topology::ring(k);
    const Ddg graph = Ddg::build(loop, machine.latency);
    for (int from = 0; from < k; ++from) {
      for (int to = 0; to < k; ++to) {
        Schedule schedule(loop.op_count(), 2);
        schedule.set(0, {0, from, 0});
        schedule.set(1, {2, to, 0});
        const VerifyReport report = verify_routing(loop, graph, machine, schedule,
                                                   /*check_fanout=*/true);
        const int hops = ring.distance(from, to);
        const std::string where = cat("ring-", k, ", ", from, " -> ", to, ": ", report.summary(0));
        ASSERT_EQ(report.has_rule(VerifyRule::kRouteAdjacency), hops > 1) << where;
        if (hops <= 1) continue;
        ++flagged;
        EXPECT_NE(report.summary(0).find(cat("on cluster ", to, " (", hops, " ring hops;")),
                  std::string::npos)
            << where;
      }
    }
  }
  EXPECT_GT(flagged, 0);

  const MachineConfig machine = MachineConfig::clustered_machine(4);
  const Ddg graph = Ddg::build(loop, machine.latency);
  Schedule schedule(loop.op_count(), 2);
  schedule.set(0, {0, 0, 0});
  schedule.set(1, {2, 2, 0});  // two ring hops away from its producer
  const VerifyReport report = verify_routing(loop, graph, machine, schedule,
                                             /*check_fanout=*/true);
  EXPECT_TRUE(report.has_rule(VerifyRule::kRouteAdjacency)) << report.summary(0);
  EXPECT_NE(report.summary(0).find(
                "on cluster 2 (2 ring hops; only adjacent clusters share a segment)"),
            std::string::npos)
      << report.summary(0);
}

// --- pass 4: queue-RF mutations -------------------------------------------

TEST(VerifyQueueMutation, TamperedLifetimeCaught) {
  Artifacts a = prepare(kernel_by_name("daxpy"), MachineConfig::single_cluster_machine(6));
  ASSERT_FALSE(a.allocation.lifetimes.empty());
  a.allocation.lifetimes[0].push -= 1;
  const VerifyReport report =
      verify_queue_allocation(a.loop, *a.graph, a.machine, a.schedule, a.allocation, a.fits);
  EXPECT_TRUE(report.has_rule(VerifyRule::kQueueLifetime)) << report.summary(0);
}

TEST(VerifyQueueMutation, WrongDomainCaught) {
  Artifacts a = prepare(kernel_by_name("daxpy"), MachineConfig::single_cluster_machine(6));
  ASSERT_FALSE(a.allocation.lifetimes.empty());
  a.allocation.lifetimes[0].domain.kind = QueueDomain::Kind::kSegment;
  const VerifyReport report =
      verify_queue_allocation(a.loop, *a.graph, a.machine, a.schedule, a.allocation, a.fits);
  EXPECT_TRUE(report.has_rule(VerifyRule::kQueueDomain)) << report.summary(0);
}

TEST(VerifyQueueMutation, InconsistentAssignmentCaught) {
  // A queue_of entry naming no queue.
  {
    Artifacts a = prepare(kernel_by_name("daxpy"), MachineConfig::single_cluster_machine(6));
    ASSERT_FALSE(a.allocation.queue_of.empty());
    for (const int q : {-1, a.allocation.total_queues()}) {
      QueueAllocation broken = a.allocation;
      broken.queue_of[0] = q;
      const VerifyReport report =
          verify_queue_allocation(a.loop, *a.graph, a.machine, a.schedule, broken, a.fits);
      EXPECT_TRUE(report.has_rule(VerifyRule::kQueueAssignment)) << report.summary(0);
    }
  }
  // On a ring, a queue_of entry naming a queue of another domain.
  {
    Artifacts a = prepare_clustered(kernel_by_name("fir4"), 4);
    QueueAllocation& allocation = a.allocation;
    ASSERT_FALSE(allocation.queue_of.empty());
    const QueueDomain own = allocation.lifetimes[0].domain;
    const auto other = std::find_if(allocation.queues.begin(), allocation.queues.end(),
                                    [&](const AllocatedQueue& q) { return q.domain != own; });
    ASSERT_NE(other, allocation.queues.end()) << "every queue shares one domain";
    allocation.queue_of[0] = static_cast<int>(other - allocation.queues.begin());
    const VerifyReport report =
        verify_queue_allocation(a.loop, *a.graph, a.machine, a.schedule, a.allocation, a.fits);
    EXPECT_TRUE(report.has_rule(VerifyRule::kQueueAssignment)) << report.summary(0);
  }
}

TEST(VerifyQueueMutation, MergedQueuesBreakFifoOrPortRule) {
  Artifacts a = prepare(kernel_by_name("daxpy"), MachineConfig::single_cluster_machine(6));
  ASSERT_GE(a.allocation.lifetimes.size(), 2u);
  // Cram every lifetime into queue 0 (all in its domain, so only the FIFO
  // simulation itself can object).
  for (int& q : a.allocation.queue_of) q = 0;
  const VerifyReport report =
      verify_queue_allocation(a.loop, *a.graph, a.machine, a.schedule, a.allocation,
                              /*must_fit=*/false);
  EXPECT_TRUE(report.has_rule(VerifyRule::kQueueFifo) ||
              report.has_rule(VerifyRule::kQueuePort))
      << report.summary(0);
}

TEST(VerifyQueueMutation, ShrunkenMachineQueuesCaught) {
  Artifacts a = prepare(kernel_by_name("daxpy"), MachineConfig::single_cluster_machine(6));
  ASSERT_GT(a.allocation.total_queues(), 1);
  MachineConfig tight = a.machine;
  tight.clusters[0].private_queues = 1;
  const VerifyReport report =
      verify_queue_allocation(a.loop, *a.graph, tight, a.schedule, a.allocation,
                              /*must_fit=*/true);
  EXPECT_TRUE(report.has_rule(VerifyRule::kQueueCapacity)) << report.summary(0);
}

TEST(VerifyQueueMutation, ShrunkenQueueDepthCaught) {
  Artifacts a = prepare(kernel_by_name("daxpy"), MachineConfig::single_cluster_machine(6));
  MachineConfig shallow = a.machine;
  shallow.clusters[0].queue_depth = 0;
  const VerifyReport report =
      verify_queue_allocation(a.loop, *a.graph, shallow, a.schedule, a.allocation,
                              /*must_fit=*/true);
  EXPECT_TRUE(report.has_rule(VerifyRule::kQueueCapacity)) << report.summary(0);
}

TEST(VerifyQueueMutation, MisstatedQueueDepthCaught) {
  // Queue-fit escalation and LoopResult::max_positions read the recorded
  // depth, so one that disagrees with the FIFO replay, either way, is
  // caught even when nothing else about the allocation is wrong.
  const Artifacts a = prepare_clustered(kernel_by_name("daxpy"), 4);
  ASSERT_FALSE(a.allocation.queues.empty());
  for (const int delta : {+1, -1}) {
    VerifyBundle bundle;
    bundle.loop = a.loop;
    bundle.machine = a.machine;
    bundle.schedule = a.schedule;
    bundle.has_allocation = true;
    bundle.allocation = a.allocation;
    bundle.must_fit = a.fits;
    ASSERT_TRUE(verify_bundle(bundle).ok());
    bundle.allocation.queues[0].max_occupancy += delta;
    const VerifyReport report = verify_bundle(decode_verify_bundle(encode_verify_bundle(bundle)));
    ASSERT_EQ(report.violations(), 1) << delta << ": " << report.summary(0);
    EXPECT_TRUE(report.has_rule(VerifyRule::kQueueDepth)) << delta << ": " << report.summary(0);
    EXPECT_EQ(report.diagnostics[0].message.rfind("queue-depth: ", 0), 0u)
        << report.diagnostics[0].message;
  }
}

// --- rule names -----------------------------------------------------------

TEST(Verify, DiagnosticsNameTheViolatedRule) {
  Artifacts a = prepare(kernel_by_name("daxpy"), MachineConfig::single_cluster_machine(6));
  a.allocation.lifetimes[0].push -= 1;
  const VerifyReport report =
      verify_queue_allocation(a.loop, *a.graph, a.machine, a.schedule, a.allocation, a.fits);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const VerifyDiagnostic& d : report.diagnostics) {
    if (d.rule == VerifyRule::kQueueLifetime) {
      EXPECT_EQ(d.message.rfind("queue-lifetime: ", 0), 0u) << d.message;
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- machine + bundle codecs ----------------------------------------------

TEST(VerifyCodec, MachineRoundTrips) {
  const MachineConfig machine = MachineConfig::clustered_machine(3);
  BlobWriter writer;
  serialize_machine(writer, machine);
  const std::string bytes = writer.take();
  BlobReader reader(bytes);
  const MachineConfig copy = deserialize_machine(reader);
  reader.require_exhausted("machine");
  EXPECT_EQ(copy.name, machine.name);
  EXPECT_EQ(copy.signature(), machine.signature());
}

TEST(VerifyCodec, BundleRoundTripsAndVerifies) {
  const Artifacts a = prepare_clustered(kernel_by_name("daxpy"), 4);
  VerifyBundle bundle;
  bundle.loop = a.loop;
  bundle.machine = a.machine;
  bundle.schedule = a.schedule;
  bundle.has_allocation = true;
  bundle.allocation = a.allocation;
  bundle.must_fit = a.fits;
  const std::string blob = encode_verify_bundle(bundle);

  const VerifyBundle copy = decode_verify_bundle(blob);
  EXPECT_EQ(copy.loop.name, a.loop.name);
  EXPECT_EQ(copy.schedule.ii(), a.schedule.ii());
  EXPECT_EQ(copy.machine.signature(), a.machine.signature());
  EXPECT_EQ(copy.allocation.total_queues(), a.allocation.total_queues());
  const VerifyReport report = verify_bundle(copy);
  EXPECT_TRUE(report.ok()) << report.summary(0);
  EXPECT_EQ(encode_verify_bundle(copy), blob);
}

// Deterministic mutation sweep over the decoder of outside input
// (`qvliw_verify check <file>`): every single-byte XOR with 0x01, 0x7f,
// 0x80 and 0xff, and every truncation, of ring-4 bundles of kernels with
// recurrences and memory-carried dependences.  Each mutant must either be
// rejected by decode_verify_bundle with Error or decode into a bundle
// verify_bundle judges — any other exception fails here, and undefined
// behaviour fails the sanitizer CI job that runs this test.
TEST(VerifyCodec, BundleRejectsCorruption) {
  for (const char* name : {"daxpy", "rec2", "lk5_tridiag"}) {
    const Artifacts a = prepare_clustered(kernel_by_name(name), 4);
    VerifyBundle bundle;
    bundle.loop = a.loop;
    bundle.machine = a.machine;
    bundle.schedule = a.schedule;
    bundle.has_allocation = true;
    bundle.allocation = a.allocation;
    bundle.must_fit = a.fits;
    const std::string blob = encode_verify_bundle(bundle);

    for (std::size_t size = 0; size < blob.size(); ++size) {
      EXPECT_THROW((void)decode_verify_bundle(blob.substr(0, size)), Error) << name << " " << size;
    }
    int judged = 0;
    for (std::size_t at = 0; at < blob.size(); ++at) {
      for (const unsigned char mask : {0x01, 0x7f, 0x80, 0xff}) {
        std::string mutant = blob;
        mutant[at] = static_cast<char>(static_cast<unsigned char>(mutant[at]) ^ mask);
        const std::string where = cat(name, ": byte ", at, " ^ ", static_cast<int>(mask));
        VerifyBundle decoded;
        try {
          decoded = decode_verify_bundle(mutant);
        } catch (const Error&) {
          continue;  // rejected
        } catch (const std::exception& error) {
          ADD_FAILURE() << where << ": decoder threw " << error.what();
          continue;
        }
        try {
          (void)verify_bundle(decoded);
          ++judged;
        } catch (const std::exception& error) {
          ADD_FAILURE() << where << ": verify_bundle threw " << error.what();
        }
      }
    }
    EXPECT_GT(judged, 0) << name;  // some mutants must reach the verifier
  }
}

// Length lies: a small bundle may claim a machine and an II whose modulo
// occupancy map, or lifetimes whose FIFO replay, would take gigabytes.
// verify_bundle must refuse both up front instead of trying.
TEST(VerifyCodec, BundleAskingForHugeOccupancyMapIsRejected) {
  const Artifacts a = prepare(kernel_by_name("daxpy"), MachineConfig::single_cluster_machine(6));
  for (const int clusters : {4096, 65536}) {
    VerifyBundle bundle;
    bundle.loop = a.loop;
    bundle.machine = a.machine;
    bundle.machine.clusters.assign(static_cast<std::size_t>(clusters), a.machine.cluster(0));
    bundle.schedule = Schedule(a.loop.op_count(), kMaxScheduleIi);
    for (int op = 0; op < a.loop.op_count(); ++op) bundle.schedule.set(op, a.schedule.place(op));
    const VerifyReport report = verify_bundle(decode_verify_bundle(encode_verify_bundle(bundle)));
    ASSERT_EQ(report.violations(), 1) << clusters << ": " << report.summary(0);
    EXPECT_TRUE(report.has_rule(VerifyRule::kArtifactSize)) << report.summary(0);
  }
}

TEST(VerifyCodec, BundleAskingForHugeFifoReplayIsRejected) {
  // daxpy at II 2 with its ops spread over the whole decodable cycle
  // range: consumers pop millions of cycles after their producers push.
  // The allocation is exactly what that schedule implies (one queue per
  // lifetime), so nothing short of the replay itself would stop it.
  const Loop loop = kernel_by_name("daxpy");
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  const Ddg graph = Ddg::build(loop, machine.latency);
  const int ii = 2;
  const int spread = kMaxScheduleCycle / loop.op_count();
  VerifyBundle bundle;
  bundle.loop = loop;
  bundle.machine = machine;
  bundle.schedule = Schedule(loop.op_count(), ii);
  for (int op = 0; op < loop.op_count(); ++op) {
    bundle.schedule.set(op, {op * spread, 0, op % 2});
  }
  bundle.has_allocation = true;
  bundle.allocation.ii = ii;
  for (int e = 0; e < graph.edge_count(); ++e) {
    const DepEdge& edge = graph.edge(e);
    if (!edge.is_value_flow()) continue;
    Lifetime lt;
    lt.edge = e;
    lt.producer = edge.src;
    lt.consumer = edge.dst;
    lt.push = bundle.schedule.cycle(edge.src) +
              machine.latency.of(loop.ops[static_cast<std::size_t>(edge.src)].opcode);
    lt.pop = bundle.schedule.cycle(edge.dst) + ii * edge.distance;
    const int q = static_cast<int>(bundle.allocation.queues.size());
    bundle.allocation.queue_of.push_back(q);
    bundle.allocation.queues.push_back({lt.domain, q, 1});
    bundle.allocation.lifetimes.push_back(lt);
  }
  ASSERT_GE(bundle.allocation.lifetimes.size(), 2u);
  const VerifyReport report = verify_bundle(decode_verify_bundle(encode_verify_bundle(bundle)));
  ASSERT_EQ(report.violations(), 1) << report.summary(0);
  EXPECT_TRUE(report.has_rule(VerifyRule::kArtifactSize)) << report.summary(0);
}

// A queue the FIFO replay must walk without visiting every stream in
// every window: at II 1 one lifetime spans about 10^6 windows, and 10^5
// more members of its queue push near the horizon.  The bundle stays
// inside both caps, so the replay runs; it walks about 10^6 events to the
// first cycle two members push together, tens of milliseconds, where a
// walk of windows x streams would visit 2 x 10^11 streams.  The bound
// below is loose because the schedule pass reports each of the 50,000
// adds sharing one ALU slot and sanitizer builds run the test too.
TEST(VerifyCodec, WideQueueOverManyWindowsReachesAVerdictQuickly) {
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  constexpr int kAdds = 50'000;     // two lifetimes each: both operands read c
  constexpr int kSpan = 1'000'000;  // cycles a's lifetime spans at II 1
  Loop loop;
  loop.name = "wide";
  Op load_a;
  load_a.opcode = Opcode::kLoad;
  load_a.name = "a";
  load_a.array = loop.intern_array("X");
  loop.add_op(load_a);
  Op store;
  store.opcode = Opcode::kStore;
  store.array = loop.intern_array("Y");
  store.args.push_back(Operand::value(0, 0));
  loop.add_op(store);
  Op load_c;
  load_c.opcode = Opcode::kLoad;
  load_c.name = "c";
  load_c.array = loop.intern_array("Z");
  loop.add_op(load_c);
  for (int j = 0; j < kAdds; ++j) {
    Op add;
    add.opcode = Opcode::kAdd;
    add.name = cat("d", j);
    add.args = {Operand::value(2, 0), Operand::value(2, 0)};
    loop.add_op(add);
  }
  const int load_latency = machine.latency.of(Opcode::kLoad);
  VerifyBundle bundle;
  bundle.loop = loop;
  bundle.machine = machine;
  bundle.check_fanout = false;
  bundle.schedule = Schedule(loop.op_count(), 1);
  bundle.schedule.set(0, {0, 0, 0});
  bundle.schedule.set(1, {kSpan, 0, 0});
  bundle.schedule.set(2, {kSpan - load_latency - 1, 0, 0});  // c pushes at kSpan - 1
  for (int j = 0; j < kAdds; ++j) bundle.schedule.set(3 + j, {kSpan - 1 + j % 2, 0, 0});

  // One queue holding every lifetime, each exactly what the schedule implies.
  const Ddg graph = Ddg::build(loop, machine.latency);
  bundle.has_allocation = true;
  bundle.allocation.ii = 1;
  for (int e = 0; e < graph.edge_count(); ++e) {
    const DepEdge& edge = graph.edge(e);
    if (!edge.is_value_flow()) continue;
    Lifetime lt;
    lt.edge = e;
    lt.producer = edge.src;
    lt.consumer = edge.dst;
    lt.push = bundle.schedule.cycle(edge.src) + load_latency;
    lt.pop = bundle.schedule.cycle(edge.dst);
    bundle.allocation.queue_of.push_back(0);
    bundle.allocation.lifetimes.push_back(lt);
  }
  ASSERT_EQ(bundle.allocation.lifetimes.size(), 1u + 2u * kAdds);
  bundle.allocation.queues.push_back(AllocatedQueue{});

  const auto start = std::chrono::steady_clock::now();
  const VerifyReport report = verify_bundle(bundle);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_FALSE(report.has_rule(VerifyRule::kArtifactSize)) << report.summary(3);
  // Every add sits on one ALU instance at II 1, so the schedule pass
  // reports each; the queue's verdict is the port rule at cycle kSpan - 1.
  std::vector<std::string> queue_messages;
  for (const VerifyDiagnostic& d : report.diagnostics) {
    if (d.rule >= VerifyRule::kQueueIi) queue_messages.push_back(d.message);
  }
  ASSERT_EQ(queue_messages.size(), 1u) << report.summary(3);
  EXPECT_EQ(queue_messages[0].rfind("queue-port: queue 0 (", 0), 0u) << queue_messages[0];
  EXPECT_NE(queue_messages[0].find(cat("receives two pushes in cycle ", kSpan - 1)),
            std::string::npos)
      << queue_messages[0];
  EXPECT_LT(seconds, 10.0) << "the replay walked far more than its events";

  const VerifyReport reference = verify_queue_allocation_reference(
      loop, graph, machine, bundle.schedule, bundle.allocation, bundle.must_fit);
  ASSERT_EQ(reference.violations(), 1) << reference.summary(3);
  EXPECT_EQ(reference.diagnostics[0].message, queue_messages[0]);
}

TEST(VerifyCodec, PreTopologyMagicIsRejected) {
  // Version 0001 bundles predate the machine's topology fields, version
  // 0002 bundles still carry them, version 0003 bundles carry per-queue
  // member lists, and version 0004 bundles carry each op's live-in
  // invariant binding; those decoders are gone, so any old magic is just
  // a bad one.
  const Artifacts a = prepare_clustered(kernel_by_name("daxpy"), 4);
  VerifyBundle bundle;
  bundle.loop = a.loop;
  bundle.machine = a.machine;
  bundle.schedule = a.schedule;
  for (const std::uint64_t magic :
       {0x5156424e444c0001ULL, 0x5156424e444c0002ULL, 0x5156424e444c0003ULL,
        0x5156424e444c0004ULL}) {
    std::string blob = encode_verify_bundle(bundle);
    BlobWriter old_magic;
    old_magic.put_u64(magic);
    blob.replace(0, 8, old_magic.take());
    try {
      (void)decode_verify_bundle(blob);
      ADD_FAILURE() << "the old magic " << std::hex << magic << " decoded";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("bad magic"), std::string::npos) << error.what();
    }
  }
}

// The bundle layout is pinned to its magic: this hand-built bundle (no
// pipeline, no factory defaults) encodes to a fixed size and hash, so a
// codec edit that forgets to bump kVerifyBundleMagic fails here.
TEST(VerifyCodec, LayoutMatchesItsMagic) {
  VerifyBundle bundle;
  bundle.loop = parse_loop(
      "loop pin { invariant a; x = load X[i]; y = fmul x, a; store Y[i], y; }");

  bundle.machine.name = "pin-ring-2";
  ClusterConfig cluster;
  cluster.fu_count = {1, 1, 1, 1};
  cluster.private_queues = 8;
  cluster.queue_depth = 16;
  bundle.machine.clusters = {cluster, cluster};
  bundle.machine.segment.queues_per_segment = 8;
  bundle.machine.segment.queue_depth = 16;
  bundle.machine.latency.latency.fill(1);
  bundle.machine.latency.latency[static_cast<std::size_t>(Opcode::kLoad)] = 2;
  bundle.machine.latency.latency[static_cast<std::size_t>(Opcode::kFMul)] = 3;

  // The load on cluster 0 feeds the fmul on cluster 1 through segment
  // 0 -> 1; the fmul feeds the store in cluster 1's private QRF.
  bundle.schedule = Schedule(3, 1);
  bundle.schedule.set(0, {0, 0, 0});
  bundle.schedule.set(1, {2, 1, 0});
  bundle.schedule.set(2, {5, 1, 0});
  bundle.has_allocation = true;
  bundle.allocation.ii = 1;
  bundle.allocation.lifetimes = {{0, 0, 1, 2, 2, {QueueDomain::Kind::kSegment, 0}},
                                 {1, 1, 2, 5, 5, {QueueDomain::Kind::kPrivate, 1}}};
  bundle.allocation.queue_of = {0, 1};
  bundle.allocation.queues = {{{QueueDomain::Kind::kSegment, 0}, 0, 1},
                              {{QueueDomain::Kind::kPrivate, 1}, 0, 1}};
  bundle.check_fanout = true;
  bundle.must_fit = true;

  const VerifyReport report = verify_bundle(bundle);
  EXPECT_TRUE(report.ok()) << report.summary(0);

  const std::string blob = encode_verify_bundle(bundle);
  EXPECT_EQ(encode_verify_bundle(decode_verify_bundle(blob)), blob);
  const char* bump =
      "the verify bundle layout changed: bump kVerifyBundleMagic in src/verify/verify.cpp "
      "and update this pin together";
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(hash_bytes(blob)));
  EXPECT_EQ(blob.size(), 536u) << bump;
  EXPECT_EQ(std::string(digest), "7732d4ba4bde963d") << bump;
}

TEST(VerifyCodec, TamperedBundleFailsVerification) {
  const Artifacts a = prepare(kernel_by_name("daxpy"), MachineConfig::single_cluster_machine(6));
  VerifyBundle bundle;
  bundle.loop = a.loop;
  bundle.machine = a.machine;
  bundle.schedule = a.schedule;
  bundle.has_allocation = true;
  bundle.allocation = a.allocation;
  bundle.allocation.lifetimes[0].pop += 1;
  const VerifyBundle copy = decode_verify_bundle(encode_verify_bundle(bundle));
  const VerifyReport report = verify_bundle(copy);
  EXPECT_TRUE(report.has_rule(VerifyRule::kQueueLifetime)) << report.summary(0);
}

// --- against the frozen reference ----------------------------------------

/// Lifetimes' push and pop re-derived from `schedule` the way the verifier
/// derives them, so a schedule mutant keeps a consistent allocation and
/// only the FIFO replay can object.
void rederive_lifetimes(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                        const Schedule& schedule, QueueAllocation& allocation) {
  for (Lifetime& lt : allocation.lifetimes) {
    const DepEdge& edge = graph.edge(lt.edge);
    lt.push = schedule.cycle(edge.src) +
              machine.latency.of(loop.ops[static_cast<std::size_t>(edge.src)].opcode);
    lt.pop = schedule.cycle(edge.dst) + schedule.ii() * edge.distance;
  }
}

/// Moves every member of queue `from` into queue `to` (queue `from`
/// stays, empty).
void merge_queues(QueueAllocation& allocation, int from, int to) {
  std::replace(allocation.queue_of.begin(), allocation.queue_of.end(), from, to);
}

/// A queue other than `q` in q's domain, or -1.
int sibling_queue(const QueueAllocation& allocation, int q, Rng& rng) {
  std::vector<int> siblings;
  for (int other = 0; other < allocation.total_queues(); ++other) {
    if (other != q && allocation.queues[static_cast<std::size_t>(other)].domain ==
                          allocation.queues[static_cast<std::size_t>(q)].domain) {
      siblings.push_back(other);
    }
  }
  if (siblings.empty()) return -1;
  return siblings[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(siblings.size()) - 1))];
}

// verify_queue_allocation must give exactly the frozen reference's
// diagnostics (rule, text and order) over the 120-loop suite on six
// machines, for the pipeline's artifacts and for seeded mutants of them:
// a recorded push or pop shifted, an op moved with its lifetimes
// following it, two queues of one domain merged (also on a moved op), a
// queue_of entry moved, and a misstated depth — each checked with and
// without the claim that the allocation fits.
TEST(VerifyReference, QueueDiagnosticsMatchTheFrozenReplay) {
  SynthConfig config;
  config.loops = 120;
  const Suite suite = full_suite(config);
  struct Target {
    MachineConfig machine;
    SchedulerKind scheduler;
  };
  const Target targets[] = {
      {MachineConfig::single_cluster_machine(6), SchedulerKind::kSingleCluster},
      {MachineConfig::single_cluster_machine(6, 4), SchedulerKind::kSingleCluster},
      {MachineConfig::clustered_machine(4), SchedulerKind::kClustered},
      {MachineConfig::clustered_machine(6), SchedulerKind::kClustered},
      {MachineConfig::clustered_machine(2), SchedulerKind::kClustered},
      {MachineConfig::clustered_machine(5), SchedulerKind::kClustered},
  };
  Rng rng(1998);
  std::map<VerifyRule, int> seen;
  int artifact_sets = 0;
  for (const Target& target : targets) {
    PipelineOptions options;
    options.scheduler = target.scheduler;
    for (std::size_t index = 0; index < suite.loops.size(); ++index) {
      PipelineContext ctx(suite.loops[index], target.machine, options);
      if (!run_front_end(ctx) || !run_back_end(ctx)) continue;
      const Loop& loop = ctx.loop;
      const Ddg& graph = *ctx.graph;
      const Schedule& schedule = ctx.sched.schedule;
      const int ii = schedule.ii();
      const auto check = [&](const Schedule& sched, const QueueAllocation& allocation,
                             const char* mutant) {
        for (const bool must_fit : {false, true}) {
          const VerifyReport want = verify_queue_allocation_reference(
              loop, graph, target.machine, sched, allocation, must_fit);
          const VerifyReport got =
              verify_queue_allocation(loop, graph, target.machine, sched, allocation, must_fit);
          ++artifact_sets;
          const std::string where = cat(target.machine.name, ", loop ", index, " (", loop.name,
                                        "), ", mutant, ", must_fit ", must_fit);
          ASSERT_EQ(got.violations(), want.violations())
              << where << "\n got: " << got.summary(0) << "\nwant: " << want.summary(0);
          for (std::size_t d = 0; d < want.diagnostics.size(); ++d) {
            EXPECT_EQ(got.diagnostics[d].rule, want.diagnostics[d].rule) << where;
            EXPECT_EQ(got.diagnostics[d].message, want.diagnostics[d].message) << where;
            ++seen[want.diagnostics[d].rule];
          }
        }
      };
      check(schedule, ctx.allocation, "real");
      const int lifetimes = static_cast<int>(ctx.allocation.lifetimes.size());
      const int queues = ctx.allocation.total_queues();
      if (lifetimes == 0) continue;
      const int deltas[] = {-ii, -1, 1, ii};
      for (int round = 0; round < 3; ++round) {
        {
          QueueAllocation shifted = ctx.allocation;
          Lifetime& lt = shifted.lifetimes[static_cast<std::size_t>(
              rng.uniform_int(0, lifetimes - 1))];
          (rng.chance(0.5) ? lt.push : lt.pop) += deltas[rng.uniform_int(0, 3)];
          check(schedule, shifted, "shifted push/pop");
        }
        Schedule moved = schedule;
        {
          const int op = rng.uniform_int(0, loop.op_count() - 1);
          Placement at = moved.place(op);
          at.cycle = std::max(0, at.cycle + deltas[rng.uniform_int(0, 3)]);
          moved.set(op, at);
          QueueAllocation followed = ctx.allocation;
          rederive_lifetimes(loop, graph, target.machine, moved, followed);
          check(moved, followed, "moved op");
        }
        if (queues >= 2) {
          const int q = rng.uniform_int(0, queues - 1);
          const int other = sibling_queue(ctx.allocation, q, rng);
          if (other >= 0) {
            QueueAllocation merged = ctx.allocation;
            merge_queues(merged, other, q);
            check(schedule, merged, "merged queues");
            rederive_lifetimes(loop, graph, target.machine, moved, merged);
            check(moved, merged, "merged queues, moved op");
          }
          QueueAllocation reassigned = ctx.allocation;
          const int l = rng.uniform_int(0, lifetimes - 1);
          reassigned.queue_of[static_cast<std::size_t>(l)] =
              (reassigned.queue_of[static_cast<std::size_t>(l)] + rng.uniform_int(1, queues - 1)) %
              queues;
          check(schedule, reassigned, "moved queue_of entry");
        }
        QueueAllocation misstated = ctx.allocation;
        misstated.queues[static_cast<std::size_t>(rng.uniform_int(0, queues - 1))]
            .max_occupancy += rng.chance(0.5) ? 1 : -1;
        check(schedule, misstated, "misstated depth");
      }
    }
  }
  EXPECT_GT(artifact_sets, 10'000);
  for (const VerifyRule rule :
       {VerifyRule::kQueueLifetime, VerifyRule::kQueueReadBeforeWrite,
        VerifyRule::kQueueAssignment, VerifyRule::kQueueFifo, VerifyRule::kQueuePort,
        VerifyRule::kQueueCapacity, VerifyRule::kQueueDepth}) {
    EXPECT_GT(seen[rule], 0) << verify_rule_name(rule);
  }
}

// --- pipeline wiring -------------------------------------------------------

TEST(VerifyStage, PolicyControlsChecking) {
  const Loop loop = kernel_by_name("daxpy");
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);

  PipelineOptions off;
  const LoopResult none = run_pipeline(loop, machine, off);
  ASSERT_TRUE(none.ok) << none.failure;
  EXPECT_FALSE(none.verify_checked);
  EXPECT_EQ(none.verify_violations, 0);

  PipelineOptions strict;
  strict.verify = VerifyPolicy::kStrict;
  const LoopResult strict_result = run_pipeline(loop, machine, strict);
  EXPECT_TRUE(strict_result.ok) << strict_result.failure;
  EXPECT_TRUE(strict_result.verify_checked);
}

}  // namespace
}  // namespace qvliw
