#include <gtest/gtest.h>

#include <vector>

#include "ir/parser.h"
#include "occupancy_reference.h"
#include "qrf/lifetime.h"
#include "qrf/queue_alloc.h"
#include "sched/ims.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "xform/copy_insert.h"

namespace qvliw {
namespace {

/// peak_live of the one lifetime pushed at `push` and popped at `pop`.
int single_peak(int push, int pop, int ii) {
  const PhaseSpan span = phase_span(push, pop, ii);
  std::vector<int> opens;
  return peak_live({&span, 1}, ii, opens);
}

// live_instances is the reference scans' building block
// (tests/occupancy_reference.h); these pin it down by hand.

TEST(LiveInstances, SingleShortLifetime) {
  // push 0, pop 1, II 4: live at t in {0,1} mod 4 (inclusive residency).
  EXPECT_EQ(live_instances(0, 1, 4, 0), 1);
  EXPECT_EQ(live_instances(0, 1, 4, 1), 1);
  EXPECT_EQ(live_instances(0, 1, 4, 2), 0);
  EXPECT_EQ(live_instances(0, 1, 4, 4), 1);
}

TEST(LiveInstances, BeforePushIsZero) {
  EXPECT_EQ(live_instances(5, 9, 3, 4), 0);
  EXPECT_EQ(live_instances(5, 9, 3, 0), 0);
}

TEST(LiveInstances, OverlappingInstances) {
  // Length 5 with II 2: instances overlap ~3 deep in steady state.
  // At t=10: k with push+2k <= 10 <= push+5+2k, push=0: k in {3,4,5}.
  EXPECT_EQ(live_instances(0, 5, 2, 10), 3);
  EXPECT_EQ(single_peak(0, 5, 2), 3);
}

TEST(LiveInstances, ZeroLengthOccupiesOneCycle) {
  EXPECT_EQ(live_instances(3, 3, 2, 3), 1);
  EXPECT_EQ(live_instances(3, 3, 2, 4), 0);
  EXPECT_EQ(single_peak(3, 3, 2), 1);
}

TEST(LiveInstances, MaxMatchesBruteForce) {
  for (int push = 0; push < 3; ++push) {
    for (int len = 0; len < 12; ++len) {
      for (int ii = 1; ii <= 5; ++ii) {
        int brute = 0;
        const int pop = push + len;
        for (long long t = pop; t < pop + 4LL * ii + 4; ++t) {
          int live = 0;
          for (int k = 0; k <= (len / ii) + 8; ++k) {
            if (push + k * ii <= t && t <= pop + k * ii) ++live;
          }
          brute = std::max(brute, live);
        }
        EXPECT_EQ(single_peak(push, pop, ii), brute)
            << "push=" << push << " len=" << len << " ii=" << ii;
      }
    }
  }
}

TEST(PhaseSpan, FloorModPhaseAndLength) {
  EXPECT_EQ(phase_span(0, 0, 1).phase, 0);
  EXPECT_EQ(phase_span(7, 12, 3).phase, 1);
  EXPECT_EQ(phase_span(7, 12, 3).length, 5);
  EXPECT_EQ(phase_span(-1, 4, 3).phase, 2);  // floor mod, not C++'s %
  EXPECT_THROW((void)phase_span(0, 1, 0), Error);   // ii < 1
  EXPECT_THROW((void)phase_span(3, 2, 4), Error);   // pop before push
}

TEST(PeakLive, EmptyAndBadIi) {
  std::vector<int> opens;
  EXPECT_EQ(peak_live({}, 5, opens), 0);
  EXPECT_THROW((void)peak_live({}, 0, opens), Error);
}

// Seeded property test: peak_live over random span sets against the
// reference per-phase scan, on II 1-40 (II = 1 included), lengths 0-5*II
// (zero-length spans included), and pushes spread over three periods so
// that windows start anywhere and wrap past the end of the period.  One
// scratch buffer serves every trial, as queue allocation reuses one
// across the queues of a call.
TEST(PeakLive, MatchesPhaseScanOnRandomSpanSets) {
  Rng rng(20260);
  int wrapped = 0;
  int zero_length = 0;
  std::vector<int> opens;
  for (int trial = 0; trial < 4000; ++trial) {
    const int ii = trial < 200 ? 1 : rng.uniform_int(1, 40);
    const int count = rng.uniform_int(0, 12);
    std::vector<Lifetime> lifetimes;
    std::vector<int> members;
    std::vector<PhaseSpan> spans;
    for (int i = 0; i < count; ++i) {
      Lifetime lt;
      lt.push = rng.uniform_int(0, 3 * ii - 1);
      lt.pop = lt.push + rng.uniform_int(0, 5 * ii);
      lifetimes.push_back(lt);
      members.push_back(i);
      spans.push_back(phase_span(lt.push, lt.pop, ii));
      if (spans.back().phase + spans.back().length % ii >= ii) ++wrapped;
      if (lt.pop == lt.push) ++zero_length;
    }
    ASSERT_EQ(peak_live(spans, ii, opens), reference_queue_occupancy(lifetimes, members, ii))
        << "trial " << trial << ", ii " << ii << ", " << count << " spans";
  }
  EXPECT_GT(wrapped, 0);
  EXPECT_GT(zero_length, 0);
}

TEST(DomainOfEdge, PrivateSameCluster) {
  const Topology t = MachineConfig::clustered_machine(4).topology();
  const QueueDomain d = domain_of_edge(t, 2, 2);
  EXPECT_EQ(d.kind, QueueDomain::Kind::kPrivate);
  EXPECT_EQ(d.index, 2);
}

TEST(DomainOfEdge, ClockwiseSegment) {
  // Clockwise ring segments keep their historical canonical ids 0..k-1.
  const Topology t = MachineConfig::clustered_machine(4).topology();
  const QueueDomain d = domain_of_edge(t, 1, 2);
  EXPECT_EQ(d.kind, QueueDomain::Kind::kSegment);
  EXPECT_EQ(d.index, 1);
  const QueueDomain wrap = domain_of_edge(t, 3, 0);
  EXPECT_EQ(wrap.kind, QueueDomain::Kind::kSegment);
  EXPECT_EQ(wrap.index, 3);
}

TEST(DomainOfEdge, CounterClockwiseSegment) {
  // Counter-clockwise segment i ((i+1) -> i) has canonical id k + i.
  const Topology t = MachineConfig::clustered_machine(4).topology();
  const QueueDomain d = domain_of_edge(t, 2, 1);
  EXPECT_EQ(d.kind, QueueDomain::Kind::kSegment);
  EXPECT_EQ(d.index, 4 + 1);
  const QueueDomain wrap = domain_of_edge(t, 0, 3);
  EXPECT_EQ(wrap.kind, QueueDomain::Kind::kSegment);
  EXPECT_EQ(wrap.index, 4 + 3);
}

TEST(DomainOfEdge, NonAdjacentFails) {
  const Topology t = MachineConfig::clustered_machine(5).topology();
  try {
    (void)domain_of_edge(t, 0, 2);
    ADD_FAILURE() << "a two-hop flow got a domain";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(), "value flow between non-adjacent clusters 0 and 2 (ring of 5)");
  }
}

TEST(DomainOfEdge, TwoClusterRingUsesClockwise) {
  const Topology t = MachineConfig::clustered_machine(2).topology();
  EXPECT_EQ(domain_of_edge(t, 0, 1).kind, QueueDomain::Kind::kSegment);
  EXPECT_EQ(domain_of_edge(t, 0, 1).index, 0);
  EXPECT_EQ(domain_of_edge(t, 1, 0).kind, QueueDomain::Kind::kSegment);
  EXPECT_EQ(domain_of_edge(t, 1, 0).index, 1);
}

TEST(DomainName, Formats) {
  const Topology ring = MachineConfig::clustered_machine(4).topology();
  EXPECT_EQ(domain_name(ring, {QueueDomain::Kind::kPrivate, 3}), "private[3]");
  EXPECT_EQ(domain_name(ring, {QueueDomain::Kind::kSegment, 0}), "ring-cw[0]");
  EXPECT_EQ(domain_name(ring, {QueueDomain::Kind::kSegment, 4 + 2}), "ring-ccw[2]");
}

TEST(ExtractLifetimes, PushPopTimesFromSchedule) {
  const Loop loop =
      insert_copies(parse_loop("loop t { x = load X[i]; acc = fadd acc@1, x; store Y[i], acc; }"))
          .loop;
  const MachineConfig machine = MachineConfig::single_cluster_machine(3);
  const Ddg graph = Ddg::build(loop, machine.latency);
  const ImsResult r = ims_schedule(loop, graph, machine);
  ASSERT_TRUE(r.ok);
  const std::vector<Lifetime> lifetimes =
      allocate_queues(loop, graph, machine, r.schedule).lifetimes;

  // One lifetime per flow edge.
  int flow_edges = 0;
  for (const DepEdge& e : graph.edges()) {
    if (e.is_value_flow()) ++flow_edges;
  }
  EXPECT_EQ(static_cast<int>(lifetimes.size()), flow_edges);

  for (const Lifetime& lt : lifetimes) {
    const DepEdge& e = graph.edge(lt.edge);
    EXPECT_EQ(lt.producer, e.src);
    EXPECT_EQ(lt.consumer, e.dst);
    EXPECT_EQ(lt.push, r.schedule.cycle(e.src) +
                           machine.latency.of(loop.ops[static_cast<std::size_t>(e.src)].opcode));
    EXPECT_EQ(lt.pop, r.schedule.cycle(e.dst) + r.ii * e.distance);
    EXPECT_GE(lt.length(), 0);
    EXPECT_EQ(lt.domain.kind, QueueDomain::Kind::kPrivate);  // single cluster
  }
}

TEST(ExtractLifetimes, RequiresCompleteSchedule) {
  const Loop loop = parse_loop("loop t { x = load X[i]; store Y[i], x; }");
  const MachineConfig machine = MachineConfig::single_cluster_machine(3);
  const Ddg graph = Ddg::build(loop, machine.latency);
  Schedule incomplete(loop.op_count(), 2);
  EXPECT_THROW((void)allocate_queues(loop, graph, machine, incomplete), Error);
}

}  // namespace
}  // namespace qvliw
