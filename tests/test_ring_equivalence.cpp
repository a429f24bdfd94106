// Golden ring-equivalence suite.
//
// The topology-generic back end replaced dedicated ring arithmetic
// (ring_distance / cw-ccw queue domains) with the Topology abstraction.
// These tests replicate the retired arithmetic verbatim and assert the
// generic path is bit-identical to it: distances, every queue domain the
// allocator files a lifetime under, and the sweep fingerprint across
// repeated runs of the clustered suite.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/shard.h"
#include "harness/stage.h"
#include "harness/sweep.h"
#include "machine/topology.h"
#include "qrf/lifetime.h"
#include "support/strings.h"
#include "verify/verify.h"
#include "workload/suite.h"

namespace qvliw {
namespace {

// --- the retired ring arithmetic, replicated verbatim ----------------------

int legacy_ring_distance(int k, int a, int b) {
  const int cw = ((b - a) % k + k) % k;
  return std::min(cw, k - cw);
}

/// Old domain_of_edge: {0 = private idx c, 1 = ring-cw idx i (segment
/// i -> i+1), 2 = ring-ccw idx i (segment i+1 -> i)}; a 2-cluster ring
/// used only "clockwise" segments.  Returns the canonical QueueDomain the
/// old triple maps to.
QueueDomain legacy_domain_of_edge(int k, int producer_cluster, int consumer_cluster) {
  if (producer_cluster == consumer_cluster) {
    return {QueueDomain::Kind::kPrivate, producer_cluster};
  }
  if ((producer_cluster + 1) % k == consumer_cluster) {
    return {QueueDomain::Kind::kSegment, producer_cluster};  // was kRingCw[producer]
  }
  // was kRingCcw[consumer]: segment consumer+1 -> consumer, canonical k+i
  return {QueueDomain::Kind::kSegment, k + consumer_cluster};
}

TEST(RingEquivalence, DistanceMatchesLegacyArithmetic) {
  for (int k = 1; k <= 8; ++k) {
    const Topology t = Topology::ring(k);
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        EXPECT_EQ(t.distance(a, b), legacy_ring_distance(k, a, b)) << k << " " << a << " " << b;
      }
    }
  }
}

TEST(RingEquivalence, DomainOfEdgeMatchesLegacyMapping) {
  for (int k = 2; k <= 8; ++k) {
    const Topology t = Topology::ring(k);
    for (int p = 0; p < k; ++p) {
      for (int c = 0; c < k; ++c) {
        if (legacy_ring_distance(k, p, c) > 1) continue;
        if (k == 2 && p != c) {
          // The 2-ring's both-directions-clockwise case: old code always
          // took the cw branch first, exactly like segment_between.
          EXPECT_EQ(domain_of_edge(t, p, c), (QueueDomain{QueueDomain::Kind::kSegment, p}));
          continue;
        }
        EXPECT_EQ(domain_of_edge(t, p, c), legacy_domain_of_edge(k, p, c)) << k << " " << p;
      }
    }
  }
}

/// Every lifetime the allocator files across the clustered suite carries
/// exactly the domain the legacy cw/ccw arithmetic would have chosen, and
/// the independent verifier agrees with the whole artifact set.
TEST(RingEquivalence, AllocatorDomainsMatchLegacyAcrossSuite) {
  SynthConfig config;
  config.loops = 48;
  const Suite suite = full_suite(config);
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  const int k = machine.cluster_count();

  PipelineOptions options;
  options.unroll = true;
  options.scheduler = SchedulerKind::kClustered;

  int lifetimes_checked = 0;
  for (const Loop& source : suite.loops) {
    PipelineContext ctx(source, machine, options);
    if (run_front_end(ctx)) run_back_end(ctx);
    if (!ctx.result.ok) continue;
    for (const Lifetime& lt : ctx.allocation.lifetimes) {
      const int pc = ctx.sched.schedule.place(lt.producer).cluster;
      const int cc = ctx.sched.schedule.place(lt.consumer).cluster;
      ASSERT_EQ(lt.domain, legacy_domain_of_edge(k, pc, cc))
          << source.name << " edge " << lt.producer << "->" << lt.consumer;
      ++lifetimes_checked;
    }
    const VerifyReport report =
        verify_artifacts(ctx.loop, *ctx.graph, machine, ctx.sched.schedule, &ctx.allocation,
                         /*check_fanout=*/true, ctx.result.fits_machine_queues);
    EXPECT_TRUE(report.ok()) << source.name << ": " << report.summary(0);
  }
  EXPECT_GT(lifetimes_checked, 0);
}

/// The clustered sweep's canonical fingerprint is reproducible run to run
/// (the bit-identity contract CI holds ring baselines to).
TEST(RingEquivalence, SweepFingerprintStableAcrossRuns) {
  SynthConfig config;
  config.loops = 32;
  const Suite suite = full_suite(config);

  std::vector<SweepPoint> points;
  for (const ClusterHeuristic heuristic :
       {ClusterHeuristic::kAffinity, ClusterHeuristic::kLoadBalance}) {
    SweepPoint point{cat("ring-4-", cluster_heuristic_name(heuristic)),
                     MachineConfig::clustered_machine(4),
                     {}};
    point.options.unroll = true;
    point.options.scheduler = SchedulerKind::kClustered;
    point.options.heuristic = heuristic;
    points.push_back(point);
  }
  const SweepResult first = SweepRunner().run(suite.loops, points);
  const SweepResult second = SweepRunner().run(suite.loops, points);
  EXPECT_EQ(sweep_result_fingerprint(first), sweep_result_fingerprint(second));
}

}  // namespace
}  // namespace qvliw
