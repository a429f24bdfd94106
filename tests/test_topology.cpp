#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "machine/machine.h"
#include "machine/topology.h"
#include "support/blob.h"
#include "support/diagnostics.h"

namespace qvliw {
namespace {

std::vector<Topology> sample_topologies() {
  return {Topology::ring(1), Topology::ring(2), Topology::ring(3), Topology::ring(4),
          Topology::ring(5), Topology::ring(6), Topology::ring(7), Topology::ring(12)};
}

TEST(Topology, DistanceIsAMetric) {
  for (const Topology& t : sample_topologies()) {
    const int k = t.cluster_count();
    for (int a = 0; a < k; ++a) {
      EXPECT_EQ(t.distance(a, a), 0) << "k=" << k;
      for (int b = 0; b < k; ++b) {
        EXPECT_EQ(t.distance(a, b), t.distance(b, a)) << "k=" << k << " " << a << "," << b;
        EXPECT_EQ(t.distance(a, b) == 0, a == b);
      }
    }
  }
}

TEST(Topology, TriangleInequality) {
  for (const Topology& t : sample_topologies()) {
    const int k = t.cluster_count();
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        for (int c = 0; c < k; ++c) {
          EXPECT_LE(t.distance(a, c), t.distance(a, b) + t.distance(b, c))
              << "k=" << k << " " << a << "," << b << "," << c;
        }
      }
    }
  }
}

TEST(Topology, SmallRingsHaveAllPairsAdjacent) {
  for (const int k : {2, 3}) {
    const Topology t = Topology::ring(k);
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        if (a == b) continue;
        EXPECT_EQ(t.distance(a, b), 1) << "k=" << k << " " << a << "," << b;
      }
    }
  }
}

// The canonical numbering: clockwise a -> a+1 is segment a, and (on
// rings of more than two) counter-clockwise a+1 -> a is segment k + a.
// Every adjacent ordered pair gets its own id, and the ids cover
// [0, segment_count()) exactly once.
TEST(Topology, SegmentsEnumerateEveryAdjacentOrderedPairOnce) {
  for (const Topology& t : sample_topologies()) {
    const int k = t.cluster_count();
    std::vector<int> pairs_per_id(static_cast<std::size_t>(t.segment_count()), 0);
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        const int s = t.segment_between(a, b);
        if (a == b || t.distance(a, b) > 1) {
          EXPECT_EQ(s, -1) << "k=" << k << " " << a << "->" << b;
          continue;
        }
        ASSERT_GE(s, 0) << "k=" << k << " " << a << "->" << b;
        ASSERT_LT(s, t.segment_count()) << "k=" << k << " " << a << "->" << b;
        ++pairs_per_id[static_cast<std::size_t>(s)];
      }
      if (k > 1) {
        EXPECT_EQ(t.segment_between(a, (a + 1) % k), a) << "k=" << k;
      }
      if (k > 2) {
        EXPECT_EQ(t.segment_between((a + 1) % k, a), k + a) << "k=" << k;
      }
    }
    for (int s = 0; s < t.segment_count(); ++s) {
      EXPECT_EQ(pairs_per_id[static_cast<std::size_t>(s)], 1) << "k=" << k << " s=" << s;
    }
  }
}

TEST(Topology, DegenerateRings) {
  const Topology solo = Topology::ring(1);
  EXPECT_EQ(solo.segment_count(), 0);
  EXPECT_EQ(solo.distance(0, 0), 0);

  // Two clusters share one physical link per direction; both segments are
  // "clockwise" and there is no distinct counter-clockwise id space.
  const Topology pair = Topology::ring(2);
  EXPECT_EQ(pair.segment_count(), 2);
  EXPECT_EQ(pair.segment_between(0, 1), 0);
  EXPECT_EQ(pair.segment_between(1, 0), 1);
  EXPECT_EQ(pair.segment_name(0), "ring-cw[0]");
  EXPECT_EQ(pair.segment_name(1), "ring-cw[1]");
}

TEST(Topology, SegmentNames) {
  const Topology ring = Topology::ring(4);
  EXPECT_EQ(ring.segment_name(0), "ring-cw[0]");
  EXPECT_EQ(ring.segment_name(3), "ring-cw[3]");
  EXPECT_EQ(ring.segment_name(4), "ring-ccw[0]");
  EXPECT_EQ(ring.segment_name(7), "ring-ccw[3]");
  EXPECT_THROW((void)ring.segment_name(8), Error);
  EXPECT_THROW((void)ring.segment_name(-1), Error);
}

// --- machine codec --------------------------------------------------------

TEST(MachineCodec, RoundTripsRingAndSingleClusterMachines) {
  MachineConfig custom = MachineConfig::clustered_machine(5);
  custom.segment.queues_per_segment = 3;
  custom.segment.queue_depth = 5;
  custom.latency.latency[0] = 0;
  for (const MachineConfig& machine :
       {MachineConfig::clustered_machine(2), MachineConfig::clustered_machine(4), custom,
        MachineConfig::single_cluster_machine(6), MachineConfig::single_cluster_machine(6, 4)}) {
    BlobWriter out;
    serialize_machine(out, machine);
    const std::string bytes = out.take();
    BlobReader reader(bytes);
    const MachineConfig copy = deserialize_machine(reader);
    reader.require_exhausted("machine");
    EXPECT_EQ(copy.name, machine.name);
    EXPECT_EQ(copy.cluster_count(), machine.cluster_count()) << machine.name;
    EXPECT_EQ(copy.segment.queues_per_segment, machine.segment.queues_per_segment) << machine.name;
    EXPECT_EQ(copy.segment.queue_depth, machine.segment.queue_depth) << machine.name;
    EXPECT_EQ(copy.latency.latency, machine.latency.latency) << machine.name;
    EXPECT_EQ(copy.signature(), machine.signature()) << machine.name;
    EXPECT_NO_THROW(copy.validate()) << machine.name;
  }
}

}  // namespace
}  // namespace qvliw
