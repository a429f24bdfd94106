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
  return {Topology::ring(1),     Topology::ring(2),     Topology::ring(3),
          Topology::ring(4),     Topology::ring(7),     Topology::mesh(1, 1),
          Topology::mesh(1, 5),  Topology::mesh(2, 2),  Topology::mesh(3, 3),
          Topology::mesh(3, 4),  Topology::crossbar(1), Topology::crossbar(2),
          Topology::crossbar(4), Topology::crossbar(6)};
}

TEST(Topology, KindNamesRoundTrip) {
  for (const TopologyKind kind :
       {TopologyKind::kRing, TopologyKind::kMesh, TopologyKind::kCrossbar}) {
    const auto parsed = parse_topology_kind(topology_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_topology_kind("torus").has_value());
  EXPECT_FALSE(parse_topology_kind("").has_value());
}

TEST(Topology, DistanceIsAMetric) {
  for (const Topology& t : sample_topologies()) {
    const int k = t.cluster_count();
    for (int a = 0; a < k; ++a) {
      EXPECT_EQ(t.distance(a, a), 0) << t.kind_name() << " k=" << k;
      for (int b = 0; b < k; ++b) {
        EXPECT_EQ(t.distance(a, b), t.distance(b, a)) << t.kind_name() << " " << a << "," << b;
        EXPECT_EQ(t.distance(a, b) == 0, a == b);
        // adjacent() deliberately includes a == b: a value never needs a
        // segment to stay in its own cluster.
        EXPECT_EQ(t.adjacent(a, b), t.distance(a, b) <= 1);
      }
    }
  }
}

TEST(Topology, MeshTriangleInequality) {
  const Topology t = Topology::mesh(3, 4);
  const int k = t.cluster_count();
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      for (int c = 0; c < k; ++c) {
        EXPECT_LE(t.distance(a, c), t.distance(a, b) + t.distance(b, c));
      }
    }
  }
}

TEST(Topology, NextHopLiesOnAShortestPath) {
  for (const Topology& t : sample_topologies()) {
    const int k = t.cluster_count();
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        if (a == b) continue;
        const int hop = t.next_hop(a, b);
        EXPECT_TRUE(t.adjacent(a, hop)) << t.kind_name() << " " << a << "->" << b;
        EXPECT_EQ(t.distance(hop, b), t.distance(a, b) - 1)
            << t.kind_name() << " " << a << "->" << b;
      }
    }
  }
}

TEST(Topology, RingNextHopPrefersClockwiseOnTies) {
  const Topology t = Topology::ring(6);
  EXPECT_EQ(t.next_hop(0, 3), 1);  // distance 3 both ways: clockwise wins
  EXPECT_EQ(t.next_hop(0, 5), 5);
  EXPECT_THROW((void)t.next_hop(2, 2), Error);
}

TEST(Topology, CrossbarAllPairsAdjacent) {
  const Topology t = Topology::crossbar(6);
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      if (a == b) continue;
      EXPECT_TRUE(t.adjacent(a, b));
      EXPECT_EQ(t.next_hop(a, b), b);
    }
  }
}

TEST(Topology, SegmentsEnumerateEveryAdjacentOrderedPairOnce) {
  for (const Topology& t : sample_topologies()) {
    const int k = t.cluster_count();
    int linked_pairs = 0;
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        if (t.distance(a, b) == 1) ++linked_pairs;
      }
    }
    ASSERT_EQ(t.segment_count(), linked_pairs) << t.kind_name() << " k=" << k;
    for (int s = 0; s < t.segment_count(); ++s) {
      const Segment seg = t.segment(s);
      EXPECT_EQ(t.distance(seg.src, seg.dst), 1) << t.kind_name() << " s=" << s;
      EXPECT_EQ(t.segment_between(seg.src, seg.dst), s) << t.kind_name() << " s=" << s;
    }
  }
}

TEST(Topology, SegmentBetweenNonAdjacentIsAbsent) {
  EXPECT_EQ(Topology::ring(5).segment_between(0, 2), -1);
  EXPECT_EQ(Topology::ring(5).segment_between(1, 1), -1);
  EXPECT_EQ(Topology::mesh(2, 2).segment_between(0, 3), -1);
  EXPECT_EQ(Topology::crossbar(3).segment_between(2, 2), -1);
}

TEST(Topology, DegenerateRings) {
  const Topology solo = Topology::ring(1);
  EXPECT_EQ(solo.segment_count(), 0);
  EXPECT_EQ(solo.distance(0, 0), 0);

  // Two clusters share one physical link per direction; both segments are
  // "clockwise" and there is no distinct counter-clockwise id space.
  const Topology pair = Topology::ring(2);
  EXPECT_EQ(pair.segment_count(), 2);
  EXPECT_EQ(pair.segment(0).src, 0);
  EXPECT_EQ(pair.segment(0).dst, 1);
  EXPECT_EQ(pair.segment(1).src, 1);
  EXPECT_EQ(pair.segment(1).dst, 0);
  EXPECT_EQ(pair.segment_name(0), "ring-cw[0]");
  EXPECT_EQ(pair.segment_name(1), "ring-cw[1]");
}

TEST(Topology, SegmentNames) {
  const Topology ring = Topology::ring(4);
  EXPECT_EQ(ring.segment_name(0), "ring-cw[0]");
  EXPECT_EQ(ring.segment_name(3), "ring-cw[3]");
  EXPECT_EQ(ring.segment_name(4), "ring-ccw[0]");
  EXPECT_EQ(ring.segment_name(7), "ring-ccw[3]");
  const Topology mesh = Topology::mesh(2, 2);
  EXPECT_EQ(mesh.segment_name(0), "mesh[0->1]");
  const Topology xbar = Topology::crossbar(3);
  EXPECT_EQ(xbar.segment_name(0), "xbar[0->1]");
  EXPECT_EQ(xbar.segment_name(5), "xbar[2->1]");
  EXPECT_THROW((void)ring.segment_name(8), Error);
}

// --- machine codec --------------------------------------------------------

/// Bytes of `machine` serialized without the trailing topology fields
/// (kind + mesh dims, three i32s), for splicing in malformed ones.
std::string machine_bytes_before_topology(const MachineConfig& machine) {
  BlobWriter out;
  serialize_machine(out, machine);
  std::string bytes = out.take();
  BlobWriter suffix;
  suffix.put_i32(static_cast<std::int32_t>(machine.topology_kind));
  suffix.put_i32(machine.mesh_rows);
  suffix.put_i32(machine.mesh_cols);
  const std::size_t suffix_size = suffix.take().size();
  bytes.resize(bytes.size() - suffix_size);
  return bytes;
}

TEST(MachineCodec, V2RoundTripsEveryTopology) {
  for (const MachineConfig& machine :
       {MachineConfig::clustered_machine(4), MachineConfig::mesh_machine(2, 3),
        MachineConfig::crossbar_machine(4)}) {
    BlobWriter out;
    serialize_machine(out, machine);
    const std::string bytes = out.take();
    BlobReader reader(bytes);
    const MachineConfig copy = deserialize_machine(reader);
    reader.require_exhausted("machine v2");
    EXPECT_EQ(copy.topology_kind, machine.topology_kind);
    EXPECT_EQ(copy.mesh_rows, machine.mesh_rows);
    EXPECT_EQ(copy.mesh_cols, machine.mesh_cols);
    EXPECT_EQ(copy.name, machine.name);
    EXPECT_EQ(copy.signature(), machine.signature());
  }
}

TEST(MachineCodec, RejectsBadTopologyKind) {
  std::string bytes = machine_bytes_before_topology(MachineConfig::clustered_machine(3));
  BlobWriter suffix;
  suffix.put_i32(7);  // no such TopologyKind
  suffix.put_i32(0);
  suffix.put_i32(0);
  bytes += suffix.take();
  BlobReader reader(bytes);
  EXPECT_THROW((void)deserialize_machine(reader), Error);
}

TEST(MachineCodec, RejectsMeshDimsThatDoNotCoverClusters) {
  std::string bytes = machine_bytes_before_topology(MachineConfig::mesh_machine(2, 3));
  BlobWriter suffix;
  suffix.put_i32(static_cast<std::int32_t>(TopologyKind::kMesh));
  suffix.put_i32(2);
  suffix.put_i32(5);  // 2x5 != 6 clusters
  bytes += suffix.take();
  BlobReader reader(bytes);
  EXPECT_THROW((void)deserialize_machine(reader), Error);
}

}  // namespace
}  // namespace qvliw
