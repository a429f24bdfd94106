#include <gtest/gtest.h>

#include "machine/machine.h"
#include "support/diagnostics.h"

namespace qvliw {
namespace {

TEST(Fu, OpcodeMapping) {
  EXPECT_EQ(fu_for(Opcode::kLoad), FuKind::kLS);
  EXPECT_EQ(fu_for(Opcode::kStore), FuKind::kLS);
  EXPECT_EQ(fu_for(Opcode::kAdd), FuKind::kAdd);
  EXPECT_EQ(fu_for(Opcode::kFSub), FuKind::kAdd);
  EXPECT_EQ(fu_for(Opcode::kMul), FuKind::kMul);
  EXPECT_EQ(fu_for(Opcode::kDiv), FuKind::kMul);
  EXPECT_EQ(fu_for(Opcode::kFDiv), FuKind::kMul);
  EXPECT_EQ(fu_for(Opcode::kCopy), FuKind::kCopy);
  EXPECT_EQ(fu_for(Opcode::kMove), FuKind::kCopy);
}

TEST(Fu, Names) {
  EXPECT_EQ(fu_kind_name(FuKind::kLS), "L/S");
  EXPECT_EQ(fu_kind_name(FuKind::kCopy), "COPY");
}

TEST(Cluster, PaperCluster) {
  const ClusterConfig c = ClusterConfig::paper_cluster();
  EXPECT_EQ(c.fus(FuKind::kLS), 1);
  EXPECT_EQ(c.fus(FuKind::kAdd), 1);
  EXPECT_EQ(c.fus(FuKind::kMul), 1);
  EXPECT_EQ(c.fus(FuKind::kCopy), 1);
  EXPECT_EQ(c.private_queues, 8);
}

TEST(Machine, SingleClusterTwelveIsBalanced) {
  const MachineConfig m = MachineConfig::single_cluster_machine(12);
  EXPECT_EQ(m.cluster_count(), 1);
  EXPECT_TRUE(m.single_cluster());
  EXPECT_EQ(m.fu_count(0, FuKind::kLS), 4);
  EXPECT_EQ(m.fu_count(0, FuKind::kAdd), 4);
  EXPECT_EQ(m.fu_count(0, FuKind::kMul), 4);
  EXPECT_EQ(m.fu_count(0, FuKind::kCopy), 4);
  EXPECT_EQ(m.total_compute_fus(), 12);
}

TEST(Machine, SingleClusterFourFuMix) {
  const MachineConfig m = MachineConfig::single_cluster_machine(4);
  EXPECT_EQ(m.fu_count(0, FuKind::kLS), 2);
  EXPECT_EQ(m.fu_count(0, FuKind::kAdd), 1);
  EXPECT_EQ(m.fu_count(0, FuKind::kMul), 1);
  EXPECT_EQ(m.fu_count(0, FuKind::kCopy), 2);  // ceil(4/3)
  EXPECT_EQ(m.total_compute_fus(), 4);
}

TEST(Machine, SingleClusterRejectsTiny) {
  EXPECT_THROW((void)MachineConfig::single_cluster_machine(2), Error);
}

TEST(Machine, ClusteredShape) {
  const MachineConfig m = MachineConfig::clustered_machine(4);
  EXPECT_EQ(m.cluster_count(), 4);
  EXPECT_FALSE(m.single_cluster());
  EXPECT_EQ(m.total_compute_fus(), 12);
  EXPECT_EQ(m.total_fus(FuKind::kCopy), 4);
  EXPECT_EQ(m.segment.queues_per_segment, 8);
  EXPECT_EQ(m.topology_kind, TopologyKind::kRing);
}

TEST(Machine, ClusteredRejectsOne) {
  EXPECT_THROW((void)MachineConfig::clustered_machine(1), Error);
}

TEST(Ring, DistanceOnFourRing) {
  const MachineConfig m = MachineConfig::clustered_machine(4);
  EXPECT_EQ(m.distance(0, 0), 0);
  EXPECT_EQ(m.distance(0, 1), 1);
  EXPECT_EQ(m.distance(0, 2), 2);
  EXPECT_EQ(m.distance(0, 3), 1);  // wraps
  EXPECT_EQ(m.distance(3, 0), 1);
}

TEST(Ring, DistanceOnSixRing) {
  const MachineConfig m = MachineConfig::clustered_machine(6);
  EXPECT_EQ(m.distance(0, 3), 3);
  EXPECT_EQ(m.distance(1, 5), 2);
  EXPECT_EQ(m.distance(5, 1), 2);
}

TEST(Ring, Adjacency) {
  const MachineConfig m = MachineConfig::clustered_machine(5);
  EXPECT_TRUE(m.adjacent(0, 0));
  EXPECT_TRUE(m.adjacent(0, 1));
  EXPECT_TRUE(m.adjacent(0, 4));
  EXPECT_FALSE(m.adjacent(0, 2));
  EXPECT_FALSE(m.adjacent(0, 3));
}

TEST(Ring, NextHop) {
  const MachineConfig m = MachineConfig::clustered_machine(6);
  EXPECT_EQ(m.next_hop(0, 2), 1);
  EXPECT_EQ(m.next_hop(0, 5), 5);   // counter-clockwise is shorter
  EXPECT_EQ(m.next_hop(0, 3), 1);   // tie -> clockwise
  EXPECT_THROW((void)m.next_hop(2, 2), Error);
}

TEST(Machine, MeshShape) {
  const MachineConfig m = MachineConfig::mesh_machine(3, 3);
  EXPECT_EQ(m.cluster_count(), 9);
  EXPECT_EQ(m.topology_kind, TopologyKind::kMesh);
  EXPECT_EQ(m.name, "mesh-3x3x3fu");
  EXPECT_EQ(m.distance(0, 8), 4);  // corner to corner, Manhattan
  EXPECT_TRUE(m.adjacent(4, 1));
  EXPECT_FALSE(m.adjacent(0, 4));  // diagonal
}

TEST(Machine, CrossbarShape) {
  const MachineConfig m = MachineConfig::crossbar_machine(4);
  EXPECT_EQ(m.topology_kind, TopologyKind::kCrossbar);
  EXPECT_EQ(m.name, "xbar-4x3fu");
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) EXPECT_TRUE(m.adjacent(a, b));
  }
}

TEST(Machine, TopologyMachineFactorsMeshes) {
  EXPECT_EQ(MachineConfig::topology_machine(TopologyKind::kMesh, 9).name, "mesh-3x3x3fu");
  EXPECT_EQ(MachineConfig::topology_machine(TopologyKind::kMesh, 6).name, "mesh-2x3x3fu");
  EXPECT_EQ(MachineConfig::topology_machine(TopologyKind::kMesh, 7).name, "mesh-1x7x3fu");
  EXPECT_EQ(MachineConfig::topology_machine(TopologyKind::kRing, 4).name, "ring-4x3fu");
  EXPECT_EQ(MachineConfig::topology_machine(TopologyKind::kCrossbar, 4).name, "xbar-4x3fu");
}

TEST(Machine, ValidateCatchesBadMeshDims) {
  MachineConfig m = MachineConfig::mesh_machine(2, 3);
  m.mesh_rows = 3;  // 3x3 != 6 clusters
  EXPECT_THROW(m.validate(), Error);
}

TEST(Machine, SignatureSeparatesTopologies) {
  // Same cluster/segment resources, different interconnects: the sweep
  // cache must never serve a ring artifact to a mesh machine.
  const auto ring = MachineConfig::clustered_machine(4);
  const auto mesh = MachineConfig::mesh_machine(2, 2);
  const auto wide = MachineConfig::mesh_machine(1, 4);
  const auto xbar = MachineConfig::crossbar_machine(4);
  EXPECT_NE(ring.signature(), mesh.signature());
  EXPECT_NE(ring.signature(), xbar.signature());
  EXPECT_NE(mesh.signature(), xbar.signature());
  EXPECT_NE(mesh.signature(), wide.signature());
}

TEST(Machine, ValidateCatchesMissingFuKind) {
  MachineConfig m = MachineConfig::single_cluster_machine(6);
  m.clusters[0].fus(FuKind::kMul) = 0;
  EXPECT_THROW(m.validate(), Error);
}

TEST(Machine, ValidateCatchesZeroQueues) {
  MachineConfig m = MachineConfig::single_cluster_machine(6);
  m.clusters[0].private_queues = 0;
  EXPECT_THROW(m.validate(), Error);
}

TEST(Machine, ValidateCatchesEmpty) {
  MachineConfig m;
  EXPECT_THROW(m.validate(), Error);
}

TEST(Machine, FuCountsAcrossSizes) {
  for (int n = 3; n <= 18; ++n) {
    const MachineConfig m = MachineConfig::single_cluster_machine(n);
    EXPECT_EQ(m.total_compute_fus(), n) << n;
    EXPECT_GE(m.fu_count(0, FuKind::kLS), 1);
    EXPECT_GE(m.fu_count(0, FuKind::kAdd), 1);
    EXPECT_GE(m.fu_count(0, FuKind::kMul), 1);
  }
}

TEST(Machine, TwelveFuSingleMatchesFourClusters) {
  // The paper compares 4 clusters (12 FUs) against a single-cluster 12-FU
  // machine; per-kind totals must match for the comparison to be fair.
  const MachineConfig single = MachineConfig::single_cluster_machine(12);
  const MachineConfig clustered = MachineConfig::clustered_machine(4);
  for (int k = 0; k < kNumFuKinds - 1; ++k) {
    EXPECT_EQ(single.total_fus(static_cast<FuKind>(k)), clustered.total_fus(static_cast<FuKind>(k)));
  }
}

}  // namespace
}  // namespace qvliw
