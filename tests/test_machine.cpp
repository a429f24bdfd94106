#include <gtest/gtest.h>

#include <string>

#include "harness/pipeline.h"
#include "machine/machine.h"
#include "support/diagnostics.h"
#include "workload/kernels.h"

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
  EXPECT_EQ(m.fu_count(0, FuKind::kLS), 4);
  EXPECT_EQ(m.fu_count(0, FuKind::kAdd), 4);
  EXPECT_EQ(m.fu_count(0, FuKind::kMul), 4);
  EXPECT_EQ(m.fu_count(0, FuKind::kCopy), 4);
}

TEST(Machine, SingleClusterFourFuMix) {
  const MachineConfig m = MachineConfig::single_cluster_machine(4);
  EXPECT_EQ(m.fu_count(0, FuKind::kLS), 2);
  EXPECT_EQ(m.fu_count(0, FuKind::kAdd), 1);
  EXPECT_EQ(m.fu_count(0, FuKind::kMul), 1);
  EXPECT_EQ(m.fu_count(0, FuKind::kCopy), 2);  // ceil(4/3)
}

TEST(Machine, SingleClusterRejectsTiny) {
  EXPECT_THROW((void)MachineConfig::single_cluster_machine(2), Error);
}

TEST(Machine, ClusteredShape) {
  const MachineConfig m = MachineConfig::clustered_machine(4);
  EXPECT_EQ(m.cluster_count(), 4);
  EXPECT_EQ(m.total_fus(FuKind::kLS), 4);
  EXPECT_EQ(m.total_fus(FuKind::kAdd), 4);
  EXPECT_EQ(m.total_fus(FuKind::kMul), 4);
  EXPECT_EQ(m.total_fus(FuKind::kCopy), 4);
  EXPECT_EQ(m.segment.queues_per_segment, 8);
  EXPECT_EQ(m.topology().segment_count(), 8);
}

TEST(Machine, ClusteredRejectsOne) {
  EXPECT_THROW((void)MachineConfig::clustered_machine(1), Error);
}

TEST(Ring, DistanceOnFourRing) {
  const Topology ring = MachineConfig::clustered_machine(4).topology();
  EXPECT_EQ(ring.distance(0, 0), 0);
  EXPECT_EQ(ring.distance(0, 1), 1);
  EXPECT_EQ(ring.distance(0, 2), 2);
  EXPECT_EQ(ring.distance(0, 3), 1);  // wraps
  EXPECT_EQ(ring.distance(3, 0), 1);
}

TEST(Ring, DistanceOnSixRing) {
  const Topology ring = MachineConfig::clustered_machine(6).topology();
  EXPECT_EQ(ring.distance(0, 3), 3);
  EXPECT_EQ(ring.distance(1, 5), 2);
  EXPECT_EQ(ring.distance(5, 1), 2);
}

TEST(Ring, Adjacency) {
  const Topology ring = MachineConfig::clustered_machine(5).topology();
  EXPECT_LE(ring.distance(0, 0), 1);
  EXPECT_LE(ring.distance(0, 1), 1);
  EXPECT_LE(ring.distance(0, 4), 1);
  EXPECT_GT(ring.distance(0, 2), 1);
  EXPECT_GT(ring.distance(0, 3), 1);
}

TEST(Machine, TopologyMachineIsTheClusteredRing) {
  const MachineConfig m = MachineConfig::topology_machine(TopologyKind::kRing, 4);
  EXPECT_EQ(m.name, "ring-4x3fu");
  EXPECT_EQ(m.signature(), MachineConfig::clustered_machine(4).signature());
}

TEST(Machine, SignatureSeparatesRingSizes) {
  // Equal compute FU totals, different clusterings: the sweep cache must
  // never serve one machine's artifacts to the other.
  const auto ring4 = MachineConfig::clustered_machine(4);
  const auto ring5 = MachineConfig::clustered_machine(5);
  const auto single = MachineConfig::single_cluster_machine(12);
  EXPECT_NE(ring4.signature(), ring5.signature());
  EXPECT_NE(ring4.signature(), single.signature());
}

TEST(Machine, ValidateNamesTheRingWithoutSegmentQueues) {
  MachineConfig m = MachineConfig::clustered_machine(4);
  m.segment.queues_per_segment = 0;
  try {
    m.validate();
    ADD_FAILURE() << "a ring without segment queues validated";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(), "machine 'ring-4x3fu': ring needs queues");
  }
  m.segment.queues_per_segment = 8;
  m.segment.queue_depth = 0;
  try {
    m.validate();
    ADD_FAILURE() << "a ring without segment queue depth validated";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(), "machine 'ring-4x3fu': ring needs queue depth");
  }
  // A single cluster has no segments to check.
  MachineConfig single = MachineConfig::single_cluster_machine(6);
  single.segment.queues_per_segment = 0;
  EXPECT_NO_THROW(single.validate());
}

TEST(Machine, ValidateBoundsFusByTheReservationTable) {
  // The reservation table keeps one busy bit per FU instance of a kind in
  // a 64-bit word, so a machine that validates must fit it: a 65th adder
  // fails validate, and 64 adders schedule.
  MachineConfig m = MachineConfig::single_cluster_machine(6);
  m.clusters[0].fus(FuKind::kAdd) = 65;
  try {
    m.validate();
    ADD_FAILURE() << "a cluster with 65 adders validated";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("65 FUs of one kind, beyond 64"), std::string::npos)
        << error.what();
  }
  m.clusters[0].fus(FuKind::kAdd) = 64;
  EXPECT_NO_THROW(m.validate());
  const LoopResult result = run_pipeline(kernel_by_name("daxpy"), m);
  EXPECT_TRUE(result.ok) << result.failure;
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
    EXPECT_EQ(m.total_fus(FuKind::kLS) + m.total_fus(FuKind::kAdd) + m.total_fus(FuKind::kMul), n)
        << n;
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
