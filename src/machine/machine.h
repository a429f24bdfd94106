// Machine configuration: clusters, queue register files, interconnect.
//
// A machine is a set of clusters on a bidirectional ring (see
// machine/topology.h).  Each cluster has a private QRF (a set of queues
// usable only by its own FUs) and is connected to its ring neighbours by
// directed *segments*, each implemented as a set of queues (Fig. 5b /
// Fig. 7 of the paper): a producer in cluster c writes a segment queue
// that a consumer in the adjacent cluster pops.
// The base partitioning scheme permits communication only between
// adjacent clusters; `move` operations (the paper's future-work
// extension) relay values across several segments.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/opcode.h"
#include "machine/fu.h"
#include "machine/topology.h"

namespace qvliw {

struct ClusterConfig {
  /// FU instances per kind, indexed by FuKind.
  std::array<int, kNumFuKinds> fu_count{};

  /// Queues in the private QRF (paper's basic cluster: 8).
  int private_queues = 8;

  /// Positions (depth) per private queue.
  int queue_depth = 16;

  [[nodiscard]] int fus(FuKind kind) const { return fu_count[static_cast<std::size_t>(kind)]; }
  [[nodiscard]] int& fus(FuKind kind) { return fu_count[static_cast<std::size_t>(kind)]; }

  /// The paper's cluster: 1 L/S + 1 ADD + 1 MUL + 1 COPY, 8 private queues.
  [[nodiscard]] static ClusterConfig paper_cluster();
};

/// Queue resources of one directed interconnect segment; every segment of
/// a machine shares this configuration (paper ring: 8 queues x 16 deep
/// per direction).
struct SegmentConfig {
  /// Queues per directed segment between adjacent clusters (paper: 8).
  int queues_per_segment = 8;

  /// Positions per segment queue.
  int queue_depth = 16;
};

/// Bounds MachineConfig::validate enforces, far above the paper's
/// machines (at most 6 FUs of a kind, latency 8), so that reservation
/// tables and summed latencies stay small for every machine that
/// validates.  The FU bound is also the reservation table's: its busy
/// word holds one bit per instance of a kind (sched/reservation.h).
inline constexpr int kMaxFusPerKind = 64;
inline constexpr int kMaxLatency = 1 << 10;

class MachineConfig {
 public:
  std::string name = "machine";
  std::vector<ClusterConfig> clusters;
  SegmentConfig segment;
  LatencyModel latency = LatencyModel::classic();

  [[nodiscard]] int cluster_count() const { return static_cast<int>(clusters.size()); }
  [[nodiscard]] bool single_cluster() const { return clusters.size() == 1; }

  [[nodiscard]] const ClusterConfig& cluster(int c) const;

  [[nodiscard]] int fu_count(int c, FuKind kind) const { return cluster(c).fus(kind); }

  /// FU instances of `kind` summed over all clusters.
  [[nodiscard]] int total_fus(FuKind kind) const;

  /// Compute FUs (L/S + ADD + MUL) over all clusters — the paper's
  /// machine-size label ("12 FUs" = 4 clusters).
  [[nodiscard]] int total_compute_fus() const;

  // --- interconnect topology ----------------------------------------------

  /// The ring as a graph value (cheap to build; see topology.h).
  [[nodiscard]] Topology topology() const { return Topology::ring(cluster_count()); }

  /// Minimal hop count between clusters on the interconnect; a value
  /// flows without moves only where it is at most 1.
  [[nodiscard]] int distance(int a, int b) const { return topology().distance(a, b); }

  /// Structural checks: >= 1 cluster, every cluster has >= 1 of each
  /// compute FU kind and at most kMaxFusPerKind of any kind, positive
  /// queue counts/depths and latencies in [0, kMaxLatency].
  void validate() const;

  // --- paper configurations ----------------------------------------------

  /// Single-cluster machine with `n_fus` compute FUs distributed
  /// round-robin over L/S, ADD, MUL (12 -> 4/4/4 as in the paper), plus
  /// ceil(n/3) copy units and `queues` private queues (default 32, the
  /// configuration that schedules most of the paper's benchmark).
  [[nodiscard]] static MachineConfig single_cluster_machine(int n_fus, int queues = 32);

  /// `n_clusters` paper clusters on a bidirectional ring of queues
  /// (Fig. 5b): 3 compute FUs + 1 copy FU per cluster, 8 private queues,
  /// 8 segment queues per direction.
  [[nodiscard]] static MachineConfig clustered_machine(int n_clusters);

  /// clustered_machine(n_clusters); `kind` is the ring, the one shape.
  [[nodiscard]] static MachineConfig topology_machine(TopologyKind kind, int n_clusters);

  /// Structural hash of everything that affects compilation results:
  /// cluster FU mix, queue counts/depths, segment config and latency
  /// model (the `name` is ignored; the cluster count fixes the ring).
  /// Equal signatures stand for equal machines where points are compared:
  /// plan_sweep shares work between them and merge_points merges them.
  /// The hash bytes are kept as they are because the benchmark's inputs
  /// line hashes them.
  [[nodiscard]] std::uint64_t signature() const;
};

class BlobReader;
class BlobWriter;

/// Serialises `machine` into the portable blob format (support/blob.h):
/// name, per-cluster FU mix and queue configuration, segment config and
/// latency model.  Used by the qvliw_verify bundle so a dumped artifact
/// names the exact machine it claims legality against.
void serialize_machine(BlobWriter& out, const MachineConfig& machine);

/// Inverse of serialize_machine; throws Error on truncation or an
/// implausible cluster count.  The result is
/// *not* validated — run MachineConfig::validate before trusting a
/// deserialised machine.
[[nodiscard]] MachineConfig deserialize_machine(BlobReader& in);

}  // namespace qvliw
