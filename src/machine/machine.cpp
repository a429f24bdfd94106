#include "machine/machine.h"

#include <algorithm>
#include <cstdint>

#include "support/blob.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qvliw {

ClusterConfig ClusterConfig::paper_cluster() {
  ClusterConfig config;
  config.fus(FuKind::kLS) = 1;
  config.fus(FuKind::kAdd) = 1;
  config.fus(FuKind::kMul) = 1;
  config.fus(FuKind::kCopy) = 1;
  config.private_queues = 8;
  config.queue_depth = 16;
  return config;
}

const ClusterConfig& MachineConfig::cluster(int c) const {
  check(c >= 0 && c < cluster_count(), "MachineConfig::cluster out of range");
  return clusters[static_cast<std::size_t>(c)];
}

int MachineConfig::total_fus(FuKind kind) const {
  int total = 0;
  for (const ClusterConfig& c : clusters) total += c.fus(kind);
  return total;
}

int MachineConfig::total_compute_fus() const {
  return total_fus(FuKind::kLS) + total_fus(FuKind::kAdd) + total_fus(FuKind::kMul);
}

Topology MachineConfig::topology() const {
  switch (topology_kind) {
    case TopologyKind::kRing:
      return Topology::ring(cluster_count());
    case TopologyKind::kMesh:
      return Topology::mesh(mesh_rows, mesh_cols);
    case TopologyKind::kCrossbar:
      return Topology::crossbar(cluster_count());
  }
  QVLIW_ASSERT(false, "bad TopologyKind");
}

void MachineConfig::validate() const {
  check(!clusters.empty(), cat("machine '", name, "': needs at least one cluster"));
  for (int c = 0; c < cluster_count(); ++c) {
    const ClusterConfig& cc = cluster(c);
    check(cc.fus(FuKind::kLS) >= 1 && cc.fus(FuKind::kAdd) >= 1 && cc.fus(FuKind::kMul) >= 1,
          cat("machine '", name, "', cluster ", c, ": every compute FU kind needs >= 1 instance"));
    check(cc.fus(FuKind::kCopy) >= 0, "negative copy FU count");
    for (const int n : cc.fu_count) {
      if (n > kMaxFusPerKind) {
        fail(cat("machine '", name, "', cluster ", c, ": ", n, " FUs of one kind, beyond ",
                 kMaxFusPerKind));
      }
    }
    check(cc.private_queues >= 1, cat("machine '", name, "', cluster ", c, ": needs private queues"));
    check(cc.queue_depth >= 1, cat("machine '", name, "', cluster ", c, ": needs queue depth"));
  }
  if (topology_kind == TopologyKind::kMesh) {
    check(mesh_rows >= 1 && mesh_cols >= 1 && mesh_rows * mesh_cols == cluster_count(),
          cat("machine '", name, "': mesh of ", mesh_rows, "x", mesh_cols, " does not cover ",
              cluster_count(), " clusters"));
  }
  if (cluster_count() > 1) {
    const std::string_view kind = topology_kind_name(topology_kind);
    check(segment.queues_per_segment >= 1, cat("machine '", name, "': ", kind, " needs queues"));
    check(segment.queue_depth >= 1, cat("machine '", name, "': ", kind, " needs queue depth"));
  }
  for (const int l : latency.latency) {
    if (l < 0 || l > kMaxLatency) {
      fail(cat("machine '", name, "': latency ", l, " outside [0, ", kMaxLatency, "]"));
    }
  }
}

MachineConfig MachineConfig::single_cluster_machine(int n_fus, int queues) {
  check(n_fus >= 3, "single_cluster_machine: need at least 3 FUs (one per kind)");
  MachineConfig machine;
  machine.name = cat("single-", n_fus, "fu");
  ClusterConfig cc;
  // Round-robin L/S, ADD, MUL so 12 FUs -> 4/4/4 (matching 4 paper clusters).
  static constexpr FuKind kOrder[3] = {FuKind::kLS, FuKind::kAdd, FuKind::kMul};
  for (int i = 0; i < n_fus; ++i) cc.fus(kOrder[i % 3]) += 1;
  cc.fus(FuKind::kCopy) = (n_fus + 2) / 3;  // one copy unit per 3 compute FUs
  cc.private_queues = queues;
  cc.queue_depth = 16;
  machine.clusters.push_back(cc);
  machine.validate();
  return machine;
}

MachineConfig MachineConfig::clustered_machine(int n_clusters) {
  check(n_clusters >= 2, "clustered_machine: need at least 2 clusters");
  MachineConfig machine;
  machine.name = cat("ring-", n_clusters, "x3fu");
  machine.clusters.assign(static_cast<std::size_t>(n_clusters), ClusterConfig::paper_cluster());
  machine.segment.queues_per_segment = 8;
  machine.segment.queue_depth = 16;
  machine.validate();
  return machine;
}

MachineConfig MachineConfig::mesh_machine(int rows, int cols) {
  check(rows >= 1 && cols >= 1 && rows * cols >= 2, "mesh_machine: need at least 2 clusters");
  MachineConfig machine;
  machine.name = cat("mesh-", rows, "x", cols, "x3fu");
  machine.clusters.assign(static_cast<std::size_t>(rows * cols), ClusterConfig::paper_cluster());
  machine.segment.queues_per_segment = 8;
  machine.segment.queue_depth = 16;
  machine.topology_kind = TopologyKind::kMesh;
  machine.mesh_rows = rows;
  machine.mesh_cols = cols;
  machine.validate();
  return machine;
}

MachineConfig MachineConfig::crossbar_machine(int n_clusters) {
  check(n_clusters >= 2, "crossbar_machine: need at least 2 clusters");
  MachineConfig machine;
  machine.name = cat("xbar-", n_clusters, "x3fu");
  machine.clusters.assign(static_cast<std::size_t>(n_clusters), ClusterConfig::paper_cluster());
  machine.segment.queues_per_segment = 8;
  machine.segment.queue_depth = 16;
  machine.topology_kind = TopologyKind::kCrossbar;
  machine.validate();
  return machine;
}

MachineConfig MachineConfig::topology_machine(TopologyKind kind, int n_clusters) {
  switch (kind) {
    case TopologyKind::kRing:
      return clustered_machine(n_clusters);
    case TopologyKind::kMesh: {
      // Most nearly square factorisation: largest divisor <= sqrt(n).
      int rows = 1;
      for (int r = 1; r * r <= n_clusters; ++r) {
        if (n_clusters % r == 0) rows = r;
      }
      return mesh_machine(rows, n_clusters / rows);
    }
    case TopologyKind::kCrossbar:
      return crossbar_machine(n_clusters);
  }
  QVLIW_ASSERT(false, "bad TopologyKind");
}

namespace {

std::uint64_t latency_signature(const LatencyModel& latency) {
  std::uint64_t sig = hash64(0x1a7e9cULL);
  for (int l : latency.latency) sig = hash_combine(sig, hash64(static_cast<std::uint64_t>(l)));
  return sig;
}

}  // namespace

std::uint64_t MachineConfig::signature() const {
  std::uint64_t sig = latency_signature(latency);
  sig = hash_combine(sig, hash64(static_cast<std::uint64_t>(clusters.size())));
  for (const ClusterConfig& cc : clusters) {
    for (int n : cc.fu_count) sig = hash_combine(sig, hash64(static_cast<std::uint64_t>(n)));
    sig = hash_combine(sig, hash64(static_cast<std::uint64_t>(cc.private_queues)));
    sig = hash_combine(sig, hash64(static_cast<std::uint64_t>(cc.queue_depth)));
  }
  sig = hash_combine(sig, hash64(static_cast<std::uint64_t>(segment.queues_per_segment)));
  sig = hash_combine(sig, hash64(static_cast<std::uint64_t>(segment.queue_depth)));
  // Rings fold nothing further (their hash bytes feed the benchmark's
  // inputs line, so they stay as they are); other topologies salt in
  // their shape so a mesh-9 and a ring-9 can never collide.
  if (topology_kind != TopologyKind::kRing) {
    sig = hash_combine(sig, hash64(0x70b0106fULL));
    sig = hash_combine(sig, hash64(static_cast<std::uint64_t>(topology_kind)));
    sig = hash_combine(sig, hash64(static_cast<std::uint64_t>(mesh_rows)));
    sig = hash_combine(sig, hash64(static_cast<std::uint64_t>(mesh_cols)));
  }
  return sig;
}

void serialize_machine(BlobWriter& out, const MachineConfig& machine) {
  out.put_string(machine.name);
  out.put_i32(machine.cluster_count());
  for (const ClusterConfig& cc : machine.clusters) {
    for (int n : cc.fu_count) out.put_i32(n);
    out.put_i32(cc.private_queues);
    out.put_i32(cc.queue_depth);
  }
  out.put_i32(machine.segment.queues_per_segment);
  out.put_i32(machine.segment.queue_depth);
  for (int l : machine.latency.latency) out.put_i32(l);
  // Interconnect shape.
  out.put_i32(static_cast<std::int32_t>(machine.topology_kind));
  out.put_i32(machine.mesh_rows);
  out.put_i32(machine.mesh_cols);
}

MachineConfig deserialize_machine(BlobReader& in) {
  MachineConfig machine;
  machine.name = in.get_string();
  const std::int32_t clusters = in.get_i32();
  check(clusters >= 0 && clusters <= (1 << 16),
        cat("deserialize_machine: implausible cluster count ", clusters));
  machine.clusters.resize(static_cast<std::size_t>(clusters));
  for (ClusterConfig& cc : machine.clusters) {
    for (int& n : cc.fu_count) n = in.get_i32();
    cc.private_queues = in.get_i32();
    cc.queue_depth = in.get_i32();
  }
  machine.segment.queues_per_segment = in.get_i32();
  machine.segment.queue_depth = in.get_i32();
  for (int& l : machine.latency.latency) l = in.get_i32();
  const std::int32_t kind = in.get_i32();
  check(kind >= 0 && kind <= static_cast<std::int32_t>(TopologyKind::kCrossbar),
        cat("deserialize_machine: bad topology kind ", kind));
  machine.topology_kind = static_cast<TopologyKind>(kind);
  machine.mesh_rows = in.get_i32();
  machine.mesh_cols = in.get_i32();
  if (machine.topology_kind == TopologyKind::kMesh) {
    check(machine.mesh_rows >= 1 && machine.mesh_cols >= 1 &&
              static_cast<long long>(machine.mesh_rows) * machine.mesh_cols == clusters,
          cat("deserialize_machine: mesh of ", machine.mesh_rows, "x", machine.mesh_cols,
              " does not cover ", clusters, " clusters"));
  }
  return machine;
}

}  // namespace qvliw
