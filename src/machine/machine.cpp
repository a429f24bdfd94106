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

void MachineConfig::validate() const {
  // Runs on every ims_schedule call: a message is formatted only on the
  // failing branch, never before the test.
  if (clusters.empty()) fail(cat("machine '", name, "': needs at least one cluster"));
  for (int c = 0; c < cluster_count(); ++c) {
    const ClusterConfig& cc = clusters[static_cast<std::size_t>(c)];
    if (cc.fus(FuKind::kLS) < 1 || cc.fus(FuKind::kAdd) < 1 || cc.fus(FuKind::kMul) < 1) {
      fail(cat("machine '", name, "', cluster ", c, ": every compute FU kind needs >= 1 instance"));
    }
    check(cc.fus(FuKind::kCopy) >= 0, "negative copy FU count");
    for (const int n : cc.fu_count) {
      if (n > kMaxFusPerKind) {
        fail(cat("machine '", name, "', cluster ", c, ": ", n, " FUs of one kind, beyond ",
                 kMaxFusPerKind));
      }
    }
    if (cc.private_queues < 1) {
      fail(cat("machine '", name, "', cluster ", c, ": needs private queues"));
    }
    if (cc.queue_depth < 1) fail(cat("machine '", name, "', cluster ", c, ": needs queue depth"));
  }
  if (cluster_count() > 1) {
    if (segment.queues_per_segment < 1) fail(cat("machine '", name, "': ring needs queues"));
    if (segment.queue_depth < 1) fail(cat("machine '", name, "': ring needs queue depth"));
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

MachineConfig MachineConfig::topology_machine(TopologyKind kind, int n_clusters) {
  (void)kind;  // the ring, the one shape
  return clustered_machine(n_clusters);
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
  return hash_combine(sig, hash64(static_cast<std::uint64_t>(segment.queue_depth)));
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
}

MachineConfig deserialize_machine(BlobReader& in) {
  MachineConfig machine;
  machine.name = in.get_string();
  const std::int32_t clusters = in.get_i32();
  if (clusters < 0 || clusters > (1 << 16)) {
    fail(cat("deserialize_machine: implausible cluster count ", clusters));
  }
  machine.clusters.resize(static_cast<std::size_t>(clusters));
  for (ClusterConfig& cc : machine.clusters) {
    for (int& n : cc.fu_count) n = in.get_i32();
    cc.private_queues = in.get_i32();
    cc.queue_depth = in.get_i32();
  }
  machine.segment.queues_per_segment = in.get_i32();
  machine.segment.queue_depth = in.get_i32();
  for (int& l : machine.latency.latency) l = in.get_i32();
  return machine;
}

}  // namespace qvliw
