// Partitioned modulo scheduling for the clustered machine (Section 4).
//
// The partitioner is the paper's scheme: heuristics layered on IMS decide
// which cluster each operation goes to, under the constraint that a value
// may only flow within a cluster (private QRF) or between topology-adjacent
// clusters (a directed segment queue).  No multi-hop routing exists in
// the base scheme, so an op whose neighbours have drifted apart can become
// unplaceable; IMS's force-and-evict backtracking then displaces the
// offenders, and persistent failure escalates the II — exactly the
// degradation Fig. 6 quantifies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/ims.h"

namespace qvliw {

enum class ClusterHeuristic {
  kAffinity,     // prefer clusters holding/adjacent to scheduled neighbours
  kLoadBalance,  // prefer the cluster with the least pressure on the op's FU kind
  kFirstFit,     // fixed order 0..k-1 (baseline for the ablation)
};

[[nodiscard]] std::string_view cluster_heuristic_name(ClusterHeuristic heuristic);

/// IMS ClusterAssigner for the machine's ring (its Topology).
///
/// In strict mode (the paper's scheme) a cluster is legal when every
/// scheduled flow neighbour is at most one ring hop from it.  In relaxed
/// mode any cluster is legal — used by the move-routing extension to
/// discover which edges need relay moves; the best-first order still
/// minimises expected hops.
///
/// legal_candidates rests on one pass over the op's flow neighbours
/// (evaluate) that yields each cluster's score and legality, in O(k)
/// scratch for k clusters.
class TopologyClusterAssigner final : public ClusterAssigner {
 public:
  TopologyClusterAssigner(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                          ClusterHeuristic heuristic, bool strict = true);

  void reset() override;
  int legal_candidates(int op, std::vector<int>& out) override;
  void adjacency_evictions(int op, int cluster, std::vector<int>& out) override;
  void on_place(int op, int cluster) override;
  void on_remove(int op) override;

 private:
  /// Fills scores_ and legal_ for placing `op` in each cluster now.
  void evaluate(int op);

  /// Orders `clusters` best first: by score, then by cluster number (the
  /// order a stable sort of 0..k-1 by score gives).
  void order(std::vector<int>& clusters) const;

  const MachineConfig& machine_;
  Topology topology_;
  ClusterHeuristic heuristic_;
  bool strict_;
  std::vector<FuKind> kind_of_;
  std::vector<int> cluster_of_;
  std::vector<int> load_;        // [cluster*kNumFuKinds + kind] placed ops
  std::vector<double> scores_;   // evaluate() output, one slot per cluster
  std::vector<char> legal_;      // evaluate() output, one slot per cluster

  // Flow-neighbour adjacency (CSR), extracted from the DDG once at
  // construction: for each op, the other endpoints of its value-flow edges
  // (self-dependences excluded).  Every per-op query — affinity scoring,
  // adjacency legality, eviction collection — scans this contiguous array
  // instead of chasing edge-id indirections into AoS DepEdge records.
  std::vector<std::int32_t> flow_off_;
  std::vector<std::int32_t> flow_adj_;
};

struct PartitionOptions {
  ClusterHeuristic heuristic = ClusterHeuristic::kAffinity;
  bool strict = true;
  ImsOptions ims;
};

/// Partitioned IMS over the clustered machine.  On success the schedule is
/// additionally checked for communication legality (strict mode).  A warm
/// seed is forwarded to IMS only after passing the same communication
/// check, so an adjacency-violating seed is ignored rather than adopted.
[[nodiscard]] ImsResult partition_schedule(const Loop& loop, const Ddg& graph,
                                           const MachineConfig& machine,
                                           const PartitionOptions& options = {},
                                           const WarmStartSeed* seed = nullptr);

/// Flow edges whose endpoint clusters are not topology-adjacent (empty ==
/// communication-legal for the base scheme).
[[nodiscard]] std::vector<std::string> communication_violations(const Ddg& graph,
                                                                const MachineConfig& machine,
                                                                const Schedule& schedule);

/// The violating flow edges themselves, as (dst op, dst arg) operand slots
/// plus the hop distance (used by the move router).
struct CommViolation {
  int edge = -1;
  int dst = -1;
  int dst_arg = -1;
  int hops = 0;  // topology distance between producer and consumer clusters
};

[[nodiscard]] std::vector<CommViolation> find_comm_violations(const Ddg& graph,
                                                              const MachineConfig& machine,
                                                              const Schedule& schedule);

}  // namespace qvliw
