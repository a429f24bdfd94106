#include "cluster/partition.h"

#include <algorithm>
#include <numeric>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

std::string_view cluster_heuristic_name(ClusterHeuristic heuristic) {
  switch (heuristic) {
    case ClusterHeuristic::kAffinity:
      return "affinity";
    case ClusterHeuristic::kLoadBalance:
      return "load-balance";
    case ClusterHeuristic::kFirstFit:
      return "first-fit";
  }
  QVLIW_ASSERT(false, "bad ClusterHeuristic");
}

TopologyClusterAssigner::TopologyClusterAssigner(const Loop& loop, const Ddg& graph,
                                         const MachineConfig& machine,
                                         ClusterHeuristic heuristic, bool strict)
    : machine_(machine), topology_(machine.topology()), heuristic_(heuristic), strict_(strict) {
  check(loop.op_count() == graph.node_count(), "TopologyClusterAssigner: loop/DDG mismatch");
  kind_of_.reserve(loop.ops.size());
  for (const Op& op : loop.ops) kind_of_.push_back(fu_for(op.opcode));

  // Flow-neighbour CSR: per op, out-edge consumers then in-edge producers,
  // each group in edge-insertion order (counting sort over the edge list).
  const std::size_t n = static_cast<std::size_t>(graph.node_count());
  flow_off_.assign(n + 1, 0);
  for (const DepEdge& edge : graph.edges()) {
    if (!edge.is_value_flow() || edge.src == edge.dst) continue;
    ++flow_off_[static_cast<std::size_t>(edge.src) + 1];
    ++flow_off_[static_cast<std::size_t>(edge.dst) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) flow_off_[v + 1] += flow_off_[v];
  flow_adj_.resize(static_cast<std::size_t>(flow_off_[n]));
  std::vector<std::int32_t> cursor(flow_off_.begin(), flow_off_.end() - 1);
  for (const DepEdge& edge : graph.edges()) {
    if (!edge.is_value_flow() || edge.src == edge.dst) continue;
    flow_adj_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(edge.src)]++)] = edge.dst;
  }
  for (const DepEdge& edge : graph.edges()) {
    if (!edge.is_value_flow() || edge.src == edge.dst) continue;
    flow_adj_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(edge.dst)]++)] = edge.src;
  }
  reset(1);
}

void TopologyClusterAssigner::reset(int) {
  // Called at the top of every II attempt: plain assigns on flat vectors
  // reuse the storage from the previous attempt (no per-attempt heap
  // traffic in the searcher's reset path).
  cluster_of_.assign(kind_of_.size(), -1);
  load_.assign(static_cast<std::size_t>(machine_.cluster_count() * kNumFuKinds), 0);
}

int TopologyClusterAssigner::cluster_of(int op) const {
  return cluster_of_[static_cast<std::size_t>(op)];
}

double TopologyClusterAssigner::score(int op, int cluster) const {
  const int k = machine_.cluster_count();
  const FuKind kind = kind_of_[static_cast<std::size_t>(op)];
  const int kind_load =
      load_[static_cast<std::size_t>(cluster * kNumFuKinds) + static_cast<std::size_t>(kind)];
  const int kind_fus = machine_.fu_count(cluster, kind);
  const double pressure =
      kind_fus > 0 ? static_cast<double>(kind_load) / kind_fus : 1e9;

  switch (heuristic_) {
    case ClusterHeuristic::kFirstFit:
      return -cluster;  // fixed order
    case ClusterHeuristic::kLoadBalance:
      return -pressure;
    case ClusterHeuristic::kAffinity: {
      // +2 for each scheduled flow neighbour in `cluster`, +1 when adjacent;
      // light pressure tie-break.
      double affinity = 0.0;
      for (std::int32_t idx = flow_off_[static_cast<std::size_t>(op)];
           idx < flow_off_[static_cast<std::size_t>(op) + 1]; ++idx) {
        const int oc = cluster_of_[static_cast<std::size_t>(flow_adj_[static_cast<std::size_t>(idx)])];
        if (oc < 0) continue;
        const int dist = topology_.distance(cluster, oc);
        if (dist == 0) affinity += 2.0;
        else if (dist == 1) affinity += 1.0;
        else affinity -= static_cast<double>(dist);  // relaxed mode: fewer hops
      }
      (void)k;
      return affinity - 0.25 * pressure;
    }
  }
  QVLIW_ASSERT(false, "bad ClusterHeuristic");
}

void TopologyClusterAssigner::candidates(int op, std::vector<int>& out) {
  const int k = machine_.cluster_count();
  out.resize(static_cast<std::size_t>(k));
  std::iota(out.begin(), out.end(), 0);
  scores_.resize(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) scores_[static_cast<std::size_t>(c)] = score(op, c);
  std::stable_sort(out.begin(), out.end(), [this](int a, int b) {
    return scores_[static_cast<std::size_t>(a)] > scores_[static_cast<std::size_t>(b)];
  });
}

bool TopologyClusterAssigner::legal(int op, int cluster) {
  if (!strict_) return true;
  for (std::int32_t idx = flow_off_[static_cast<std::size_t>(op)];
       idx < flow_off_[static_cast<std::size_t>(op) + 1]; ++idx) {
    const int oc = cluster_of_[static_cast<std::size_t>(flow_adj_[static_cast<std::size_t>(idx)])];
    if (oc >= 0 && topology_.distance(cluster, oc) > 1) return false;
  }
  return true;
}

void TopologyClusterAssigner::adjacency_evictions(int op, int cluster, std::vector<int>& out) {
  out.clear();
  if (!strict_) return;
  for (std::int32_t idx = flow_off_[static_cast<std::size_t>(op)];
       idx < flow_off_[static_cast<std::size_t>(op) + 1]; ++idx) {
    const int other = flow_adj_[static_cast<std::size_t>(idx)];
    const int oc = cluster_of_[static_cast<std::size_t>(other)];
    if (oc >= 0 && topology_.distance(cluster, oc) > 1) out.push_back(other);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void TopologyClusterAssigner::on_place(int op, int cluster) {
  cluster_of_[static_cast<std::size_t>(op)] = cluster;
  load_[static_cast<std::size_t>(cluster * kNumFuKinds) +
        static_cast<std::size_t>(kind_of_[static_cast<std::size_t>(op)])] += 1;
}

void TopologyClusterAssigner::on_remove(int op) {
  const int cluster = cluster_of_[static_cast<std::size_t>(op)];
  QVLIW_ASSERT(cluster >= 0, "on_remove of an unplaced op");
  load_[static_cast<std::size_t>(cluster * kNumFuKinds) +
        static_cast<std::size_t>(kind_of_[static_cast<std::size_t>(op)])] -= 1;
  cluster_of_[static_cast<std::size_t>(op)] = -1;
}

ImsResult partition_schedule(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                             const PartitionOptions& options, const WarmStartSeed* seed) {
  TopologyClusterAssigner assigner(loop, graph, machine, options.heuristic, options.strict);
  if (seed != nullptr && options.strict &&
      (seed->schedule.op_count() != graph.node_count() ||
       !find_comm_violations(graph, machine, seed->schedule).empty())) {
    seed = nullptr;
  }
  ImsResult result = ims_schedule(loop, graph, machine, options.ims, &assigner, seed);
  if (result.ok && options.strict) {
    const auto comm_errors = communication_violations(graph, machine, result.schedule);
    QVLIW_ASSERT(comm_errors.empty(),
                 cat("partitioner produced non-adjacent communication: ", comm_errors.front()));
  }
  return result;
}

std::vector<std::string> communication_violations(const Ddg& graph, const MachineConfig& machine,
                                                  const Schedule& schedule) {
  std::vector<std::string> violations;
  for (const CommViolation& v : find_comm_violations(graph, machine, schedule)) {
    const DepEdge& edge = graph.edge(v.edge);
    violations.push_back(cat("flow edge ", edge.src, "->", edge.dst, " spans ", v.hops,
                             " ring hops (clusters ", schedule.cluster(edge.src), " -> ",
                             schedule.cluster(edge.dst), ")"));
  }
  return violations;
}

std::vector<CommViolation> find_comm_violations(const Ddg& graph, const MachineConfig& machine,
                                                const Schedule& schedule) {
  std::vector<CommViolation> violations;
  const Topology topology = machine.topology();
  for (int e = 0; e < graph.edge_count(); ++e) {
    const DepEdge& edge = graph.edge(e);
    if (!edge.is_value_flow()) continue;
    if (!schedule.scheduled(edge.src) || !schedule.scheduled(edge.dst)) continue;
    const int hops = topology.distance(schedule.cluster(edge.src), schedule.cluster(edge.dst));
    if (hops > 1) violations.push_back({e, edge.dst, edge.dst_arg, hops});
  }
  return violations;
}

}  // namespace qvliw
