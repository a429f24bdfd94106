#include "cluster/partition.h"

#include <algorithm>

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
  reset();
}

void TopologyClusterAssigner::reset() {
  // Called at the top of every II attempt: plain assigns on flat vectors
  // reuse the storage from the previous attempt (no per-attempt heap
  // traffic in the searcher's reset path).
  cluster_of_.assign(kind_of_.size(), -1);
  load_.assign(static_cast<std::size_t>(machine_.cluster_count() * kNumFuKinds), 0);
}

void TopologyClusterAssigner::evaluate(int op) {
  const int k = machine_.cluster_count();
  const FuKind kind = kind_of_[static_cast<std::size_t>(op)];
  scores_.assign(static_cast<std::size_t>(k), 0.0);
  legal_.assign(static_cast<std::size_t>(k), 1);

  // One pass over the scheduled flow neighbours.  Affinity gives +2 for
  // each one in the cluster, +1 when adjacent and minus the hop count when
  // farther (what relaxed mode, and a forced placement with no legal
  // cluster, rank by); strict mode rules out any cluster more than one hop
  // from one of them.  Each term is an integer, so the sum does not depend
  // on the order it is taken in.
  const bool affinity = heuristic_ == ClusterHeuristic::kAffinity;
  if (affinity || strict_) {
    for (std::int32_t idx = flow_off_[static_cast<std::size_t>(op)];
         idx < flow_off_[static_cast<std::size_t>(op) + 1]; ++idx) {
      const int oc =
          cluster_of_[static_cast<std::size_t>(flow_adj_[static_cast<std::size_t>(idx)])];
      if (oc < 0) continue;
      for (int c = 0; c < k; ++c) {
        const int dist = topology_.distance(c, oc);
        if (strict_ && dist > 1) legal_[static_cast<std::size_t>(c)] = 0;
        if (affinity) scores_[static_cast<std::size_t>(c)] += dist == 0 ? 2 : dist == 1 ? 1 : -dist;
      }
    }
  }

  for (int c = 0; c < k; ++c) {
    double& score = scores_[static_cast<std::size_t>(c)];
    if (heuristic_ == ClusterHeuristic::kFirstFit) {
      score = -c;  // fixed order
      continue;
    }
    const int kind_load =
        load_[static_cast<std::size_t>(c * kNumFuKinds) + static_cast<std::size_t>(kind)];
    const int kind_fus = machine_.clusters[static_cast<std::size_t>(c)].fus(kind);
    const double pressure = kind_fus > 0 ? static_cast<double>(kind_load) / kind_fus : 1e9;
    // Affinity keeps pressure as a light tie-break.
    score = affinity ? score - 0.25 * pressure : -pressure;
  }
}

void TopologyClusterAssigner::order(std::vector<int>& clusters) const {
  // A strict total order, so std::sort needs no buffer and gives the
  // stable order.
  std::sort(clusters.begin(), clusters.end(), [this](int a, int b) {
    const double sa = scores_[static_cast<std::size_t>(a)];
    const double sb = scores_[static_cast<std::size_t>(b)];
    return sa > sb || (sa == sb && a < b);
  });
}

int TopologyClusterAssigner::legal_candidates(int op, std::vector<int>& out) {
  evaluate(op);
  const int k = machine_.cluster_count();
  out.clear();
  int best = 0;
  for (int c = 0; c < k; ++c) {
    if (legal_[static_cast<std::size_t>(c)] != 0) out.push_back(c);
    if (scores_[static_cast<std::size_t>(c)] > scores_[static_cast<std::size_t>(best)]) best = c;
  }
  order(out);
  return best;
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
