#include "ir/graph_algos.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace qvliw {

bool has_positive_cycle(const Ddg& graph, int ii, int latency_scale) {
  check(ii >= 1, "has_positive_cycle: ii must be >= 1");
  check(latency_scale >= 1, "has_positive_cycle: latency_scale must be >= 1");
  const auto n = static_cast<std::size_t>(graph.node_count());
  if (n == 0) return false;
  // Longest-path potentials from a virtual source connected to every node
  // with weight 0.  A positive cycle keeps relaxing past round n-1.
  std::vector<long long> pot(n, 0);
  for (std::size_t round = 0; round <= n; ++round) {
    bool changed = false;
    for (const DepEdge& e : graph.edges()) {
      const long long w = static_cast<long long>(latency_scale) * e.latency -
                          static_cast<long long>(ii) * static_cast<long long>(e.distance);
      const long long candidate = pot[static_cast<std::size_t>(e.src)] + w;
      if (candidate > pot[static_cast<std::size_t>(e.dst)]) {
        pot[static_cast<std::size_t>(e.dst)] = candidate;
        changed = true;
      }
    }
    if (!changed) return false;
  }
  return true;
}

int Circuit::min_ii() const {
  QVLIW_ASSERT(distance_sum > 0, "circuit with zero distance (not schedulable)");
  return (latency_sum + distance_sum - 1) / distance_sum;
}

std::vector<Circuit> elementary_circuits(const Ddg& graph, std::size_t max_circuits) {
  // Smallest-vertex anchoring: enumerate circuits whose minimum node is the
  // DFS root, visiting only nodes >= root; each elementary circuit is found
  // exactly once.
  std::vector<Circuit> circuits;
  const int n = graph.node_count();
  std::vector<bool> on_path(static_cast<std::size_t>(n), false);
  std::vector<int> path;
  std::vector<int> path_edges;

  struct Walker {
    const Ddg& graph;
    std::vector<Circuit>& circuits;
    std::size_t max_circuits;
    std::vector<bool>& on_path;
    std::vector<int>& path;
    std::vector<int>& path_edges;
    int root = 0;

    void dfs(int v) {
      if (circuits.size() >= max_circuits) return;
      on_path[static_cast<std::size_t>(v)] = true;
      path.push_back(v);
      for (int e : graph.out_edges(v)) {
        if (circuits.size() >= max_circuits) break;
        const DepEdge& edge = graph.edge(e);
        const int w = edge.dst;
        if (w < root) continue;
        if (w == root) {
          Circuit circuit;
          circuit.nodes = path;
          for (int pe : path_edges) {
            circuit.latency_sum += graph.edge(pe).latency;
            circuit.distance_sum += graph.edge(pe).distance;
          }
          circuit.latency_sum += edge.latency;
          circuit.distance_sum += edge.distance;
          circuits.push_back(std::move(circuit));
          continue;
        }
        if (on_path[static_cast<std::size_t>(w)]) continue;
        path_edges.push_back(e);
        dfs(w);
        path_edges.pop_back();
      }
      path.pop_back();
      on_path[static_cast<std::size_t>(v)] = false;
    }
  };

  Walker walker{graph, circuits, max_circuits, on_path, path, path_edges};
  for (int root = 0; root < n && circuits.size() < max_circuits; ++root) {
    walker.root = root;
    walker.dfs(root);
  }
  return circuits;
}

void height_priority(const Ddg& graph, int ii, std::vector<int>& height) {
  check(ii >= 1, "height_priority: ii must be >= 1");
  const auto n = static_cast<std::size_t>(graph.node_count());
  height.assign(n, 0);
  // Every node implicitly reaches a STOP sink with latency 0, hence the
  // clamp at zero.  Without positive cycles this converges within n rounds.
  for (std::size_t round = 0; round <= n; ++round) {
    bool changed = false;
    for (const DepEdge& e : graph.edges()) {
      const int w = e.latency - ii * e.distance;
      const int candidate = std::max(0, height[static_cast<std::size_t>(e.dst)] + w);
      if (candidate > height[static_cast<std::size_t>(e.src)]) {
        height[static_cast<std::size_t>(e.src)] = candidate;
        changed = true;
      }
    }
    if (!changed) break;
    QVLIW_ASSERT(round < n, "height_priority on graph with positive cycle");
  }
}

}  // namespace qvliw
