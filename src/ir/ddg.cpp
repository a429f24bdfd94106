#include "ir/ddg.h"

#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

std::string_view dep_kind_name(DepKind kind) {
  switch (kind) {
    case DepKind::kFlow:
      return "flow";
    case DepKind::kMemFlow:
      return "mem-flow";
    case DepKind::kMemAnti:
      return "mem-anti";
    case DepKind::kMemOutput:
      return "mem-output";
  }
  QVLIW_ASSERT(false, "bad DepKind");
}

Ddg::Ddg(int nodes) : node_count_(nodes) {
  check(nodes >= 0, "Ddg: negative node count");
  index();
}

void Ddg::append(const DepEdge& edge) {
  check(edge.src >= 0 && edge.src < node_count_, "Ddg::add_edge: src out of range");
  check(edge.dst >= 0 && edge.dst < node_count_, "Ddg::add_edge: dst out of range");
  check(edge.latency >= 0, "Ddg::add_edge: negative latency");
  check(edge.distance >= 0, "Ddg::add_edge: negative distance");
  edges_.push_back(edge);
}

void Ddg::add_edge(DepEdge edge) {
  append(edge);
  index();
}

void Ddg::index() {
  // Counting sort of edge ids by source and by destination: count into
  // off[v], prefix-sum to each node's end, then place ids from the last
  // down.  That leaves off[v] at the node's start and its ids ascending.
  const auto n = static_cast<std::size_t>(node_count_);
  out_off_.assign(n + 1, 0);
  in_off_.assign(n + 1, 0);
  for (const DepEdge& edge : edges_) {
    ++out_off_[static_cast<std::size_t>(edge.src)];
    ++in_off_[static_cast<std::size_t>(edge.dst)];
  }
  for (std::size_t v = 1; v <= n; ++v) {
    out_off_[v] += out_off_[v - 1];
    in_off_[v] += in_off_[v - 1];
  }
  out_ids_.resize(edges_.size());
  in_ids_.resize(edges_.size());
  for (int e = edge_count() - 1; e >= 0; --e) {
    const DepEdge& edge = edges_[static_cast<std::size_t>(e)];
    out_ids_[static_cast<std::size_t>(--out_off_[static_cast<std::size_t>(edge.src)])] = e;
    in_ids_[static_cast<std::size_t>(--in_off_[static_cast<std::size_t>(edge.dst)])] = e;
  }
}

std::span<const int> Ddg::out_edges(int node) const {
  check(node >= 0 && node < node_count_, "Ddg::out_edges: node out of range");
  const auto v = static_cast<std::size_t>(node);
  return {out_ids_.data() + out_off_[v], out_ids_.data() + out_off_[v + 1]};
}

std::span<const int> Ddg::in_edges(int node) const {
  check(node >= 0 && node < node_count_, "Ddg::in_edges: node out of range");
  const auto v = static_cast<std::size_t>(node);
  return {in_ids_.data() + in_off_[v], in_ids_.data() + in_off_[v + 1]};
}

Ddg Ddg::build(const Loop& loop, const LatencyModel& lat) {
  loop.validate();
  return build_from(loop, lat, memory_dependences(loop));
}

Ddg Ddg::build_from(const Loop& loop, const LatencyModel& lat, const std::vector<MemDep>& memdeps) {
  Ddg graph(loop.op_count());
  graph.edges_.reserve(static_cast<std::size_t>(loop.value_use_count()) + memdeps.size());

  for (int u = 0; u < loop.op_count(); ++u) {
    const Op& op = loop.ops[static_cast<std::size_t>(u)];
    for (std::size_t a = 0; a < op.args.size(); ++a) {
      const Operand& arg = op.args[a];
      if (!arg.is_value()) continue;
      DepEdge edge;
      edge.src = arg.value_op;
      edge.dst = u;
      edge.latency = lat.of(loop.ops[static_cast<std::size_t>(arg.value_op)].opcode);
      edge.distance = arg.distance;
      edge.kind = DepKind::kFlow;
      edge.dst_arg = static_cast<int>(a);
      graph.append(edge);
    }
  }

  for (const MemDep& dep : memdeps) {
    DepEdge edge;
    edge.src = dep.src;
    edge.dst = dep.dst;
    edge.latency = 1;
    edge.distance = dep.distance;
    switch (dep.kind) {
      case MemDepKind::kFlow:
        edge.kind = DepKind::kMemFlow;
        break;
      case MemDepKind::kAnti:
        edge.kind = DepKind::kMemAnti;
        break;
      case MemDepKind::kOutput:
        edge.kind = DepKind::kMemOutput;
        break;
    }
    graph.append(edge);
  }

  graph.index();
  return graph;
}

}  // namespace qvliw
