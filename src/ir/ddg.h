// Data dependence graph over a loop body.
//
// Nodes are the loop's operations.  Edges constrain a modulo schedule with
// initiation interval II by
//
//     sigma(dst) >= sigma(src) + latency - II * distance
//
// where sigma is the start cycle within one iteration's schedule.
// Register flow edges come straight from operands (latency = producing
// opcode's latency); memory order edges come from memdep.h (latency 1).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "ir/loop.h"
#include "ir/memdep.h"

namespace qvliw {

enum class DepKind : std::uint8_t {
  kFlow,       // register value flow (a queue-resident lifetime)
  kMemFlow,    // store -> load order
  kMemAnti,    // load -> store order
  kMemOutput,  // store -> store order
};

[[nodiscard]] std::string_view dep_kind_name(DepKind kind);

struct DepEdge {
  int src = 0;
  int dst = 0;
  int latency = 0;
  int distance = 0;
  DepKind kind = DepKind::kFlow;
  /// For kFlow: index of the consuming operand slot in ops[dst].args.
  int dst_arg = -1;

  [[nodiscard]] bool is_value_flow() const { return kind == DepKind::kFlow; }
};

class Ddg {
 public:
  /// Builds the complete DDG (register flow + memory order) of `loop`.
  [[nodiscard]] static Ddg build(const Loop& loop, const LatencyModel& lat);

  /// Builds the DDG from an already-validated loop and precomputed memory
  /// dependences.  Edge order is identical to build(): flow edges in
  /// (dst op, operand slot) order, then `memdeps` in the given order.
  [[nodiscard]] static Ddg build_from(const Loop& loop, const LatencyModel& lat,
                                      const std::vector<MemDep>& memdeps);

  [[nodiscard]] int node_count() const { return node_count_; }
  [[nodiscard]] int edge_count() const { return static_cast<int>(edges_.size()); }
  [[nodiscard]] const std::vector<DepEdge>& edges() const { return edges_; }
  [[nodiscard]] const DepEdge& edge(int e) const { return edges_[static_cast<std::size_t>(e)]; }

  /// Ids of the edges leaving / entering a node, in ascending order.
  [[nodiscard]] std::span<const int> out_edges(int node) const;
  [[nodiscard]] std::span<const int> in_edges(int node) const;

  /// Constructs a DDG with `nodes` nodes and no edges.
  explicit Ddg(int nodes = 0);

  /// Adds an edge; endpoints must be in range, latency >= 0, distance >= 0.
  /// Re-indexes the adjacency, O(nodes + edges): for hand-built graphs.
  void add_edge(DepEdge edge);

 private:
  void append(const DepEdge& edge);
  void index();

  int node_count_ = 0;
  std::vector<DepEdge> edges_;
  // CSR adjacency: the ids of the edges leaving node n are
  // out_ids_[out_off_[n] .. out_off_[n + 1]), ascending; in_ likewise.
  std::vector<int> out_off_;
  std::vector<int> out_ids_;
  std::vector<int> in_off_;
  std::vector<int> in_ids_;
};

}  // namespace qvliw
