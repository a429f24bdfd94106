// Graph algorithms on the DDG used by MII computation and diagnostics.
#pragma once

#include <vector>

#include "ir/ddg.h"

namespace qvliw {

/// True when the constraint system sigma(dst) >= sigma(src) + lat - ii*dist
/// admits no solution, i.e. some cycle has positive total (lat - ii*dist).
/// Bellman-Ford-style longest-path relaxation; O(V * E).
///
/// With latency_scale = U the weights are (U*lat - ii*dist), which decides
/// RecMII feasibility of the U-fold replica lift of `graph` (the DDG of
/// the loop unrolled by U) without materialising it: every circuit of the
/// lifted graph projects to a closed walk of the base graph whose distance
/// sum is U times the lifted one, so lifted feasibility at II is exactly
/// "no base circuit with U*latency > II*distance".
[[nodiscard]] bool has_positive_cycle(const Ddg& graph, int ii, int latency_scale = 1);

/// An elementary circuit with its latency/distance totals.
struct Circuit {
  std::vector<int> nodes;  // in traversal order
  int latency_sum = 0;
  int distance_sum = 0;

  /// ceil(latency_sum / distance_sum): the II this circuit enforces.
  [[nodiscard]] int min_ii() const;
};

/// Enumerates elementary circuits (Johnson's algorithm), stopping after
/// `max_circuits`.  Self-loops count.  Intended for diagnostics and tests;
/// RecMII itself uses has_positive_cycle.
[[nodiscard]] std::vector<Circuit> elementary_circuits(const Ddg& graph,
                                                       std::size_t max_circuits = 4096);

/// Longest-path "height" of each node to any sink under weights
/// (lat - ii*dist), clamped at >= 0, written into `height` (resized to
/// node_count; the IMS searcher reuses one buffer per II attempt).
/// Requires !has_positive_cycle(graph, ii).  This is the height-based
/// scheduling priority of Rau's IMS.
void height_priority(const Ddg& graph, int ii, std::vector<int>& height);

}  // namespace qvliw
