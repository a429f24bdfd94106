// Graph algorithms on the DDG used by MII computation and diagnostics.
#pragma once

#include <vector>

#include "ir/ddg.h"

namespace qvliw {

/// The recurrence core of a DDG: the edges whose two ends lie in one
/// strongly connected component (one Tarjan pass), which are the only
/// edges a circuit can use, over the nodes they touch.  A graph without
/// circuits has an empty core.
class RecurrenceCore {
 public:
  explicit RecurrenceCore(const Ddg& graph);

  /// True when the graph has no circuit (self-loops count).
  [[nodiscard]] bool acyclic() const { return arcs_.empty(); }

  /// A bound on the latency sum of any circuit: the largest, over the
  /// components, of the sum over a component's nodes of their largest
  /// out-edge latency within it.  An elementary circuit leaves each of
  /// its nodes by one edge and stays in one component.
  [[nodiscard]] int circuit_latency_bound() const { return latency_bound_; }

  /// True when the constraint system
  ///   sigma(dst) >= sigma(src) + latency_scale*lat - ii*dist
  /// admits no solution, i.e. some circuit has positive total weight.
  /// Longest-path relaxation over the core's edges alone, for at most
  /// (largest component + 1) rounds, on a buffer the core keeps.
  ///
  /// With latency_scale = U this decides RecMII feasibility of the U-fold
  /// replica lift of the graph (the DDG of the loop unrolled by U) without
  /// materialising it: every circuit of the lifted graph projects to a
  /// closed walk of the base graph whose distance sum is U times the
  /// lifted one, so lifted feasibility at II is exactly "no base circuit
  /// with U*latency > II*distance".
  [[nodiscard]] bool has_positive_cycle(int ii, int latency_scale = 1);

 private:
  struct Arc {
    int src;  // core node numbers
    int dst;
    int latency;
    int distance;
  };

  std::vector<Arc> arcs_;  // in the graph's edge order
  int largest_component_ = 0;
  int latency_bound_ = 0;
  std::vector<long long> potential_;  // one per core node
};

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
/// RecMII itself tests RecurrenceCore::has_positive_cycle.
[[nodiscard]] std::vector<Circuit> elementary_circuits(const Ddg& graph,
                                                       std::size_t max_circuits = 4096);

/// Longest-path "height" of each node to any sink under weights
/// (lat - ii*dist), clamped at >= 0, written into `height` (resized to
/// node_count; the IMS searcher reuses one buffer per II attempt).
/// Requires no positive cycle at `ii` (ii >= RecMII).  This is the height-based
/// scheduling priority of Rau's IMS.
void height_priority(const Ddg& graph, int ii, std::vector<int>& height);

}  // namespace qvliw
