// Interconnect topology: the paper's bidirectional ring as a graph.
//
// A topology names the clusters 0..k-1 and models the directed *segments*
// between them — each segment is a pool of queues a producer cluster
// writes and an adjacent consumer cluster pops (Fig. 5b of the paper).
// The ring has clockwise segments i -> (i+1) mod k and counter-clockwise
// segments (i+1) mod k -> i.  A two-cluster ring has exactly two segments
// (0 -> 1 and 1 -> 0, both "clockwise").
//
// The class is a small arithmetic value type: distance and segment
// lookups are computed, not tabulated, so copies are free and a topology
// can be rebuilt from a MachineConfig at will.  Canonical segment ids are
// dense in [0, segment_count()) and are what QueueDomain::kSegment
// indexes; their enumeration order is part of the artifact format (queue
// allocation processes domains in canonical-id order).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "support/diagnostics.h"

namespace qvliw {

/// The interconnect shapes MachineConfig::topology_machine builds: the
/// paper's ring only.
enum class TopologyKind : std::uint8_t {
  kRing = 0,
};

/// One directed segment: values flow src -> dst through its queues.
struct Segment {
  int src = -1;
  int dst = -1;

  friend bool operator==(const Segment&, const Segment&) = default;
};

class Topology {
 public:
  /// Bidirectional ring of `clusters` >= 1 (1 cluster: no segments).
  [[nodiscard]] static Topology ring(int clusters);

  [[nodiscard]] int cluster_count() const { return clusters_; }

  /// Minimal hop count from a to b, the shorter way around the ring.
  /// Inline: the partitioner asks it for every cluster of every placement.
  [[nodiscard]] int distance(int a, int b) const {
    check(a >= 0 && a < clusters_ && b >= 0 && b < clusters_,
          "Topology::distance: cluster out of range");
    const int cw = b >= a ? b - a : b - a + clusters_;
    return std::min(cw, clusters_ - cw);
  }

  /// Directed segments, canonically enumerated.
  [[nodiscard]] int segment_count() const;

  /// Endpoints of canonical segment `s` in [0, segment_count()).
  [[nodiscard]] Segment segment(int s) const;

  /// Canonical id of the segment src -> dst, or -1 when no single segment
  /// carries that flow (non-adjacent or src == dst).
  [[nodiscard]] int segment_between(int src, int dst) const;

  /// Diagnostic name of segment `s`: "ring-cw[i]" or "ring-ccw[i]".
  [[nodiscard]] std::string segment_name(int s) const;

 private:
  explicit Topology(int clusters) : clusters_(clusters) {}

  int clusters_ = 1;
};

}  // namespace qvliw
