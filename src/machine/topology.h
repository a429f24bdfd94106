// Interconnect topology: the paper's bidirectional ring as a graph.
//
// A topology names the clusters 0..k-1 and models the directed *segments*
// between them — each segment is a pool of queues a producer cluster
// writes and an adjacent consumer cluster pops (Fig. 5b of the paper).
// The ring has clockwise segments i -> (i+1) mod k and counter-clockwise
// segments (i+1) mod k -> i.  A two-cluster ring has exactly two segments
// (0 -> 1 and 1 -> 0, both "clockwise").
//
// The class is a small arithmetic value type: distance/next_hop/segment
// lookups are computed, not tabulated, so copies are free and a topology
// can be rebuilt from a MachineConfig at will.  Canonical segment ids are
// dense in [0, segment_count()) and are what QueueDomain::kSegment
// indexes; their enumeration order is part of the artifact format (queue
// allocation processes domains in canonical-id order).
#pragma once

#include <cstdint>
#include <string>

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
  [[nodiscard]] int distance(int a, int b) const;

  /// True when a == b or a segment connects the two clusters.
  [[nodiscard]] bool adjacent(int a, int b) const { return distance(a, b) <= 1; }

  /// Next cluster one hop from `a` along a shortest path toward `b`
  /// (clockwise on ties).  Requires a != b.
  [[nodiscard]] int next_hop(int a, int b) const;

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
