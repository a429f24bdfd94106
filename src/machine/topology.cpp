#include "machine/topology.h"

#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

Topology Topology::ring(int clusters) {
  check(clusters >= 1, "Topology::ring: need at least one cluster");
  return Topology(clusters);
}

int Topology::segment_count() const {
  const int k = clusters_;
  if (k == 1) return 0;
  if (k == 2) return 2;  // 0 -> 1 and 1 -> 0; no distinct ccw direction
  return 2 * k;
}

Segment Topology::segment(int s) const {
  const int k = clusters_;
  check(s >= 0 && s < segment_count(), "Topology::segment: id out of range");
  if (k == 2) return {s, 1 - s};
  if (s < k) return {s, (s + 1) % k};  // clockwise segment s
  return {(s - k + 1) % k, s - k};     // counter-clockwise segment s-k
}

int Topology::segment_between(int src, int dst) const {
  const int k = clusters_;
  check(src >= 0 && src < k && dst >= 0 && dst < k,
        "Topology::segment_between: cluster out of range");
  if (src == dst || distance(src, dst) != 1) return -1;
  // Clockwise first: for k == 2 both directions match and the two
  // "clockwise" segments carry all traffic.
  if ((src + 1) % k == dst) return src;
  return k + dst;
}

std::string Topology::segment_name(int s) const {
  check(s >= 0 && s < segment_count(), "Topology::segment: id out of range");
  if (clusters_ > 2 && s >= clusters_) return cat("ring-ccw[", s - clusters_, "]");
  return cat("ring-cw[", s, "]");
}

}  // namespace qvliw
