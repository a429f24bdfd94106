// Queue-resident lifetimes of a modulo schedule.
//
// After copy insertion every produced value instance has exactly one
// consumer per queue, so each register *flow edge* of the DDG is one
// periodic lifetime: iteration j's instance is pushed at
// sigma(src)+lat(src)+j*II and popped at sigma(dst)+(j+dist)*II.
// The lifetime records the j=0 representative (push, pop) pair plus the
// queue *domain* it must live in: the producer cluster's private QRF, or
// one directed interconnect segment when producer and consumer sit in
// adjacent clusters.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "ir/ddg.h"
#include "machine/machine.h"
#include "sched/schedule.h"

namespace qvliw {

/// One pool of physical queues: a cluster's private QRF or one directed
/// interconnect segment, named by its canonical id (Topology::segment).
/// On a ring the canonical order is the historical one — clockwise
/// segments 0..k-1 then counter-clockwise segments k..2k-1 — so domain
/// ordering (and with it queue-allocation processing order) is unchanged
/// from the cw/ccw encoding this replaced.
struct QueueDomain {
  enum class Kind : std::uint8_t { kPrivate, kSegment };
  Kind kind = Kind::kPrivate;
  int index = 0;  // cluster for kPrivate; canonical segment id for kSegment

  friend bool operator==(const QueueDomain&, const QueueDomain&) = default;
  friend auto operator<=>(const QueueDomain&, const QueueDomain&) = default;
};

/// Diagnostic name of a domain on `topology`: "private[c]" or the
/// ring's segment name ("ring-cw[i]" or "ring-ccw[i]").
[[nodiscard]] std::string domain_name(const Topology& topology, const QueueDomain& domain);

struct Lifetime {
  int edge = -1;      // DDG edge index (always a kFlow edge)
  int producer = -1;  // op
  int consumer = -1;  // op
  int push = 0;       // sigma(producer) + latency(producer)
  int pop = 0;        // sigma(consumer) + II * distance
  QueueDomain domain;

  /// Residency length in cycles; >= 0 in any valid schedule.
  [[nodiscard]] int length() const { return pop - push; }
};

/// Resolves the queue domain of a flow edge given the placements of its
/// endpoints.  Fails (Error) when the clusters are not adjacent on the
/// topology: the partitioner guarantees adjacency, so a violation is an
/// internal error.
[[nodiscard]] QueueDomain domain_of_edge(const Topology& topology, int producer_cluster,
                                         int consumer_cluster);

/// The lifetime of flow edge `e` under `schedule`, whose endpoints must
/// be placed; `topology` is the machine's.  Queue allocation
/// (allocate_queues) extracts one per flow edge.
[[nodiscard]] Lifetime flow_lifetime(const Loop& loop, const Ddg& graph, int e,
                                     const LatencyModel& latency, const Topology& topology,
                                     const Schedule& schedule);

/// A (push, pop, II)-periodic lifetime reduced to what its steady state
/// depends on: the push phase (push mod II, in [0, II)) and the residency
/// length pop - push.  Q-compatibility and occupancy need nothing else.
struct PhaseSpan {
  int phase = 0;
  int length = 0;
};

/// The span of a lifetime pushed at `push` and popped at `pop` under
/// initiation interval `ii`.  Fails (Error) unless ii >= 1 and pop >= push.
[[nodiscard]] PhaseSpan phase_span(int push, int pop, int ii);

/// Steady-state maximum, over one period, of the summed live instances of
/// `spans`, counting residency inclusively on both ends (an instance is
/// live from its push cycle through its pop cycle).  This is a queue's
/// depth when the spans share it, and MaxLive over a value's register
/// lifetimes.  O(spans + II).  `opens` is the caller's scratch, so a
/// caller sizing many span sets reuses one buffer; its contents are
/// overwritten.
[[nodiscard]] int peak_live(std::span<const PhaseSpan> spans, int ii, std::vector<int>& opens);

}  // namespace qvliw
