#include "qrf/lifetime.h"

#include <algorithm>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

std::string domain_name(const Topology& topology, const QueueDomain& domain) {
  switch (domain.kind) {
    case QueueDomain::Kind::kPrivate:
      return cat("private[", domain.index, "]");
    case QueueDomain::Kind::kSegment:
      return topology.segment_name(domain.index);
  }
  QVLIW_ASSERT(false, "bad QueueDomain kind");
}

QueueDomain domain_of_edge(const Topology& topology, int producer_cluster,
                           int consumer_cluster) {
  if (producer_cluster == consumer_cluster) {
    return {QueueDomain::Kind::kPrivate, producer_cluster};
  }
  const int segment = topology.segment_between(producer_cluster, consumer_cluster);
  if (segment >= 0) return {QueueDomain::Kind::kSegment, segment};
  fail(cat("value flow between non-adjacent clusters ", producer_cluster, " and ",
           consumer_cluster, " (ring of ", topology.cluster_count(), ")"));
}

std::vector<Lifetime> extract_lifetimes(const Loop& loop, const Ddg& graph,
                                        const MachineConfig& machine, const Schedule& schedule) {
  check(schedule.complete(), "extract_lifetimes: schedule incomplete");
  const Topology topology = machine.topology();
  std::vector<Lifetime> lifetimes;
  for (int e = 0; e < graph.edge_count(); ++e) {
    const DepEdge& edge = graph.edge(e);
    if (!edge.is_value_flow()) continue;
    Lifetime lt;
    lt.edge = e;
    lt.producer = edge.src;
    lt.consumer = edge.dst;
    lt.push = schedule.cycle(edge.src) +
              machine.latency.of(loop.ops[static_cast<std::size_t>(edge.src)].opcode);
    lt.pop = schedule.cycle(edge.dst) + schedule.ii() * edge.distance;
    QVLIW_ASSERT(lt.pop >= lt.push, "lifetime with pop before push (dependence violation)");
    lt.domain = domain_of_edge(topology, schedule.cluster(edge.src), schedule.cluster(edge.dst));
    lifetimes.push_back(lt);
  }
  return lifetimes;
}

PhaseSpan phase_span(int push, int pop, int ii) {
  check(ii >= 1, "phase_span: ii must be >= 1");
  check(pop >= push, "phase_span: pop before push");
  int phase = push % ii;
  if (phase < 0) phase += ii;
  return {phase, pop - push};
}

int peak_live(std::span<const PhaseSpan> spans, int ii) {
  check(ii >= 1, "peak_live: ii must be >= 1");
  // A span of length q*II + r holds q instances in every phase, plus one
  // more in the r + 1 cyclic phases starting at its push phase.  So the
  // peak is the sum of the q's plus the most such windows any one phase
  // lies in; `opens` counts windows opening (+1) and closing (-1) at each
  // phase of one period.
  std::vector<int> opens(static_cast<std::size_t>(ii) + 1, 0);
  int always_live = 0;
  for (const PhaseSpan& span : spans) {
    QVLIW_ASSERT(span.phase >= 0 && span.phase < ii && span.length >= 0,
                 "peak_live: span not from phase_span");
    always_live += span.length / ii;
    const int end = span.phase + span.length % ii + 1;  // one past the window
    ++opens[static_cast<std::size_t>(span.phase)];
    if (end <= ii) {
      --opens[static_cast<std::size_t>(end)];
    } else {  // the window wraps into the next period
      ++opens[0];
      --opens[static_cast<std::size_t>(end - ii)];
    }
  }
  int windows = 0;
  int most = 0;
  for (int phase = 0; phase < ii; ++phase) {
    windows += opens[static_cast<std::size_t>(phase)];
    most = std::max(most, windows);
  }
  return always_live + most;
}

}  // namespace qvliw
