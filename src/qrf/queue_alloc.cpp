#include "qrf/queue_alloc.h"

#include <algorithm>
#include <cstdint>

#include "qrf/qcompat.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

int QueueAllocation::max_private_queues() const {
  // index_in_domain is dense per domain, so the per-domain count is
  // max(index_in_domain) + 1 — no per-domain tally needed.
  int best = 0;
  for (const AllocatedQueue& q : queues) {
    if (q.domain.kind == QueueDomain::Kind::kPrivate) best = std::max(best, q.index_in_domain + 1);
  }
  return best;
}

int QueueAllocation::max_segment_queues() const {
  int best = 0;
  for (const AllocatedQueue& q : queues) {
    if (q.domain.kind == QueueDomain::Kind::kPrivate) continue;
    best = std::max(best, q.index_in_domain + 1);
  }
  return best;
}

int QueueAllocation::max_positions() const {
  int best = 0;
  for (const AllocatedQueue& q : queues) best = std::max(best, q.max_occupancy);
  return best;
}

namespace {

/// Queue count and depth limits of one domain on `machine`.
struct DomainLimits {
  int queues = 0;
  int depth = 0;
};

DomainLimits limits_of(const MachineConfig& machine, const QueueDomain& domain) {
  if (domain.kind == QueueDomain::Kind::kPrivate) {
    const ClusterConfig& cluster = machine.cluster(domain.index);
    return {cluster.private_queues, cluster.queue_depth};
  }
  return {machine.segment.queues_per_segment, machine.segment.queue_depth};
}

/// The one capacity rule behind fits() and capacity_violations(): counts
/// the limits of `machine` that `allocation` exceeds, per used domain in
/// (kind, index) order its queue count and then its deepest queue.  With
/// `out`, each is also described there; without, nothing is formatted.
int count_excesses(const QueueAllocation& allocation, const MachineConfig& machine,
                   std::vector<std::string>* out) {
  const Topology topology = machine.topology();
  const int k = machine.cluster_count();
  // One slot per domain: private[c] at c, segment s at k + s.
  struct Use {
    int queues = 0;
    int depth = 0;
  };
  std::vector<Use> use(static_cast<std::size_t>(k + topology.segment_count()));
  for (const AllocatedQueue& q : allocation.queues) {
    const bool is_private = q.domain.kind == QueueDomain::Kind::kPrivate;
    const int first = is_private ? 0 : k;
    const int count = is_private ? k : topology.segment_count();
    check(q.domain.index >= 0 && q.domain.index < count, "QueueAllocation: domain out of range");
    Use& u = use[static_cast<std::size_t>(first + q.domain.index)];
    ++u.queues;
    u.depth = std::max(u.depth, q.max_occupancy);
  }
  int excesses = 0;
  for (int slot = 0; slot < static_cast<int>(use.size()); ++slot) {
    const Use& u = use[static_cast<std::size_t>(slot)];
    if (u.queues == 0) continue;
    const bool is_private = slot < k;
    const QueueDomain domain = is_private ? QueueDomain{QueueDomain::Kind::kPrivate, slot}
                                          : QueueDomain{QueueDomain::Kind::kSegment, slot - k};
    const DomainLimits limits = limits_of(machine, domain);
    if (u.queues > limits.queues) {
      ++excesses;
      if (out != nullptr) {
        out->push_back(cat(domain_name(topology, domain), ": needs ", u.queues,
                           " queues, machine has ", limits.queues));
      }
    }
    if (u.depth > limits.depth) {
      ++excesses;
      if (out != nullptr) {
        out->push_back(cat(domain_name(topology, domain), ": needs depth ", u.depth,
                           ", machine has ", limits.depth));
      }
    }
  }
  return excesses;
}

}  // namespace

bool QueueAllocation::fits(const MachineConfig& machine) const {
  return count_excesses(*this, machine, nullptr) == 0;
}

std::vector<std::string> QueueAllocation::capacity_violations(const MachineConfig& machine) const {
  std::vector<std::string> violations;
  count_excesses(*this, machine, &violations);
  return violations;
}

namespace {

/// `value` as 32 unsigned bits that order as the signed values do.
std::uint64_t ordered_bits(int value) {
  return static_cast<std::uint32_t>(value) ^ std::uint32_t{0x80000000};
}

/// One lifetime's key in the processing order, packed so that comparing
/// (high, low) orders by domain (kind, then index), push, pop and then
/// lifetime index (lifetimes follow the edge order, so that is the
/// edge's).
struct SortRecord {
  SortRecord(const Lifetime& lt, int lifetime)
      : high(std::uint64_t{lt.domain.kind == QueueDomain::Kind::kSegment} << 63 |
             static_cast<std::uint64_t>(lt.domain.index) << 32 | ordered_bits(lt.push)),
        low(ordered_bits(lt.pop) << 32 | static_cast<std::uint32_t>(lifetime)) {}

  [[nodiscard]] int lifetime() const { return static_cast<int>(low & 0xffffffff); }

  std::uint64_t high;  // domain kind (1 bit), domain index (31), push (32)
  std::uint64_t low;   // pop (32), lifetime index (32)
};

/// The first fit behind allocate_queues and allocate_fitting_queues: fills
/// `allocation` for `schedule`.  With `stop_at_excess`, returns false as
/// soon as a domain opens one queue more than `machine` has, leaving
/// `allocation` partial.
bool first_fit(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
               const Schedule& schedule, bool stop_at_excess, QueueAllocation& allocation) {
  check(schedule.complete(), "allocate_queues: schedule incomplete");
  const int ii = schedule.ii();
  allocation.ii = ii;

  // One walk over the flow edges fills the lifetimes and their sort
  // records; the records sort as two integers each, with no lookups into
  // the lifetimes.
  const Topology topology = machine.topology();
  const auto edges = static_cast<std::size_t>(graph.edge_count());
  std::vector<Lifetime>& lifetimes = allocation.lifetimes;
  lifetimes.reserve(edges);
  std::vector<SortRecord> order;
  order.reserve(edges);
  for (int e = 0; e < graph.edge_count(); ++e) {
    if (!graph.edge(e).is_value_flow()) continue;
    const Lifetime& lt =
        lifetimes.emplace_back(flow_lifetime(loop, graph, e, machine.latency, topology, schedule));
    order.emplace_back(lt, static_cast<int>(lifetimes.size()) - 1);
  }
  std::sort(order.begin(), order.end(), [](const SortRecord& a, const SortRecord& b) {
    return a.high != b.high ? a.high < b.high : a.low < b.low;
  });

  // Member m is order[m]'s lifetime, reduced to its span: the
  // compatibility scans and the depths touch nothing else.  A queue's
  // members chain from its latest back through `previous`.
  struct Member {
    PhaseSpan span;
    int previous = -1;
  };
  const std::size_t count = order.size();
  std::vector<Member> members(count);
  std::vector<int> latest;  // queue -> its latest member
  latest.reserve(count);    // worst case: one queue each
  allocation.queues.reserve(count);
  allocation.queue_of.assign(count, -1);

  // The processing order groups lifetimes by domain, so a domain's queues
  // are created contiguously, from domain_first_queue to the end of the
  // queue list; a running counter gives index_in_domain.
  QueueDomain domain{};
  int domain_first_queue = 0;
  int domain_queue_count = 0;
  int domain_queue_limit = 0;
  for (std::size_t m = 0; m < count; ++m) {
    const int lifetime = order[m].lifetime();
    const Lifetime& lt = lifetimes[static_cast<std::size_t>(lifetime)];
    if (m == 0 || lt.domain != domain) {
      domain = lt.domain;
      domain_first_queue = static_cast<int>(allocation.queues.size());
      domain_queue_count = 0;
      if (stop_at_excess) domain_queue_limit = limits_of(machine, domain).queues;
    }
    const PhaseSpan span = phase_span(lt.push, lt.pop, ii);
    members[m].span = span;
    int target = -1;
    for (int q = domain_first_queue; q < static_cast<int>(latest.size()) && target < 0; ++q) {
      target = q;
      for (int other = latest[static_cast<std::size_t>(q)]; other >= 0;
           other = members[static_cast<std::size_t>(other)].previous) {
        if (!q_compatible(members[static_cast<std::size_t>(other)].span, span, ii)) {
          target = -1;
          break;
        }
      }
    }
    if (target < 0) {
      if (stop_at_excess && domain_queue_count == domain_queue_limit) return false;
      allocation.queues.push_back({domain, domain_queue_count++, 0});
      latest.push_back(-1);
      target = static_cast<int>(latest.size()) - 1;
    }
    members[m].previous = latest[static_cast<std::size_t>(target)];
    latest[static_cast<std::size_t>(target)] = static_cast<int>(m);
    allocation.queue_of[static_cast<std::size_t>(lifetime)] = target;
  }

  // Steady-state positions per queue: its members' spans, gathered into
  // one reused buffer, under one reused difference array.
  std::vector<PhaseSpan> spans;
  spans.reserve(count);
  std::vector<int> opens;
  for (std::size_t q = 0; q < latest.size(); ++q) {
    spans.clear();
    for (int m = latest[q]; m >= 0; m = members[static_cast<std::size_t>(m)].previous) {
      spans.push_back(members[static_cast<std::size_t>(m)].span);
    }
    allocation.queues[q].max_occupancy = peak_live(spans, ii, opens);
  }
  return true;
}

}  // namespace

QueueAllocation allocate_queues(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                                const Schedule& schedule) {
  QueueAllocation allocation;
  first_fit(loop, graph, machine, schedule, /*stop_at_excess=*/false, allocation);
  return allocation;
}

std::optional<QueueAllocation> allocate_fitting_queues(const Loop& loop, const Ddg& graph,
                                                       const MachineConfig& machine,
                                                       const Schedule& schedule) {
  QueueAllocation allocation;
  if (!first_fit(loop, graph, machine, schedule, /*stop_at_excess=*/true, allocation) ||
      !allocation.fits(machine)) {
    return std::nullopt;
  }
  return allocation;
}

}  // namespace qvliw
