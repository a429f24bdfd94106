#include "qrf/queue_alloc.h"

#include <algorithm>

#include "qrf/qcompat.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

int QueueAllocation::domain_queue_count(const QueueDomain& domain) const {
  int count = 0;
  for (const AllocatedQueue& q : queues) {
    if (q.domain == domain) ++count;
  }
  return count;
}

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
    const int queue_limit = is_private ? machine.cluster(slot).private_queues
                                       : machine.segment.queues_per_segment;
    const int depth_limit =
        is_private ? machine.cluster(slot).queue_depth : machine.segment.queue_depth;
    if (u.queues > queue_limit) {
      ++excesses;
      if (out != nullptr) {
        out->push_back(cat(domain_name(topology, domain), ": needs ", u.queues,
                           " queues, machine has ", queue_limit));
      }
    }
    if (u.depth > depth_limit) {
      ++excesses;
      if (out != nullptr) {
        out->push_back(cat(domain_name(topology, domain), ": needs depth ", u.depth,
                           ", machine has ", depth_limit));
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

QueueAllocation allocate_queues(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                                const Schedule& schedule) {
  QueueAllocation allocation;
  allocation.ii = schedule.ii();
  allocation.lifetimes = extract_lifetimes(loop, graph, machine, schedule);
  allocation.queue_of.assign(allocation.lifetimes.size(), -1);
  allocation.queues.reserve(allocation.lifetimes.size());  // worst case: one queue each

  // Each lifetime reduced once to its span: the compatibility scans and
  // the occupancy analysis below touch only these two ints per lifetime,
  // so they iterate a contiguous array instead of the full Lifetime records.
  const int ii = allocation.ii;
  std::vector<PhaseSpan> spans;
  spans.reserve(allocation.lifetimes.size());
  for (const Lifetime& lt : allocation.lifetimes) spans.push_back(phase_span(lt.push, lt.pop, ii));

  // Stable processing order: by domain, then push time, then pop, then edge.
  std::vector<int> order(allocation.lifetimes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Lifetime& la = allocation.lifetimes[static_cast<std::size_t>(a)];
    const Lifetime& lb = allocation.lifetimes[static_cast<std::size_t>(b)];
    if (la.domain != lb.domain) return la.domain < lb.domain;
    if (la.push != lb.push) return la.push < lb.push;
    if (la.pop != lb.pop) return la.pop < lb.pop;
    return la.edge < lb.edge;
  });

  // The processing order groups lifetimes by domain, so a domain's queues
  // are created contiguously: a running counter gives index_in_domain and
  // the first queue of the current domain, with no rescans of the queue
  // list for either.
  QueueDomain current_domain{};
  int domain_first_queue = 0;   // index of the current domain's first queue
  int domain_queue_count = 0;   // queues created for the current domain
  bool have_domain = false;
  for (int lt_index : order) {
    const Lifetime& lt = allocation.lifetimes[static_cast<std::size_t>(lt_index)];
    if (!have_domain || lt.domain != current_domain) {
      current_domain = lt.domain;
      domain_first_queue = static_cast<int>(allocation.queues.size());
      domain_queue_count = 0;
      have_domain = true;
    }
    int target = -1;
    for (int q = domain_first_queue; q < domain_first_queue + domain_queue_count; ++q) {
      AllocatedQueue& queue = allocation.queues[static_cast<std::size_t>(q)];
      bool fits = true;
      for (int member : queue.members) {
        if (!q_compatible(spans[static_cast<std::size_t>(member)],
                          spans[static_cast<std::size_t>(lt_index)], ii)) {
          fits = false;
          break;
        }
      }
      if (fits) {
        target = q;
        break;
      }
    }
    if (target < 0) {
      AllocatedQueue queue;
      queue.domain = lt.domain;
      queue.index_in_domain = domain_queue_count++;
      allocation.queues.push_back(std::move(queue));
      target = static_cast<int>(allocation.queues.size()) - 1;
    }
    allocation.queues[static_cast<std::size_t>(target)].members.push_back(lt_index);
    allocation.queue_of[static_cast<std::size_t>(lt_index)] = target;
  }

  // Steady-state positions per queue, gathered into one reused buffer.
  std::vector<PhaseSpan> member_spans;
  for (AllocatedQueue& queue : allocation.queues) {
    member_spans.clear();
    for (int member : queue.members) {
      member_spans.push_back(spans[static_cast<std::size_t>(member)]);
    }
    queue.max_occupancy = peak_live(member_spans, ii);
  }

  return allocation;
}

}  // namespace qvliw
