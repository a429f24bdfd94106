#include "verify_reference.h"

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "support/strings.h"

namespace qvliw {

namespace {

// The verifier's helpers that verify_queue_allocation calls, as they were
// when the replay below was frozen.

std::string op_label(const Loop& loop, int op) {
  const Op& o = loop.ops[static_cast<std::size_t>(op)];
  std::string label = cat("op ", op, " (", opcode_name(o.opcode));
  if (!o.name.empty()) label += cat(" ", o.name);
  return label + ")";
}

/// Shared shape guard: the three artifact passes all require the loop, the
/// graph and the schedule to agree on the op count before any per-op
/// reasoning makes sense.
bool shapes_agree(const Loop& loop, const Ddg& graph, const Schedule& schedule,
                  VerifyReport& report) {
  if (graph.node_count() != loop.op_count()) {
    report.add(VerifyRule::kArtifactShape, cat("DDG has ", graph.node_count(), " nodes for a ",
                                               loop.op_count(), "-op loop"));
    return false;
  }
  if (schedule.op_count() != loop.op_count()) {
    report.add(VerifyRule::kArtifactShape, cat("schedule covers ", schedule.op_count(),
                                               " ops but the loop has ", loop.op_count()));
    return false;
  }
  return true;
}

/// Queue domain a flow between two placed clusters must live in,
/// re-derived here from the topology parameters alone — deliberately not
/// by calling Topology::segment_between, so the verifier's notion of the
/// canonical segment numbering is independent of the producer's.
/// Ring: clockwise segments c -> c+1 get ids 0..k-1, counter-clockwise
/// segments c+1 -> c get ids k..2k-1; clockwise wins the k == 2 tie.
std::optional<QueueDomain> expected_domain(const MachineConfig& machine, int producer_cluster,
                                           int consumer_cluster) {
  if (producer_cluster == consumer_cluster) {
    return QueueDomain{QueueDomain::Kind::kPrivate, producer_cluster};
  }
  const int k = machine.cluster_count();
  if ((producer_cluster + 1) % k == consumer_cluster) {
    return QueueDomain{QueueDomain::Kind::kSegment, producer_cluster};
  }
  if (k > 2 && (consumer_cluster + 1) % k == producer_cluster) {
    return QueueDomain{QueueDomain::Kind::kSegment, k + consumer_cluster};
  }
  return std::nullopt;
}

/// Queue count / depth limits of one domain on a concrete machine.
void domain_limits(const MachineConfig& machine, const QueueDomain& domain, int& queue_limit,
                   int& depth_limit) {
  if (domain.kind == QueueDomain::Kind::kPrivate) {
    queue_limit = machine.cluster(domain.index).private_queues;
    depth_limit = machine.cluster(domain.index).queue_depth;
  } else {
    queue_limit = machine.segment.queues_per_segment;
    depth_limit = machine.segment.queue_depth;
  }
}

/// True when the domain's index is inside the machine's cluster/segment
/// ranges (an untrusted bundle can claim anything).
bool domain_in_range(const Topology& topology, const QueueDomain& domain) {
  const int limit = domain.kind == QueueDomain::Kind::kPrivate ? topology.cluster_count()
                                                               : topology.segment_count();
  return domain.index >= 0 && domain.index < limit;
}

/// domain_name that tolerates out-of-range indices instead of throwing.
std::string safe_domain_name(const Topology& topology, const QueueDomain& domain) {
  if (!domain_in_range(topology, domain)) {
    const std::string_view what =
        domain.kind == QueueDomain::Kind::kPrivate ? "private[" : "segment[";
    return cat(what, domain.index, "]");
  }
  return domain_name(topology, domain);
}

/// The cycle up to which one queue's FIFO replay runs: past the members'
/// latest pop by two IIs, long enough to reach steady state.
long long replay_horizon(const QueueAllocation& allocation, const std::vector<int>& members,
                         int ii) {
  long long horizon = 0;
  for (int l : members) {
    horizon = std::max<long long>(horizon, allocation.lifetimes[static_cast<std::size_t>(l)].pop);
  }
  return horizon + 2LL * ii;
}

}  // namespace

VerifyReport verify_queue_allocation_reference(const Loop& loop, const Ddg& graph,
                                               const MachineConfig& machine,
                                               const Schedule& schedule,
                                               const QueueAllocation& allocation, bool must_fit) {
  VerifyReport report;
  if (!shapes_agree(loop, graph, schedule, report)) return report;
  if (!schedule.complete()) {
    report.add(VerifyRule::kArtifactShape,
               "queue allocation checked against an incomplete schedule");
    return report;
  }
  const int ii = schedule.ii();
  const Topology topology = machine.topology();
  if (allocation.ii != ii) {
    report.add(VerifyRule::kQueueIi,
               cat("allocation built for II=", allocation.ii, ", schedule has II=", ii));
  }

  // One lifetime per flow edge, with push/pop/endpoints/domain re-derived
  // from the schedule.
  std::vector<int> lifetime_of_edge(static_cast<std::size_t>(graph.edge_count()), -1);
  std::vector<bool> lifetime_usable(allocation.lifetimes.size(), false);
  for (std::size_t l = 0; l < allocation.lifetimes.size(); ++l) {
    const Lifetime& lt = allocation.lifetimes[l];
    if (lt.edge < 0 || lt.edge >= graph.edge_count() ||
        !graph.edge(lt.edge).is_value_flow()) {
      report.add(VerifyRule::kQueueLifetime,
                 cat("lifetime ", l, " names edge ", lt.edge, ", not a flow edge"));
      continue;
    }
    if (lifetime_of_edge[static_cast<std::size_t>(lt.edge)] >= 0) {
      report.add(VerifyRule::kQueueLifetime, cat("flow edge ", lt.edge,
                                                 " covered by two lifetimes"));
      continue;
    }
    lifetime_of_edge[static_cast<std::size_t>(lt.edge)] = static_cast<int>(l);
    const DepEdge& edge = graph.edge(lt.edge);
    bool usable = true;
    if (lt.producer != edge.src || lt.consumer != edge.dst) {
      report.add(VerifyRule::kQueueLifetime,
                 cat("lifetime of edge ", lt.edge, " records endpoints ", lt.producer, "->",
                     lt.consumer, ", edge has ", edge.src, "->", edge.dst));
      usable = false;
    }
    const int want_push =
        schedule.cycle(edge.src) +
        machine.latency.of(loop.ops[static_cast<std::size_t>(edge.src)].opcode);
    const int want_pop = schedule.cycle(edge.dst) + ii * edge.distance;
    if (lt.push != want_push || lt.pop != want_pop) {
      report.add(VerifyRule::kQueueLifetime,
                 cat("lifetime of edge ", lt.edge, " records [", lt.push, ", ", lt.pop,
                     "], schedule implies [", want_push, ", ", want_pop, "]"));
      usable = false;
    }
    if (want_pop < want_push) {
      report.add(VerifyRule::kQueueReadBeforeWrite,
                 cat("edge ", lt.edge, ": ", op_label(loop, edge.dst), " pops at cycle ",
                     want_pop, " before ", op_label(loop, edge.src), " pushes at ", want_push));
      usable = false;
    }
    const auto want_domain =
        expected_domain(machine, schedule.cluster(edge.src), schedule.cluster(edge.dst));
    if (!want_domain.has_value()) {
      report.add(VerifyRule::kQueueDomain,
                 cat("edge ", lt.edge, " flows between non-adjacent clusters ",
                     schedule.cluster(edge.src), " and ", schedule.cluster(edge.dst),
                     "; no queue domain spans them"));
      usable = false;
    } else if (lt.domain != *want_domain) {
      report.add(VerifyRule::kQueueDomain,
                 cat("lifetime of edge ", lt.edge, " filed under ",
                     safe_domain_name(topology, lt.domain), ", placement implies ",
                     safe_domain_name(topology, *want_domain)));
      usable = false;
    }
    lifetime_usable[l] = usable;
  }
  for (int e = 0; e < graph.edge_count(); ++e) {
    if (graph.edge(e).is_value_flow() && lifetime_of_edge[static_cast<std::size_t>(e)] < 0) {
      report.add(VerifyRule::kQueueLifetime, cat("flow edge ", e, " (", graph.edge(e).src, "->",
                                                 graph.edge(e).dst, ") has no lifetime"));
    }
  }

  // queue_of is the one record of the assignment: it must cover every
  // lifetime and file each under an existing queue of its own domain.
  const int queue_count = static_cast<int>(allocation.queues.size());
  if (allocation.queue_of.size() != allocation.lifetimes.size()) {
    report.add(VerifyRule::kQueueAssignment,
               cat("queue_of covers ", allocation.queue_of.size(), " lifetimes of ",
                   allocation.lifetimes.size()));
    return report;
  }
  std::vector<std::vector<int>> members_of(static_cast<std::size_t>(queue_count));
  bool assignment_ok = true;
  for (std::size_t l = 0; l < allocation.queue_of.size(); ++l) {
    const int q = allocation.queue_of[l];
    if (q < 0 || q >= queue_count) {
      report.add(VerifyRule::kQueueAssignment,
                 cat("lifetime ", l, " assigned to queue ", q, " of ", queue_count));
      assignment_ok = false;
      continue;
    }
    members_of[static_cast<std::size_t>(q)].push_back(static_cast<int>(l));
  }
  for (int q = 0; q < queue_count; ++q) {
    const AllocatedQueue& queue = allocation.queues[static_cast<std::size_t>(q)];
    for (int l : members_of[static_cast<std::size_t>(q)]) {
      if (lifetime_usable[static_cast<std::size_t>(l)] &&
          allocation.lifetimes[static_cast<std::size_t>(l)].domain != queue.domain) {
        report.add(VerifyRule::kQueueAssignment,
                   cat("lifetime ", l, " lives in ",
                       safe_domain_name(topology,
                                        allocation.lifetimes[static_cast<std::size_t>(l)].domain),
                       " but its queue ", q, " belongs to ",
                       safe_domain_name(topology, queue.domain)));
        assignment_ok = false;
      }
    }
  }

  // Joint FIFO simulation per queue: replay every member instance's push
  // and pop over a horizon long enough to reach steady state, enforcing
  // the hardware's rules directly — pushes land at cycle start, pops
  // retire at cycle end, one push and one pop per queue per cycle, and a
  // pop must take the value at the front.  This deliberately does not use
  // qrf/qcompat.h's closed-form test.  A replay that finishes clean must
  // peak at the queue's recorded depth, which queue-fit escalation and
  // the results read: it starts from an empty queue, runs two IIs past
  // every member's first pop, and its inclusive live count rises only at
  // a push, so its peak is the steady-state maximum.
  std::vector<int> sim_occupancy(static_cast<std::size_t>(queue_count), 0);
  if (assignment_ok) {
    for (int q = 0; q < queue_count; ++q) {
      const std::vector<int>& members = members_of[static_cast<std::size_t>(q)];
      const AllocatedQueue& queue = allocation.queues[static_cast<std::size_t>(q)];
      const bool all_usable =
          std::all_of(members.begin(), members.end(),
                      [&](int l) { return lifetime_usable[static_cast<std::size_t>(l)]; });
      if (!all_usable) continue;  // endpoint diagnostics already filed
      const long long horizon = replay_horizon(allocation, members, ii);

      struct Event {
        long long time = 0;
        bool is_pop = false;  // pushes sort before pops within a cycle
        int lifetime = -1;
        long long instance = 0;
      };
      std::vector<Event> events;
      for (int l : members) {
        const Lifetime& lt = allocation.lifetimes[static_cast<std::size_t>(l)];
        for (long long k = 0; lt.push + k * ii <= horizon; ++k) {
          events.push_back({lt.push + k * ii, false, l, k});
          if (lt.pop + k * ii <= horizon) events.push_back({lt.pop + k * ii, true, l, k});
        }
      }
      std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
        return std::tie(a.time, a.is_pop, a.lifetime, a.instance) <
               std::tie(b.time, b.is_pop, b.lifetime, b.instance);
      });

      // The FIFO is an append-only buffer with a head cursor (values are
      // never shifted; a pop just advances the head), so the whole replay
      // is linear in the event count.
      std::vector<std::pair<int, long long>> fifo;  // (lifetime, instance)
      fifo.reserve(events.size() / 2 + 1);
      std::size_t head = 0;
      long long last_push_cycle = -1;
      long long last_pop_cycle = -1;
      bool queue_ok = true;
      for (const Event& event : events) {
        if (!queue_ok) break;
        if (!event.is_pop) {
          if (event.time == last_push_cycle) {
            report.add(VerifyRule::kQueuePort,
                       cat("queue ", q, " (", safe_domain_name(topology, queue.domain),
                           ") receives two pushes in cycle ", event.time));
            queue_ok = false;
            break;
          }
          last_push_cycle = event.time;
          fifo.emplace_back(event.lifetime, event.instance);
          sim_occupancy[static_cast<std::size_t>(q)] =
              std::max(sim_occupancy[static_cast<std::size_t>(q)],
                       static_cast<int>(fifo.size() - head));
        } else {
          if (event.time == last_pop_cycle) {
            report.add(VerifyRule::kQueuePort,
                       cat("queue ", q, " services two pops in cycle ", event.time));
            queue_ok = false;
            break;
          }
          last_pop_cycle = event.time;
          if (head == fifo.size()) {
            report.add(VerifyRule::kQueueFifo,
                       cat("queue ", q, ": pop of lifetime ", event.lifetime, " instance ",
                           event.instance, " at cycle ", event.time, " finds the queue empty"));
            queue_ok = false;
            break;
          }
          if (fifo[head] != std::make_pair(event.lifetime, event.instance)) {
            report.add(
                VerifyRule::kQueueFifo,
                cat("queue ", q, ": pop at cycle ", event.time, " expects lifetime ",
                    event.lifetime, " instance ", event.instance, " but lifetime ",
                    fifo[head].first, " instance ", fifo[head].second, " is at the front"));
            queue_ok = false;
            break;
          }
          ++head;
        }
      }
      if (queue_ok && queue.max_occupancy != sim_occupancy[static_cast<std::size_t>(q)]) {
        report.add(VerifyRule::kQueueDepth,
                   cat("queue ", q, " (", safe_domain_name(topology, queue.domain),
                       ") records depth ", queue.max_occupancy, ", its FIFO replay peaks at ",
                       sim_occupancy[static_cast<std::size_t>(q)]));
      }
    }
  }

  // Capacity against the machine, checked only when the producer claims
  // the allocation fits: per-domain queue counts and simulated occupancy
  // against configured depths.
  if (must_fit && assignment_ok) {
    std::map<QueueDomain, int> queues_per_domain;
    for (const AllocatedQueue& queue : allocation.queues) {
      ++queues_per_domain[queue.domain];
    }
    for (const auto& [domain, used] : queues_per_domain) {
      if (!domain_in_range(topology, domain)) {
        report.add(VerifyRule::kQueueDomain, cat("domain ", safe_domain_name(topology, domain),
                                                 " names a cluster/segment out of range"));
        continue;
      }
      int queue_limit = 0;
      int depth_limit = 0;
      domain_limits(machine, domain, queue_limit, depth_limit);
      if (used > queue_limit) {
        report.add(VerifyRule::kQueueCapacity, cat(domain_name(topology, domain), " needs ", used,
                                                   " queues, machine has ", queue_limit));
      }
    }
    for (int q = 0; q < queue_count; ++q) {
      const AllocatedQueue& queue = allocation.queues[static_cast<std::size_t>(q)];
      if (!domain_in_range(topology, queue.domain)) continue;
      int queue_limit = 0;
      int depth_limit = 0;
      domain_limits(machine, queue.domain, queue_limit, depth_limit);
      if (sim_occupancy[static_cast<std::size_t>(q)] > depth_limit) {
        report.add(VerifyRule::kQueueCapacity,
                   cat("queue ", q, " (", domain_name(topology, queue.domain), ") needs depth ",
                       sim_occupancy[static_cast<std::size_t>(q)], ", machine allows ",
                       depth_limit));
      }
    }
  }
  return report;
}

}  // namespace qvliw
