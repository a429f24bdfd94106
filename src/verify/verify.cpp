#include "verify/verify.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <span>
#include <tuple>
#include <utility>

#include "ir/memdep.h"  // kMemDepMaxDistance only; the derivation is redone here
#include "machine/fu.h"
#include "support/blob.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

std::string_view verify_rule_name(VerifyRule rule) {
  switch (rule) {
    case VerifyRule::kArtifactShape:
      return "artifact-shape";
    case VerifyRule::kArtifactSize:
      return "artifact-size";
    case VerifyRule::kLoopStructure:
      return "loop-structure";
    case VerifyRule::kDdgFlow:
      return "ddg-flow";
    case VerifyRule::kDdgMem:
      return "ddg-mem";
    case VerifyRule::kSchedIncomplete:
      return "sched-incomplete";
    case VerifyRule::kSchedDependence:
      return "sched-dependence";
    case VerifyRule::kSchedPlacement:
      return "sched-placement";
    case VerifyRule::kSchedResource:
      return "sched-resource";
    case VerifyRule::kRouteAdjacency:
      return "route-adjacency";
    case VerifyRule::kRouteFanout:
      return "route-fanout";
    case VerifyRule::kQueueIi:
      return "queue-ii";
    case VerifyRule::kQueueLifetime:
      return "queue-lifetime";
    case VerifyRule::kQueueDomain:
      return "queue-domain";
    case VerifyRule::kQueueAssignment:
      return "queue-assignment";
    case VerifyRule::kQueueReadBeforeWrite:
      return "queue-read-before-write";
    case VerifyRule::kQueueFifo:
      return "queue-fifo";
    case VerifyRule::kQueuePort:
      return "queue-port";
    case VerifyRule::kQueueCapacity:
      return "queue-capacity";
    case VerifyRule::kQueueDepth:
      return "queue-depth";
  }
  return "unknown-rule";
}

bool VerifyReport::has_rule(VerifyRule rule) const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [rule](const VerifyDiagnostic& d) { return d.rule == rule; });
}

std::string VerifyReport::summary(int limit) const {
  std::string out;
  const int shown = limit > 0 ? std::min<int>(limit, violations()) : violations();
  for (int i = 0; i < shown; ++i) {
    if (i > 0) out += "; ";
    out += diagnostics[static_cast<std::size_t>(i)].message;
  }
  if (shown < violations()) out += cat(" (+", violations() - shown, " more)");
  return out;
}

void VerifyReport::add(VerifyRule rule, std::string message) {
  // The caller formatted the message; prefixing the rule name is one
  // append into a buffer sized for both, not a second formatting pass.
  const std::string_view name = verify_rule_name(rule);
  std::string text;
  text.reserve(name.size() + 2 + message.size());
  text.append(name).append(": ").append(message);
  diagnostics.push_back({rule, std::move(text)});
}

void VerifyReport::merge(VerifyReport other) {
  for (auto& d : other.diagnostics) diagnostics.push_back(std::move(d));
}

namespace {

/// "op 3 (add d0)": appended piece by piece, not through a string
/// stream, since a failing artifact may name 10^5 ops.
std::string op_label(const Loop& loop, int op) {
  const Op& o = loop.ops[static_cast<std::size_t>(op)];
  std::string label = "op ";
  label.append(std::to_string(op)).append(" (").append(opcode_name(o.opcode));
  if (!o.name.empty()) label.append(" ").append(o.name);
  return label.append(")");
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

/// Re-derives the memory order edges a correct DDG must contain, from the
/// affine reference model alone: A[stride*i + off_a] and
/// A[stride*i + off_b] touch the same element exactly when the offsets
/// differ by a whole number of strides, and that number is the distance.
/// Returned sorted by (src, dst, distance) — lookups binary-search the flat
/// array, and the "missing edge" sweep reports in the same order the old
/// std::map-based implementation iterated.
struct ExpectedMemDep {
  int src = -1;
  int dst = -1;
  int distance = 0;
  DepKind kind = DepKind::kMemFlow;
  bool seen = false;
};
std::vector<ExpectedMemDep> expected_memory_edges(const Loop& loop) {
  std::vector<ExpectedMemDep> expected;
  std::vector<int> mem_ops;
  for (int i = 0; i < loop.op_count(); ++i) {
    if (is_memory(loop.ops[static_cast<std::size_t>(i)].opcode)) mem_ops.push_back(i);
  }
  for (std::size_t x = 0; x < mem_ops.size(); ++x) {
    for (std::size_t y = x + 1; y < mem_ops.size(); ++y) {
      const int a = mem_ops[x];
      const int b = mem_ops[y];
      const Op& op_a = loop.ops[static_cast<std::size_t>(a)];
      const Op& op_b = loop.ops[static_cast<std::size_t>(b)];
      if (op_a.array != op_b.array) continue;
      const bool a_store = op_a.opcode == Opcode::kStore;
      const bool b_store = op_b.opcode == Opcode::kStore;
      if (!a_store && !b_store) continue;
      const int delta = op_a.mem_offset - op_b.mem_offset;
      if (delta % loop.stride != 0) continue;
      // b's aliasing iteration lags a's by `iters`; the dependence runs
      // from the earlier-touching op (ties break to program order).
      const int iters = delta / loop.stride;
      const int src = iters >= 0 ? a : b;
      const int dst = iters >= 0 ? b : a;
      const int distance = iters >= 0 ? iters : -iters;
      if (distance > kMemDepMaxDistance) continue;
      const bool src_store = loop.ops[static_cast<std::size_t>(src)].opcode == Opcode::kStore;
      const bool dst_store = loop.ops[static_cast<std::size_t>(dst)].opcode == Opcode::kStore;
      DepKind kind = DepKind::kMemAnti;
      if (src_store) kind = dst_store ? DepKind::kMemOutput : DepKind::kMemFlow;
      // Each (src, dst, distance) key arises from exactly one (a, b) pair
      // — (src, dst) determines the pair — so append-then-sort never
      // produces duplicates.
      expected.push_back({src, dst, distance, kind, false});
    }
  }
  std::sort(expected.begin(), expected.end(), [](const ExpectedMemDep& p, const ExpectedMemDep& q) {
    return std::tie(p.src, p.dst, p.distance) < std::tie(q.src, q.dst, q.distance);
  });
  return expected;
}

ExpectedMemDep* find_expected_mem(std::vector<ExpectedMemDep>& expected, int src, int dst,
                                  int distance) {
  const auto it = std::lower_bound(
      expected.begin(), expected.end(), std::make_tuple(src, dst, distance),
      [](const ExpectedMemDep& e, const std::tuple<int, int, int>& key) {
        return std::tie(e.src, e.dst, e.distance) < key;
      });
  if (it == expected.end() || it->src != src || it->dst != dst || it->distance != distance) {
    return nullptr;
  }
  return &*it;
}

/// Queue domain a flow between two placed clusters must live in,
/// re-derived here from the ring's size alone — deliberately not by
/// calling Topology::segment_between, so the verifier's notion of the
/// canonical segment numbering is independent of the producer's.
/// Clockwise segments c -> c+1 get ids 0..k-1, counter-clockwise
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

/// The largest per-kind FU count of any cluster (>= 1): the instance axis
/// of the dense modulo occupancy map.
int max_fus_per_kind(const MachineConfig& machine) {
  int max_fu = 1;
  for (int c = 0; c < machine.cluster_count(); ++c) {
    for (int k = 0; k < kNumFuKinds; ++k) {
      max_fu = std::max(max_fu, machine.fu_count(c, static_cast<FuKind>(k)));
    }
  }
  return max_fu;
}

/// Modulo occupancy slots per cycle: one per (cluster, FU kind, instance).
std::uint64_t slots_per_cycle(const MachineConfig& machine) {
  return static_cast<std::uint64_t>(machine.cluster_count()) * kNumFuKinds *
         static_cast<std::uint64_t>(max_fus_per_kind(machine));
}

/// The cycle up to which one queue's FIFO replay runs: past the members'
/// latest pop by two IIs, long enough to reach steady state.
long long replay_horizon(const QueueAllocation& allocation, std::span<const int> members,
                         int ii) {
  long long horizon = 0;
  for (int l : members) {
    horizon = std::max<long long>(horizon, allocation.lifetimes[static_cast<std::size_t>(l)].pop);
  }
  return horizon + 2LL * ii;
}

/// Events the FIFO replay of verify_queue_allocation generates, summed
/// over every lifetime that queue_of files under a real queue, or a
/// number above `cap` once the sum passes it.
std::uint64_t replay_event_count(const QueueAllocation& allocation, int ii, std::uint64_t cap) {
  if (allocation.queue_of.size() != allocation.lifetimes.size()) {
    return 0;  // the replay never runs on an assignment of the wrong size
  }
  const auto queue_count = static_cast<int>(allocation.queues.size());
  const auto in_range = [&](int q) { return q >= 0 && q < queue_count; };
  // Each queue's horizon: its members' latest pop (two IIs are added below).
  std::vector<long long> latest_pop(static_cast<std::size_t>(queue_count), 0);
  for (std::size_t l = 0; l < allocation.queue_of.size(); ++l) {
    const int q = allocation.queue_of[l];
    if (!in_range(q)) continue;  // no replay files this lifetime anywhere
    long long& pop = latest_pop[static_cast<std::size_t>(q)];
    pop = std::max<long long>(pop, allocation.lifetimes[l].pop);
  }
  std::uint64_t events = 0;
  for (std::size_t l = 0; l < allocation.queue_of.size(); ++l) {
    const int q = allocation.queue_of[l];
    if (!in_range(q)) continue;
    const long long horizon = latest_pop[static_cast<std::size_t>(q)] + 2LL * ii;
    const auto instances = [&](long long from) {
      return from <= horizon ? static_cast<std::uint64_t>((horizon - from) / ii + 1) : 0;
    };
    const Lifetime& lt = allocation.lifetimes[l];
    events += instances(lt.push) + instances(lt.pop);
    if (events > cap) return events;
  }
  return events;
}

/// One member lifetime's pushes (or pops) in a queue's FIFO replay: an
/// event every II cycles from its first.  Windows are II cycles long and
/// counted from the queue's earliest push, so a stream that has started
/// has exactly one event per window, `phase` cycles into it.
struct ReplayStream {
  long long first_window = 0;
  int phase = 0;
  bool is_pop = false;  // pushes replay before pops within a cycle
  int lifetime = -1;
};

/// Buffers the FIFO replay reuses across the queues of one call.
struct ReplayScratch {
  std::vector<ReplayStream> streams;  // by (first_window, phase, is_pop, lifetime)
  std::vector<ReplayStream> active;   // started streams, by (phase, is_pop, lifetime)
  std::vector<ReplayStream> merged;
  std::vector<std::pair<int, long long>> fifo;  // (lifetime, instance)
};

/// Replays queue `q`'s members' pushes and pops in (cycle, push before
/// pop, lifetime, instance) order up to the replay horizon, enforcing the
/// hardware's rules directly: pushes land at cycle start, pops retire at
/// cycle end, one push and one pop per queue per cycle, and a pop must
/// take the value at the front.  Stops at, and reports, the queue's first
/// violation and then returns false.  `peak` is the largest live count
/// the replay reached.
///
/// Within one window the started streams' events come in (phase, push
/// before pop, lifetime) order, so the replay keeps those streams in that
/// order, merging each new one in at its first window, and walks them once
/// per window.  Every stream it walks has an event there (in the last
/// window it stops at the horizon), and the earliest push's stream has one
/// in every window, so the work is linear in the events plus one sort of
/// the streams.
bool replay_queue(const QueueAllocation& allocation, std::span<const int> members, int ii,
                  int q, const AllocatedQueue& queue, const Topology& topology,
                  ReplayScratch& scratch, VerifyReport& report, int& peak) {
  peak = 0;
  if (members.empty()) return true;
  const long long horizon = replay_horizon(allocation, members, ii);
  long long base = allocation.lifetimes[static_cast<std::size_t>(members[0])].push;
  for (int l : members) {
    base = std::min<long long>(base, allocation.lifetimes[static_cast<std::size_t>(l)].push);
  }
  // Every member pops no earlier than it pushes, so no stream starts before
  // the base or after the horizon.
  scratch.streams.clear();
  std::size_t pushes = 0;
  for (int l : members) {
    const Lifetime& lt = allocation.lifetimes[static_cast<std::size_t>(l)];
    for (const bool is_pop : {false, true}) {
      const long long offset = (is_pop ? lt.pop : lt.push) - base;
      scratch.streams.push_back({offset / ii, static_cast<int>(offset % ii), is_pop, l});
    }
    pushes += static_cast<std::size_t>((horizon - lt.push) / ii + 1);
  }
  const auto by_start = [](const ReplayStream& a, const ReplayStream& b) {
    return std::tie(a.first_window, a.phase, a.is_pop, a.lifetime) <
           std::tie(b.first_window, b.phase, b.is_pop, b.lifetime);
  };
  const auto by_phase = [](const ReplayStream& a, const ReplayStream& b) {
    return std::tie(a.phase, a.is_pop, a.lifetime) < std::tie(b.phase, b.is_pop, b.lifetime);
  };
  std::sort(scratch.streams.begin(), scratch.streams.end(), by_start);

  // The FIFO is an append-only buffer with a head cursor (values are
  // never shifted; a pop just advances the head).
  auto& fifo = scratch.fifo;
  fifo.clear();
  fifo.reserve(pushes);
  scratch.active.clear();
  std::size_t head = 0;
  long long last_push_cycle = -1;
  long long last_pop_cycle = -1;
  auto next = scratch.streams.begin();
  const long long last_window = (horizon - base) / ii;
  for (long long window = 0; window <= last_window; ++window) {
    if (next != scratch.streams.end() && next->first_window == window) {
      const auto starting =
          std::find_if(next, scratch.streams.end(),
                       [&](const ReplayStream& s) { return s.first_window != window; });
      scratch.merged.clear();
      std::merge(scratch.active.begin(), scratch.active.end(), next, starting,
                 std::back_inserter(scratch.merged), by_phase);
      scratch.active.swap(scratch.merged);
      next = starting;
    }
    const long long window_start = base + window * ii;
    for (const ReplayStream& stream : scratch.active) {
      const long long time = window_start + stream.phase;
      if (time > horizon) break;
      const long long instance = window - stream.first_window;
      if (!stream.is_pop) {
        if (time == last_push_cycle) {
          report.add(VerifyRule::kQueuePort,
                     cat("queue ", q, " (", safe_domain_name(topology, queue.domain),
                         ") receives two pushes in cycle ", time));
          return false;
        }
        last_push_cycle = time;
        fifo.emplace_back(stream.lifetime, instance);
        peak = std::max(peak, static_cast<int>(fifo.size() - head));
      } else {
        if (time == last_pop_cycle) {
          report.add(VerifyRule::kQueuePort,
                     cat("queue ", q, " services two pops in cycle ", time));
          return false;
        }
        last_pop_cycle = time;
        if (head == fifo.size()) {
          report.add(VerifyRule::kQueueFifo,
                     cat("queue ", q, ": pop of lifetime ", stream.lifetime, " instance ",
                         instance, " at cycle ", time, " finds the queue empty"));
          return false;
        }
        if (fifo[head] != std::make_pair(stream.lifetime, instance)) {
          report.add(VerifyRule::kQueueFifo,
                     cat("queue ", q, ": pop at cycle ", time, " expects lifetime ",
                         stream.lifetime, " instance ", instance, " but lifetime ",
                         fifo[head].first, " instance ", fifo[head].second, " is at the front"));
          return false;
        }
        ++head;
      }
    }
  }
  return true;
}

}  // namespace

VerifyReport verify_ddg(const Loop& loop, const Ddg& graph, const LatencyModel& latency) {
  VerifyReport report;
  try {
    loop.validate();
  } catch (const Error& error) {
    report.add(VerifyRule::kLoopStructure, error.what());
    return report;
  }
  if (graph.node_count() != loop.op_count()) {
    report.add(VerifyRule::kArtifactShape, cat("DDG has ", graph.node_count(), " nodes for a ",
                                               loop.op_count(), "-op loop"));
    return report;
  }

  // Expected register flow: one edge per value operand, carrying the
  // producing opcode's latency and the operand's distance.  One flat array
  // over every operand slot: op d's are [slot_begin[d], slot_begin[d + 1]).
  struct ExpectedFlow {
    int src = -1;  // -1: the slot is not a value operand
    int latency = 0;
    int distance = 0;
    bool seen = false;
  };
  std::vector<int> slot_begin(static_cast<std::size_t>(loop.op_count()) + 1, 0);
  for (std::size_t d = 0; d < loop.ops.size(); ++d) {
    slot_begin[d + 1] = slot_begin[d] + static_cast<int>(loop.ops[d].args.size());
  }
  std::vector<ExpectedFlow> expected_flow(static_cast<std::size_t>(slot_begin.back()));
  for (std::size_t d = 0; d < loop.ops.size(); ++d) {
    const Op& op = loop.ops[d];
    for (std::size_t a = 0; a < op.args.size(); ++a) {
      const Operand& arg = op.args[a];
      if (!arg.is_value()) continue;
      const Opcode producer = loop.ops[static_cast<std::size_t>(arg.value_op)].opcode;
      expected_flow[static_cast<std::size_t>(slot_begin[d]) + a] =
          ExpectedFlow{arg.value_op, latency.of(producer), arg.distance, false};
    }
  }

  auto expected_mem = expected_memory_edges(loop);

  for (int e = 0; e < graph.edge_count(); ++e) {
    const DepEdge& edge = graph.edge(e);
    if (edge.kind == DepKind::kFlow) {
      const int first = slot_begin[static_cast<std::size_t>(edge.dst)];
      const int slots = slot_begin[static_cast<std::size_t>(edge.dst) + 1] - first;
      if (edge.dst_arg < 0 || edge.dst_arg >= slots ||
          expected_flow[static_cast<std::size_t>(first + edge.dst_arg)].src < 0) {
        report.add(VerifyRule::kDdgFlow, cat("flow edge ", edge.src, "->", edge.dst,
                                             " targets non-value operand slot ", edge.dst_arg,
                                             " of ", op_label(loop, edge.dst)));
        continue;
      }
      ExpectedFlow& want = expected_flow[static_cast<std::size_t>(first + edge.dst_arg)];
      if (want.seen) {
        report.add(VerifyRule::kDdgFlow, cat("duplicate flow edge into operand ", edge.dst_arg,
                                             " of ", op_label(loop, edge.dst)));
        continue;
      }
      want.seen = true;
      if (edge.src != want.src) {
        report.add(VerifyRule::kDdgFlow,
                   cat("flow edge into operand ", edge.dst_arg, " of ", op_label(loop, edge.dst),
                       " names producer ", edge.src, ", operand names ", want.src));
      }
      if (edge.latency != want.latency) {
        report.add(VerifyRule::kDdgFlow,
                   cat("flow edge ", edge.src, "->", edge.dst, " carries latency ", edge.latency,
                       ", producer opcode implies ", want.latency));
      }
      if (edge.distance != want.distance) {
        report.add(VerifyRule::kDdgFlow,
                   cat("flow edge ", edge.src, "->", edge.dst, " carries distance ",
                       edge.distance, ", operand reads @", want.distance));
      }
    } else {
      if (edge.latency != 1) {
        report.add(VerifyRule::kDdgMem, cat("memory edge ", edge.src, "->", edge.dst,
                                            " carries latency ", edge.latency, ", must be 1"));
      }
      if (edge.distance < 0 || edge.distance > kMemDepMaxDistance) {
        report.add(VerifyRule::kDdgMem,
                   cat("memory edge ", edge.src, "->", edge.dst, " distance ", edge.distance,
                       " outside [0, ", kMemDepMaxDistance, "]"));
        continue;
      }
      ExpectedMemDep* want = find_expected_mem(expected_mem, edge.src, edge.dst, edge.distance);
      if (want == nullptr) {
        report.add(VerifyRule::kDdgMem,
                   cat("memory ", dep_kind_name(edge.kind), " edge ", edge.src, "->", edge.dst,
                       " @", edge.distance, " has no aliasing justification"));
        continue;
      }
      if (want->seen) {
        report.add(VerifyRule::kDdgMem, cat("duplicate memory edge ", edge.src, "->", edge.dst,
                                            " @", edge.distance));
        continue;
      }
      want->seen = true;
      if (want->kind != edge.kind) {
        report.add(VerifyRule::kDdgMem,
                   cat("memory edge ", edge.src, "->", edge.dst, " @", edge.distance,
                       " labelled ", dep_kind_name(edge.kind), ", opcodes imply ",
                       dep_kind_name(want->kind)));
      }
    }
  }

  for (int d = 0; d < loop.op_count(); ++d) {
    const int first = slot_begin[static_cast<std::size_t>(d)];
    for (int a = 0; first + a < slot_begin[static_cast<std::size_t>(d) + 1]; ++a) {
      const ExpectedFlow& want = expected_flow[static_cast<std::size_t>(first + a)];
      if (want.src >= 0 && !want.seen) {
        report.add(VerifyRule::kDdgFlow, cat("value operand ", a, " of ", op_label(loop, d),
                                             " has no flow edge"));
      }
    }
  }
  for (const ExpectedMemDep& dep : expected_mem) {
    if (!dep.seen) {
      report.add(VerifyRule::kDdgMem, cat("missing memory ", dep_kind_name(dep.kind), " edge ",
                                          dep.src, "->", dep.dst, " @", dep.distance));
    }
  }
  return report;
}

VerifyReport verify_modulo_schedule(const Loop& loop, const Ddg& graph,
                                    const MachineConfig& machine, const Schedule& schedule) {
  VerifyReport report;
  if (!shapes_agree(loop, graph, schedule, report)) return report;
  const int ii = schedule.ii();

  // Completeness + placement ranges, then conflict freedom on a freshly
  // built modulo occupancy map (one owner per (cluster, class, instance,
  // cycle mod II) slot) — a dense array over the machine's slot space,
  // indexed only after the placement checks passed.
  const int max_fu = max_fus_per_kind(machine);
  std::vector<int> slot_owner(slots_per_cycle(machine) * static_cast<std::uint64_t>(ii), -1);
  for (int i = 0; i < loop.op_count(); ++i) {
    if (!schedule.scheduled(i)) {
      report.add(VerifyRule::kSchedIncomplete, cat(op_label(loop, i), " has no placement"));
      continue;
    }
    const Placement& at = schedule.place(i);
    const FuKind kind = fu_for(loop.ops[static_cast<std::size_t>(i)].opcode);
    bool placed_ok = true;
    if (at.cycle < 0) {
      report.add(VerifyRule::kSchedPlacement, cat(op_label(loop, i), " at negative cycle ",
                                                  at.cycle));
      placed_ok = false;
    }
    if (at.cluster < 0 || at.cluster >= machine.cluster_count()) {
      report.add(VerifyRule::kSchedPlacement,
                 cat(op_label(loop, i), " on cluster ", at.cluster, ", machine has ",
                     machine.cluster_count()));
      placed_ok = false;
    }
    if (placed_ok && (at.fu < 0 || at.fu >= machine.fu_count(at.cluster, kind))) {
      report.add(VerifyRule::kSchedPlacement,
                 cat(op_label(loop, i), " on ", fu_kind_name(kind), " instance ", at.fu,
                     ", cluster ", at.cluster, " has ", machine.fu_count(at.cluster, kind)));
      placed_ok = false;
    }
    if (!placed_ok) continue;
    const int slot = at.cycle % ii;
    const std::size_t index =
        ((static_cast<std::size_t>(at.cluster) * kNumFuKinds + static_cast<std::size_t>(kind)) *
             static_cast<std::size_t>(max_fu) +
         static_cast<std::size_t>(at.fu)) *
            static_cast<std::size_t>(ii) +
        static_cast<std::size_t>(slot);
    if (slot_owner[index] >= 0) {
      report.add(VerifyRule::kSchedResource,
                 cat(op_label(loop, i), " and ", op_label(loop, slot_owner[index]),
                     " double-book ", fu_kind_name(kind), " instance ", at.fu, " of cluster ",
                     at.cluster, " at modulo slot ", slot));
    } else {
      slot_owner[index] = i;
    }
  }

  for (int e = 0; e < graph.edge_count(); ++e) {
    const DepEdge& edge = graph.edge(e);
    if (!schedule.scheduled(edge.src) || !schedule.scheduled(edge.dst)) continue;
    const int earliest = schedule.cycle(edge.src) + edge.latency - ii * edge.distance;
    if (schedule.cycle(edge.dst) < earliest) {
      report.add(VerifyRule::kSchedDependence,
                 cat(dep_kind_name(edge.kind), " edge ", edge.src, "->", edge.dst,
                     " violated: sigma(dst)=", schedule.cycle(edge.dst), " < sigma(src)+lat-II*dist=",
                     earliest));
    }
  }
  return report;
}

VerifyReport verify_routing(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                            const Schedule& schedule, bool check_fanout) {
  VerifyReport report;
  if (!shapes_agree(loop, graph, schedule, report)) return report;

  for (int e = 0; e < graph.edge_count(); ++e) {
    const DepEdge& edge = graph.edge(e);
    if (!edge.is_value_flow()) continue;
    if (!schedule.scheduled(edge.src) || !schedule.scheduled(edge.dst)) continue;
    const int from = schedule.cluster(edge.src);
    const int to = schedule.cluster(edge.dst);
    if (from < 0 || from >= machine.cluster_count() || to < 0 || to >= machine.cluster_count()) {
      continue;  // reported as sched-placement by the schedule pass
    }
    const int hops = machine.distance(from, to);
    if (hops > 1) {
      report.add(VerifyRule::kRouteAdjacency,
                 cat("value of ", op_label(loop, edge.src), " on cluster ", from,
                     " consumed by ", op_label(loop, edge.dst), " on cluster ", to, " (", hops,
                     " ring hops; only adjacent clusters share a segment)"));
    }
  }

  if (check_fanout) {
    // Queue fan-out discipline (Section 2): a popped instance is gone, so
    // a value supports one consumer — two when produced by `copy`, whose
    // unit has two write ports.  Copy insertion exists to restore exactly
    // this; consumer counts come straight from the operands.
    std::vector<int> consumers(static_cast<std::size_t>(loop.op_count()), 0);
    for (const Op& op : loop.ops) {
      for (const Operand& arg : op.args) {
        if (arg.is_value()) ++consumers[static_cast<std::size_t>(arg.value_op)];
      }
    }
    for (int d = 0; d < loop.op_count(); ++d) {
      const Op& op = loop.ops[static_cast<std::size_t>(d)];
      if (!op.defines_value()) continue;
      const int limit = op.opcode == Opcode::kCopy ? 2 : 1;
      if (consumers[static_cast<std::size_t>(d)] > limit) {
        report.add(VerifyRule::kRouteFanout,
                   cat("value of ", op_label(loop, d), " has ",
                       consumers[static_cast<std::size_t>(d)], " consumers; ",
                       opcode_name(op.opcode), " results support ", limit));
      }
    }
  }
  return report;
}

VerifyReport verify_queue_allocation(const Loop& loop, const Ddg& graph,
                                     const MachineConfig& machine, const Schedule& schedule,
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
  // The members queue_of derives, as CSR: queue q's lifetimes, ascending,
  // are member_ids[member_off[q], member_off[q + 1]).
  std::vector<int> member_off(static_cast<std::size_t>(queue_count) + 1, 0);
  bool assignment_ok = true;
  for (std::size_t l = 0; l < allocation.queue_of.size(); ++l) {
    const int q = allocation.queue_of[l];
    if (q < 0 || q >= queue_count) {
      report.add(VerifyRule::kQueueAssignment,
                 cat("lifetime ", l, " assigned to queue ", q, " of ", queue_count));
      assignment_ok = false;
      continue;
    }
    ++member_off[static_cast<std::size_t>(q)];
  }
  for (std::size_t q = 1; q <= static_cast<std::size_t>(queue_count); ++q) {
    member_off[q] += member_off[q - 1];
  }
  std::vector<int> member_ids(static_cast<std::size_t>(member_off.back()));
  for (int l = static_cast<int>(allocation.queue_of.size()) - 1; l >= 0; --l) {
    const int q = allocation.queue_of[static_cast<std::size_t>(l)];
    if (q < 0 || q >= queue_count) continue;
    member_ids[static_cast<std::size_t>(--member_off[static_cast<std::size_t>(q)])] = l;
  }
  const auto members_of = [&](int q) {
    return std::span<const int>(member_ids.data() + member_off[static_cast<std::size_t>(q)],
                                member_ids.data() + member_off[static_cast<std::size_t>(q) + 1]);
  };
  for (int q = 0; q < queue_count; ++q) {
    const AllocatedQueue& queue = allocation.queues[static_cast<std::size_t>(q)];
    for (int l : members_of(q)) {
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

  // Joint FIFO simulation per queue (replay_queue), deliberately not
  // qrf/qcompat.h's closed-form test.  A replay that finishes clean must
  // peak at the queue's recorded depth, which queue-fit escalation and
  // the results read: it starts from an empty queue, runs two IIs past
  // every member's first pop, and its inclusive live count rises only at
  // a push, so its peak is the steady-state maximum.
  std::vector<int> sim_occupancy(static_cast<std::size_t>(queue_count), 0);
  if (assignment_ok) {
    ReplayScratch scratch;
    for (int q = 0; q < queue_count; ++q) {
      const std::span<const int> members = members_of(q);
      const AllocatedQueue& queue = allocation.queues[static_cast<std::size_t>(q)];
      const bool all_usable =
          std::all_of(members.begin(), members.end(),
                      [&](int l) { return lifetime_usable[static_cast<std::size_t>(l)]; });
      if (!all_usable) continue;  // endpoint diagnostics already filed
      int& peak = sim_occupancy[static_cast<std::size_t>(q)];
      const bool queue_ok =
          replay_queue(allocation, members, ii, q, queue, topology, scratch, report, peak);
      if (queue_ok && queue.max_occupancy != peak) {
        report.add(VerifyRule::kQueueDepth,
                   cat("queue ", q, " (", safe_domain_name(topology, queue.domain),
                       ") records depth ", queue.max_occupancy, ", its FIFO replay peaks at ",
                       peak));
      }
    }
  }

  // Capacity against the machine, checked only when the producer claims
  // the allocation fits: per-domain queue counts and simulated occupancy
  // against configured depths.
  if (must_fit && assignment_ok) {
    // Queues per domain, in domain order: one sorted run per domain.
    std::vector<QueueDomain> domains;
    domains.reserve(allocation.queues.size());
    for (const AllocatedQueue& queue : allocation.queues) domains.push_back(queue.domain);
    std::sort(domains.begin(), domains.end());
    for (auto run = domains.begin(); run != domains.end();) {
      const QueueDomain domain = *run;
      const auto run_end = std::find_if(run, domains.end(),
                                        [&](const QueueDomain& d) { return d != domain; });
      const auto used = run_end - run;
      run = run_end;
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

VerifyReport verify_artifacts(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                              const Schedule& schedule, const QueueAllocation* allocation,
                              bool check_fanout, bool must_fit) {
  VerifyReport report = verify_ddg(loop, graph, machine.latency);
  report.merge(verify_modulo_schedule(loop, graph, machine, schedule));
  report.merge(verify_routing(loop, graph, machine, schedule, check_fanout));
  if (allocation != nullptr) {
    report.merge(verify_queue_allocation(loop, graph, machine, schedule, *allocation, must_fit));
  }
  return report;
}

// --- bundle codec ----------------------------------------------------------

namespace {

// "QVBNDL" + format version.  Bump on any layout change below or in
// serialize_loop, serialize_machine or serialize_schedule; a bundle with
// any other magic is rejected (0001 predates the machine's topology
// fields, 0002 still carries them, 0003 carries per-queue member lists,
// 0004 carries each op's live-in invariant binding).
constexpr std::uint64_t kVerifyBundleMagic = 0x5156424e444c0005ULL;
constexpr int kMaxBundleItems = 1 << 24;

void put_domain(BlobWriter& out, const QueueDomain& domain) {
  out.put_i32(static_cast<std::int32_t>(domain.kind));
  out.put_i32(domain.index);
}

QueueDomain get_domain(BlobReader& in) {
  const std::int32_t kind = in.get_i32();
  QueueDomain domain;
  if (kind < 0 || kind > 1) fail(cat("verify bundle: bad queue-domain kind ", kind));
  domain.kind = static_cast<QueueDomain::Kind>(kind);
  domain.index = in.get_i32();
  return domain;
}

int get_count(BlobReader& in, std::string_view what) {
  const std::int32_t n = in.get_i32();
  if (n < 0 || n > kMaxBundleItems) fail(cat("verify bundle: implausible ", what, " count ", n));
  return n;
}

void put_allocation(BlobWriter& out, const QueueAllocation& allocation) {
  out.put_i32(allocation.ii);
  out.put_i32(static_cast<std::int32_t>(allocation.lifetimes.size()));
  for (const Lifetime& lt : allocation.lifetimes) {
    out.put_i32(lt.edge);
    out.put_i32(lt.producer);
    out.put_i32(lt.consumer);
    out.put_i32(lt.push);
    out.put_i32(lt.pop);
    put_domain(out, lt.domain);
  }
  out.put_i32(static_cast<std::int32_t>(allocation.queue_of.size()));
  for (int q : allocation.queue_of) out.put_i32(q);
  out.put_i32(static_cast<std::int32_t>(allocation.queues.size()));
  for (const AllocatedQueue& queue : allocation.queues) {
    put_domain(out, queue.domain);
    out.put_i32(queue.index_in_domain);
    out.put_i32(queue.max_occupancy);
  }
}

QueueAllocation get_allocation(BlobReader& in) {
  QueueAllocation allocation;
  allocation.ii = in.get_i32();
  if (allocation.ii < 1) fail(cat("verify bundle: allocation II ", allocation.ii));
  const int lifetimes = get_count(in, "lifetime");
  allocation.lifetimes.reserve(static_cast<std::size_t>(lifetimes));
  for (int l = 0; l < lifetimes; ++l) {
    Lifetime lt;
    lt.edge = in.get_i32();
    lt.producer = in.get_i32();
    lt.consumer = in.get_i32();
    lt.push = in.get_i32();
    lt.pop = in.get_i32();
    lt.domain = get_domain(in);
    allocation.lifetimes.push_back(lt);
  }
  const int assignments = get_count(in, "queue_of");
  allocation.queue_of.reserve(static_cast<std::size_t>(assignments));
  for (int l = 0; l < assignments; ++l) allocation.queue_of.push_back(in.get_i32());
  const int queues = get_count(in, "queue");
  allocation.queues.reserve(static_cast<std::size_t>(queues));
  for (int q = 0; q < queues; ++q) {
    AllocatedQueue queue;
    queue.domain = get_domain(in);
    queue.index_in_domain = in.get_i32();
    queue.max_occupancy = in.get_i32();
    allocation.queues.push_back(queue);
  }
  return allocation;
}

}  // namespace

VerifyReport verify_bundle(const VerifyBundle& bundle) {
  VerifyReport report;
  try {
    bundle.machine.validate();
  } catch (const Error& error) {
    report.add(VerifyRule::kArtifactShape, cat("machine config invalid: ", error.what()));
    return report;
  }
  // Outside input can ask for any amount of work: refuse more than the
  // caps before the schedule and queue passes size anything by it.
  // (validate() bounds the FU counts, so slots per cycle cannot overflow.)
  const int ii = bundle.schedule.ii();
  const std::uint64_t per_cycle = slots_per_cycle(bundle.machine);
  if (per_cycle > kMaxBundleModuloSlots / static_cast<std::uint64_t>(ii)) {
    report.add(VerifyRule::kArtifactSize,
               cat("modulo occupancy map of ", per_cycle, " slots per cycle at II ", ii,
                   " exceeds the cap of ", kMaxBundleModuloSlots, " slots"));
    return report;
  }
  if (bundle.has_allocation) {
    const std::uint64_t events =
        replay_event_count(bundle.allocation, ii, kMaxBundleReplayEvents);
    if (events > kMaxBundleReplayEvents) {
      report.add(VerifyRule::kArtifactSize,
                 cat("FIFO replay needs more than ", kMaxBundleReplayEvents,
                     " push/pop events, the cap"));
      return report;
    }
  }
  Ddg graph;
  try {
    graph = Ddg::build(bundle.loop, bundle.machine.latency);
  } catch (const Error& error) {
    report.add(VerifyRule::kLoopStructure, error.what());
    return report;
  }
  return verify_artifacts(bundle.loop, graph, bundle.machine, bundle.schedule,
                          bundle.has_allocation ? &bundle.allocation : nullptr,
                          bundle.check_fanout, bundle.must_fit);
}

std::string encode_verify_bundle(const VerifyBundle& bundle) {
  BlobWriter out;
  out.put_u64(kVerifyBundleMagic);
  serialize_loop(out, bundle.loop);
  serialize_machine(out, bundle.machine);
  serialize_schedule(out, bundle.schedule);
  out.put_bool(bundle.has_allocation);
  if (bundle.has_allocation) put_allocation(out, bundle.allocation);
  out.put_bool(bundle.check_fanout);
  out.put_bool(bundle.must_fit);
  return out.take();
}

VerifyBundle decode_verify_bundle(const std::string& blob) {
  BlobReader in(blob);
  if (in.get_u64() != kVerifyBundleMagic) fail("verify bundle: bad magic");
  VerifyBundle bundle;
  bundle.loop = deserialize_loop(in);
  bundle.machine = deserialize_machine(in);
  bundle.schedule = deserialize_schedule(in);
  bundle.has_allocation = in.get_bool();
  if (bundle.has_allocation) bundle.allocation = get_allocation(in);
  bundle.check_fanout = in.get_bool();
  bundle.must_fit = in.get_bool();
  in.require_exhausted("verify bundle");
  return bundle;
}

}  // namespace qvliw
