// Static legality verifier for every back-end artifact (translation
// validation).
//
// The passes re-derive legality from first principles and deliberately
// share no logic with the code that produced the artifact:
//
//   1. DDG-vs-loop consistency — expected register flow edges are rebuilt
//      straight from operands, memory order edges from an independent
//      affine-aliasing derivation; endpoints, latencies, distances and the
//      kMemDepMaxDistance cutoff are all checked against the graph.
//   2. Modulo-schedule legality — sigma(dst) >= sigma(src) + lat - II*dist
//      per edge, conflict freedom on a freshly built modulo occupancy map
//      (not sched/reservation.h), and op-to-cluster/FU-class placement
//      range checks.
//   3. Copy/route legality — every value flow hops at most one
//      interconnect segment, and (when copy insertion was requested) queue
//      fan-out discipline holds: one consumer per value, two for copy
//      results.
//   4. Queue-RF legality — lifetimes re-derived from the schedule, FIFO
//      read order and the one-push/one-pop-per-cycle port rule checked by
//      a joint FIFO simulation per queue (not qrf/qcompat.h's closed
//      form), each queue's recorded depth against the simulation's peak
//      (not qrf/lifetime.h's peak_live), no read-before-write, and
//      capacity against the machine when the producer claimed the
//      allocation fits.
//
// A diagnostic names the violated rule (verify_rule_name) so tests and
// operators can tell *which* legality condition broke, not just that one
// did.  The verifier is wired in four ways: the pipeline's VerifyStage
// (PipelineOptions::verify), the sweep's SweepOptions::verify_mode, the
// qvliw_verify CLI over dumped bundles, and a randomized fuzz oracle
// cross-checking verdicts against sim/vliwsim.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ir/ddg.h"
#include "ir/loop.h"
#include "machine/machine.h"
#include "qrf/queue_alloc.h"
#include "sched/schedule.h"

namespace qvliw {

/// The legality rules the verifier can report.  Stable names (see
/// verify_rule_name) are part of the diagnostic format.
enum class VerifyRule : std::uint8_t {
  kArtifactShape,         // op counts of loop/DDG/schedule/allocation disagree
  kArtifactSize,          // a bundle asks for more verifier work than the caps allow
  kLoopStructure,         // Loop::validate failed
  kDdgFlow,               // flow edges disagree with the loop's operands
  kDdgMem,                // memory edges disagree with the affine derivation
  kSchedIncomplete,       // an op has no placement
  kSchedDependence,       // sigma(dst) < sigma(src) + lat - II*dist
  kSchedPlacement,        // cluster or FU instance out of range for the op's class
  kSchedResource,         // two ops share one FU instance's modulo slot
  kRouteAdjacency,        // value flow between non-adjacent clusters
  kRouteFanout,           // more consumers than the queue fan-out discipline allows
  kQueueIi,               // allocation II disagrees with the schedule
  kQueueLifetime,         // lifetime endpoints/push/pop disagree with the schedule
  kQueueDomain,           // lifetime filed under the wrong queue domain
  kQueueAssignment,       // queue_of misses lifetimes, names no queue, or crosses domains
  kQueueReadBeforeWrite,  // pop earlier than push
  kQueueFifo,             // FIFO pop order violated inside one queue
  kQueuePort,             // two pushes (or pops) of one queue in one cycle
  kQueueCapacity,         // claimed-fitting allocation exceeds machine queues/depths
  kQueueDepth,            // a queue's recorded depth is not its FIFO replay's peak
};

[[nodiscard]] std::string_view verify_rule_name(VerifyRule rule);

struct VerifyDiagnostic {
  VerifyRule rule = VerifyRule::kArtifactShape;
  std::string message;  // human-readable, already prefixed with the rule name
};

struct VerifyReport {
  std::vector<VerifyDiagnostic> diagnostics;

  [[nodiscard]] bool ok() const { return diagnostics.empty(); }
  [[nodiscard]] int violations() const { return static_cast<int>(diagnostics.size()); }
  [[nodiscard]] bool has_rule(VerifyRule rule) const;

  /// First `limit` diagnostics joined with "; " (all when limit <= 0).
  [[nodiscard]] std::string summary(int limit = 3) const;

  void add(VerifyRule rule, std::string message);
  void merge(VerifyReport other);
};

/// Pass 1: the DDG is exactly what the loop implies.  Every value operand
/// must have one flow edge with the producing opcode's latency and the
/// operand's distance; every memory edge must match the independent
/// affine-aliasing derivation (latency 1, distance within
/// kMemDepMaxDistance).
[[nodiscard]] VerifyReport verify_ddg(const Loop& loop, const Ddg& graph,
                                      const LatencyModel& latency);

/// Pass 2: the schedule is a legal modulo schedule of (loop, graph) on
/// `machine` — complete, dependence-consistent, and conflict-free on an
/// independently rebuilt modulo occupancy map.
[[nodiscard]] VerifyReport verify_modulo_schedule(const Loop& loop, const Ddg& graph,
                                                  const MachineConfig& machine,
                                                  const Schedule& schedule);

/// Pass 3: communication legality on the interconnect (every flow edge
/// spans at most one segment) and — with `check_fanout` — the queue
/// fan-out discipline copy insertion exists to restore.
[[nodiscard]] VerifyReport verify_routing(const Loop& loop, const Ddg& graph,
                                          const MachineConfig& machine, const Schedule& schedule,
                                          bool check_fanout);

/// Pass 4: the queue allocation is legal for (loop, graph, schedule):
/// every flow edge has exactly one lifetime with re-derived push/pop and
/// domain, queue_of files every lifetime under an existing queue of its
/// domain, every queue's joint FIFO simulation (over the members queue_of
/// gives it) preserves pop order and the port rule and peaks at the
/// queue's recorded max_occupancy, nothing reads before it is written,
/// and — with `must_fit` — queue counts and depths fit `machine`.
[[nodiscard]] VerifyReport verify_queue_allocation(const Loop& loop, const Ddg& graph,
                                                   const MachineConfig& machine,
                                                   const Schedule& schedule,
                                                   const QueueAllocation& allocation,
                                                   bool must_fit);

/// All passes over one artifact set.  `allocation` may be null (schedule-
/// only checking, e.g. warm-start seed vetting).
[[nodiscard]] VerifyReport verify_artifacts(const Loop& loop, const Ddg& graph,
                                            const MachineConfig& machine,
                                            const Schedule& schedule,
                                            const QueueAllocation* allocation, bool check_fanout,
                                            bool must_fit);

// --- dumped artifact bundles (the qvliw_verify CLI format) -----------------

/// Everything needed to re-verify one compiled loop offline: the scheduled
/// loop (post rewrite), the machine, the schedule, and optionally the
/// queue allocation, plus the flags recording what the producer claimed.
struct VerifyBundle {
  Loop loop;
  MachineConfig machine;
  Schedule schedule;
  bool has_allocation = false;
  QueueAllocation allocation;
  bool check_fanout = true;
  bool must_fit = false;
};

/// Caps on the work verify_bundle accepts from a bundle.  A bundle above
/// either is rejected with an artifact-size diagnostic before anything
/// sized by it is allocated.  Pipeline artifacts sit orders of magnitude
/// below both, and the pipeline's own verify stage does not check them.
///
/// Modulo occupancy slots: clusters x FU kinds x max FUs per kind x II
/// (4 bytes each, so at most 64 MiB).
inline constexpr std::uint64_t kMaxBundleModuloSlots = std::uint64_t{1} << 24;
/// FIFO-replay events over all queues: each lifetime pushes once per
/// instance from its push cycle, and pops once per instance from its pop
/// cycle, up to its queue's horizon (the latest pop plus two IIs) —
/// about (pop - push) / II + 6 events for a lifetime alone in its queue.
inline constexpr std::uint64_t kMaxBundleReplayEvents = std::uint64_t{1} << 21;

/// Runs every applicable pass over the bundle (the DDG is rebuilt from
/// loop + machine latency, so it cannot be forged independently), after
/// checking the machine and the two work caps above.
[[nodiscard]] VerifyReport verify_bundle(const VerifyBundle& bundle);

[[nodiscard]] std::string encode_verify_bundle(const VerifyBundle& bundle);

/// Throws Error on truncation, bad magic, or a structurally implausible
/// payload.  The decoded artifacts are exactly as trusted as any other
/// input to the verifier: not at all.
[[nodiscard]] VerifyBundle decode_verify_bundle(const std::string& blob);

}  // namespace qvliw
