// The three scheduler backends, in one fixed table.
//
// The back end of the pipeline (harness/stage.h) schedules through a
// `SchedulerBackend`: one per built-in mode (`SchedulerKind`), each
// naming itself, declaring how it interacts with the sweep runner's
// caches, and scheduling a `ScheduleRequest`.  `SchedulerRegistry` is a
// fixed table of the three, in `SchedulerKind` order, read without a
// lock; nothing registers a backend at run time.  A point selects its
// backend by kind, or by name through `PipelineOptions::backend`.
//
// Two declarations tell the sweep runner's plan (harness/sweep.h) what a
// backend may share with other sweep points:
//
//  - `consumes_cached_mii()`: whether precomputed MII bounds for the
//    request's loop may be injected via ImsOptions::known_mii (the moves
//    router reschedules rewritten loops internally, so bounds for the
//    pre-routing loop must not leak into it).
//  - `supports_warm_start()`: whether the backend honours a warm start.
//    A request may carry the MII-optimal schedule a neighbouring sweep
//    point (same loop/DDG/machine and backend, smaller budget) accepted,
//    as a `WarmStartSeed`; IMS verifies the seed and installs it — never
//    changing the final II relative to a cold run on an ascending-budget
//    ladder, only skipping the search that would rediscover it.
//
// The sweep decides which points share by comparing their options, so a
// backend declares nothing about its options.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/partition.h"
#include "sched/ims.h"

namespace qvliw {

/// The scheduling modes; each value indexes the backend table (see
/// `scheduler_backend`).
enum class SchedulerKind {
  kSingleCluster,   // classic IMS, machine treated as one cluster
  kClustered,       // the paper's partitioned IMS (adjacent-only comm)
  kClusteredMoves,  // extension: multi-hop routing via move ops
};

/// The backend name of a kind ("single-cluster", "clustered",
/// "clustered-moves").
[[nodiscard]] std::string_view scheduler_kind_name(SchedulerKind kind);

/// Everything one scheduling run consumes.  Non-owning: the caller keeps
/// loop/graph/machine (and the optional seed) alive for the call.
struct ScheduleRequest {
  const Loop* loop = nullptr;
  const Ddg* graph = nullptr;
  const MachineConfig* machine = nullptr;

  /// IMS knobs, including the II window and — for backends that consume
  /// cached bounds — the precomputed MII in `ims.known_mii`.
  ImsOptions ims;

  /// Cluster-choice heuristic (consulted by the partitioned backends).
  ClusterHeuristic heuristic = ClusterHeuristic::kAffinity;

  /// Optional warm start: a neighbouring point's accepted schedule.
  const WarmStartSeed* seed = nullptr;
};

/// What a backend hands back.  Backends that rewrite the loop on the way
/// (the moves router inserts relay ops) return the rewritten loop and its
/// DDG so the caller can adopt them; `rewrote` is false for backends that
/// schedule the request's loop as-is.  Queue-fit escalation trusts
/// `ims.ii_invariant`: a backend returning it set (by passing
/// ims_schedule's result through) must answer the same request with a
/// larger `ims.start_ii` with these same placements.
struct ScheduleOutcome {
  ImsResult ims;

  bool rewrote = false;
  Loop rewritten_loop;                         // valid when rewrote
  std::shared_ptr<const Ddg> rewritten_graph;  // valid when rewrote
  int moves_added = 0;
};

class SchedulerBackend {
 public:
  virtual ~SchedulerBackend() = default;

  /// Unique backend name (also the per-point label in bench reports).
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Whether ImsOptions::known_mii bounds computed for the request's loop
  /// may be injected.
  [[nodiscard]] virtual bool consumes_cached_mii() const { return true; }

  /// Whether the backend honours ScheduleRequest::seed.
  [[nodiscard]] virtual bool supports_warm_start() const { return true; }

  [[nodiscard]] virtual ScheduleOutcome schedule(const ScheduleRequest& request) const = 0;
};

/// Name lookups into the fixed table of the three backends.  The table
/// lives for the whole process and is never written, so every lookup is
/// lock-free.
class SchedulerRegistry {
 public:
  /// The one instance.
  [[nodiscard]] static const SchedulerRegistry& instance();

  /// Backend by name; nullptr when unknown.
  [[nodiscard]] const SchedulerBackend* find(std::string_view name) const;

  /// Backend by name; throws Error listing the known names when unknown
  /// (the diagnostic a mistyped PipelineOptions::backend gets).
  [[nodiscard]] const SchedulerBackend& require(std::string_view name) const;

  /// Backend names, in SchedulerKind order.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  SchedulerRegistry() = default;
};

/// The backend of `kind`: one index into the table.
[[nodiscard]] const SchedulerBackend& scheduler_backend(SchedulerKind kind);

/// Resolution used by the pipeline: `override_name` when non-empty (null
/// when unknown — callers report the diagnostic via require), else the
/// backend of `kind`.
[[nodiscard]] const SchedulerBackend* find_scheduler_backend(SchedulerKind kind,
                                                             std::string_view override_name);

}  // namespace qvliw
