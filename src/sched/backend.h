// Pluggable scheduler backends behind a process-wide registry.
//
// The back end of the pipeline (harness/stage.h) used to hard-code a
// switch over `SchedulerKind`; this header promotes each arm to a
// `SchedulerBackend` that names itself, declares how it interacts with
// the sweep runner's caches, and schedules a `ScheduleRequest`.  The
// enum survives as a thin registry lookup (`scheduler_backend`), so all
// existing option structs and benches keep working, while external
// schedulers — e.g. an SMT-based optimal scheduler in the style of
// Roorda's software pipeliner — plug into the same sweep and
// golden-equivalence harness by registering under a new name and being
// selected per point via `PipelineOptions::backend`.
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
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/partition.h"
#include "sched/ims.h"

namespace qvliw {

/// The built-in scheduling modes.  Kept for API compatibility: each value
/// is now only a name lookup into the backend registry (see
/// `scheduler_backend`), not a dispatch site.
enum class SchedulerKind {
  kSingleCluster,   // classic IMS, machine treated as one cluster
  kClustered,       // the paper's partitioned IMS (adjacent-only comm)
  kClusteredMoves,  // extension: multi-hop routing via move ops
};

/// The registry name of a built-in kind ("single-cluster", "clustered",
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
/// schedule the request's loop as-is.
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

  /// Unique registry name (also the per-point label in bench reports).
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Whether ImsOptions::known_mii bounds computed for the request's loop
  /// may be injected.
  [[nodiscard]] virtual bool consumes_cached_mii() const { return true; }

  /// Whether the backend honours ScheduleRequest::seed.
  [[nodiscard]] virtual bool supports_warm_start() const { return true; }

  [[nodiscard]] virtual ScheduleOutcome schedule(const ScheduleRequest& request) const = 0;
};

/// Process-wide backend registry.  Registration is append-only (backend
/// pointers stay valid for the life of the process) and thread-safe; the
/// three built-in backends are registered on first access.
class SchedulerRegistry {
 public:
  /// The process-wide instance, with built-ins already registered.
  [[nodiscard]] static SchedulerRegistry& instance();

  /// Registers `backend`; throws Error when the name is already taken.
  void add(std::unique_ptr<SchedulerBackend> backend);

  /// Backend by name; nullptr when unknown.
  [[nodiscard]] const SchedulerBackend* find(std::string_view name) const;

  /// Backend by name; throws Error listing the registered names when
  /// unknown (the diagnostic a mistyped PipelineOptions::backend gets).
  [[nodiscard]] const SchedulerBackend& require(std::string_view name) const;

  /// Registered names, in registration order (built-ins first).
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  SchedulerRegistry() = default;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SchedulerBackend>> backends_;
};

/// The thin enum lookup: registry backend of a built-in kind.
[[nodiscard]] const SchedulerBackend& scheduler_backend(SchedulerKind kind);

/// Resolution used by the pipeline: `override_name` when non-empty (null
/// when unknown — callers report the diagnostic via require), else the
/// built-in backend of `kind`.
[[nodiscard]] const SchedulerBackend* find_scheduler_backend(SchedulerKind kind,
                                                             std::string_view override_name);

}  // namespace qvliw
