// Iterative Modulo Scheduling (Rau, IJPP 1996) with pluggable cluster
// assignment.
//
// The engine is Rau's algorithm: operations are scheduled highest
// height-priority first; each op scans II consecutive cycles from its
// dependence-derived earliest start for a slot with a free FU (and, when
// clustered, a communication-legal cluster); when no slot fits, the op is
// force-placed and conflicting ops are displaced back onto the ready list.
// A budget bounds total placements per II; on exhaustion II is bumped and
// scheduling restarts.  With the default `SingleClusterAssigner` this is
// exactly classic IMS; the partitioner of src/cluster/ supplies a
// topology-aware assigner (Section 4 of the paper).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/ddg.h"
#include "ir/loop.h"
#include "machine/machine.h"
#include "sched/mii.h"
#include "sched/schedule.h"

namespace qvliw {

/// Strategy hook deciding which clusters an op may go to.
///
/// `legal(op, cluster)` must be true iff placing `op` in `cluster` keeps
/// every *currently scheduled* flow neighbour's value path realisable
/// (same cluster or topology-adjacent in the base scheme).  Implementations
/// observe placements through on_place/on_remove.
class ClusterAssigner {
 public:
  virtual ~ClusterAssigner() = default;

  /// Called when an II attempt starts; implementations drop state.
  virtual void reset(int ii) { (void)ii; }

  /// The searcher's one query per placement: the candidates `op` may
  /// legally go to now, in candidates() order, into `out`, and returns
  /// candidates(op).front(), where a forced placement goes when `out`
  /// comes back empty.
  virtual int legal_candidates(int op, std::vector<int>& out) = 0;

  /// Candidate clusters for `op`, best first.  Must be non-empty.
  virtual void candidates(int op, std::vector<int>& out) = 0;

  /// Communication legality of placing `op` in `cluster` now.
  virtual bool legal(int op, int cluster) = 0;

  /// Scheduled flow neighbours of `op` that become unreachable if `op` is
  /// force-placed in `cluster`; they will be displaced.  Empty whenever
  /// legal(op, cluster) holds, so the searcher asks only after forcing
  /// `op` into an illegal cluster.
  virtual void adjacency_evictions(int op, int cluster, std::vector<int>& out) = 0;

  virtual void on_place(int op, int cluster) { (void)op, (void)cluster; }
  virtual void on_remove(int op) { (void)op; }
};

/// The trivial assigner for single-cluster machines.
class SingleClusterAssigner final : public ClusterAssigner {
 public:
  int legal_candidates(int, std::vector<int>& out) override {
    out.assign(1, 0);
    return 0;
  }
  void candidates(int, std::vector<int>& out) override { out.assign(1, 0); }
  bool legal(int, int) override { return true; }
  void adjacency_evictions(int, int, std::vector<int>&) override {}
};

struct ImsOptions {
  /// Budget = budget_ratio * op_count placements per II attempt (Rau
  /// reports 6 as a robust value).
  int budget_ratio = 6;

  /// Hard cap on the II search.
  int max_ii = 1024;

  /// Maximum IIs tried before giving up.  Raising the II relaxes timing
  /// but never communication structure, so a loop that is unplaceable
  /// under the adjacency constraint would otherwise burn the whole
  /// ladder; 32 attempts is far beyond what any schedulable loop needs.
  int max_ii_attempts = 32;

  /// When > 0, start the search at this II instead of MII (used by
  /// queue-fit escalation, which retries above the II that did not fit).
  int start_ii = 0;

  /// Precomputed MII bounds for exactly this (loop, graph, machine).
  /// When `known_mii.feasible` is true the scheduler trusts the bounds and
  /// skips compute_mii — the sweep runner's prefix cache supplies them so
  /// points sharing a front end don't recompute RecMII per point.
  MiiInfo known_mii{};

  friend bool operator==(const ImsOptions&, const ImsOptions&) = default;
};

struct ImsStats {
  int placements = 0;   // total scheduling acts over all II attempts
  int evictions = 0;    // total displacements
  int ii_attempts = 0;  // number of IIs tried
  int forced = 0;       // forced (Rau) placements, the ones that may displace
  int budget_spent = 0;  // placements consumed by the final II attempt
  /// True when the accepted schedule's II equals MII — provably optimal,
  /// since no schedule of this loop on this machine can beat its MII.
  /// The sweep runner uses this to let higher-budget ladder siblings
  /// install the schedule instead of re-searching.
  bool mii_optimal = false;
};

/// Adds `times` searches that each cost `step` to `effort`: placements,
/// evictions, forced placements and II attempts.  budget_spent and
/// mii_optimal describe one accepted schedule, so they are left as they
/// are; callers that sum several searches into one cell keep the accepted
/// schedule's.
void add_effort(ImsStats& effort, const ImsStats& step, int times = 1);

/// A previously accepted schedule offered as a warm start for a new run
/// over the *same* loop/DDG — the sweep runner offers the MII-optimal
/// schedule a smaller-budget sibling of a budget ladder already accepted.
/// The scheduler vets the seed with verify_schedule against the exact
/// (loop, graph, machine) before trusting it; an invalid, stale, or
/// foreign seed is silently ignored, so offering one is always safe
/// regardless of where it came from.
struct WarmStartSeed {
  Schedule schedule;
  int ii = 0;  // the II the seed schedule was accepted at
};

struct ImsResult {
  bool ok = false;
  Schedule schedule;
  int ii = 0;
  MiiInfo mii;
  ImsStats stats;
  std::string failure;
  /// True when the accepted schedule was installed from a WarmStartSeed
  /// instead of being searched for.  Excluded from result-equivalence
  /// comparisons (like stage timings, it records how the schedule was
  /// obtained, not what it is).
  bool warm_started = false;
  /// True when the same ims_schedule call with any start_ii in
  /// (ii, options.max_ii] returns that II with these same placements
  /// (reschedule_invariant builds that result).  Set when the accepted
  /// attempt searched with the default single-cluster assigner and no
  /// seed above ii, made no forced placement and no eviction, issued every
  /// op and landed every edge's sigma(src) + latency before cycle ii, and
  /// gave every loop-carried edge height[dst] + latency - ii * distance
  /// <= 0.  Heights, the ready order and every slot scan then repeat at a
  /// larger II; and since every push and pop lies within one period,
  /// allocate_queues returns the same queues there too.
  bool ii_invariant = false;
};

/// Schedules `loop`'s DDG onto `machine`.  The result schedule is fully
/// validated (dependences + resources) before ok=true is returned.
///
/// When `seed` is given (and vets clean for this loop/graph/machine), the
/// II ladder still climbs from MII exactly as a cold run would — a larger
/// placement budget can unlock a *smaller* II than the seed's, and warm
/// starting must never yield a worse II than cold scheduling — but the
/// attempt at the seed's own II is replaced by installing the seed
/// schedule outright.  On ascending-budget ladders the cold attempt at
/// that II is deterministic and completes within the smaller budget that
/// produced the seed, so the installed schedule is bit-identical to what
/// the skipped search would have built; in the common case (seed II ==
/// MII, first attempt succeeds) the whole search collapses into one
/// verification pass.
[[nodiscard]] ImsResult ims_schedule(const Loop& loop, const Ddg& graph,
                                     const MachineConfig& machine, const ImsOptions& options = {},
                                     ClusterAssigner* assigner = nullptr,
                                     const WarmStartSeed* seed = nullptr);

/// What ims_schedule returns when the call that produced `result` (with
/// ii_invariant set) is repeated with start_ii = `ii`, for result.ii < ii
/// <= options.max_ii: the same placements at `ii`, from one attempt that
/// placed each op once.  Queue-fit escalation uses it instead of the
/// search whose outcome it already knows.
[[nodiscard]] ImsResult reschedule_invariant(const ImsResult& result, int ii);

}  // namespace qvliw
