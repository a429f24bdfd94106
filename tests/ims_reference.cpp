#include "ims_reference.h"

#include <algorithm>
#include <limits>
#include <set>

#include "ir/graph_algos.h"
#include "sched/reservation.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

namespace {

/// One II attempt of the iterative scheme, as originally written: fresh
/// state per attempt, a std::set<(−height, op)> ready queue, linear FU
/// probes through the reservation table, the assigner's legal clusters
/// asked at every cycle of the slot scan, and adjacency evictions asked
/// after every placement.
class ReferenceAttempt {
 public:
  ReferenceAttempt(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                   ClusterAssigner& assigner, int ii, int budget_ratio, ImsStats& stats)
      : loop_(loop),
        graph_(graph),
        assigner_(assigner),
        ii_(ii),
        stats_(stats),
        schedule_(graph.node_count(), ii),
        mrt_(machine, ii),
        prev_cycle_(static_cast<std::size_t>(graph.node_count()), -1),
        budget_(static_cast<long long>(budget_ratio) * graph.node_count()) {
    height_priority(graph, ii, height_);
    assigner_.reset();
    for (int op = 0; op < graph_.node_count(); ++op) ready_.insert(key(op));
  }

  bool run() {
    while (!ready_.empty()) {
      if (budget_-- <= 0) return false;
      const int op = ready_.begin()->second;
      ready_.erase(ready_.begin());
      schedule_one(op);
    }
    return true;
  }

  [[nodiscard]] Schedule take_schedule() { return std::move(schedule_); }

 private:
  [[nodiscard]] std::pair<int, int> key(int op) const {
    return {-height_[static_cast<std::size_t>(op)], op};
  }

  [[nodiscard]] FuKind kind_of(int op) const {
    return fu_for(loop_.ops[static_cast<std::size_t>(op)].opcode);
  }

  [[nodiscard]] int earliest_start(int op) const {
    int estart = 0;
    for (const int e : graph_.in_edges(op)) {
      const DepEdge& edge = graph_.edge(e);
      if (edge.src == op) continue;
      if (!schedule_.scheduled(edge.src)) continue;
      estart = std::max(estart, schedule_.cycle(edge.src) + edge.latency - ii_ * edge.distance);
    }
    return estart;
  }

  void displace(int op) {
    if (!schedule_.scheduled(op)) return;
    const Placement p = schedule_.place(op);
    mrt_.remove(p.cluster, kind_of(op), p.fu, p.cycle, op);
    schedule_.clear(op);
    assigner_.on_remove(op);
    ready_.insert(key(op));
    ++stats_.evictions;
  }

  [[nodiscard]] int victim_fu(int cluster, FuKind kind, int cycle) const {
    const int n = mrt_.instances(cluster, kind);
    QVLIW_ASSERT(n > 0, "forced placement on a cluster without this FU kind");
    int best = 0;
    int best_height = std::numeric_limits<int>::max();
    for (int fu = 0; fu < n; ++fu) {
      const int occ = mrt_.occupant(cluster, kind, fu, cycle);
      QVLIW_ASSERT(occ >= 0, "victim_fu called with a free instance available");
      if (height_[static_cast<std::size_t>(occ)] < best_height) {
        best_height = height_[static_cast<std::size_t>(occ)];
        best = fu;
      }
    }
    return best;
  }

  void schedule_one(int op) {
    const FuKind kind = kind_of(op);
    const int estart = earliest_start(op);

    int best = -1;
    int chosen_cycle = -1;
    int chosen_cluster = -1;
    int chosen_fu = -1;
    for (int t = estart; t < estart + ii_ && chosen_cycle < 0; ++t) {
      best = assigner_.legal_candidates(op, legal_);
      QVLIW_ASSERT(best >= 0, "ClusterAssigner returned no candidates");
      for (int c : legal_) {
        const int fu = mrt_.find_free(c, kind, t);
        if (fu >= 0) {
          chosen_cycle = t;
          chosen_cluster = c;
          chosen_fu = fu;
          break;
        }
      }
    }

    if (chosen_cycle < 0) {
      const int prev = prev_cycle_[static_cast<std::size_t>(op)];
      chosen_cycle = (prev < 0 || estart > prev) ? estart : prev + 1;
      chosen_cluster = legal_.empty() ? best : legal_.front();
      chosen_fu = mrt_.find_free(chosen_cluster, kind, chosen_cycle);
      if (chosen_fu < 0) {
        chosen_fu = victim_fu(chosen_cluster, kind, chosen_cycle);
        displace(mrt_.occupant(chosen_cluster, kind, chosen_fu, chosen_cycle));
      }
    }

    mrt_.place(chosen_cluster, kind, chosen_fu, chosen_cycle, op);
    schedule_.set(op, Placement{chosen_cycle, chosen_cluster, chosen_fu});
    assigner_.on_place(op, chosen_cluster);
    prev_cycle_[static_cast<std::size_t>(op)] = chosen_cycle;
    ++stats_.placements;

    evictions_.clear();
    for (const int e : graph_.out_edges(op)) {
      const DepEdge& edge = graph_.edge(e);
      if (edge.dst == op || !schedule_.scheduled(edge.dst)) continue;
      if (schedule_.cycle(edge.dst) < chosen_cycle + edge.latency - ii_ * edge.distance) {
        evictions_.push_back(edge.dst);
      }
    }
    for (const int e : graph_.in_edges(op)) {
      const DepEdge& edge = graph_.edge(e);
      if (edge.src == op || !schedule_.scheduled(edge.src)) continue;
      if (chosen_cycle < schedule_.cycle(edge.src) + edge.latency - ii_ * edge.distance) {
        evictions_.push_back(edge.src);
      }
    }
    assigner_.adjacency_evictions(op, chosen_cluster, adjacency_evictions_);
    evictions_.insert(evictions_.end(), adjacency_evictions_.begin(), adjacency_evictions_.end());
    for (int v : evictions_) displace(v);
  }

  const Loop& loop_;
  const Ddg& graph_;
  ClusterAssigner& assigner_;
  const int ii_;
  ImsStats& stats_;
  std::vector<int> height_;
  Schedule schedule_;
  ReservationTable mrt_;
  std::vector<int> prev_cycle_;
  long long budget_;
  std::set<std::pair<int, int>> ready_;
  std::vector<int> legal_;
  std::vector<int> evictions_;
  std::vector<int> adjacency_evictions_;
};

}  // namespace

ImsResult ims_schedule_reference(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                                 const ImsOptions& options, ClusterAssigner* assigner) {
  check(loop.op_count() == graph.node_count(), "ims_schedule_reference: loop/DDG mismatch");
  machine.validate();

  SingleClusterAssigner single;
  ClusterAssigner& strategy = assigner != nullptr ? *assigner : single;

  ImsResult result;
  result.mii = options.known_mii.feasible ? options.known_mii
                                          : compute_mii(loop, graph, machine);
  if (!result.mii.feasible) {
    result.failure = "machine lacks an FU class required by the loop";
    return result;
  }

  const int first_ii = std::max(result.mii.mii, options.start_ii);
  const int last_ii = options.max_ii;
  if (first_ii > last_ii) {
    result.failure = cat("II limit ", last_ii, " below MII ", result.mii.mii);
    return result;
  }

  for (int ii = first_ii; ii <= last_ii; ++ii) {
    if (result.stats.ii_attempts >= options.max_ii_attempts) break;
    ++result.stats.ii_attempts;
    ReferenceAttempt attempt(loop, graph, machine, strategy, ii, options.budget_ratio,
                             result.stats);
    if (!attempt.run()) continue;
    result.schedule = attempt.take_schedule();
    result.ii = ii;
    result.ok = true;

    const auto errors = verify_schedule(loop, graph, machine, result.schedule);
    QVLIW_ASSERT(errors.empty(), cat("reference IMS produced an illegal schedule: ", errors.front()));
    return result;
  }

  result.failure = cat("no schedule found up to II=", last_ii);
  return result;
}

}  // namespace qvliw
