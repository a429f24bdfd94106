#include "sched/ims.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "ir/graph_algos.h"
#include "sched/reservation.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

namespace {

/// Allocation-free II-ladder search core.  Every piece of attempt state —
/// heights, schedule, MRT, prev-cycle memory, the ready structure, and the
/// eviction scratch — is allocated once per ims_schedule call and reset in
/// place between II attempts.
///
/// The ready "queue" exploits that heights are fixed for the duration of
/// one II attempt: ops are counting-sorted once into `order_` by the exact
/// set key of the original implementation, (-height, op) ascending, and
/// readiness becomes a bitmask over those ranks.  Popping the minimum
/// present rank (countr_zero from a monotone cursor word) therefore
/// reproduces the std::set pop order bit-for-bit, and re-inserting a
/// displaced op is a single bit set.
class ImsSearcher {
 public:
  ImsSearcher(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
              ClusterAssigner& assigner)
      : graph_(graph),
        assigner_(assigner),
        n_(graph.node_count()),
        mrt_(machine, 1),
        schedule_(graph.node_count(), 1) {
    kind_of_.reserve(static_cast<std::size_t>(n_));
    for (int op = 0; op < n_; ++op) {
      kind_of_.push_back(fu_for(loop.ops[static_cast<std::size_t>(op)].opcode));
    }
    prev_cycle_.resize(static_cast<std::size_t>(n_));
    order_.resize(static_cast<std::size_t>(n_));
    rank_of_.resize(static_cast<std::size_t>(n_));
    words_.resize(static_cast<std::size_t>(n_ + 63) / 64);
  }

  /// One II attempt; true iff a complete schedule was built within budget.
  bool attempt(int ii, int budget_ratio, ImsStats& stats) {
    ii_ = ii;
    stats_ = &stats;
    height_priority(graph_, ii, height_);
    schedule_.reset(n_, ii);
    mrt_.reset(ii);
    std::fill(prev_cycle_.begin(), prev_cycle_.end(), -1);
    assigner_.reset(ii);
    build_rank_order();
    ready_all();

    long long budget = static_cast<long long>(budget_ratio) * n_;
    int spent = 0;
    while (ready_count_ > 0) {
      if (budget-- <= 0) {
        stats.budget_spent = spent;
        return false;
      }
      schedule_one(pop_ready());
      ++spent;
    }
    stats.budget_spent = spent;
    return true;
  }

  /// The schedule part of ImsResult::ii_invariant for the complete
  /// schedule of the last attempt: every op issues, and every edge's
  /// value lands, before cycle II, and no loop-carried edge lifts a
  /// height.  Call before take_schedule.
  [[nodiscard]] bool within_one_period() const {
    for (int op = 0; op < n_; ++op) {
      if (schedule_.cycle(op) >= ii_) return false;
    }
    for (const DepEdge& edge : graph_.edges()) {
      if (schedule_.cycle(edge.src) + edge.latency >= ii_) return false;
      if (edge.distance > 0 &&
          height_[static_cast<std::size_t>(edge.dst)] + edge.latency - ii_ * edge.distance > 0) {
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] Schedule take_schedule() { return std::move(schedule_); }

 private:
  [[nodiscard]] FuKind kind_of(int op) const { return kind_of_[static_cast<std::size_t>(op)]; }

  /// Counting sort of all ops by (-height, op) ascending into order_;
  /// rank_of_ is the inverse permutation.
  void build_rank_order() {
    int max_h = 0;
    for (int op = 0; op < n_; ++op) max_h = std::max(max_h, height_[static_cast<std::size_t>(op)]);
    bucket_.assign(static_cast<std::size_t>(max_h) + 1, 0);
    for (int op = 0; op < n_; ++op) ++bucket_[static_cast<std::size_t>(height_[static_cast<std::size_t>(op)])];
    int off = 0;
    for (int h = max_h; h >= 0; --h) {
      const int count = bucket_[static_cast<std::size_t>(h)];
      bucket_[static_cast<std::size_t>(h)] = off;
      off += count;
    }
    for (int op = 0; op < n_; ++op) {
      const int r = bucket_[static_cast<std::size_t>(height_[static_cast<std::size_t>(op)])]++;
      order_[static_cast<std::size_t>(r)] = op;
      rank_of_[static_cast<std::size_t>(op)] = r;
    }
  }

  void ready_all() {
    std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
    if (n_ % 64 != 0 && !words_.empty()) {
      words_.back() = (std::uint64_t{1} << (n_ % 64)) - 1;
    }
    cursor_ = 0;
    ready_count_ = n_;
  }

  int pop_ready() {
    std::size_t w = cursor_;
    while (words_[w] == 0) ++w;
    cursor_ = w;
    const int bit = std::countr_zero(words_[w]);
    words_[w] &= words_[w] - 1;
    --ready_count_;
    return order_[w * 64 + static_cast<std::size_t>(bit)];
  }

  void push_ready(int op) {
    const int r = rank_of_[static_cast<std::size_t>(op)];
    const std::size_t w = static_cast<std::size_t>(r) / 64;
    words_[w] |= std::uint64_t{1} << (r % 64);
    if (w < cursor_) cursor_ = w;
    ++ready_count_;
  }

  /// Earliest start from currently scheduled predecessors.
  [[nodiscard]] int earliest_start(int op) const {
    int estart = 0;
    for (const int e : graph_.in_edges(op)) {
      const DepEdge& edge = graph_.edge(e);
      if (edge.src == op) continue;  // self-dependence never binds (lat <= ii*dist at ii >= RecMII)
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
    push_ready(op);
    ++stats_->evictions;
  }

  /// Instance whose occupant has the lowest height (cheapest to displace).
  /// Walks the set bits of the MRT's busy word; called only when every
  /// instance is occupied, so the word enumerates all of them.
  [[nodiscard]] int victim_fu(int cluster, FuKind kind, int cycle) const {
    std::uint64_t busy = mrt_.busy_word(cluster, kind, cycle);
    QVLIW_ASSERT(busy != 0, "forced placement on a cluster without this FU kind");
    int best = 0;
    int best_height = std::numeric_limits<int>::max();
    for (; busy != 0; busy &= busy - 1) {
      const int fu = std::countr_zero(busy);
      const int occ = mrt_.occupant(cluster, kind, fu, cycle);
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
    // Legality cannot change before this op is placed, so the assigner
    // decides it once, and the slot scan visits only legal clusters.
    const int best = assigner_.legal_candidates(op, legal_);
    QVLIW_ASSERT(best >= 0, "ClusterAssigner returned no candidates");

    int chosen_cycle = -1;
    int chosen_cluster = -1;
    int chosen_fu = -1;
    for (int t = estart; t < estart + ii_ && chosen_cycle < 0 && !legal_.empty(); ++t) {
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
      // Forced placement (Rau): at Estart the first time through, one past
      // the previous placement when re-scheduling at the same spot.
      ++stats_->forced;
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
    ++stats_->placements;

    // Displace scheduled neighbours whose dependence constraints broke.
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
    // And neighbours whose value paths are no longer cluster-reachable:
    // only a forced placement into an illegal cluster has any, since a
    // forced displacement only removes neighbours.
    if (legal_.empty()) {
      assigner_.adjacency_evictions(op, chosen_cluster, adjacency_evictions_);
      evictions_.insert(evictions_.end(), adjacency_evictions_.begin(),
                        adjacency_evictions_.end());
    }
    for (int v : evictions_) displace(v);
  }

  const Ddg& graph_;
  ClusterAssigner& assigner_;
  const int n_;
  int ii_ = 1;
  ImsStats* stats_ = nullptr;
  ReservationTable mrt_;
  Schedule schedule_;
  std::vector<FuKind> kind_of_;
  std::vector<int> height_;
  std::vector<int> prev_cycle_;
  std::vector<int> bucket_;   // counting-sort scratch, indexed by height
  std::vector<int> order_;    // rank -> op, sorted by (-height, op)
  std::vector<int> rank_of_;  // op -> rank
  std::vector<std::uint64_t> words_;  // readiness bitmask over ranks
  std::size_t cursor_ = 0;            // lowest word that may contain a set bit
  int ready_count_ = 0;
  std::vector<int> legal_;  // this placement's legal clusters, best first
  std::vector<int> evictions_;
  std::vector<int> adjacency_evictions_;
};

}  // namespace

ImsResult ims_schedule(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                       const ImsOptions& options, ClusterAssigner* assigner,
                       const WarmStartSeed* seed) {
  check(loop.op_count() == graph.node_count(), "ims_schedule: loop/DDG mismatch");
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
    // Name whichever bound crossed the limit: MII, or else a queue-fit
    // escalation's start II.
    result.failure = result.mii.mii > last_ii
                         ? cat("II limit ", last_ii, " below MII ", result.mii.mii)
                         : cat("start II ", options.start_ii, " above II limit ", last_ii);
    return result;
  }

  // A seed is usable only when it falls inside this run's II window, its
  // schedule matches the seed II, and it verifies clean for exactly this
  // (loop, graph, machine).  Anything else is ignored — warm starting may
  // only ever remove work, never change what is schedulable.
  const bool seed_usable = seed != nullptr && seed->ii >= first_ii && seed->ii <= last_ii &&
                           seed->schedule.ii() == seed->ii &&
                           verify_schedule(loop, graph, machine, seed->schedule).empty();

  // One searcher arena (MRT, schedule, ready structure, scratch) serves
  // every II attempt of this call.
  ImsSearcher searcher(loop, graph, machine, strategy);

  for (int ii = first_ii; ii <= last_ii; ++ii) {
    if (result.stats.ii_attempts >= options.max_ii_attempts) {
      // Stopping on the attempt cap is not the same failure as running
      // off the II ladder: the ladder may have had room left.
      result.failure = cat("no schedule found within ", options.max_ii_attempts,
                           " II attempts (stopped at II=", ii - 1, ", ladder cap II=", last_ii,
                           ")");
      return result;
    }
    ++result.stats.ii_attempts;
    if (seed_usable && ii == seed->ii) {
      // The ladder reached the seed's II without finding anything better:
      // the already-verified seed schedule is an accepted answer, so the
      // budgeted search at this II is pure rediscovery — skip it.
      result.schedule = seed->schedule;
      result.ii = ii;
      result.ok = true;
      result.warm_started = true;
      result.stats.mii_optimal = ii == result.mii.mii;
      return result;
    }
    const ImsStats before = result.stats;
    if (!searcher.attempt(ii, options.budget_ratio, result.stats)) continue;
    // ImsStats sums over attempts, so the accepted attempt's forced
    // placements and evictions are deltas.
    result.ii_invariant = assigner == nullptr && (seed == nullptr || seed->ii <= ii) &&
                          result.stats.forced == before.forced &&
                          result.stats.evictions == before.evictions &&
                          searcher.within_one_period();
    result.schedule = searcher.take_schedule();
    result.ii = ii;
    result.ok = true;
    result.stats.mii_optimal = ii == result.mii.mii;

    const auto errors = verify_schedule(loop, graph, machine, result.schedule);
    QVLIW_ASSERT(errors.empty(), cat("IMS produced an illegal schedule: ", errors.front()));
    return result;
  }

  result.failure = cat("no schedule found up to II=", last_ii);
  return result;
}

ImsResult reschedule_invariant(const ImsResult& result, int ii) {
  QVLIW_ASSERT(result.ok && result.ii_invariant && ii > result.ii,
               "reschedule_invariant needs an ii_invariant result and a larger II");
  const int n = result.schedule.op_count();
  ImsResult raised;
  raised.ok = true;
  raised.schedule = Schedule(n, ii);
  for (int op = 0; op < n; ++op) raised.schedule.set(op, result.schedule.place(op));
  raised.ii = ii;
  raised.mii = result.mii;
  raised.stats.placements = n;
  raised.stats.ii_attempts = 1;
  raised.stats.budget_spent = n;
  raised.ii_invariant = true;
  return raised;
}

void add_effort(ImsStats& effort, const ImsStats& step, int times) {
  effort.placements += times * step.placements;
  effort.evictions += times * step.evictions;
  effort.forced += times * step.forced;
  effort.ii_attempts += times * step.ii_attempts;
}

}  // namespace qvliw
