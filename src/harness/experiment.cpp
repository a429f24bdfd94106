#include "harness/experiment.h"

#include <cstdint>
#include <utility>

#include "support/diagnostics.h"
#include "support/parallel.h"
#include "support/strings.h"
#include "support/table.h"
#include "workload/suite.h"

namespace qvliw {
namespace {

/// The options of every unrolled point: Fig. 4's unrolled side, Figs. 6-9
/// and both ablations.
PipelineOptions unrolled() {
  PipelineOptions options;
  options.unroll = true;
  return options;
}

PipelineOptions unrolled_clustered(SchedulerKind scheduler = SchedulerKind::kClustered) {
  PipelineOptions options = unrolled();
  options.scheduler = scheduler;
  return options;
}

/// Mean of `metric(baseline cell, variant cell)` over the cells both
/// points schedule.
double mean_over_both(const std::vector<LoopResult>& baseline,
                      const std::vector<LoopResult>& variant,
                      const std::function<double(const LoopResult&, const LoopResult&)>& metric) {
  OnlineStats stats;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    if (baseline[i].ok && variant[i].ok) stats.add(metric(baseline[i], variant[i]));
  }
  return stats.mean();
}

// --- Sec. 2 -----------------------------------------------------------------
//
// Paper: inserting copy operations leaves the II unchanged for ~95% of
// loops; the rest typically grow by one cycle.  The stage count is
// unchanged for most loops, and the most demanding loops even need
// slightly fewer queues/positions.

Experiment sec2() {
  Experiment e{"sec2", "Sec. 2 — effect of copy operations on II / stage count",
               "~95% of loops keep their II after copy insertion; misses are +1 cycle", {}, {}};
  // (with, without) pairs over the three machine sizes, then the chain
  // copy-tree ablation at 12 FUs; the balanced point at 12 FUs doubles as
  // the shape baseline.
  const std::vector<int> fu_sizes = {4, 6, 12};
  for (int fus : fu_sizes) {
    const MachineConfig machine = MachineConfig::single_cluster_machine(fus);
    PipelineOptions without;  // the multi-write QRF baseline of [7]
    without.insert_copies = false;
    e.points.push_back({cat(fus, "-fus-copies"), machine, {}});
    e.points.push_back({cat(fus, "-fus-plain"), machine, without});
  }
  PipelineOptions chain;
  chain.copy_shape = CopyTreeShape::kChain;
  e.points.push_back({"12-fus-chain", MachineConfig::single_cluster_machine(12), chain});

  e.render = [fu_sizes](const ExperimentCells& cells, std::ostream& os) {
    TextTable table({"machine", "same II", "II +1", "II +2 or more", "unschedulable", "same SC",
                     "mean dQueues"});
    for (std::size_t m = 0; m < fu_sizes.size(); ++m) {
      const std::vector<LoopResult>& with = cells[2 * m];
      const std::vector<LoopResult>& plain = cells[2 * m + 1];
      const IiComparison c = compare_ii(plain, with);
      const double dqueues =
          mean_over_both(plain, with, [](const LoopResult& b, const LoopResult& v) {
            return v.total_queues - b.total_queues;
          });
      table.add_row({cat(fu_sizes[m], " FUs"), percent(c.share(c.same)),
                     percent(c.share(c.plus_one)), percent(c.share(c.plus_more)),
                     percent(c.share(c.unschedulable)), percent(c.share(c.same_sc)), dqueues});
    }
    table.render(os);

    os << "\nCopy tree shape (12 FUs): balanced vs chain fan-out\n";
    TextTable shape_table({"shape", "mean II", "mean SC", "II <= balanced", "II +1",
                           "II +2 or more", "unschedulable"});
    const std::vector<LoopResult>& balanced_cells = cells[4];
    const std::vector<LoopResult>& chain_cells = cells[6];
    for (const bool is_chain : {false, true}) {
      const IiComparison c = compare_ii(balanced_cells, is_chain ? chain_cells : balanced_cells);
      // Means over the cells both shapes schedule.
      const double mean_ii = mean_over_both(
          balanced_cells, chain_cells,
          [is_chain](const LoopResult& b, const LoopResult& v) { return (is_chain ? v : b).ii; });
      const double mean_sc = mean_over_both(
          balanced_cells, chain_cells, [is_chain](const LoopResult& b, const LoopResult& v) {
            return (is_chain ? v : b).stage_count;
          });
      shape_table.add_row({std::string(is_chain ? "chain" : "balanced"), mean_ii, mean_sc,
                           percent(c.share(c.same)), percent(c.share(c.plus_one)),
                           percent(c.share(c.plus_more)), percent(c.share(c.unschedulable))});
    }
    shape_table.render(os);
  };
  return e;
}

// --- Fig. 3 "Number of Queues" ----------------------------------------------
//
// Paper: with copy operations enabled, the fraction of benchmark loops
// schedulable with 4 / 8 / 16 / 32 queues on machines of 4, 6 and 12 FUs;
// 32 queues cover the overwhelming majority of loops on every machine,
// and copy insertion does not significantly increase queue demand.

Experiment fig3() {
  Experiment e{"fig3", "Fig. 3 — queue requirements (4/6/12 FU machines, copy ops)",
               "32 queues schedule most loops; copies barely move the demand", {}, {}};
  // The three machine sizes (copies on, no unrolling: the Sec. 2 setup),
  // the copy-op ablation at 12 FUs, then the finite-queue ladder.
  const std::vector<int> fu_sizes = {4, 6, 12};
  for (int fus : fu_sizes) {
    e.points.push_back({cat(fus, "-fus"), MachineConfig::single_cluster_machine(fus), {}});
  }
  PipelineOptions without;
  without.insert_copies = false;
  e.points.push_back({"12-fus-no-copies", MachineConfig::single_cluster_machine(12), without});
  const std::vector<int> queue_budgets = {4, 8, 16, 32};
  for (int queues : queue_budgets) {
    PipelineOptions options;
    options.enforce_queue_limits = true;
    e.points.push_back(
        {cat("6-fus-", queues, "q"), MachineConfig::single_cluster_machine(6, queues), options});
  }

  e.render = [fu_sizes, queue_budgets](const ExperimentCells& cells, std::ostream& os) {
    const std::vector<int> bounds = {4, 8, 16, 32};
    std::vector<std::string> labels;
    std::vector<std::vector<double>> series;
    for (std::size_t m = 0; m < fu_sizes.size(); ++m) {
      const std::vector<LoopResult>& results = cells[m];
      labels.push_back(cat(fu_sizes[m], " FUs"));
      series.push_back(cumulative_fractions(results, bounds,
                                            [](const LoopResult& r) { return r.total_queues; }));
      os << "  " << fu_sizes[m] << " FUs: scheduled " << percent(fraction_ok(results))
         << " of loops\n";
    }
    os << "\n% of scheduled loops fitting in <= Q queues (cumulative):\n";
    print_cumulative_table(os, bounds, labels, series, "Queues");

    // Copy-op effect on queue demand (the paper's side observation).
    os << "\nCopy-op effect on queue demand (12 FUs):\n";
    TextTable table({"variant", "mean queues", "p95 queues", "<=32 queues"});
    auto add = [&](const std::string& label, const std::vector<LoopResult>& results) {
      std::vector<double> queues;
      for (const LoopResult& r : results) {
        if (r.ok) queues.push_back(r.total_queues);
      }
      table.add_row({label, mean(queues), percentile(queues, 95),
                     percent(fraction_of_scheduled(
                         results, [](const LoopResult& r) { return r.total_queues <= 32; }))});
    };
    add("with copy ops", cells[2]);
    add("no copy ops (multi-write QRF baseline)", cells[3]);
    table.render(os);

    // II cost of a finite QRF: enforce the queue budget by escalating the
    // II (the scheduling-side alternative to spill code for small files).
    os << "\nII cost of enforcing a finite queue file (6 FUs):\n";
    TextTable fit_table({"queues", "loops fitting", "mean II inflation", "mean retries"});
    for (std::size_t q = 0; q < queue_budgets.size(); ++q) {
      const std::vector<LoopResult>& results = cells[4 + q];
      OnlineStats inflation;
      OnlineStats retries;
      for (const LoopResult& r : results) {
        if (!r.ok) continue;
        inflation.add(static_cast<double>(r.ii) / r.mii);
        retries.add(r.queue_fit_retries);
      }
      fit_table.add_row({static_cast<std::int64_t>(queue_budgets[q]),
                         percent(fraction_ok(results)), inflation.mean(), retries.mean()});
    }
    fit_table.render(os);
  };
  return e;
}

// --- Fig. 4 "Initiation Interval Speedup" -----------------------------------
//
// Paper: with no extra FUs, a considerable fraction of loops achieve an
// II speedup > 1 when unrolled (per-source-iteration initiation rate
// II_orig / (II_unrolled / U)); unrolling rarely increases the stage
// count, and when it changes it usually decreases.

Experiment fig4() {
  Experiment e{"fig4", "Fig. 4 — II speedup from loop unrolling (4/6/12 FUs)",
               "large fraction of loops reach II speedup > 1 with no extra FUs", {}, {}};
  const std::vector<int> fu_sizes = {4, 6, 12};
  for (int fus : fu_sizes) {
    const MachineConfig machine = MachineConfig::single_cluster_machine(fus);
    e.points.push_back({cat(fus, "-fus-base"), machine, {}});
    e.points.push_back({cat(fus, "-fus-unrolled"), machine, unrolled()});
  }

  e.render = [fu_sizes](const ExperimentCells& cells, std::ostream& os) {
    TextTable table({"machine", "spd > 1", "spd >= 1.5", "spd >= 2", "geomean spd",
                     "mean factor", "SC same or lower"});
    for (std::size_t m = 0; m < fu_sizes.size(); ++m) {
      const std::vector<LoopResult>& rb = cells[2 * m];
      const std::vector<LoopResult>& ru = cells[2 * m + 1];

      int both = 0;
      int faster = 0;
      int fast15 = 0;
      int fast2 = 0;
      int sc_ok = 0;
      std::vector<double> speedups;
      OnlineStats factors;
      for (std::size_t i = 0; i < rb.size(); ++i) {
        if (!rb[i].ok || !ru[i].ok) continue;
        ++both;
        const double speedup = static_cast<double>(rb[i].ii) / ru[i].ii_per_source;
        speedups.push_back(speedup);
        if (speedup > 1.0 + 1e-9) ++faster;
        if (speedup >= 1.5 - 1e-9) ++fast15;
        if (speedup >= 2.0 - 1e-9) ++fast2;
        if (ru[i].stage_count <= rb[i].stage_count + 1) ++sc_ok;
        factors.add(ru[i].unroll_factor);
      }
      const double n = both > 0 ? static_cast<double>(both) : 1.0;
      table.add_row({cat(fu_sizes[m], " FUs"), percent(faster / n), percent(fast15 / n),
                     percent(fast2 / n), geomean(speedups), factors.mean(), percent(sc_ok / n)});
    }
    table.render(os);

    os << "\nNote: speedup = II_original / (II_unrolled / U); factors chosen by the\n"
          "Lavery/Hwu-style per-source-rate policy, bounded at "
       << cells.points[1].options.max_unroll << " (PipelineOptions::max_unroll).\n";
  };
  return e;
}

// --- Fig. 6 "Initiation Interval Variation" ---------------------------------
//
// Paper: fraction of loops whose partitioned schedule on a clustered
// machine keeps the II of the corresponding single-cluster machine:
// ~95% at 4 clusters (12 FUs), ~84% at 5 (15 FUs), ~52% at 6 (18 FUs);
// when the II grows it is typically by one cycle.  Loop unrolling is
// applied throughout, and the degradation is attributed to the inability
// to move values between non-adjacent clusters.

Experiment fig6() {
  Experiment e{"fig6", "Fig. 6 — partitioned II vs single-cluster II (4/5/6 clusters)",
               "same II for ~95% / 84% / 52% of loops; misses typically +1 cycle", {}, {}};
  const std::vector<int> cluster_sizes = {4, 5, 6};
  for (int clusters : cluster_sizes) {
    e.points.push_back({cat("single-", 3 * clusters, "fu"),
                        MachineConfig::single_cluster_machine(3 * clusters), unrolled()});
    e.points.push_back({cat("ring-", clusters), MachineConfig::clustered_machine(clusters),
                        unrolled_clustered()});
  }

  e.render = [cluster_sizes](const ExperimentCells& cells, std::ostream& os) {
    TextTable table({"clusters", "FUs", "same II", "II +1", "II +2 or more", "unschedulable",
                     "mean II ratio", "same SC"});
    for (std::size_t c = 0; c < cluster_sizes.size(); ++c) {
      const int clusters = cluster_sizes[c];
      const IiComparison r = compare_ii(cells[2 * c], cells[2 * c + 1]);
      table.add_row({cat(clusters), cat(3 * clusters), percent(r.share(r.same)),
                     percent(r.share(r.plus_one)), percent(r.share(r.plus_more)),
                     percent(r.share(r.unschedulable)), r.ii_ratio.mean(),
                     percent(r.share(r.same_sc))});
    }
    table.render(os);
    os << "\nBoth sides use identical FU totals, copy insertion and the same\n"
          "unroll-factor policy; the clustered side adds only the ring-adjacency\n"
          "communication constraint (the paper's base partitioning scheme).\n";
  };
  return e;
}

// --- Fig. 7 (text): the basic cluster configuration -------------------------
//
// Paper: a cluster of {L/S, ADD, MUL, COPY} with 8 private queues plus a
// ring of 8 queues per direction per segment suffices for (almost) every
// loop of the benchmark on the machines analysed; a small fraction needs
// more.

/// One point's resource curve.
struct ResourceCurve {
  int scheduled = 0;
  double pct_priv = 0.0;     // loops with max private queues <= 8
  double pct_segment = 0.0;  // loops with max segment queues <= 8
  double pct_both = 0.0;
  double p95_priv = 0.0;
  double p95_segment = 0.0;
  double p95_positions = 0.0;
  double max_positions = 0.0;
};

ResourceCurve resource_curve(const std::vector<LoopResult>& results) {
  ResourceCurve curve;
  std::vector<double> priv;
  std::vector<double> seg_q;
  std::vector<double> positions;
  int ok_priv = 0;
  int ok_seg = 0;
  int ok_both = 0;
  for (const LoopResult& r : results) {
    if (!r.ok) continue;
    ++curve.scheduled;
    priv.push_back(r.max_private_queues);
    seg_q.push_back(r.max_segment_queues);
    positions.push_back(r.max_positions);
    const bool p = r.max_private_queues <= 8;
    const bool g = r.max_segment_queues <= 8;
    if (p) ++ok_priv;
    if (g) ++ok_seg;
    if (p && g) ++ok_both;
  }
  const double n = curve.scheduled > 0 ? static_cast<double>(curve.scheduled) : 1.0;
  curve.pct_priv = ok_priv / n;
  curve.pct_segment = ok_seg / n;
  curve.pct_both = ok_both / n;
  curve.p95_priv = percentile(priv, 95);
  curve.p95_segment = percentile(seg_q, 95);
  curve.p95_positions = percentile(positions, 95);
  curve.max_positions = percentile(positions, 100);
  return curve;
}

Experiment fig7() {
  Experiment e{"fig7", "Fig. 7 — per-cluster queue resources (8 private + 8 per segment)",
               "the 8/8 cluster covers nearly all loops", {}, {}};
  for (const int clusters : {4, 5, 6}) {
    e.points.push_back(
        {cat("ring-", clusters), MachineConfig::clustered_machine(clusters), unrolled_clustered()});
  }

  e.render = [](const ExperimentCells& cells, std::ostream& os) {
    TextTable table({"machine", "priv <= 8", "seg <= 8", "both <= 8", "p95 priv", "p95 seg",
                     "p95 positions", "max positions"});
    for (std::size_t c = 0; c < cells.by_point.size(); ++c) {
      const ResourceCurve curve = resource_curve(cells[c]);
      table.add_row({cells.points[c].label, percent(curve.pct_priv), percent(curve.pct_segment),
                     percent(curve.pct_both), curve.p95_priv, curve.p95_segment,
                     curve.p95_positions, static_cast<std::int64_t>(curve.max_positions)});
    }
    table.render(os);
  };
  return e;
}

// --- Figs. 8 and 9 "Operations issued per cycle" ----------------------------
//
// Paper (Fig. 8): mean static and dynamic IPC over the whole suite as the
// machine grows from 4 to 18 FUs; single-cluster and clustered (12/15/18
// FU) series.  Growth is sub-linear because recurrence-bound loops cannot
// use the extra units; static > dynamic since the dynamic figure pays for
// prologue/epilogue.
//
// Paper (Fig. 9): restricted to loops whose execution is limited by FU
// availability, single-cluster IPC scales almost linearly to 18 FUs; the
// clustered machine falls slightly behind at 15 and 18 FUs (the
// partitioning loss of Fig. 6), with the dynamic gap smaller than the
// static one because a few large loops dominate execution time and
// partition cleanly.

/// Clusters of the ring with `fus` FUs, or 0 when Figs. 8/9 have none.
int ring_clusters(int fus) { return fus % 3 == 0 && fus >= 12 ? fus / 3 : 0; }

/// The 15 single-cluster sizes, each followed by its ring when it has one.
std::vector<SweepPoint> ipc_points() {
  std::vector<SweepPoint> points;
  for (int fus = 4; fus <= 18; ++fus) {
    points.push_back(
        {cat("single-", fus, "fu"), MachineConfig::single_cluster_machine(fus), unrolled()});
    if (const int clusters = ring_clusters(fus); clusters > 0) {
      points.push_back({cat("ring-", clusters), MachineConfig::clustered_machine(clusters),
                        unrolled_clustered()});
    }
  }
  return points;
}

/// Mean static and dynamic IPC per machine size, over ipc_points() cells.
void render_ipc_table(const std::vector<const std::vector<LoopResult>*>& by_point,
                      std::ostream& os) {
  auto ipc_static = [](const LoopResult& r) { return r.ipc_static; };
  auto ipc_dynamic = [](const LoopResult& r) { return r.ipc_dynamic; };
  TextTable table({"FUs", "static single", "dyn single", "static clustered", "dyn clustered"});
  std::size_t p = 0;
  for (int fus = 4; fus <= 18; ++fus) {
    const std::vector<LoopResult>& rs = *by_point[p++];
    std::vector<Cell> row{static_cast<std::int64_t>(fus), mean_of_scheduled(rs, ipc_static),
                          mean_of_scheduled(rs, ipc_dynamic), std::string("-"), std::string("-")};
    if (ring_clusters(fus) > 0) {
      const std::vector<LoopResult>& rc = *by_point[p++];
      row[3] = mean_of_scheduled(rc, ipc_static);
      row[4] = mean_of_scheduled(rc, ipc_dynamic);
    }
    table.add_row(std::move(row));
  }
  table.render(os);
}

Experiment fig8() {
  Experiment e{"fig8", "Fig. 8 — IPC vs machine size, all loops",
               "sub-linear growth; clustered tracks single-cluster closely at 12 FUs",
               ipc_points(), {}};
  e.render = [](const ExperimentCells& cells, std::ostream& os) {
    render_ipc_table(cells.by_point, os);
    os << "\nIPC counts useful (source) operations only; copies and moves are\n"
          "plumbing.  Dynamic IPC uses the paper's execution model\n"
          "(trip + SC - 1 kernel initiations, per-loop trip counts).\n";
  };
  return e;
}

Experiment fig9() {
  Experiment e{"fig9", "Fig. 9 — IPC vs machine size, resource-constrained loops",
               "near-linear single-cluster scaling; clustered slightly lower at 15/18 FUs",
               ipc_points(), {}};
  e.render = [](const ExperimentCells& cells, std::ostream& os) {
    // The subset uses the unroll bound of the points it filters.
    const int max_unroll = cells.points[0].options.max_unroll;
    std::vector<char> keep(cells.loops.size(), 0);
    parallel_for(keep.size(), worker_count(), [&](std::size_t i) {
      keep[i] = is_resource_constrained(cells.loops[i], max_unroll) ? 1 : 0;
    });
    std::size_t kept = 0;
    std::vector<std::vector<LoopResult>> subset(cells.by_point.size());
    for (std::size_t i = 0; i < keep.size(); ++i) {
      if (!keep[i]) continue;
      ++kept;
      for (std::size_t p = 0; p < subset.size(); ++p) subset[p].push_back(cells[p][i]);
    }
    std::vector<const std::vector<LoopResult>*> by_point;
    by_point.reserve(subset.size());
    for (const std::vector<LoopResult>& results : subset) by_point.push_back(&results);
    os << "resource-constrained subset: " << kept << " of " << cells.loops.size()
       << " loops\n\n";
    render_ipc_table(by_point, os);
  };
  return e;
}

// --- Ablation A1: move operations for non-adjacent transfers -----------------
//
// The paper's conclusion proposes `move` operations so values can cross
// intermediate clusters, predicting that the 5/6-cluster degradation of
// Fig. 6 disappears.  This measures exactly that prediction with the
// routed partitioner (cluster/route.h): same-II fraction against the
// single-cluster machine, with and without move routing.

constexpr SchedulerKind kMoveSchemes[] = {SchedulerKind::kClustered,
                                          SchedulerKind::kClusteredMoves};

Experiment ablation_moves() {
  Experiment e{"A1", "Ablation A1 — multi-hop routing via move ops (paper's future work)",
               "moves should recover the 5/6-cluster same-II loss of Fig. 6", {}, {}};
  // Per cluster count: the single-cluster baseline, then both schemes.
  const std::vector<int> cluster_sizes = {4, 5, 6};
  for (int clusters : cluster_sizes) {
    e.points.push_back({cat("single-", 3 * clusters, "fu"),
                        MachineConfig::single_cluster_machine(3 * clusters), unrolled()});
    for (const SchedulerKind scheduler : kMoveSchemes) {
      e.points.push_back(
          {cat("ring-", clusters, scheduler == SchedulerKind::kClustered ? "-adjacent" : "-moves"),
           MachineConfig::clustered_machine(clusters), unrolled_clustered(scheduler)});
    }
  }

  e.render = [cluster_sizes](const ExperimentCells& cells, std::ostream& os) {
    TextTable table({"clusters", "scheme", "same II", "II +1", "II +2 or more", "unschedulable",
                     "mean moves"});
    for (std::size_t c = 0; c < cluster_sizes.size(); ++c) {
      const std::vector<LoopResult>& rs = cells[3 * c];
      for (std::size_t s = 0; s < std::size(kMoveSchemes); ++s) {
        const std::vector<LoopResult>& rc = cells[3 * c + 1 + s];
        const IiComparison r = compare_ii(rs, rc);
        const double moves = mean_over_both(
            rs, rc, [](const LoopResult&, const LoopResult& v) { return v.moves; });
        table.add_row({cat(cluster_sizes[c]),
                       kMoveSchemes[s] == SchedulerKind::kClustered ? std::string("adjacent-only")
                                                                    : std::string("with moves"),
                       percent(r.share(r.same)), percent(r.share(r.plus_one)),
                       percent(r.share(r.plus_more)), percent(r.share(r.unschedulable)), moves});
      }
    }
    table.render(os);
  };
  return e;
}

// --- Ablation A2: partitioning heuristics and scheduler budget ---------------
//
// The two load-bearing choices in the partitioner: the cluster-selection
// heuristic (affinity vs load-balance vs first-fit) and IMS's backtracking
// budget, on the clustered machines, by Fig. 6's same-II criterion.

constexpr ClusterHeuristic kHeuristics[] = {ClusterHeuristic::kAffinity,
                                            ClusterHeuristic::kLoadBalance,
                                            ClusterHeuristic::kFirstFit};
constexpr int kBudgets[] = {1, 2, 6, 12};

Experiment ablation_heuristics() {
  Experiment e{"A2", "Ablation A2 — cluster heuristic and IMS budget",
               "affinity ordering and a budget ratio of ~6 carry the Fig. 6 result", {}, {}};
  // Per cluster count: the single-cluster baseline, then the three
  // heuristics; then the budget ladder at 4 clusters.
  const std::vector<int> cluster_sizes = {4, 6};
  for (int clusters : cluster_sizes) {
    e.points.push_back({cat("single-", 3 * clusters, "fu"),
                        MachineConfig::single_cluster_machine(3 * clusters), unrolled()});
    for (const ClusterHeuristic heuristic : kHeuristics) {
      PipelineOptions options = unrolled_clustered();
      options.heuristic = heuristic;
      e.points.push_back({cat("ring-", clusters, "-", cluster_heuristic_name(heuristic)),
                          MachineConfig::clustered_machine(clusters), options});
    }
  }
  for (int budget : kBudgets) {
    PipelineOptions options = unrolled_clustered();
    options.ims.budget_ratio = budget;
    e.points.push_back(
        {cat("ring-4-budget-", budget, "x"), MachineConfig::clustered_machine(4), options});
  }

  e.render = [cluster_sizes](const ExperimentCells& cells, std::ostream& os) {
    os << "Cluster-selection heuristic (same-II fraction vs single cluster):\n";
    TextTable heuristic_table(
        {"clusters", "heuristic", "same II", "mean II ratio", "unschedulable"});
    for (std::size_t c = 0; c < cluster_sizes.size(); ++c) {
      for (std::size_t h = 0; h < std::size(kHeuristics); ++h) {
        const IiComparison r = compare_ii(cells[4 * c], cells[4 * c + 1 + h]);
        heuristic_table.add_row({cat(cluster_sizes[c]),
                                 std::string(cluster_heuristic_name(kHeuristics[h])),
                                 percent(r.share(r.same)), r.ii_ratio.mean(),
                                 percent(r.share(r.unschedulable))});
      }
    }
    heuristic_table.render(os);

    os << "\nIMS backtracking budget (4 clusters, affinity):\n";
    TextTable budget_table({"budget ratio", "same II", "mean II ratio", "unschedulable"});
    for (std::size_t b = 0; b < std::size(kBudgets); ++b) {
      const IiComparison r = compare_ii(cells[0], cells[4 * cluster_sizes.size() + b]);
      budget_table.add_row({cat(kBudgets[b], "x"), percent(r.share(r.same)), r.ii_ratio.mean(),
                            percent(r.share(r.unschedulable))});
    }
    budget_table.render(os);
  };
  return e;
}

}  // namespace

std::vector<Experiment> paper_experiments() {
  std::vector<Experiment> experiments;
  experiments.push_back(sec2());
  experiments.push_back(fig3());
  experiments.push_back(fig4());
  experiments.push_back(fig6());
  experiments.push_back(fig7());
  experiments.push_back(fig8());
  experiments.push_back(fig9());
  experiments.push_back(ablation_moves());
  experiments.push_back(ablation_heuristics());
  return experiments;
}

PointUnion merge_points(const std::vector<Experiment>& experiments) {
  PointUnion merged;
  std::vector<std::uint64_t> signatures;  // machine signature per union slot
  for (const Experiment& experiment : experiments) {
    std::vector<std::size_t>& slots = merged.slots.emplace_back();
    for (const SweepPoint& point : experiment.points) {
      ++merged.references;
      const std::uint64_t signature = point.machine.signature();
      std::size_t slot = 0;
      while (slot < merged.points.size() &&
             (signatures[slot] != signature || merged.points[slot].options != point.options)) {
        ++slot;
      }
      if (slot == merged.points.size()) {
        merged.points.push_back(point);
        signatures.push_back(signature);
      }
      slots.push_back(slot);
    }
  }
  return merged;
}

ExperimentCells ExperimentRun::cells(std::size_t e) const {
  ExperimentCells out{*loops, experiments[e].points, {}};
  for (const std::size_t slot : merged.slots[e]) out.by_point.push_back(&sweep.by_point[slot]);
  return out;
}

ExperimentRun run_experiments(const std::vector<Loop>& loops, std::vector<Experiment> experiments) {
  ExperimentRun run;
  run.merged = merge_points(experiments);
  SweepOptions options;
  options.verify_mode = SweepVerifyMode::kStrict;
  run.sweep = SweepRunner(options).run(loops, run.merged.points);
  run.experiments = std::move(experiments);
  run.loops = &loops;
  return run;
}

void write_fig7_json(std::ostream& os, const ExperimentCells& fig7) {
  os << "{\n  \"bench\": \"fig7_cluster_resources\",\n"
     << "  \"suite_loops\": " << fig7.loops.size() << ",\n  \"curves\": [";
  for (std::size_t c = 0; c < fig7.by_point.size(); ++c) {
    const SweepPoint& point = fig7.points[c];
    const ResourceCurve curve = resource_curve(fig7[c]);
    os << (c == 0 ? "" : ",") << "\n    {\"topology\": \"ring\", \"clusters\": "
       << point.machine.cluster_count() << ", \"label\": \"" << point.label
       << "\", \"scheduled\": " << curve.scheduled
       << ", \"pct_private_le8\": " << fixed(curve.pct_priv, 6)
       << ", \"pct_segment_le8\": " << fixed(curve.pct_segment, 6)
       << ", \"pct_both_le8\": " << fixed(curve.pct_both, 6)
       << ", \"p95_private\": " << fixed(curve.p95_priv, 3)
       << ", \"p95_segment\": " << fixed(curve.p95_segment, 3)
       << ", \"p95_positions\": " << fixed(curve.p95_positions, 3)
       << ", \"max_positions\": " << fixed(curve.max_positions, 1) << "}";
  }
  os << "\n  ]\n}\n";
}

IiComparison compare_ii(const std::vector<LoopResult>& baseline,
                        const std::vector<LoopResult>& variant) {
  check(baseline.size() == variant.size(), "compare_ii: baseline and variant cell counts differ");
  IiComparison out;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    if (!baseline[i].ok) continue;
    ++out.base;
    if (!variant[i].ok) {
      ++out.unschedulable;
      continue;
    }
    const int delta = variant[i].ii - baseline[i].ii;
    if (delta <= 0) ++out.same;
    else if (delta == 1) ++out.plus_one;
    else ++out.plus_more;
    if (variant[i].stage_count == baseline[i].stage_count) ++out.same_sc;
    out.ii_ratio.add(static_cast<double>(variant[i].ii) / baseline[i].ii);
  }
  return out;
}

double IiComparison::share(int count) const {
  return base > 0 ? static_cast<double>(count) / static_cast<double>(base) : 0.0;
}

void print_banner(std::ostream& os, const std::string& experiment,
                  const std::string& paper_claim) {
  os << std::string(72, '=') << '\n';
  os << experiment << '\n';
  os << "paper: " << paper_claim << '\n';
  os << std::string(72, '=') << '\n';
}

double fraction_ok(const std::vector<LoopResult>& results) {
  if (results.empty()) return 0.0;
  std::size_t ok = 0;
  for (const LoopResult& r : results) {
    if (r.ok) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(results.size());
}

double fraction_of_scheduled(const std::vector<LoopResult>& results,
                             const std::function<bool(const LoopResult&)>& predicate) {
  std::size_t scheduled = 0;
  std::size_t hits = 0;
  for (const LoopResult& r : results) {
    if (!r.ok) continue;
    ++scheduled;
    if (predicate(r)) ++hits;
  }
  return scheduled == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(scheduled);
}

double mean_of_scheduled(const std::vector<LoopResult>& results,
                         const std::function<double(const LoopResult&)>& metric) {
  std::size_t scheduled = 0;
  double total = 0.0;
  for (const LoopResult& r : results) {
    if (!r.ok) continue;
    ++scheduled;
    total += metric(r);
  }
  return scheduled == 0 ? 0.0 : total / static_cast<double>(scheduled);
}

std::vector<double> cumulative_fractions(const std::vector<LoopResult>& results,
                                         const std::vector<int>& bounds,
                                         const std::function<int(const LoopResult&)>& metric) {
  std::vector<double> fractions;
  fractions.reserve(bounds.size());
  std::size_t total = 0;
  for (const LoopResult& r : results) {
    if (r.ok) ++total;
  }
  for (int bound : bounds) {
    std::size_t hits = 0;
    for (const LoopResult& r : results) {
      if (r.ok && metric(r) <= bound) ++hits;
    }
    fractions.push_back(total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total));
  }
  return fractions;
}

void print_cumulative_table(std::ostream& os, const std::vector<int>& bounds,
                            const std::vector<std::string>& series_labels,
                            const std::vector<std::vector<double>>& series,
                            const std::string& bound_label) {
  check(series_labels.size() == series.size(), "labels/series mismatch");
  std::vector<std::string> headers{bound_label};
  for (const std::string& label : series_labels) headers.push_back(label);
  TextTable table(headers);
  for (std::size_t b = 0; b < bounds.size(); ++b) {
    std::vector<Cell> row;
    row.emplace_back(static_cast<std::int64_t>(bounds[b]));
    for (const auto& column : series) {
      check(column.size() == bounds.size(), "series length mismatch");
      row.emplace_back(percent(column[b]));
    }
    table.add_row(std::move(row));
  }
  table.render(os);
}

}  // namespace qvliw
