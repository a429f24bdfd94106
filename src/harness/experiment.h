// The paper's experiments as data, swept once.
//
// Each experiment of the evaluation (Sec. 2, Figs. 3-9 and the two
// ablations) is a list of sweep points plus a function that renders its
// tables from those points' cells.  `run_experiments` merges equal points
// across experiments into one union and calls SweepRunner::run once; every
// experiment then reads its cells out of that one sweep.  Every same-II
// table (Sec. 2, Fig. 6, A1, A2) counts through `compare_ii`.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "harness/sweep.h"
#include "support/stats.h"

namespace qvliw {

/// One experiment's view of a sweep: per point of the experiment, in the
/// experiment's own order, that point's cells index-aligned with `loops`.
struct ExperimentCells {
  const std::vector<Loop>& loops;
  const std::vector<SweepPoint>& points;
  std::vector<const std::vector<LoopResult>*> by_point;

  [[nodiscard]] const std::vector<LoopResult>& operator[](std::size_t point) const {
    return *by_point[point];
  }
};

struct Experiment {
  std::string id;     // "sec2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "A1", "A2"
  std::string title;  // banner line
  std::string claim;  // the paper's claim, printed under the title
  std::vector<SweepPoint> points;
  std::function<void(const ExperimentCells&, std::ostream&)> render;
};

/// The nine experiments in report order: sec2, fig3, fig4, fig6, fig7,
/// fig8, fig9, A1, A2.  Fig. 9 declares Fig. 8's points and renders only
/// the loops for which is_resource_constrained holds.
[[nodiscard]] std::vector<Experiment> paper_experiments();

/// The distinct points of several experiments.  Two points are equal when
/// their machine signatures match and their PipelineOptions compare equal;
/// labels are not compared, and a point's first occurrence takes its slot.
struct PointUnion {
  std::vector<SweepPoint> points;
  std::vector<std::vector<std::size_t>> slots;  // [experiment][point] -> index into points
  std::size_t references = 0;                   // points summed over the experiments
};

[[nodiscard]] PointUnion merge_points(const std::vector<Experiment>& experiments);

/// One sweep over the union of several experiments' points.
struct ExperimentRun {
  std::vector<Experiment> experiments;
  PointUnion merged;
  SweepResult sweep;
  const std::vector<Loop>* loops = nullptr;  // the swept suite; must outlive the run

  /// Experiment `e`'s cells; they refer into this run and its loops.
  [[nodiscard]] ExperimentCells cells(std::size_t e) const;
};

/// Merges the experiments' points and sweeps the union once over `loops`.
[[nodiscard]] ExperimentRun run_experiments(const std::vector<Loop>& loops,
                                            std::vector<Experiment> experiments);

/// Fig. 7's per-topology resource curves as the BENCH_fig7.json document.
void write_fig7_json(std::ostream& os, const ExperimentCells& fig7);

/// Cellwise II comparison of a variant point against a baseline point over
/// the same loops.  The base is fixed: every cell the baseline schedules.
/// A cell the variant cannot schedule stays in the base as a miss, so
/// same, plus_one, plus_more and unschedulable partition it.
struct IiComparison {
  int base = 0;           // cells the baseline schedules
  int same = 0;           // variant II <= baseline II
  int plus_one = 0;       // variant II == baseline II + 1
  int plus_more = 0;      // variant II >= baseline II + 2
  int unschedulable = 0;  // the baseline schedules the cell, the variant does not
  int same_sc = 0;        // both schedule it with equal stage counts
  OnlineStats ii_ratio;   // variant II / baseline II, over cells both schedule

  /// `count` as a fraction of `base` (0 when the base is empty).
  [[nodiscard]] double share(int count) const;
};

[[nodiscard]] IiComparison compare_ii(const std::vector<LoopResult>& baseline,
                                      const std::vector<LoopResult>& variant);

/// Prints a bench banner with the experiment title and the paper's claim.
void print_banner(std::ostream& os, const std::string& experiment,
                  const std::string& paper_claim);

/// Fraction of results with ok == true.
[[nodiscard]] double fraction_ok(const std::vector<LoopResult>& results);

/// Fraction of *scheduled* loops satisfying `predicate` (failed loops are
/// excluded from numerator and denominator).
[[nodiscard]] double fraction_of_scheduled(const std::vector<LoopResult>& results,
                                           const std::function<bool(const LoopResult&)>& predicate);

/// Mean of a metric over scheduled loops.
[[nodiscard]] double mean_of_scheduled(const std::vector<LoopResult>& results,
                                       const std::function<double(const LoopResult&)>& metric);

/// Cumulative fraction of scheduled loops whose `metric` is <= each bound
/// (Fig. 3's "% of loops vs number of queues" series).
[[nodiscard]] std::vector<double> cumulative_fractions(
    const std::vector<LoopResult>& results, const std::vector<int>& bounds,
    const std::function<int(const LoopResult&)>& metric);

/// Renders one row per bound from several labelled series.
void print_cumulative_table(std::ostream& os, const std::vector<int>& bounds,
                            const std::vector<std::string>& series_labels,
                            const std::vector<std::vector<double>>& series,
                            const std::string& bound_label);

}  // namespace qvliw
