#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.h"
#include "harness/shard.h"
#include "support/strings.h"
#include "workload/kernels.h"
#include "workload/suite.h"

namespace qvliw {
namespace {

LoopResult cell(bool ok, int ii, int stage_count = 1) {
  LoopResult r;
  r.ok = ok;
  r.ii = ii;
  r.stage_count = stage_count;
  return r;
}

// --- compare_ii -------------------------------------------------------------

TEST(CompareIi, BaselineFailuresLeaveTheBase) {
  const std::vector<LoopResult> baseline = {cell(false, 0), cell(true, 4), cell(false, 0)};
  const std::vector<LoopResult> variant = {cell(true, 3), cell(true, 4), cell(false, 0)};
  const IiComparison c = compare_ii(baseline, variant);
  EXPECT_EQ(c.base, 1);
  EXPECT_EQ(c.same, 1);
  EXPECT_EQ(c.unschedulable, 0);
}

TEST(CompareIi, VariantFailureIsUnschedulableAndAMiss) {
  const std::vector<LoopResult> baseline = {cell(true, 4), cell(true, 4)};
  const std::vector<LoopResult> variant = {cell(false, 0), cell(true, 4)};
  const IiComparison c = compare_ii(baseline, variant);
  EXPECT_EQ(c.base, 2);
  EXPECT_EQ(c.unschedulable, 1);
  EXPECT_EQ(c.same, 1);
  EXPECT_EQ(c.same_sc, 1);
  EXPECT_DOUBLE_EQ(c.share(c.same), 0.5);
  EXPECT_DOUBLE_EQ(c.share(c.unschedulable), 0.5);
}

TEST(CompareIi, EqualOrBetterIiCountsAsSame) {
  const std::vector<LoopResult> baseline = {cell(true, 5), cell(true, 5), cell(true, 5),
                                            cell(true, 5)};
  const std::vector<LoopResult> variant = {cell(true, 4), cell(true, 5), cell(true, 6),
                                           cell(true, 8)};
  const IiComparison c = compare_ii(baseline, variant);
  EXPECT_EQ(c.same, 2);
  EXPECT_EQ(c.plus_one, 1);
  EXPECT_EQ(c.plus_more, 1);
}

TEST(CompareIi, BucketsPartitionTheBase) {
  const std::vector<LoopResult> baseline = {cell(true, 3), cell(true, 3), cell(true, 3),
                                            cell(true, 3), cell(false, 0), cell(true, 3)};
  const std::vector<LoopResult> variant = {cell(true, 2), cell(true, 4), cell(true, 9),
                                           cell(false, 0), cell(true, 3), cell(false, 0)};
  const IiComparison c = compare_ii(baseline, variant);
  EXPECT_EQ(c.base, 5);
  EXPECT_EQ(c.same + c.plus_one + c.plus_more + c.unschedulable, c.base);
  EXPECT_DOUBLE_EQ(c.share(c.same) + c.share(c.plus_one) + c.share(c.plus_more) +
                       c.share(c.unschedulable),
                   1.0);
  EXPECT_DOUBLE_EQ(c.share(c.unschedulable), 0.4);
}

TEST(CompareIi, IiRatioAveragesOnlyCellsBothSchedule) {
  const std::vector<LoopResult> baseline = {cell(true, 2), cell(true, 4), cell(true, 4),
                                            cell(false, 0)};
  const std::vector<LoopResult> variant = {cell(true, 4), cell(false, 0), cell(true, 4),
                                           cell(true, 1)};
  const IiComparison c = compare_ii(baseline, variant);
  EXPECT_EQ(c.ii_ratio.count(), 2u);
  EXPECT_DOUBLE_EQ(c.ii_ratio.mean(), (2.0 + 1.0) / 2.0);
}

// --- merging points ---------------------------------------------------------

Experiment experiment_of(std::vector<SweepPoint> points) {
  return Experiment{"test", "title", "claim", std::move(points), {}};
}

TEST(MergePoints, LabelsDoNotSplitASlot) {
  const MachineConfig ring = MachineConfig::clustered_machine(4);
  PipelineOptions options;
  options.scheduler = SchedulerKind::kClustered;
  const PointUnion merged = merge_points(
      {experiment_of({{"a", ring, options}}),
       experiment_of({{"b", ring, options}, {"c", MachineConfig::clustered_machine(4), options}})});
  ASSERT_EQ(merged.points.size(), 1u);
  EXPECT_EQ(merged.points[0].label, "a");  // the first occurrence takes the slot
  EXPECT_EQ(merged.references, 3u);
  EXPECT_EQ(merged.slots, (std::vector<std::vector<std::size_t>>{{0}, {0, 0}}));
}

TEST(MergePoints, EachOptionFieldSplitsASlot) {
  const MachineConfig ring = MachineConfig::clustered_machine(4);
  PipelineOptions base;
  base.scheduler = SchedulerKind::kClustered;
  PipelineOptions budget = base;
  budget.ims.budget_ratio = 12;
  PipelineOptions heuristic = base;
  heuristic.heuristic = ClusterHeuristic::kLoadBalance;
  PipelineOptions limits = base;
  limits.enforce_queue_limits = true;
  const PointUnion merged = merge_points({experiment_of({{"base", ring, base},
                                                         {"budget", ring, budget},
                                                         {"heuristic", ring, heuristic},
                                                         {"limits", ring, limits},
                                                         {"base-again", ring, base}})});
  EXPECT_EQ(merged.points.size(), 4u);
  EXPECT_EQ(merged.slots[0], (std::vector<std::size_t>{0, 1, 2, 3, 0}));
}

TEST(MergePoints, MachineSignatureSplitsASlot) {
  const PipelineOptions options;
  const PointUnion merged = merge_points({experiment_of({
      {"4q", MachineConfig::single_cluster_machine(6, 4), options},
      {"8q", MachineConfig::single_cluster_machine(6, 8), options},
      {"12fu", MachineConfig::single_cluster_machine(12), options},
      {"4q-again", MachineConfig::single_cluster_machine(6, 4), options},
  })});
  EXPECT_EQ(merged.points.size(), 3u);
  EXPECT_EQ(merged.slots[0], (std::vector<std::size_t>{0, 1, 2, 0}));
}

TEST(MergePoints, PaperExperimentsMergeTo39Points) {
  const std::vector<Experiment> experiments = paper_experiments();
  std::vector<std::string> ids;
  for (const Experiment& experiment : experiments) ids.push_back(experiment.id);
  EXPECT_EQ(ids, (std::vector<std::string>{"sec2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
                                           "A1", "A2"}));
  const PointUnion merged = merge_points(experiments);
  EXPECT_EQ(merged.references, 87u);
  EXPECT_EQ(merged.points.size(), 39u);

  // A2's budget-6x ring is Fig. 6's ring-4: 6 is the default budget.
  const Experiment& fig6 = experiments[3];
  const Experiment& a2 = experiments[8];
  ASSERT_EQ(fig6.points[1].label, "ring-4");
  ASSERT_EQ(a2.points[10].label, "ring-4-budget-6x");
  EXPECT_EQ(merged.slots[8][10], merged.slots[3][1]);
}

// --- rendering --------------------------------------------------------------

TEST(Render, Sec2ShapeTableKeepsChainFailuresInTheBase) {
  const Experiment sec2 = paper_experiments()[0];
  ASSERT_EQ(sec2.id, "sec2");
  const std::vector<Loop> loops(2);  // rendering reads only the cells
  const std::vector<LoopResult> scheduled = {cell(true, 4), cell(true, 4)};
  const std::vector<LoopResult> chain = {cell(true, 4), cell(false, 0)};
  std::vector<const std::vector<LoopResult>*> by_point(sec2.points.size(), &scheduled);
  by_point[6] = &chain;  // 12 FUs, chain copy tree
  std::ostringstream os;
  sec2.render(ExperimentCells{loops, sec2.points, by_point}, os);
  // II <= balanced, +1, +2 or more, unschedulable: half the base each way.
  EXPECT_NE(os.str().find("| chain    |    4.00 |    1.00 | 50.0%          | 0.0%  | 0.0%          "
                          "| 50.0%         |"),
            std::string::npos)
      << os.str();
}

// Every point's one cell failed, as when a loop's RecMII exceeds
// ImsOptions::max_ii: each experiment still renders its tables, with
// zeros where no loop was scheduled, and Fig. 7 still writes its JSON.
TEST(Render, EveryExperimentRendersPointsThatScheduleNothing) {
  const std::vector<Loop> loops = {kernel_by_name("daxpy")};
  const std::vector<LoopResult> failed = {cell(false, 0)};
  int rendered = 0;
  for (const Experiment& experiment : paper_experiments()) {
    const ExperimentCells cells{
        loops, experiment.points,
        std::vector<const std::vector<LoopResult>*>(experiment.points.size(), &failed)};
    std::ostringstream os;
    ASSERT_NO_THROW(experiment.render(cells, os)) << experiment.id;
    EXPECT_NE(os.str().find("+--"), std::string::npos) << experiment.id << " renders no table";
    ++rendered;
    if (experiment.id != "fig7") continue;
    std::ostringstream json;
    ASSERT_NO_THROW(write_fig7_json(json, cells));
    EXPECT_NE(json.str().find("\"scheduled\": 0, "), std::string::npos) << json.str();
    EXPECT_NE(json.str().find("\"max_positions\": 0.0}"), std::string::npos) << json.str();
  }
  EXPECT_EQ(rendered, 9);
}

// --- the union sweep --------------------------------------------------------

TEST(PaperRun, UnionCellsMatchEachExperimentsOwnSweep) {
  const Suite suite = small_suite(8);
  const ExperimentRun run = run_experiments(suite.loops, paper_experiments());
  EXPECT_EQ(run.sweep.by_point.size(), 39u);
  EXPECT_EQ(run.sweep.pipelines, 39u * suite.loops.size());
  EXPECT_GT(run.sweep.verify_checked(), 0u);
  EXPECT_EQ(run.sweep.verify_violations(), 0u);
  SweepOptions strict;
  strict.verify_mode = SweepVerifyMode::kStrict;
  for (std::size_t e = 0; e < run.experiments.size(); ++e) {
    const Experiment& experiment = run.experiments[e];
    const ExperimentCells cells = run.cells(e);
    SweepResult from_union;
    for (const std::vector<LoopResult>* results : cells.by_point) {
      from_union.by_point.push_back(*results);
    }
    const SweepResult own = SweepRunner(strict).run(suite.loops, experiment.points);
    EXPECT_EQ(sweep_result_fingerprint(from_union), sweep_result_fingerprint(own))
        << experiment.id;

    std::ostringstream os;
    experiment.render(cells, os);
    EXPECT_NE(os.str().find("+--"), std::string::npos) << experiment.id << " renders no table";
  }
}

TEST(PaperRun, Fig9FromFig8CellsEqualsASweepOfTheSubset) {
  const Suite suite = small_suite(8);
  const std::vector<Experiment> experiments = paper_experiments();
  const Experiment& fig8 = experiments[5];
  const Experiment& fig9 = experiments[6];
  ASSERT_EQ(fig9.id, "fig9");

  const ExperimentRun run = run_experiments(suite.loops, {fig8, fig9});
  EXPECT_EQ(run.merged.points.size(), fig8.points.size());
  std::ostringstream from_union;
  fig9.render(run.cells(1), from_union);

  std::vector<Loop> subset;
  for (const Loop& loop : suite.loops) {
    if (is_resource_constrained(loop)) subset.push_back(loop);
  }
  ASSERT_FALSE(subset.empty());
  ASSERT_LT(subset.size(), suite.loops.size());
  const ExperimentRun sub = run_experiments(subset, {fig9});
  std::ostringstream from_subset;
  fig9.render(sub.cells(0), from_subset);

  // The first line names the suite the subset came from; the tables match.
  EXPECT_EQ(from_union.str().rfind(cat("resource-constrained subset: ", subset.size(), " of ",
                                       suite.loops.size(), " loops\n"),
                                   0),
            0u);
  const auto table = [](const std::string& text) { return text.substr(text.find('\n')); };
  EXPECT_EQ(table(from_union.str()), table(from_subset.str()));
}

}  // namespace
}  // namespace qvliw
