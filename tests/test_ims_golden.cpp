// Golden equivalence of the allocation-free ImsSearcher (sched/ims.cpp)
// against the frozen set-based reference (tests/ims_reference.cpp), plus
// the sweep-level properties of the MII-optimality ladder short-circuit.
//
// The arena searcher must be a pure perf transform: bit-identical
// schedules and identical search effort (placements/evictions/attempts)
// on every loop x machine the project runs, including the full 1258-loop
// paper suite and all three interconnect topologies.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cluster/partition.h"
#include "harness/experiment.h"
#include "harness/shard.h"
#include "harness/sweep.h"
#include "ims_reference.h"
#include "sched/ims.h"
#include "support/blob.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "support/strings.h"
#include "sweep_reference.h"
#include "workload/kernels.h"
#include "workload/suite.h"

namespace qvliw {
namespace {

std::string schedule_bytes(const Schedule& schedule) {
  BlobWriter out;
  serialize_schedule(out, schedule);
  return out.take();
}

/// The golden contract: same accept/fail decision; on success the same
/// II, byte-identical schedule, and identical search effort.  Failure
/// *messages* are not compared (the attempt-cap diagnostic was
/// deliberately improved; the reference keeps the old wording).
void expect_golden(const ImsResult& got, const ImsResult& want, const std::string& where) {
  ASSERT_EQ(got.ok, want.ok) << where << ": " << got.failure << " / " << want.failure;
  EXPECT_EQ(got.stats.placements, want.stats.placements) << where;
  EXPECT_EQ(got.stats.evictions, want.stats.evictions) << where;
  EXPECT_EQ(got.stats.ii_attempts, want.stats.ii_attempts) << where;
  if (!got.ok) return;
  EXPECT_EQ(got.ii, want.ii) << where;
  EXPECT_EQ(got.mii.mii, want.mii.mii) << where;
  EXPECT_EQ(schedule_bytes(got.schedule), schedule_bytes(want.schedule)) << where;
  EXPECT_EQ(got.stats.mii_optimal, got.ii == got.mii.mii) << where;
}

TEST(ImsGolden, CorpusBitIdenticalToReference) {
  for (const Loop& loop : kernel_corpus()) {
    for (int fus : {3, 4, 6, 12}) {
      const MachineConfig machine = MachineConfig::single_cluster_machine(fus);
      const Ddg graph = Ddg::build(loop, machine.latency);
      expect_golden(ims_schedule(loop, graph, machine),
                    ims_schedule_reference(loop, graph, machine),
                    cat(loop.name, " on ", machine.name));
    }
  }
}

TEST(ImsGolden, RandomizedMachinesBitIdenticalToReference) {
  SynthConfig config;
  config.loops = 60;
  config.seed = 2026;
  Rng rng(0xD1CEu);
  for (const Loop& loop : synthesize_suite(config)) {
    // A fresh machine per loop: width drawn across the whole range the
    // paper studies, including odd sizes no curated test uses.
    const int fus = rng.uniform_int(3, 18);
    const MachineConfig machine = MachineConfig::single_cluster_machine(fus);
    const Ddg graph = Ddg::build(loop, machine.latency);

    // Also randomize the search knobs the ladder depends on.
    ImsOptions options;
    options.budget_ratio = rng.uniform_int(1, 8);
    expect_golden(ims_schedule(loop, graph, machine, options),
                  ims_schedule_reference(loop, graph, machine, options),
                  cat(loop.name, " on ", fus, " FUs, budget ", options.budget_ratio));
  }
}

TEST(ImsGolden, ClusteredAllTopologiesBitIdenticalToReference) {
  for (const TopologyKind kind :
       {TopologyKind::kRing, TopologyKind::kMesh, TopologyKind::kCrossbar}) {
    const MachineConfig machine = MachineConfig::topology_machine(kind, 4);
    for (const Loop& loop : kernel_corpus()) {
      const Ddg graph = Ddg::build(loop, machine.latency);
      for (const ClusterHeuristic heuristic :
           {ClusterHeuristic::kAffinity, ClusterHeuristic::kLoadBalance,
            ClusterHeuristic::kFirstFit}) {
        // Each side gets its own assigner: they are stateful observers of
        // the search and must not share placement state.
        TopologyClusterAssigner got_assigner(loop, graph, machine, heuristic);
        TopologyClusterAssigner want_assigner(loop, graph, machine, heuristic);
        expect_golden(ims_schedule(loop, graph, machine, {}, &got_assigner),
                      ims_schedule_reference(loop, graph, machine, {}, &want_assigner),
                      cat(loop.name, " on ", machine.name, " / ",
                          cluster_heuristic_name(heuristic)));
      }
    }
  }
}

TEST(ImsGolden, FullPaperSuiteBitIdenticalToReference) {
  const Suite suite = full_suite();  // the paper's 1258 loops
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  for (const Loop& loop : suite.loops) {
    const Ddg graph = Ddg::build(loop, machine.latency);
    expect_golden(ims_schedule(loop, graph, machine), ims_schedule_reference(loop, graph, machine),
                  loop.name);
  }
}

// --- sweep-level checks ----------------------------------------------------

/// The canonical ladder sweep on the paper's 4-cluster ring (perfbench's
/// ring4_ladder workload): three heuristics x ascending budgets {6, 12},
/// all sharing one unrolled front end.
std::vector<SweepPoint> ring4_ladder_points() {
  return ladder_points(MachineConfig::clustered_machine(4), "ring-4");
}

/// The Fig. 3 experiment's points (harness/experiment.h): single-cluster
/// 4/6/12 FUs, 12 FUs without copies, and 6 FUs under 4/8/16/32-queue
/// limits, where the queue-fit loop escalates the II until the allocation
/// fits.  No point unrolls.
std::vector<SweepPoint> fig3_queue_fit_points() {
  std::vector<Experiment> experiments = paper_experiments();
  check(experiments[1].id == "fig3", "paper_experiments()[1] is not Fig. 3");
  return std::move(experiments[1].points);
}

std::string fingerprint_hex(const SweepResult& sweep) {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(hash_bytes(sweep_result_fingerprint(sweep))));
  return std::string(out, 16);
}

TEST(ImsGolden, SweepFingerprintStableAcrossWorkersAndWarmth) {
  // Pinned fingerprints of two full-suite sweeps: the ring-4 perf sweep
  // (budget ladders, so the MII-optimality memo installs schedules) and
  // the Fig. 3 queue-fit sweep (II escalation until the queues fit).  Any
  // change to scheduling outcomes — including one smuggled in by a sweep
  // cache — moves these values; the worker count must not.
  const struct {
    const char* name;
    std::vector<SweepPoint> points;
    const char* pinned;
  } sweeps[] = {
      {"ring4 ladder", ring4_ladder_points(), "acac708db670f08d"},
      {"fig3 queue fit", fig3_queue_fit_points(), "c73b72a7550dcb2a"},
  };

  const Suite suite = full_suite();
  for (const auto& sweep : sweeps) {
    for (const int workers : {1, 4}) {
      SweepOptions options;
      options.workers = workers;
      EXPECT_EQ(fingerprint_hex(SweepRunner(options).run(suite.loops, sweep.points)), sweep.pinned)
          << sweep.name << " at " << workers << " workers";
    }
  }
}

TEST(ImsGolden, StrictRing4LadderPinnedAndVerifiedClean) {
  // The ring-4 ladder under strict translation validation.  verify_checked
  // is a fingerprinted field, so this pin differs from the unverified one
  // above.  Every cell must be verified clean, and the MII-optimality bit
  // must be exactly "scheduled at II == MII": it is an outcome, however
  // the schedule was obtained (search or memo install).
  const Suite suite = full_suite();
  const std::vector<SweepPoint> points = ring4_ladder_points();
  SweepOptions options;
  options.workers = 4;
  options.verify_mode = SweepVerifyMode::kStrict;
  const SweepResult sweep = SweepRunner(options).run(suite.loops, points);

  EXPECT_EQ(fingerprint_hex(sweep), "864e8bd145e6c21c");
  EXPECT_EQ(sweep.verify_checked(), sweep.pipelines);
  EXPECT_EQ(sweep.verify_violations(), 0u);

  std::uint64_t mii_optimal = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t i = 0; i < suite.loops.size(); ++i) {
      const LoopResult& r = sweep.by_point[p][i];
      EXPECT_EQ(r.sched_stats.mii_optimal, r.ok && r.ii == r.mii)
          << points[p].label << " / " << suite.loops[i].name;
      if (r.sched_stats.mii_optimal) ++mii_optimal;
    }
  }
  EXPECT_EQ(mii_optimal, 7429u);
}

TEST(ImsGolden, StrictFig3QueueFitPinnedAndVerifiedClean) {
  // The Fig. 3 queue-fit sweep under strict translation validation: every
  // scheduled cell, including each one whose II the queue-fit loop
  // escalated, has its final allocation verified clean, queue depths
  // against the FIFO replay included.
  const Suite suite = full_suite();
  const std::vector<SweepPoint> points = fig3_queue_fit_points();
  SweepOptions options;
  options.workers = 4;
  options.verify_mode = SweepVerifyMode::kStrict;
  const SweepResult sweep = SweepRunner(options).run(suite.loops, points);

  EXPECT_EQ(fingerprint_hex(sweep), "f08284e721e0667d");
  EXPECT_EQ(sweep.verify_violations(), 0u);
  std::uint64_t scheduled = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t i = 0; i < suite.loops.size(); ++i) {
      const LoopResult& r = sweep.by_point[p][i];
      if (!r.ok) continue;
      ++scheduled;
      EXPECT_TRUE(r.verify_checked) << points[p].label << " / " << suite.loops[i].name;
    }
  }
  EXPECT_GT(scheduled, 0u);
  EXPECT_EQ(sweep.verify_checked(), scheduled);
}

TEST(ImsGolden, LadderMemoFiresAndInstallsVerifiedSchedules) {
  const Suite suite = small_suite(24, 5);
  const std::vector<SweepPoint> points = ring4_ladder_points();

  SweepOptions strict;
  strict.workers = 1;
  strict.verify_mode = SweepVerifyMode::kStrict;
  const SweepResult cached = SweepRunner(strict).run(suite.loops, points);

  // Budget-12 siblings of loops their budget-6 point proved MII-optimal
  // must have installed the memoized schedule instead of re-searching.
  EXPECT_GT(cached.cache.sched_memo_probes, 0u);
  EXPECT_GT(cached.cache.sched_memo_hits, 0u);

  // Every cell — including each memo-installed one — re-verified clean
  // under strict translation validation.
  EXPECT_GT(cached.verify_checked(), 0u);
  EXPECT_EQ(cached.verify_violations(), 0u);

  // And installs are outcome-invisible: same fingerprint as one strict
  // run_pipeline call per cell, which memoizes nothing, and every
  // installed cell carries the MII-optimality bit its skipped search sets.
  const SweepResult reference =
      run_pipeline_sweep(suite.loops, points, SweepVerifyMode::kStrict);
  EXPECT_EQ(fingerprint_hex(cached), fingerprint_hex(reference));
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t i = 0; i < suite.loops.size(); ++i) {
      const LoopResult& got = cached.by_point[p][i];
      if (!got.warm_started) continue;
      EXPECT_EQ(got.sched_stats.mii_optimal, reference.by_point[p][i].sched_stats.mii_optimal)
          << points[p].label << " / " << suite.loops[i].name;
    }
  }
}

TEST(ImsGolden, LadderMemoNeverFiresAboveMii) {
  // Force every accept above MII: start the II ladder past any MII in
  // this tiny suite.  mii_optimal is then false everywhere, nothing is
  // published, and every probe must miss — the short-circuit fires *only*
  // for proven-optimal schedules.
  const Suite suite = small_suite(8, 5);
  std::vector<SweepPoint> points = ring4_ladder_points();
  for (SweepPoint& point : points) point.options.ims.start_ii = 40;

  SweepOptions options;
  options.workers = 1;
  const SweepResult sweep = SweepRunner(options).run(suite.loops, points);
  EXPECT_GT(sweep.cache.sched_memo_probes, 0u);
  EXPECT_EQ(sweep.cache.sched_memo_hits, 0u);
}

}  // namespace
}  // namespace qvliw
