// Golden equivalence of the allocation-free ImsSearcher (sched/ims.cpp)
// against the frozen set-based reference (sched/ims_reference.cpp), plus
// the sweep-level properties of the MII-optimality ladder short-circuit.
//
// The arena searcher must be a pure perf transform: bit-identical
// schedules and identical search effort (placements/evictions/attempts)
// on every loop x machine the project runs, including the full 1258-loop
// paper suite and all three interconnect topologies.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cluster/partition.h"
#include "harness/shard.h"
#include "harness/sweep.h"
#include "sched/ims.h"
#include "sched/ims_reference.h"
#include "support/blob.h"
#include "support/rng.h"
#include "support/strings.h"
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

/// The canonical perf sweep (bench_common.h's perf_sweep_points on the
/// paper's 4-cluster ring): three heuristics x ascending budgets {6, 12},
/// all sharing one unrolled front end.
std::vector<SweepPoint> ring4_ladder_points() {
  PipelineOptions base;
  base.unroll = true;
  base.max_unroll = 8;
  base.scheduler = SchedulerKind::kClustered;

  std::vector<SweepPoint> points;
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  for (const ClusterHeuristic heuristic :
       {ClusterHeuristic::kAffinity, ClusterHeuristic::kLoadBalance,
        ClusterHeuristic::kFirstFit}) {
    for (const int budget : {6, 12}) {
      PipelineOptions options = base;
      options.heuristic = heuristic;
      options.ims.budget_ratio = budget;
      points.push_back({cat("ring-4-", cluster_heuristic_name(heuristic), "-", budget, "x"),
                        machine, options});
    }
  }
  return points;
}

std::string fingerprint_hex(const SweepResult& sweep) {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(hash_bytes(sweep_result_fingerprint(sweep))));
  return std::string(out, 16);
}

TEST(ImsGolden, SweepFingerprintStableAcrossWorkersAndWarmth) {
  // The pinned fingerprint of the full ring-4 perf sweep.  Any change to
  // scheduling outcomes — including one smuggled in by the ladder memo —
  // moves this value; the worker count must not.
  constexpr const char* kPinned = "acac708db670f08d";

  const Suite suite = full_suite();
  const std::vector<SweepPoint> points = ring4_ladder_points();

  SweepOptions w1;
  w1.workers = 1;
  EXPECT_EQ(fingerprint_hex(SweepRunner(w1).run(suite.loops, points)), kPinned);

  SweepOptions w4 = w1;
  w4.workers = 4;
  EXPECT_EQ(fingerprint_hex(SweepRunner(w4).run(suite.loops, points)), kPinned);
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

  // And installs are outcome-invisible: same fingerprint as a sweep that
  // cannot memoize anything (caching off disables the per-task memo).
  // Compared with verification off on both sides — verify_checked is
  // itself a fingerprinted field.
  SweepOptions plain = strict;
  plain.verify_mode = SweepVerifyMode::kOff;
  SweepOptions uncached = plain;
  uncached.use_cache = false;
  EXPECT_EQ(fingerprint_hex(SweepRunner(plain).run(suite.loops, points)),
            fingerprint_hex(SweepRunner(uncached).run(suite.loops, points)));
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
