// Property tests: IMS over a seeded sweep of synthetic loops x machines.
//
// Invariants checked for every (loop, machine) pair:
//   * scheduling succeeds within the II ladder,
//   * II >= MII = max(ResMII, RecMII),
//   * every dependence edge satisfies sigma(dst) >= sigma(src)+lat-II*dist,
//   * no FU modulo slot is double-booked,
//   * the schedule is complete and stage count is positive.
//
// Plus the soundness of ImsResult::ii_invariant, on which queue-fit
// escalation counts retries instead of rescheduling them.
#include <gtest/gtest.h>

#include <string>

#include "cluster/partition.h"
#include "cluster/route.h"
#include "qrf/queue_alloc.h"
#include "sched/ims.h"
#include "sched/schedule.h"
#include "support/blob.h"
#include "support/strings.h"
#include "workload/suite.h"
#include "workload/synth.h"
#include "xform/copy_insert.h"

namespace qvliw {
namespace {

struct Case {
  int fus;
  std::uint64_t seed;
  bool with_copies;
};

class ImsProperty : public ::testing::TestWithParam<Case> {};

TEST_P(ImsProperty, ScheduleInvariantsHold) {
  const Case param = GetParam();
  SynthConfig config;
  config.loops = 25;
  config.seed = param.seed;
  const MachineConfig machine = MachineConfig::single_cluster_machine(param.fus);

  for (Loop loop : synthesize_suite(config)) {
    if (param.with_copies) loop = insert_copies(loop).loop;
    const Ddg graph = Ddg::build(loop, machine.latency);
    const ImsResult r = ims_schedule(loop, graph, machine);
    ASSERT_TRUE(r.ok) << loop.name << ": " << r.failure;
    ASSERT_TRUE(r.schedule.complete()) << loop.name;
    EXPECT_GE(r.ii, r.mii.mii) << loop.name;
    EXPECT_GE(r.schedule.stage_count(), 1) << loop.name;

    const auto errors = verify_schedule(loop, graph, machine, r.schedule);
    EXPECT_TRUE(errors.empty()) << loop.name << ": " << (errors.empty() ? "" : errors[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededSweep, ImsProperty,
    ::testing::Values(Case{3, 11, false}, Case{3, 11, true}, Case{4, 22, false},
                      Case{4, 22, true}, Case{6, 33, false}, Case{6, 33, true},
                      Case{9, 44, true}, Case{12, 55, false}, Case{12, 55, true},
                      Case{15, 66, true}, Case{18, 77, false}, Case{18, 77, true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "fus" + std::to_string(info.param.fus) + "_seed" +
             std::to_string(info.param.seed) + (info.param.with_copies ? "_copies" : "_plain");
    });

std::string schedule_bytes(const Schedule& schedule) {
  BlobWriter out;
  serialize_schedule(out, schedule);
  return out.take();
}

/// Every field of two IMS results.
void expect_same_result(const ImsResult& got, const ImsResult& want, const std::string& where) {
  ASSERT_EQ(got.ok, want.ok) << where << ": " << got.failure;
  EXPECT_EQ(got.ii, want.ii) << where;
  EXPECT_EQ(schedule_bytes(got.schedule), schedule_bytes(want.schedule)) << where;
  EXPECT_EQ(got.mii.mii, want.mii.mii) << where;
  EXPECT_EQ(got.stats.placements, want.stats.placements) << where;
  EXPECT_EQ(got.stats.evictions, want.stats.evictions) << where;
  EXPECT_EQ(got.stats.ii_attempts, want.stats.ii_attempts) << where;
  EXPECT_EQ(got.stats.forced, want.stats.forced) << where;
  EXPECT_EQ(got.stats.budget_spent, want.stats.budget_spent) << where;
  EXPECT_EQ(got.stats.mii_optimal, want.stats.mii_optimal) << where;
  EXPECT_EQ(got.failure, want.failure) << where;
  EXPECT_EQ(got.warm_started, want.warm_started) << where;
  EXPECT_EQ(got.ii_invariant, want.ii_invariant) << where;
}

std::vector<int> max_occupancies(const QueueAllocation& allocation) {
  std::vector<int> out;
  for (const AllocatedQueue& queue : allocation.queues) out.push_back(queue.max_occupancy);
  return out;
}

TEST(ImsIiInvariant, LargerIisRepeatThePlacementsAndTheQueues) {
  // Every start II from MII to MII + 24, so that the flag is probed on
  // schedules accepted well above MII as well as at it.  The 4-queue file
  // is Fig. 3's tightest; IMS and the allocator ignore it, and it gives
  // capacity_violations something to report.
  SynthConfig config;
  config.loops = 120;
  const Suite suite = full_suite(config);
  int flagged = 0;
  for (const int fus : {4, 6, 12}) {
    const MachineConfig machine = MachineConfig::single_cluster_machine(fus, 4);
    for (const Loop& source : suite.loops) {
      const Loop loop = insert_copies(source).loop;
      const Ddg graph = Ddg::build(loop, machine.latency);
      const int mii = compute_mii(loop, graph, machine).mii;
      for (int start = mii; start <= mii + 24; ++start) {
        ImsOptions options;
        options.start_ii = start;
        const ImsResult accepted = ims_schedule(loop, graph, machine, options);
        if (!accepted.ok || !accepted.ii_invariant) continue;
        ++flagged;
        const QueueAllocation allocation =
            allocate_queues(loop, graph, machine, accepted.schedule);
        for (const int k : {1, 2, 7, 16}) {
          const std::string where =
              cat(loop.name, " at ", fus, " FUs from II ", start, ", raised by ", k);
          options.start_ii = accepted.ii + k;
          const ImsResult raised = ims_schedule(loop, graph, machine, options);
          ASSERT_TRUE(raised.ok) << where << ": " << raised.failure;
          ASSERT_EQ(raised.ii, accepted.ii + k) << where;
          for (int op = 0; op < loop.op_count(); ++op) {
            EXPECT_EQ(raised.schedule.place(op), accepted.schedule.place(op)) << where;
          }
          expect_same_result(raised, reschedule_invariant(accepted, raised.ii), where);

          const QueueAllocation reallocated =
              allocate_queues(loop, graph, machine, raised.schedule);
          EXPECT_EQ(reallocated.queue_of, allocation.queue_of) << where;
          EXPECT_EQ(max_occupancies(reallocated), max_occupancies(allocation)) << where;
          EXPECT_EQ(reallocated.capacity_violations(machine),
                    allocation.capacity_violations(machine))
              << where;
        }
      }
    }
  }
  EXPECT_GT(flagged, 0);
}

TEST(ImsIiInvariant, PartitionedAndWarmStartedSchedulesNeverSetIt) {
  const Suite suite = small_suite(24, 5);
  const MachineConfig ring = MachineConfig::clustered_machine(4);
  const MachineConfig single = MachineConfig::single_cluster_machine(6);
  int cold_flagged = 0;
  for (const Loop& source : suite.loops) {
    const Loop loop = insert_copies(source).loop;
    const Ddg ring_graph = Ddg::build(loop, ring.latency);
    for (const ClusterHeuristic heuristic :
         {ClusterHeuristic::kAffinity, ClusterHeuristic::kLoadBalance,
          ClusterHeuristic::kFirstFit}) {
      PartitionOptions options;
      options.heuristic = heuristic;
      EXPECT_FALSE(partition_schedule(loop, ring_graph, ring, options).ii_invariant) << loop.name;
    }
    EXPECT_FALSE(partition_with_moves(loop, ring).ims.ii_invariant) << loop.name;

    // A warm install is not a search, even of a schedule whose search
    // sets the flag (a search from II 64 lands every op of these loops
    // in the first period).  A seed above the accepted II would be
    // installed by a call starting at the seed's II, so it clears the
    // flag too.
    const Ddg graph = Ddg::build(loop, single.latency);
    ImsOptions from64;
    from64.start_ii = 64;
    const ImsResult cold = ims_schedule(loop, graph, single, from64);
    ASSERT_TRUE(cold.ok) << loop.name << ": " << cold.failure;
    const WarmStartSeed seed{cold.schedule, cold.ii};
    const ImsResult warm = ims_schedule(loop, graph, single, from64, nullptr, &seed);
    ASSERT_TRUE(warm.warm_started) << loop.name;
    EXPECT_FALSE(warm.ii_invariant) << loop.name;
    if (!cold.ii_invariant) continue;
    ++cold_flagged;
    const ImsResult above = reschedule_invariant(cold, cold.ii + 1);
    const WarmStartSeed higher{above.schedule, above.ii};
    EXPECT_FALSE(ims_schedule(loop, graph, single, from64, nullptr, &higher).ii_invariant)
        << loop.name;
  }
  EXPECT_GT(cold_flagged, 0);
}

}  // namespace
}  // namespace qvliw
