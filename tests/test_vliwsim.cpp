// End-to-end oracle tests: every kernel, scheduled and queue-allocated on
// several machines, must execute on the cycle-accurate QRF simulator with
// perfect FIFO discipline and reproduce the reference interpreter's memory
// bit for bit.
#include <gtest/gtest.h>

#include <algorithm>

#include "ir/parser.h"
#include "qrf/queue_alloc.h"
#include "sched/ims.h"
#include "sim/vliwsim.h"
#include "workload/kernels.h"
#include "xform/copy_insert.h"

namespace qvliw {
namespace {

struct Prepared {
  Loop loop;
  Ddg graph{0};
  MachineConfig machine;
  ImsResult sched;
  QueueAllocation allocation;
};

Prepared prepare(const Loop& source, int fus) {
  Prepared p;
  p.loop = insert_copies(source).loop;
  p.machine = MachineConfig::single_cluster_machine(fus);
  p.graph = Ddg::build(p.loop, p.machine.latency);
  p.sched = ims_schedule(p.loop, p.graph, p.machine);
  EXPECT_TRUE(p.sched.ok) << source.name << ": " << p.sched.failure;
  p.allocation = allocate_queues(p.loop, p.graph, p.machine, p.sched.schedule);
  return p;
}

TEST(VliwSim, DaxpyMatchesReference) {
  const Prepared p = prepare(kernel_by_name("daxpy"), 6);
  const CheckedSim r = simulate_and_check(p.loop, p.graph, p.machine, p.sched.schedule,
                                          p.allocation, 50);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_GT(r.sim.pops, 0);
  EXPECT_GT(r.sim.pushes, 0);
}

TEST(VliwSim, CyclesMatchAnalyticModel) {
  const Prepared p = prepare(kernel_by_name("fir4"), 6);
  const SimResult r =
      simulate(p.loop, p.graph, p.machine, p.sched.schedule, p.allocation, 40);
  ASSERT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.cycles, p.sched.schedule.total_cycles(p.loop, p.machine.latency, 40));
}

TEST(VliwSim, IssueCountsAreExact) {
  const Prepared p = prepare(kernel_by_name("dot"), 6);
  const long long trip = 30;
  const SimResult r = simulate(p.loop, p.graph, p.machine, p.sched.schedule, p.allocation, trip);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.issues, static_cast<long long>(p.loop.op_count()) * trip);
  EXPECT_EQ(r.useful_issues, static_cast<long long>(useful_op_count(p.loop)) * trip);
  EXPECT_GT(r.dynamic_ipc, 0.0);
}

TEST(VliwSim, ObservedOccupancyWithinAllocatorPrediction) {
  for (const char* name : {"fir8", "cmul_acc", "rec2", "stencil3_reuse"}) {
    const Prepared p = prepare(kernel_by_name(name), 6);
    const SimResult r =
        simulate(p.loop, p.graph, p.machine, p.sched.schedule, p.allocation, 60);
    ASSERT_TRUE(r.ok) << name << ": " << r.failure;
    int predicted = 0;
    for (const AllocatedQueue& q : p.allocation.queues) {
      predicted = std::max(predicted, q.max_occupancy);
    }
    EXPECT_LE(r.max_queue_occupancy, predicted) << name;
    EXPECT_GE(r.max_queue_occupancy, 1) << name;
  }
}

TEST(VliwSim, WholeCorpusOnThreeMachines) {
  for (const Loop& source : kernel_corpus()) {
    for (int fus : {3, 6, 12}) {
      const Prepared p = prepare(source, fus);
      const CheckedSim r = simulate_and_check(p.loop, p.graph, p.machine, p.sched.schedule,
                                              p.allocation, 24);
      EXPECT_TRUE(r.ok) << source.name << " on " << fus << " FUs: " << r.failure;
    }
  }
}

TEST(VliwSim, ShortTripsExerciseLiveIns) {
  // trip 1 and trip 2 stress the live-in injection paths of deep
  // recurrences (fir8 reads x@7 at iteration 0).
  for (long long trip : {1, 2, 3}) {
    const Prepared p = prepare(kernel_by_name("fir8"), 6);
    const CheckedSim r = simulate_and_check(p.loop, p.graph, p.machine, p.sched.schedule,
                                            p.allocation, trip);
    EXPECT_TRUE(r.ok) << "trip " << trip << ": " << r.failure;
  }
}

TEST(VliwSim, DepthEnforcementTriggers) {
  Prepared p = prepare(kernel_by_name("fir8"), 3);
  // Clamp depth below what the allocation needs and demand enforcement.
  MachineConfig strict = p.machine;
  strict.clusters[0].queue_depth = 1;
  SimOptions options;
  options.enforce_depth = true;
  const SimResult r =
      simulate(p.loop, p.graph, strict, p.sched.schedule, p.allocation, 40, options);
  // fir8's delay line needs >1 position; must be caught.
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("depth"), std::string::npos);
}

TEST(VliwSim, ZeroLatencyResultsLandInTheirIssueCycle) {
  // With every latency 0 a value is popped in the cycle it is pushed, and
  // a queue's pop early in a cycle still holds its entry while a later
  // latency-0 push of that cycle lands: the simulator's deepest queue must
  // be the allocator's.
  MachineConfig machine = MachineConfig::single_cluster_machine(6);
  machine.latency.latency.fill(0);
  for (const Loop& source : kernel_corpus()) {
    const Loop loop = insert_copies(source).loop;
    const Ddg graph = Ddg::build(loop, machine.latency);
    const ImsResult sched = ims_schedule(loop, graph, machine);
    ASSERT_TRUE(sched.ok) << source.name << ": " << sched.failure;
    const QueueAllocation allocation = allocate_queues(loop, graph, machine, sched.schedule);
    const CheckedSim r = simulate_and_check(loop, graph, machine, sched.schedule, allocation, 40);
    ASSERT_TRUE(r.ok) << source.name << ": " << r.failure;
    int deepest = 0;
    for (const AllocatedQueue& queue : allocation.queues) {
      deepest = std::max(deepest, queue.max_occupancy);
    }
    EXPECT_EQ(r.sim.max_queue_occupancy, deepest) << source.name;
  }
}

TEST(VliwSim, WrongQueueAssignmentIsCaught) {
  // Sabotage: merge two incompatible lifetimes into one queue and verify
  // the simulator detects the FIFO/port violation.
  Prepared p = prepare(kernel_by_name("vadd"), 6);
  ASSERT_GE(p.allocation.queues.size(), 2u);
  // Move every lifetime into queue 0.
  QueueAllocation sabotaged = p.allocation;
  for (int& q : sabotaged.queue_of) q = 0;
  const SimResult r =
      simulate(p.loop, p.graph, p.machine, p.sched.schedule, sabotaged, 20);
  EXPECT_FALSE(r.ok);
}

TEST(VliwSim, TamperedScheduleFailsChecks) {
  // A schedule edited to violate a dependence must be caught by the
  // validators (the simulator itself assumes a validated schedule).
  Prepared p = prepare(kernel_by_name("vscale"), 6);
  Schedule bad = p.sched.schedule;
  // Find the fmul and drag it to cycle 0 (before its load's latency).
  for (int op = 0; op < p.loop.op_count(); ++op) {
    if (p.loop.ops[static_cast<std::size_t>(op)].opcode == Opcode::kFMul) {
      Placement placement = bad.place(op);
      placement.cycle = 0;
      bad.set(op, placement);
    }
  }
  EXPECT_FALSE(verify_schedule(p.loop, p.graph, p.machine, bad).empty());
}

}  // namespace
}  // namespace qvliw
