#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/partition.h"
#include "ir/parser.h"
#include "occupancy_reference.h"
#include "qrf/qcompat.h"
#include "qrf/queue_alloc.h"
#include "qrf/rf_alloc.h"
#include "sched/ims.h"
#include "workload/kernels.h"
#include "workload/suite.h"
#include "workload/synth.h"
#include "xform/copy_insert.h"

namespace qvliw {
namespace {

QueueAllocation allocate_kernel(const char* name, int fus, ImsResult* out_sched = nullptr,
                                Loop* out_loop = nullptr) {
  const Loop loop = insert_copies(kernel_by_name(name)).loop;
  const MachineConfig machine = MachineConfig::single_cluster_machine(fus);
  const Ddg graph = Ddg::build(loop, machine.latency);
  const ImsResult r = ims_schedule(loop, graph, machine);
  EXPECT_TRUE(r.ok) << r.failure;
  if (out_sched != nullptr) *out_sched = r;
  if (out_loop != nullptr) *out_loop = loop;
  return allocate_queues(loop, graph, machine, r.schedule);
}

/// Invariant: all queue members pairwise compatible, in push order.
void expect_valid_allocation(const QueueAllocation& allocation) {
  for (const AllocatedQueue& queue : allocation.queues) {
    for (std::size_t a = 0; a < queue.members.size(); ++a) {
      const Lifetime& la = allocation.lifetimes[static_cast<std::size_t>(queue.members[a])];
      EXPECT_EQ(la.domain, queue.domain);
      for (std::size_t b = a + 1; b < queue.members.size(); ++b) {
        const Lifetime& lb = allocation.lifetimes[static_cast<std::size_t>(queue.members[b])];
        EXPECT_TRUE(q_compatible(la, lb, allocation.ii))
            << "queue with incompatible members " << queue.members[a] << "," << queue.members[b];
      }
    }
  }
  // Every lifetime assigned exactly once.
  std::vector<int> seen(allocation.lifetimes.size(), 0);
  for (const AllocatedQueue& queue : allocation.queues) {
    for (int member : queue.members) ++seen[static_cast<std::size_t>(member)];
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "lifetime " << i;
    EXPECT_GE(allocation.queue_of[i], 0);
  }
}

TEST(QueueAlloc, DaxpyAllocatesValidly) {
  const QueueAllocation a = allocate_kernel("daxpy", 3);
  expect_valid_allocation(a);
  EXPECT_GT(a.total_queues(), 0);
  EXPECT_GT(a.max_positions(), 0);
}

TEST(QueueAlloc, AllKernelsValidOnSeveralMachines) {
  for (const Loop& source : kernel_corpus()) {
    for (int fus : {3, 6, 12}) {
      const Loop loop = insert_copies(source).loop;
      const MachineConfig machine = MachineConfig::single_cluster_machine(fus);
      const Ddg graph = Ddg::build(loop, machine.latency);
      const ImsResult r = ims_schedule(loop, graph, machine);
      ASSERT_TRUE(r.ok) << source.name;
      const QueueAllocation a = allocate_queues(loop, graph, machine, r.schedule);
      expect_valid_allocation(a);
    }
  }
}

TEST(QueueAlloc, SyntheticSweepValid) {
  SynthConfig config;
  config.loops = 30;
  config.seed = 99;
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  for (const Loop& source : synthesize_suite(config)) {
    const Loop loop = insert_copies(source).loop;
    const Ddg graph = Ddg::build(loop, machine.latency);
    const ImsResult r = ims_schedule(loop, graph, machine);
    ASSERT_TRUE(r.ok) << source.name;
    const QueueAllocation a = allocate_queues(loop, graph, machine, r.schedule);
    expect_valid_allocation(a);
  }
}

TEST(QueueAlloc, SingleClusterHasOnlyPrivateQueues) {
  const QueueAllocation a = allocate_kernel("fir4", 6);
  for (const AllocatedQueue& q : a.queues) {
    EXPECT_EQ(q.domain.kind, QueueDomain::Kind::kPrivate);
    EXPECT_EQ(q.domain.index, 0);
  }
  EXPECT_EQ(a.max_private_queues(), a.total_queues());
  EXPECT_EQ(a.max_segment_queues(), 0);
}

TEST(QueueAlloc, OccupancyPositiveAndBounded) {
  ImsResult sched;
  Loop loop;
  const QueueAllocation a = allocate_kernel("fir8", 6, &sched, &loop);
  for (const AllocatedQueue& q : a.queues) {
    EXPECT_GE(q.max_occupancy, 1);
    // A queue's occupancy is at most the sum of member instance maxima.
    int bound = 0;
    for (int member : q.members) {
      const Lifetime& lt = a.lifetimes[static_cast<std::size_t>(member)];
      const PhaseSpan span = phase_span(lt.push, lt.pop, a.ii);
      bound += peak_live({&span, 1}, a.ii);
    }
    EXPECT_LE(q.max_occupancy, bound);
  }
}

// peak_live against the per-phase scan it replaced
// (tests/occupancy_reference.h), on every loop of the paper suite: each
// queue's depth over its members, and MaxLive over the register
// lifetimes, on one cluster of 6 FUs (IMS) and on the 4-cluster ring
// (partitioned schedule, so segment queues too).
TEST(QueueAlloc, DepthAndMaxLiveMatchPhaseScanOnFullSuite) {
  const Suite suite = full_suite();
  int checked = 0;
  for (const bool clustered : {false, true}) {
    const MachineConfig machine = clustered ? MachineConfig::clustered_machine(4)
                                            : MachineConfig::single_cluster_machine(6);
    for (const Loop& source : suite.loops) {
      const Loop loop = insert_copies(source).loop;
      const Ddg graph = Ddg::build(loop, machine.latency);
      const ImsResult r = clustered ? partition_schedule(loop, graph, machine)
                                    : ims_schedule(loop, graph, machine);
      if (!r.ok) continue;
      const QueueAllocation a = allocate_queues(loop, graph, machine, r.schedule);
      for (const AllocatedQueue& q : a.queues) {
        ASSERT_EQ(q.max_occupancy, reference_queue_occupancy(a.lifetimes, q.members, a.ii))
            << machine.name << " / " << source.name;
      }
      ASSERT_EQ(register_requirement(loop, graph, machine.latency, r.schedule),
                reference_register_requirement(
                    rf_lifetimes(loop, graph, machine.latency, r.schedule), r.ii))
          << machine.name << " / " << source.name;
      ++checked;
    }
  }
  EXPECT_GT(checked, static_cast<int>(suite.loops.size()));
}

TEST(QueueAlloc, CapacityViolationsDetected) {
  ImsResult sched;
  Loop loop;
  QueueAllocation a = allocate_kernel("fir8", 3, &sched, &loop);
  MachineConfig tiny = MachineConfig::single_cluster_machine(3);
  tiny.clusters[0].private_queues = 1;  // absurdly small
  const auto violations = a.capacity_violations(tiny);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("queues"), std::string::npos);
}

TEST(QueueAlloc, DepthViolationDetected) {
  ImsResult sched;
  Loop loop;
  QueueAllocation a = allocate_kernel("fir8", 3, &sched, &loop);
  MachineConfig shallow = MachineConfig::single_cluster_machine(3);
  shallow.clusters[0].queue_depth = 1;
  bool depth_mentioned = false;
  for (const auto& v : a.capacity_violations(shallow)) {
    if (v.find("depth") != std::string::npos) depth_mentioned = true;
  }
  EXPECT_TRUE(depth_mentioned);
}

TEST(QueueAlloc, GenerousMachineFits) {
  QueueAllocation a = allocate_kernel("daxpy", 6);
  MachineConfig machine = MachineConfig::single_cluster_machine(6, 32);
  machine.clusters[0].queue_depth = 64;
  EXPECT_TRUE(a.capacity_violations(machine).empty());
}

// fits() and capacity_violations() share one counting rule; pin that they
// agree on the 120-loop suite's allocations on one cluster and on ring-4
// and ring-6, each against machines with fewer and shallower queues.
TEST(QueueAlloc, FitsAgreesWithCapacityViolations) {
  SynthConfig config;
  config.loops = 120;
  const Suite suite = full_suite(config);

  const auto reduced = [](MachineConfig machine, int queues, int depth) {
    for (ClusterConfig& cluster : machine.clusters) {
      cluster.private_queues = std::min(cluster.private_queues, queues);
      cluster.queue_depth = std::min(cluster.queue_depth, depth);
    }
    machine.segment.queues_per_segment = std::min(machine.segment.queues_per_segment, queues);
    machine.segment.queue_depth = std::min(machine.segment.queue_depth, depth);
    return machine;
  };
  int fits = 0;
  int misfits = 0;
  for (const int clusters : {1, 4, 6}) {
    const MachineConfig machine = clusters == 1 ? MachineConfig::single_cluster_machine(6, 32)
                                                : MachineConfig::clustered_machine(clusters);
    std::vector<MachineConfig> limits;
    if (clusters == 1) {
      for (const int queues : {4, 8, 32}) {
        limits.push_back(MachineConfig::single_cluster_machine(6, queues));
        limits.push_back(reduced(MachineConfig::single_cluster_machine(6, queues), queues, 2));
      }
    } else {
      for (const int queues : {1, 2, 4, 8}) {
        for (const int depth : {1, 2, 16}) limits.push_back(reduced(machine, queues, depth));
      }
    }
    for (const Loop& source : suite.loops) {
      const Loop loop = insert_copies(source).loop;
      const Ddg graph = Ddg::build(loop, machine.latency);
      const ImsResult r = clusters == 1 ? ims_schedule(loop, graph, machine)
                                        : partition_schedule(loop, graph, machine);
      if (!r.ok) continue;
      const QueueAllocation a = allocate_queues(loop, graph, machine, r.schedule);
      for (const MachineConfig& limit : limits) {
        const bool fit = a.fits(limit);
        EXPECT_EQ(fit, a.capacity_violations(limit).empty())
            << source.name << " on " << machine.name << ", limits "
            << limit.clusters[0].private_queues << "/" << limit.clusters[0].queue_depth;
        (fit ? fits : misfits) += 1;
      }
    }
  }
  EXPECT_GT(fits, 1000);
  EXPECT_GT(misfits, 1000);
}

TEST(QueueAlloc, ClusteredDomainsSeparated) {
  // Partitioned schedule on a 4-cluster ring: lifetimes must land in
  // private or adjacent-segment domains only, and stay pairwise compatible
  // per domain.
  const Loop loop = insert_copies(kernel_by_name("fir4")).loop;
  const MachineConfig machine = MachineConfig::clustered_machine(4);
  const Ddg graph = Ddg::build(loop, machine.latency);
  const ImsResult r = partition_schedule(loop, graph, machine);
  ASSERT_TRUE(r.ok) << r.failure;
  const QueueAllocation a = allocate_queues(loop, graph, machine, r.schedule);
  expect_valid_allocation(a);
  EXPECT_EQ(a.total_queues(),
            [&] {
              int total = 0;
              for (const AllocatedQueue& q : a.queues) {
                (void)q;
                ++total;
              }
              return total;
            }());
}

TEST(QueueAlloc, DomainQueueCount) {
  const QueueAllocation a = allocate_kernel("vadd", 6);
  const QueueDomain d{QueueDomain::Kind::kPrivate, 0};
  EXPECT_EQ(a.domain_queue_count(d), a.total_queues());
  EXPECT_EQ(a.domain_queue_count({QueueDomain::Kind::kSegment, 0}), 0);
}

}  // namespace
}  // namespace qvliw
