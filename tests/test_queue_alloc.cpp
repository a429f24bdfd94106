#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/partition.h"
#include "ir/parser.h"
#include "occupancy_reference.h"
#include "qrf/qcompat.h"
#include "qrf/queue_alloc.h"
#include "qrf/rf_alloc.h"
#include "sched/ims.h"
#include "support/blob.h"
#include "support/rng.h"
#include "support/strings.h"
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

/// Each queue's members, read from queue_of (ascending lifetime index).
std::vector<std::vector<int>> queue_members(const QueueAllocation& allocation) {
  std::vector<std::vector<int>> members(allocation.queues.size());
  for (std::size_t l = 0; l < allocation.queue_of.size(); ++l) {
    members[static_cast<std::size_t>(allocation.queue_of[l])].push_back(static_cast<int>(l));
  }
  return members;
}

/// Invariant: every lifetime in one queue of its domain, and all members
/// of a queue pairwise compatible.
void expect_valid_allocation(const QueueAllocation& allocation) {
  ASSERT_EQ(allocation.queue_of.size(), allocation.lifetimes.size());
  for (std::size_t l = 0; l < allocation.queue_of.size(); ++l) {
    ASSERT_GE(allocation.queue_of[l], 0) << "lifetime " << l;
    ASSERT_LT(allocation.queue_of[l], allocation.total_queues()) << "lifetime " << l;
  }
  const std::vector<std::vector<int>> members = queue_members(allocation);
  for (std::size_t q = 0; q < members.size(); ++q) {
    const std::vector<int>& queue = members[q];
    EXPECT_FALSE(queue.empty()) << "queue " << q << " holds no lifetime";
    for (std::size_t a = 0; a < queue.size(); ++a) {
      const Lifetime& la = allocation.lifetimes[static_cast<std::size_t>(queue[a])];
      EXPECT_EQ(la.domain, allocation.queues[q].domain);
      for (std::size_t b = a + 1; b < queue.size(); ++b) {
        const Lifetime& lb = allocation.lifetimes[static_cast<std::size_t>(queue[b])];
        EXPECT_TRUE(q_compatible(la, lb, allocation.ii))
            << "queue with incompatible members " << queue[a] << "," << queue[b];
      }
    }
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
  const std::vector<std::vector<int>> members = queue_members(a);
  std::vector<int> opens;
  for (std::size_t q = 0; q < a.queues.size(); ++q) {
    EXPECT_GE(a.queues[q].max_occupancy, 1);
    // A queue's occupancy is at most the sum of member instance maxima.
    int bound = 0;
    for (int member : members[q]) {
      const Lifetime& lt = a.lifetimes[static_cast<std::size_t>(member)];
      const PhaseSpan span = phase_span(lt.push, lt.pop, a.ii);
      bound += peak_live({&span, 1}, a.ii, opens);
    }
    EXPECT_LE(a.queues[q].max_occupancy, bound);
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
      const std::vector<std::vector<int>> members = queue_members(a);
      for (std::size_t q = 0; q < a.queues.size(); ++q) {
        ASSERT_EQ(a.queues[q].max_occupancy,
                  reference_queue_occupancy(a.lifetimes, members[q], a.ii))
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

void expect_same_allocation(const QueueAllocation& got, const QueueAllocation& want,
                            const std::string& where) {
  EXPECT_EQ(got.ii, want.ii) << where;
  ASSERT_EQ(got.lifetimes.size(), want.lifetimes.size()) << where;
  for (std::size_t l = 0; l < want.lifetimes.size(); ++l) {
    const Lifetime& g = got.lifetimes[l];
    const Lifetime& w = want.lifetimes[l];
    EXPECT_EQ(std::tie(g.edge, g.producer, g.consumer, g.push, g.pop, g.domain),
              std::tie(w.edge, w.producer, w.consumer, w.push, w.pop, w.domain))
        << where << ", lifetime " << l;
  }
  EXPECT_EQ(got.queue_of, want.queue_of) << where;
  ASSERT_EQ(got.queues.size(), want.queues.size()) << where;
  for (std::size_t q = 0; q < want.queues.size(); ++q) {
    const AllocatedQueue& g = got.queues[q];
    const AllocatedQueue& w = want.queues[q];
    EXPECT_EQ(std::tie(g.domain, g.index_in_domain, g.max_occupancy),
              std::tie(w.domain, w.index_in_domain, w.max_occupancy))
        << where << ", queue " << q;
  }
}

// fits() and capacity_violations() share one counting rule, and
// allocate_fitting_queues shares first fit with allocate_queues; pin that
// they agree on the 120-loop suite's allocations on one cluster and on
// ring-4 and ring-6, each against machines with fewer and shallower
// queues (depths 1 and 2 make stops that only the depth test decides).
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
  int depth_only_misfits = 0;  // first fit completes, the depth test decides
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
        const std::string where = cat(source.name, " on ", machine.name, ", limits ",
                                      limit.clusters[0].private_queues, "/",
                                      limit.clusters[0].queue_depth);
        EXPECT_EQ(fit, a.capacity_violations(limit).empty()) << where;
        // The early stop returns an allocation exactly when the full one
        // fits, and then the same one.
        const std::optional<QueueAllocation> fitting =
            allocate_fitting_queues(loop, graph, limit, r.schedule);
        ASSERT_EQ(fitting.has_value(), fit) << where;
        if (fitting.has_value()) expect_same_allocation(*fitting, a, where);
        (fit ? fits : misfits) += 1;
        const std::vector<std::string> violations = a.capacity_violations(limit);
        if (std::all_of(violations.begin(), violations.end(), [](const std::string& v) {
              return v.find("depth") != std::string::npos;
            })) {
          depth_only_misfits += fit ? 0 : 1;
        }
      }
    }
  }
  EXPECT_GT(fits, 1000);
  EXPECT_GT(misfits, 1000);
  EXPECT_GT(depth_only_misfits, 100);
}

// Pins every allocation of the 120-loop suite, on one cluster of 6 FUs
// and on rings of 2, 4 and 6 clusters: the II, every lifetime, queue_of,
// and each queue's domain, index_in_domain and depth, hashed in order.
// The sweep fingerprints carry only counts and depths, and the verifier
// accepts any legal assignment, so only this digest holds the allocator
// to its exact first-fit assignment.
TEST(QueueAlloc, SuiteAllocationsMatchPinnedDigest) {
  SynthConfig config;
  config.loops = 120;
  const Suite suite = full_suite(config);
  BlobWriter out;
  int allocations = 0;
  for (const int clusters : {1, 2, 4, 6}) {
    const MachineConfig machine = clusters == 1 ? MachineConfig::single_cluster_machine(6)
                                                : MachineConfig::clustered_machine(clusters);
    for (const Loop& source : suite.loops) {
      const Loop loop = insert_copies(source).loop;
      const Ddg graph = Ddg::build(loop, machine.latency);
      const ImsResult r = clusters == 1 ? ims_schedule(loop, graph, machine)
                                        : partition_schedule(loop, graph, machine);
      out.put_bool(r.ok);
      if (!r.ok) continue;
      const QueueAllocation a = allocate_queues(loop, graph, machine, r.schedule);
      ++allocations;
      out.put_i32(a.ii);
      out.put_i32(static_cast<std::int32_t>(a.lifetimes.size()));
      for (const Lifetime& lt : a.lifetimes) {
        for (const int field : {lt.edge, lt.producer, lt.consumer, lt.push, lt.pop,
                                static_cast<int>(lt.domain.kind), lt.domain.index}) {
          out.put_i32(field);
        }
      }
      for (const int q : a.queue_of) out.put_i32(q);
      out.put_i32(a.total_queues());
      for (const AllocatedQueue& q : a.queues) {
        for (const int field : {static_cast<int>(q.domain.kind), q.domain.index,
                                q.index_in_domain, q.max_occupancy}) {
          out.put_i32(field);
        }
      }
    }
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(hash_bytes(out.take())));
  EXPECT_GT(allocations, 400);
  EXPECT_EQ(std::string(digest), "3dfe8c610ce46d06");
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
  // On one cluster every queue is private[0], numbered densely in
  // creation order.
  const QueueAllocation a = allocate_kernel("vadd", 6);
  ASSERT_GT(a.total_queues(), 0);
  for (int q = 0; q < a.total_queues(); ++q) {
    const AllocatedQueue& queue = a.queues[static_cast<std::size_t>(q)];
    EXPECT_EQ(queue.domain, (QueueDomain{QueueDomain::Kind::kPrivate, 0}));
    EXPECT_EQ(queue.index_in_domain, q);
  }
  EXPECT_EQ(a.max_private_queues(), a.total_queues());
  EXPECT_EQ(a.max_segment_queues(), 0);
}

}  // namespace
}  // namespace qvliw
