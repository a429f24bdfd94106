// Queue register file allocation.
//
// Partitions the lifetimes of a schedule into queues, per domain (private
// QRF of each cluster; each directed interconnect segment).  All members of a
// queue must be pairwise Q-compatible — pairwise consistency implies a
// globally consistent FIFO interleaving because push times impose a total
// order that every pair's pops follow.  Exact minimisation is a clique
// cover, so the allocator is the classic greedy: lifetimes in ascending
// push order, first-fit into existing queues.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "qrf/lifetime.h"

namespace qvliw {

struct AllocatedQueue {
  QueueDomain domain;
  int index_in_domain = 0;
  int max_occupancy = 0;  // positions needed (steady-state maximum)
};

struct QueueAllocation {
  int ii = 1;
  std::vector<Lifetime> lifetimes;
  /// Lifetime index -> queue id: the one record of the assignment (a
  /// queue's members are the lifetimes that name it here).
  std::vector<int> queue_of;
  std::vector<AllocatedQueue> queues;

  /// Largest private-QRF demand over clusters.
  [[nodiscard]] int max_private_queues() const;

  /// Largest demand over interconnect segments.
  [[nodiscard]] int max_segment_queues() const;

  /// Total queues across every domain (the paper's Fig. 3 metric on
  /// single-cluster machines, where all queues are private).
  [[nodiscard]] int total_queues() const { return static_cast<int>(queues.size()); }

  /// Deepest queue (positions).
  [[nodiscard]] int max_positions() const;

  /// Configured-capacity check; returns human-readable violations
  /// (empty == the allocation fits `machine`).
  [[nodiscard]] std::vector<std::string> capacity_violations(const MachineConfig& machine) const;

  /// capacity_violations(machine).empty(), by the same rule, without
  /// formatting a message (queue-fit escalation tests this every step).
  [[nodiscard]] bool fits(const MachineConfig& machine) const;
};

/// Allocates queues for a complete schedule.  Always succeeds (queue
/// *counts* are unbounded here); capacity_violations() reports whether the
/// result fits a concrete machine.
[[nodiscard]] QueueAllocation allocate_queues(const Loop& loop, const Ddg& graph,
                                              const MachineConfig& machine,
                                              const Schedule& schedule);

/// allocate_queues' allocation when it fits `machine`, else nothing.  The
/// first fit stops as soon as a domain opens one queue more than `machine`
/// has: first fit only ever adds queues to a domain, so no later lifetime
/// can bring the count back.  After a complete first fit, fits() applies
/// the depth limits.
[[nodiscard]] std::optional<QueueAllocation> allocate_fitting_queues(const Loop& loop,
                                                                     const Ddg& graph,
                                                                     const MachineConfig& machine,
                                                                     const Schedule& schedule);

}  // namespace qvliw
