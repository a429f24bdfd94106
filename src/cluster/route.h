// Move-based inter-cluster routing (the paper's proposed extension).
//
// Round-based repair: schedule with a *relaxed* partitioner (any cluster
// legal, affinity still steers placement), find the flow edges that ended
// up spanning more than one topology hop, split each with a chain of
// `move` ops (hops-1 relays), then re-schedule *strictly*.  Moves are
// ordinary DDG ops on the copy/move FU class, so the strict partitioner
// picks each relay's cluster like any op's, under the adjacency rule; no
// path is fixed in advance.  Repeat while the strict schedule keeps
// failing (more moves each round), up to max_rounds.
#pragma once

#include "cluster/partition.h"

namespace qvliw {

struct RouteResult {
  bool ok = false;
  Loop loop;       // the routed loop (with inserted moves)
  int moves_added = 0;
  int rounds = 0;  // repair rounds used
  /// The final strict schedule (valid when ok).  Its stats sum every
  /// strict and relaxed round, also when routing fails; budget_spent and
  /// mii_optimal are the accepted schedule's (0 and false on failure).
  ImsResult ims;
  std::string failure;
};

/// Partitions `loop` on `machine` allowing multi-hop transfers through
/// inserted moves.  `loop` should already be copy-inserted (fan-out legal).
[[nodiscard]] RouteResult partition_with_moves(const Loop& loop, const MachineConfig& machine,
                                               const PartitionOptions& options = {},
                                               int max_rounds = 6);

}  // namespace qvliw
