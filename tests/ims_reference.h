// Frozen reference IMS — the pre-arena, std::set-based implementation.
//
// This is the behavioral oracle for the allocation-free ImsSearcher in
// ims.cpp: same algorithm, same (-height, op) pop order, same forced
// placement and eviction rules, written the straightforward way (a
// red-black-tree ready queue, per-attempt allocation, linear FU probes).
// The golden-equivalence suite (tests/test_ims_golden.cpp, the only
// target this file is linked into) requires ims_schedule to produce
// bit-identical schedules and identical search statistics to this
// function over the whole workload suite.  Do not "optimise" this file;
// its slowness is the point of comparison.
#pragma once

#include "sched/ims.h"

namespace qvliw {

/// Cold (seedless) reference search.  Equivalent to ims_schedule with the
/// same options and assigner, minus warm-start installs and the new
/// search telemetry (only placements/evictions/ii_attempts are filled).
[[nodiscard]] ImsResult ims_schedule_reference(const Loop& loop, const Ddg& graph,
                                               const MachineConfig& machine,
                                               const ImsOptions& options = {},
                                               ClusterAssigner* assigner = nullptr);

}  // namespace qvliw
