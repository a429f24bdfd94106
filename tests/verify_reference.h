// Frozen reference queue-RF verifier: verify_queue_allocation as it was
// before its FIFO replay walked periodic streams.  It materialises every
// push and pop instance of a queue and sorts them on (cycle, push before
// pop, lifetime, instance), which is the order the stream replay must
// reproduce.  tests/test_verify.cpp (the only target this file is linked
// into) requires identical diagnostics — rule, text and order — from it
// and from verify_queue_allocation, on real artifacts and on mutants.  Do
// not "optimise" this file; its directness is the point of comparison.
#pragma once

#include "verify/verify.h"

namespace qvliw {

[[nodiscard]] VerifyReport verify_queue_allocation_reference(const Loop& loop, const Ddg& graph,
                                                             const MachineConfig& machine,
                                                             const Schedule& schedule,
                                                             const QueueAllocation& allocation,
                                                             bool must_fit);

}  // namespace qvliw
