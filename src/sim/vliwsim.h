// Cycle-accurate simulator of the clustered VLIW machine with queue
// register files.
//
// Executes a complete modulo schedule instance-by-instance: iteration j of
// op v issues at sigma(v) + j*II, pops one queue per value operand (FIFO,
// tag-checked), computes with the shared eval semantics, and pushes its
// result into the queue of each consuming flow edge `latency` cycles
// later (a latency-0 result lands in its issue cycle).  Port discipline
// is enforced: at most one push and one pop per queue per cycle (pushes
// land at the start of a cycle, pops read at the end, so zero-residency
// bypass works).
//
// Loop-carried live-ins (operand distance d > iteration) are injected at
// the cycle the steady-state pattern implies ("as-if-warm" prologue),
// with the value the reference interpreter defines for them: 0.
// Injections are exempt from the write-port check — they model setup
// code, not kernel issue slots.
//
// Symmetrically, a lifetime of distance d leaves d tail instances with no
// consuming iteration; the epilogue of real modulo-scheduled code still
// executes those consumer reads (with their side effects predicated off),
// so the simulator issues *drain pops* at the steady-state pop cycles.
// Drain pops are tag-checked like any pop: a queue whose tail values
// blocked another lifetime's pops is still detected.
//
// The simulator is the end-to-end oracle of the library: a run is `ok`
// only if every pop returned exactly the expected producer instance and
// no port or capacity rule broke; `simulate_and_check` additionally
// demands bit-identical final memory against the sequential interpreter.
#pragma once

#include <cstdint>
#include <string>

#include "ir/ddg.h"
#include "ir/loop.h"
#include "machine/machine.h"
#include "qrf/queue_alloc.h"
#include "sched/schedule.h"
#include "sim/memory.h"

namespace qvliw {

struct SimOptions {
  std::uint64_t seed = 0x5eedULL;
  /// Fail when a queue's occupancy exceeds its domain's configured depth.
  bool enforce_depth = false;
};

struct SimResult {
  bool ok = false;
  std::string failure;
  MemoryImage memory = MemoryImage(0, 0, 0);
  long long cycles = 0;          // (trip-1)*II + schedule span
  long long issues = 0;          // op instances issued
  long long useful_issues = 0;   // excluding copy/move instances
  long long pushes = 0;          // queue write operations (incl. live-ins)
  long long pops = 0;            // queue read operations
  int max_queue_occupancy = 0;   // deepest queue observed
  double dynamic_ipc = 0.0;      // useful_issues / cycles
};

[[nodiscard]] SimResult simulate(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                                 const Schedule& schedule, const QueueAllocation& allocation,
                                 long long trip, const SimOptions& options = {});

struct CheckedSim {
  bool ok = false;
  std::string failure;
  SimResult sim;
};

/// Simulates and compares final memory bit-for-bit against the sequential
/// reference interpreter run with the same trip and seed.
[[nodiscard]] CheckedSim simulate_and_check(const Loop& loop, const Ddg& graph,
                                            const MachineConfig& machine,
                                            const Schedule& schedule,
                                            const QueueAllocation& allocation, long long trip,
                                            const SimOptions& options = {});

}  // namespace qvliw
