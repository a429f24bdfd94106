// Partitioned scheduling on the clustered ring machine (Section 4).
//
// Schedules an 8-tap FIR filter on the paper's 4-cluster machine (12 FUs
// on a bidirectional ring of queues), compares the partitioned II against
// the equivalent single-cluster machine, shows where every operation
// landed, and verifies execution.
//
//   ./build/examples/clustered_fir
#include <iostream>
#include <vector>

#include "cluster/partition.h"
#include "ir/printer.h"
#include "qrf/queue_alloc.h"
#include "sched/ims.h"
#include "sim/vliwsim.h"
#include "support/strings.h"
#include "workload/kernels.h"
#include "xform/copy_insert.h"

using namespace qvliw;

int main() {
  const Loop source = kernel_by_name("fir8");
  const Loop loop = insert_copies(source).loop;

  const MachineConfig single = MachineConfig::single_cluster_machine(12);
  const MachineConfig ring = MachineConfig::clustered_machine(4);
  const Ddg graph = Ddg::build(loop, ring.latency);

  const ImsResult on_single = ims_schedule(loop, graph, single);
  const ImsResult on_ring = partition_schedule(loop, graph, ring);
  if (!on_single.ok || !on_ring.ok) {
    std::cerr << "scheduling failed: " << on_single.failure << on_ring.failure << "\n";
    return 1;
  }

  std::cout << "fir8 (" << source.op_count() << " source ops, " << loop.op_count()
            << " after copy insertion)\n";
  std::cout << "  single cluster (12 FUs): II=" << on_single.ii << "  SC="
            << on_single.schedule.stage_count() << "\n";
  std::cout << "  4-cluster ring:          II=" << on_ring.ii << "  SC="
            << on_ring.schedule.stage_count() << "\n\n";

  std::cout << "cluster assignment (op -> cluster @ cycle):\n";
  for (int op = 0; op < loop.op_count(); ++op) {
    const Placement& p = on_ring.schedule.place(op);
    std::cout << "  " << pad_right(op_text(loop, loop.ops[static_cast<std::size_t>(op)]), 34)
              << " -> cluster " << p.cluster << " @ cycle " << pad_left(std::to_string(p.cycle), 3)
              << "\n";
  }

  const QueueAllocation allocation = allocate_queues(loop, graph, ring, on_ring.schedule);
  // queue_of records each lifetime's queue; a queue's members are the
  // lifetimes that name it.
  std::vector<int> members(allocation.queues.size(), 0);
  for (const int q : allocation.queue_of) ++members[static_cast<std::size_t>(q)];
  std::cout << "\nqueue domains used:\n";
  for (std::size_t q = 0; q < allocation.queues.size(); ++q) {
    const AllocatedQueue& queue = allocation.queues[q];
    std::cout << "  " << pad_right(domain_name(ring.topology(), queue.domain), 14) << " queue #"
              << queue.index_in_domain << ": " << members[q] << " lifetime(s), "
              << queue.max_occupancy << " position(s)\n";
  }
  std::cout << "max private queues per cluster: " << allocation.max_private_queues()
            << "; max queues per interconnect segment: " << allocation.max_segment_queues()
            << " (the paper's cluster provisions 8 and 8)\n";

  const CheckedSim checked =
      simulate_and_check(loop, graph, ring, on_ring.schedule, allocation, 96);
  std::cout << "\nverification: "
            << (checked.ok ? cat("OK — ", checked.sim.cycles, " cycles, dynamic IPC ",
                                 fixed(checked.sim.dynamic_ipc, 2))
                           : checked.failure)
            << "\n";
  return checked.ok ? 0 : 1;
}
