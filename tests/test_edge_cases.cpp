// Edge-case coverage across modules: degenerate graphs, boundary
// configurations, and formatting corners not exercised elsewhere.
#include <gtest/gtest.h>

#include "ir/graph_algos.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "qrf/queue_alloc.h"
#include "sched/ims.h"
#include "sim/codegen.h"
#include "support/diagnostics.h"
#include "workload/kernels.h"
#include "xform/copy_insert.h"
#include "xform/unroll.h"

namespace qvliw {
namespace {

TEST(GraphEdges, EmptyGraphAlgorithms) {
  const Ddg graph(0);
  RecurrenceCore core(graph);
  EXPECT_TRUE(core.acyclic());
  EXPECT_FALSE(core.has_positive_cycle(1));
  EXPECT_TRUE(elementary_circuits(graph).empty());
  std::vector<int> height{7};
  height_priority(graph, 1, height);
  EXPECT_TRUE(height.empty());
}

TEST(GraphEdges, AcyclicGraphHasNoCircuits) {
  const Loop loop = kernel_by_name("daxpy");
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  EXPECT_TRUE(elementary_circuits(graph).empty());
}

TEST(GraphEdges, ParallelEdgesBetweenSameNodes) {
  // Two edges u->v with different distances must both constrain.
  Ddg graph(2);
  graph.add_edge({0, 1, 5, 0, DepKind::kFlow, -1});
  graph.add_edge({1, 0, 1, 1, DepKind::kFlow, -1});
  graph.add_edge({1, 0, 9, 2, DepKind::kFlow, -1});
  // Circuit A: 5+1 over distance 1 -> 6; circuit B: 5+9 over 2 -> 7.
  RecurrenceCore core(graph);
  EXPECT_TRUE(core.has_positive_cycle(6));
  EXPECT_FALSE(core.has_positive_cycle(7));
}

TEST(ParserEdges, NegativeImmediateFirstOperand) {
  const Loop loop = parse_loop("loop t { s = add -5, 3; store X[i], s; }");
  EXPECT_EQ(loop.ops[0].args[0].imm, -5);
}

TEST(ParserEdges, StoreOfImmediate) {
  const Loop loop = parse_loop("loop t { store X[i], 42; }");
  EXPECT_EQ(loop.ops[0].args[0].kind, Operand::Kind::kImmediate);
  EXPECT_EQ(loop.ops[0].args[0].imm, 42);
}

TEST(ParserEdges, StoreOfInvariantAndIndex) {
  const Loop loop = parse_loop("loop t { invariant a; store X[i], a; store Y[i], i+3; }");
  EXPECT_EQ(loop.ops[0].args[0].kind, Operand::Kind::kInvariant);
  EXPECT_EQ(loop.ops[1].args[0].kind, Operand::Kind::kIndex);
  EXPECT_EQ(loop.ops[1].args[0].index_offset, 3);
}

TEST(PrinterEdges, MoveAndCopyRoundTrip) {
  const Loop loop =
      parse_loop("loop t { x = load X[i]; c = copy x; m = move c; store Y[i], m; }");
  const Loop again = parse_loop(to_text(loop));
  EXPECT_EQ(again.ops[1].opcode, Opcode::kCopy);
  EXPECT_EQ(again.ops[2].opcode, Opcode::kMove);
}

TEST(ScheduleEdges, SingleOpLoop) {
  const Loop loop = parse_loop("loop t { store X[i], 7; }");
  const MachineConfig machine = MachineConfig::single_cluster_machine(3);
  const Ddg graph = Ddg::build(loop, machine.latency);
  const ImsResult r = ims_schedule(loop, graph, machine);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ii, 1);
  EXPECT_EQ(r.schedule.stage_count(), 1);
}

TEST(ScheduleEdges, NoValueFlowMeansNoQueues) {
  const Loop loop = parse_loop("loop t { store X[i], 7; store Y[i], i; }");
  const MachineConfig machine = MachineConfig::single_cluster_machine(3);
  const Ddg graph = Ddg::build(loop, machine.latency);
  const ImsResult r = ims_schedule(loop, graph, machine);
  ASSERT_TRUE(r.ok);
  const QueueAllocation allocation = allocate_queues(loop, graph, machine, r.schedule);
  EXPECT_EQ(allocation.total_queues(), 0);
  EXPECT_EQ(allocation.max_positions(), 0);
}

TEST(CodegenEdges, SingleStageKernelHasEmptyRamp) {
  const Loop loop = parse_loop("loop t { store X[i], 7; }");
  const MachineConfig machine = MachineConfig::single_cluster_machine(3);
  const Ddg graph = Ddg::build(loop, machine.latency);
  const ImsResult r = ims_schedule(loop, graph, machine);
  ASSERT_TRUE(r.ok);
  const QueueAllocation allocation = allocate_queues(loop, graph, machine, r.schedule);
  const VliwProgram program = generate_program(loop, graph, machine, r.schedule, allocation);
  EXPECT_TRUE(program.prologue.empty());
  EXPECT_TRUE(program.epilogue.empty());
  EXPECT_EQ(program.kernel.size(), 1u);
  const std::string listing = format_program(program, machine);
  EXPECT_NE(listing.find("(empty)"), std::string::npos);
}

TEST(UnrollEdges, UnrollSingleStoreLoop) {
  const Loop loop = parse_loop("loop t { trip 12; store X[i], i; }");
  const Loop u = unroll(loop, 4);
  EXPECT_EQ(u.op_count(), 4);
  EXPECT_EQ(u.trip_hint, 3);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(u.ops[static_cast<std::size_t>(k)].mem_offset, k);
    EXPECT_EQ(u.ops[static_cast<std::size_t>(k)].args[0].index_offset, k);
  }
}

TEST(CopyEdges, StoreOnlyLoopUntouched) {
  const Loop loop = parse_loop("loop t { store X[i], 1; }");
  EXPECT_EQ(insert_copies(loop).copies_added, 0);
}

TEST(MachineEdges, ThreeFuMachineIsPaperCluster) {
  const MachineConfig m = MachineConfig::single_cluster_machine(3);
  EXPECT_EQ(m.fu_count(0, FuKind::kLS), 1);
  EXPECT_EQ(m.fu_count(0, FuKind::kAdd), 1);
  EXPECT_EQ(m.fu_count(0, FuKind::kMul), 1);
  EXPECT_EQ(m.fu_count(0, FuKind::kCopy), 1);
}

TEST(QueueAllocEdges, LongDistanceSelfLoopDepth) {
  // An 8-deep delay line keeps ~8 instances resident in one queue chain.
  const Loop loop = insert_copies(kernel_by_name("fir8")).loop;
  const MachineConfig machine = MachineConfig::single_cluster_machine(12);
  const Ddg graph = Ddg::build(loop, machine.latency);
  const ImsResult r = ims_schedule(loop, graph, machine);
  ASSERT_TRUE(r.ok);
  const QueueAllocation allocation = allocate_queues(loop, graph, machine, r.schedule);
  int total_positions = 0;
  for (const AllocatedQueue& q : allocation.queues) total_positions += q.max_occupancy;
  EXPECT_GE(total_positions, 8);
}

}  // namespace
}  // namespace qvliw
