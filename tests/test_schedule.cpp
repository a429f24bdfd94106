#include <gtest/gtest.h>

#include "ir/parser.h"
#include "sched/reservation.h"
#include "sched/schedule.h"
#include "support/blob.h"
#include "support/diagnostics.h"
#include "verify/verify.h"

namespace qvliw {
namespace {

Loop two_op_loop() { return parse_loop("loop t { x = load X[i]; store Y[i], x; }"); }

std::vector<std::string> messages_for(const VerifyReport& report, VerifyRule rule) {
  std::vector<std::string> out;
  for (const VerifyDiagnostic& d : report.diagnostics) {
    if (d.rule == rule) out.push_back(d.message);
  }
  return out;
}

TEST(Schedule, BasicAccessors) {
  Schedule s(3, 2);
  EXPECT_EQ(s.ii(), 2);
  EXPECT_EQ(s.op_count(), 3);
  EXPECT_FALSE(s.scheduled(0));
  EXPECT_FALSE(s.complete());
  s.set(0, {4, 0, 0});
  EXPECT_TRUE(s.scheduled(0));
  EXPECT_EQ(s.cycle(0), 4);
  s.set(1, {1, 0, 0});
  s.set(2, {7, 0, 0});
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.max_cycle(), 7);
  s.clear(2);
  EXPECT_FALSE(s.complete());
}

TEST(Schedule, StageCount) {
  Schedule s(2, 3);
  s.set(0, {0, 0, 0});
  s.set(1, {2, 0, 0});
  EXPECT_EQ(s.stage_count(), 1);  // cycles 0..2 fit in one stage of II=3
  s.set(1, {3, 0, 0});
  EXPECT_EQ(s.stage_count(), 2);
  s.set(1, {8, 0, 0});
  EXPECT_EQ(s.stage_count(), 3);
}

TEST(Schedule, TotalCyclesModel) {
  const Loop loop = two_op_loop();
  Schedule s(2, 2);
  s.set(0, {0, 0, 0});  // load, latency 2 -> completes at 2
  s.set(1, {2, 0, 0});  // store, latency 1 -> completes at 3
  // span = max(0+2, 2+1) = 3; trip 10 -> 9*2 + 3 = 21.
  EXPECT_EQ(s.total_cycles(loop, LatencyModel::classic(), 10), 21);
}

TEST(Schedule, RangeChecks) {
  Schedule s(1, 1);
  EXPECT_THROW((void)s.scheduled(5), Error);
  EXPECT_THROW(s.set(0, {-1, 0, 0}), Error);
  EXPECT_THROW((void)s.place(0), Error);  // not scheduled yet
}

TEST(DependenceValidation, DetectsViolation) {
  const Loop loop = parse_loop("loop t { x = load X[i]; s = fadd x, 1; store Y[i], s; }");
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  Schedule s(3, 4);
  s.set(0, {0, 0, 0});
  s.set(1, {1, 0, 0});  // too early: needs >= 2 (load latency)
  s.set(2, {5, 0, 0});
  const MachineConfig m = MachineConfig::single_cluster_machine(3);
  const auto violations =
      messages_for(verify_modulo_schedule(loop, graph, m, s), VerifyRule::kSchedDependence);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("flow"), std::string::npos);
}

TEST(DependenceValidation, LoopCarriedSlackCounts) {
  const Loop loop = parse_loop("loop t { x = load X[i]; acc = fadd acc@1, x; store Y[i], acc; }");
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  Schedule s(3, 2);
  s.set(0, {0, 0, 0});
  s.set(1, {2, 0, 0});  // self edge: 2 >= 2 + 2 - 2*1 = 2 OK
  s.set(2, {4, 0, 0});
  const MachineConfig m = MachineConfig::single_cluster_machine(6);
  EXPECT_FALSE(verify_modulo_schedule(loop, graph, m, s).has_rule(VerifyRule::kSchedDependence));
  Schedule bad(3, 1);  // II=1 below RecMII: self edge needs 2 <= 1
  bad.set(0, {0, 0, 0});
  bad.set(1, {2, 0, 0});
  bad.set(2, {4, 0, 0});
  EXPECT_TRUE(verify_modulo_schedule(loop, graph, m, bad).has_rule(VerifyRule::kSchedDependence));
}

TEST(DependenceValidation, ReportsUnscheduled) {
  const Loop loop = two_op_loop();
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  Schedule s(2, 1);
  s.set(0, {0, 0, 0});
  const MachineConfig m = MachineConfig::single_cluster_machine(3);
  EXPECT_TRUE(verify_modulo_schedule(loop, graph, m, s).has_rule(VerifyRule::kSchedIncomplete));
}

TEST(ResourceValidation, DetectsDoubleBooking) {
  const Loop loop = parse_loop("loop t { a = load X[i]; b = load Y[i]; s = fadd a, b; store Z[i], s; }");
  const MachineConfig m = MachineConfig::single_cluster_machine(3);  // 1 L/S
  Schedule s(4, 2);
  s.set(0, {0, 0, 0});
  s.set(1, {2, 0, 0});  // slot 0 again on the same L/S instance
  s.set(2, {4, 0, 0});
  s.set(3, {6, 0, 0});
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  const auto violations =
      messages_for(verify_modulo_schedule(loop, graph, m, s), VerifyRule::kSchedResource);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("double-book"), std::string::npos);
}

TEST(ResourceValidation, AcceptsDistinctInstances) {
  const Loop loop = parse_loop("loop t { a = load X[i]; b = load Y[i]; s = fadd a, b; store Z[i], s; }");
  const MachineConfig m = MachineConfig::single_cluster_machine(6);  // 2 L/S
  Schedule s(4, 2);
  s.set(0, {0, 0, 0});
  s.set(1, {0, 0, 1});  // second instance
  s.set(2, {2, 0, 0});
  s.set(3, {5, 0, 0});  // store on the L/S at the other modulo slot
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  const VerifyReport report = verify_modulo_schedule(loop, graph, m, s);
  EXPECT_FALSE(report.has_rule(VerifyRule::kSchedResource));
  EXPECT_FALSE(report.has_rule(VerifyRule::kSchedPlacement));
}

TEST(ResourceValidation, DetectsBadFuIndex) {
  const Loop loop = two_op_loop();
  const MachineConfig m = MachineConfig::single_cluster_machine(3);
  Schedule s(2, 2);
  s.set(0, {0, 0, 5});  // L/S instance 5 does not exist
  s.set(1, {2, 0, 0});
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  EXPECT_TRUE(verify_modulo_schedule(loop, graph, m, s).has_rule(VerifyRule::kSchedPlacement));
}

TEST(ResourceValidation, DetectsBadCluster) {
  const Loop loop = two_op_loop();
  const MachineConfig m = MachineConfig::single_cluster_machine(3);
  Schedule s(2, 2);
  s.set(0, {0, 3, 0});
  s.set(1, {2, 0, 0});
  const Ddg graph = Ddg::build(loop, LatencyModel::classic());
  EXPECT_TRUE(verify_modulo_schedule(loop, graph, m, s).has_rule(VerifyRule::kSchedPlacement));
}

TEST(Reservation, PlaceFindRemove) {
  const MachineConfig m = MachineConfig::single_cluster_machine(6);  // 2 per kind
  ReservationTable table(m, 3);
  EXPECT_EQ(table.instances(0, FuKind::kLS), 2);
  EXPECT_EQ(table.find_free(0, FuKind::kLS, 4), 0);  // slot 1
  table.place(0, FuKind::kLS, 0, 4, 7);
  EXPECT_EQ(table.occupant(0, FuKind::kLS, 0, 1), 7);  // same modulo slot
  EXPECT_EQ(table.find_free(0, FuKind::kLS, 1), 1);
  table.place(0, FuKind::kLS, 1, 1, 8);
  EXPECT_EQ(table.find_free(0, FuKind::kLS, 7), -1);  // slot 1 full
  table.remove(0, FuKind::kLS, 0, 4, 7);
  EXPECT_EQ(table.find_free(0, FuKind::kLS, 1), 0);
}

TEST(UsefulOps, ExcludesCopiesAndMoves) {
  const Loop loop =
      parse_loop("loop t { x = load X[i]; c = copy x; m = move c; store Y[i], m; }");
  EXPECT_EQ(useful_op_count(loop), 2);
}

TEST(Ipc, StaticAndDynamic) {
  const Loop loop = two_op_loop();
  Schedule s(2, 2);
  s.set(0, {0, 0, 0});
  s.set(1, {2, 0, 0});
  EXPECT_DOUBLE_EQ(static_ipc(loop, s), 1.0);  // 2 useful ops / II 2
  // trip 100: cycles = 99*2 + 3 = 201; IPC = 200/201.
  EXPECT_NEAR(dynamic_ipc(loop, LatencyModel::classic(), s, 100), 200.0 / 201.0, 1e-12);
}

TEST(FormatKernel, MentionsOpsAndStages) {
  const Loop loop = two_op_loop();
  const MachineConfig m = MachineConfig::single_cluster_machine(3);
  Schedule s(2, 2);
  s.set(0, {0, 0, 0});
  s.set(1, {3, 0, 0});
  const std::string text = format_kernel(loop, m, s);
  EXPECT_NE(text.find("II=2"), std::string::npos);
  EXPECT_NE(text.find("x(s0)"), std::string::npos);
  EXPECT_NE(text.find("st#1(s1)"), std::string::npos);
}

TEST(ScheduleCodec, RoundTripsPlacementsAndHoles) {
  Schedule schedule(4, 3);
  schedule.set(0, {0, 0, 0});
  schedule.set(1, {5, 1, 2});
  schedule.set(3, {2, 0, 1});  // op 2 deliberately unscheduled

  BlobWriter writer;
  serialize_schedule(writer, schedule);
  const std::string bytes = writer.take();

  BlobReader reader(bytes);
  const Schedule copy = deserialize_schedule(reader);
  reader.require_exhausted("schedule");
  ASSERT_EQ(copy.op_count(), schedule.op_count());
  EXPECT_EQ(copy.ii(), schedule.ii());
  for (int op = 0; op < schedule.op_count(); ++op) {
    ASSERT_EQ(copy.scheduled(op), schedule.scheduled(op)) << op;
    if (schedule.scheduled(op)) {
      EXPECT_EQ(copy.place(op), schedule.place(op)) << op;
    }
  }
}

TEST(ScheduleCodec, RejectsMalformedBlobs) {
  Schedule schedule(2, 2);
  schedule.set(0, {0, 0, 0});
  schedule.set(1, {1, 0, 1});
  BlobWriter writer;
  serialize_schedule(writer, schedule);
  const std::string bytes = writer.take();

  // Truncation anywhere throws instead of producing a partial schedule.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    BlobReader reader(std::string_view(bytes).substr(0, cut));
    EXPECT_THROW((void)deserialize_schedule(reader), Error) << cut;
  }

  // A structurally invalid payload (II < 1) is rejected even when the
  // byte count is right.
  BlobWriter bad;
  bad.put_i32(0);  // II
  bad.put_i32(0);  // op count
  const std::string bad_bytes = bad.take();
  BlobReader reader(bad_bytes);
  EXPECT_THROW((void)deserialize_schedule(reader), Error);
}

}  // namespace
}  // namespace qvliw
