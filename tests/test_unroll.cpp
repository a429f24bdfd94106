#include <gtest/gtest.h>

#include "ir/parser.h"
#include "sched/mii.h"
#include "sim/interp.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "support/strings.h"
#include "workload/kernels.h"
#include "workload/suite.h"
#include "workload/synth.h"
#include "xform/unroll.h"

namespace qvliw {
namespace {

TEST(Unroll, FactorOneIsCopy) {
  const Loop loop = kernel_by_name("daxpy");
  const Loop u = unroll(loop, 1);
  EXPECT_EQ(u.op_count(), loop.op_count());
  EXPECT_EQ(u.stride, loop.stride);
}

TEST(Unroll, StructuralShape) {
  const Loop loop = kernel_by_name("daxpy");
  const Loop u = unroll(loop, 4);
  EXPECT_EQ(u.op_count(), 4 * loop.op_count());
  EXPECT_EQ(u.stride, 4);
  EXPECT_EQ(u.trip_hint, loop.trip_hint / 4);
  EXPECT_EQ(u.name, "daxpy_x4");
  EXPECT_NO_THROW(u.validate());
}

TEST(Unroll, MemOffsetsShiftPerReplica) {
  const Loop loop = parse_loop("loop t { x = load X[i+1]; store Y[i], x; }");
  const Loop u = unroll(loop, 3);
  // Replica k loads X[i + 1 + k] and stores Y[i + k].
  EXPECT_EQ(u.ops[0].mem_offset, 1);
  EXPECT_EQ(u.ops[2].mem_offset, 2);
  EXPECT_EQ(u.ops[4].mem_offset, 3);
  EXPECT_EQ(u.ops[1].mem_offset, 0);
  EXPECT_EQ(u.ops[3].mem_offset, 1);
  EXPECT_EQ(u.ops[5].mem_offset, 2);
}

TEST(Unroll, IndexOperandsShift) {
  const Loop loop = parse_loop("loop t { a = add i, 7; store X[i], a; }");
  const Loop u = unroll(loop, 2);
  EXPECT_EQ(u.ops[0].args[0].index_offset, 0);
  EXPECT_EQ(u.ops[2].args[0].index_offset, 1);
}

TEST(Unroll, IntraIterationDistanceRewrite) {
  // use of v@1 in replica 0 reaches replica U-1 of the previous unrolled
  // iteration; in replica k>0 it reaches replica k-1 of the same iteration.
  const Loop loop = parse_loop("loop t { x = load X[i]; acc = fadd acc@1, x; store Y[i], acc; }");
  const Loop u = unroll(loop, 3);
  const int acc0 = u.find_value("acc_u0");
  const int acc1 = u.find_value("acc_u1");
  const int acc2 = u.find_value("acc_u2");
  ASSERT_GE(acc0, 0);
  ASSERT_GE(acc1, 0);
  ASSERT_GE(acc2, 0);
  EXPECT_EQ(u.ops[static_cast<std::size_t>(acc0)].args[0].value_op, acc2);
  EXPECT_EQ(u.ops[static_cast<std::size_t>(acc0)].args[0].distance, 1);
  EXPECT_EQ(u.ops[static_cast<std::size_t>(acc1)].args[0].value_op, acc0);
  EXPECT_EQ(u.ops[static_cast<std::size_t>(acc1)].args[0].distance, 0);
  EXPECT_EQ(u.ops[static_cast<std::size_t>(acc2)].args[0].value_op, acc1);
  EXPECT_EQ(u.ops[static_cast<std::size_t>(acc2)].args[0].distance, 0);
}

TEST(Unroll, LongDistanceRewrite) {
  // distance 5 with factor 2: replica 0 -> source replica 1, 3 iterations
  // back ((0-5) + 3*2 = 1); replica 1 -> source replica 0, 2 back.
  const Loop loop = parse_loop("loop t { x = load X[i]; s = fadd x@5, x; store Y[i], s; }");
  const Loop u = unroll(loop, 2);
  const int s0 = u.find_value("s_u0");
  const int s1 = u.find_value("s_u1");
  const int x0 = u.find_value("x_u0");
  const int x1 = u.find_value("x_u1");
  EXPECT_EQ(u.ops[static_cast<std::size_t>(s0)].args[0].value_op, x1);
  EXPECT_EQ(u.ops[static_cast<std::size_t>(s0)].args[0].distance, 3);
  EXPECT_EQ(u.ops[static_cast<std::size_t>(s1)].args[0].value_op, x0);
  EXPECT_EQ(u.ops[static_cast<std::size_t>(s1)].args[0].distance, 2);
}

TEST(Unroll, RejectsBadFactor) {
  const Loop loop = kernel_by_name("daxpy");
  EXPECT_THROW((void)unroll(loop, 0), Error);
}

TEST(Unroll, SemanticsPreservedOnCorpus) {
  for (const Loop& loop : kernel_corpus()) {
    for (int factor : {2, 3, 4}) {
      const Loop u = unroll(loop, factor);
      const long long trip = 24;  // divisible by 2, 3, 4
      const InterpResult original = interpret(loop, trip, 0x11);
      const InterpResult unrolled = interpret(u, trip / factor, 0x11);
      EXPECT_TRUE(original.memory == unrolled.memory) << loop.name << " x" << factor;
    }
  }
}

TEST(Unroll, SemanticsPreservedOnSyntheticLoops) {
  SynthConfig config;
  config.loops = 25;
  config.seed = 777;
  for (const Loop& loop : synthesize_suite(config)) {
    const Loop u = unroll(loop, 4);
    const InterpResult original = interpret(loop, 32, 0x22);
    const InterpResult unrolled = interpret(u, 8, 0x22);
    EXPECT_TRUE(original.memory == unrolled.memory) << loop.name;
  }
}

TEST(Unroll, DoubleUnrollComposes) {
  const Loop loop = kernel_by_name("dot");
  const Loop once = unroll(loop, 6);
  const Loop twice = unroll(unroll(loop, 2), 3);
  EXPECT_EQ(once.stride, twice.stride);
  const InterpResult a = interpret(once, 4, 9);
  const InterpResult b = interpret(twice, 4, 9);
  EXPECT_TRUE(a.memory == b.memory);
}

TEST(SelectUnroll, TinyLoopWantsUnrolling) {
  // offset_add has 3 ops; a 12-FU machine is starved at factor 1.
  const Loop loop = kernel_by_name("offset_add");
  const UnrollChoice choice = select_unroll_factor(loop, MachineConfig::single_cluster_machine(12));
  EXPECT_GT(choice.factor, 1);
  EXPECT_LT(choice.rate, 1.0 + 1e-9);
}

TEST(SelectUnroll, RecurrenceBoundLoopStaysPut) {
  // geo_decay is dominated by a latency-10 recurrence; unrolling cannot
  // improve the per-source-iteration rate.
  const Loop loop = kernel_by_name("geo_decay");
  const UnrollChoice choice = select_unroll_factor(loop, MachineConfig::single_cluster_machine(12));
  EXPECT_EQ(choice.factor, 1);
}

TEST(SelectUnroll, RateNeverWorseThanFactorOne) {
  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  SynthConfig config;
  config.loops = 15;
  config.seed = 31;
  for (const Loop& loop : synthesize_suite(config)) {
    const Ddg graph = Ddg::build(loop, machine.latency);
    const MiiInfo base = compute_mii(loop, graph, machine);
    const UnrollChoice choice = select_unroll_factor(loop, machine);
    EXPECT_LE(choice.rate, static_cast<double>(base.mii) + 1e-9) << loop.name;
  }
}

TEST(Unroll, MemoryCarriedRecurrencePreserved) {
  const Loop loop = kernel_by_name("lk11_partial_sum");
  const Loop u = unroll(loop, 2);
  const InterpResult original = interpret(loop, 24, 3);
  const InterpResult unrolled = interpret(u, 12, 3);
  EXPECT_TRUE(original.memory == unrolled.memory);
}

TEST(Unroll, TripHintRoundsUp) {
  // A partial trailing group of source iterations still costs one full
  // kernel iteration: trip 7 at factor 4 is 2 unrolled iterations, not 1.
  Loop loop = kernel_by_name("daxpy");
  loop.trip_hint = 7;
  EXPECT_EQ(unroll(loop, 4).trip_hint, 2);
  EXPECT_EQ(unroll(loop, 7).trip_hint, 1);
  EXPECT_EQ(unroll(loop, 2).trip_hint, 4);
  loop.trip_hint = 100;
  EXPECT_EQ(unroll(loop, 4).trip_hint, 25);
  EXPECT_EQ(unroll(loop, 8).trip_hint, 13);
  loop.trip_hint = 3;
  EXPECT_EQ(unroll(loop, 8).trip_hint, 1);
}

// --- incremental prober golden equivalence ---------------------------------

void expect_probe_identical(const UnrollProbe& fast, const UnrollProbe& naive,
                            const std::string& where) {
  EXPECT_EQ(fast.choice.factor, naive.choice.factor) << where;
  EXPECT_EQ(fast.choice.rate, naive.choice.rate) << where;
  EXPECT_EQ(fast.mii.feasible, naive.mii.feasible) << where;
  EXPECT_EQ(fast.mii.res_mii, naive.mii.res_mii) << where;
  EXPECT_EQ(fast.mii.rec_mii, naive.mii.rec_mii) << where;
  EXPECT_EQ(fast.mii.mii, naive.mii.mii) << where;
  EXPECT_EQ(fast.factors_probed, naive.factors_probed) << where;
}

TEST(SelectUnroll, IncrementalMatchesNaiveOnFullSuite) {
  const Suite suite = full_suite();
  const std::vector<MachineConfig> machines = {
      MachineConfig::single_cluster_machine(6),
      MachineConfig::single_cluster_machine(12),
      MachineConfig::clustered_machine(4),
  };
  for (const MachineConfig& machine : machines) {
    for (const Loop& loop : suite.loops) {
      const UnrollProbe fast = probe_unroll_factor(loop, machine);
      const UnrollProbe naive = probe_unroll_factor_naive(loop, machine);
      expect_probe_identical(fast, naive, machine.name + " / " + loop.name);
    }
  }
}

TEST(SelectUnroll, IncrementalMatchesNaiveOnRandomMachines) {
  SynthConfig config;
  config.loops = 40;
  config.seed = 2024;
  const std::vector<Loop> loops = synthesize_suite(config);

  Rng rng(0xfadedULL);
  for (int trial = 0; trial < 12; ++trial) {
    MachineConfig machine;
    machine.name = "random";
    const int clusters = rng.uniform_int(1, 4);
    for (int c = 0; c < clusters; ++c) {
      ClusterConfig cc;
      cc.fus(FuKind::kLS) = rng.uniform_int(1, 3);
      cc.fus(FuKind::kAdd) = rng.uniform_int(1, 3);
      cc.fus(FuKind::kMul) = rng.uniform_int(1, 3);
      cc.fus(FuKind::kCopy) = rng.uniform_int(1, 2);
      machine.clusters.push_back(cc);
    }
    for (int& latency : machine.latency.latency) latency = rng.uniform_int(1, 8);
    const int max_factor = rng.uniform_int(2, 11);
    const int max_ops = rng.uniform_int(40, 200);

    for (const Loop& loop : loops) {
      const UnrollProbe fast = probe_unroll_factor(loop, machine, max_factor, max_ops);
      const UnrollProbe naive = probe_unroll_factor_naive(loop, machine, max_factor, max_ops);
      expect_probe_identical(
          fast, naive, cat("trial ", trial, " max_factor ", max_factor, " / ", loop.name));
    }
  }
}

TEST(SelectUnroll, PerFactorBoundsMatchNaive) {
  const MachineConfig machine = MachineConfig::single_cluster_machine(12);
  for (const Loop& loop : kernel_corpus()) {
    ASSERT_TRUE(unroll_probe_is_exact(loop)) << loop.name;
    RecMii base(Ddg::build(loop, machine.latency));
    for (int factor = 1; factor <= 6; ++factor) {
      const Loop materialized = unroll(loop, factor);
      const Ddg graph = Ddg::build(materialized, machine.latency);
      const MiiInfo oracle = compute_mii(materialized, graph, machine);
      const MiiInfo fast = compute_mii(loop, base, machine, factor);
      const std::string where = cat(loop.name, " x", factor);
      EXPECT_EQ(fast.feasible, oracle.feasible) << where;
      EXPECT_EQ(fast.res_mii, oracle.res_mii) << where;
      EXPECT_EQ(fast.rec_mii, oracle.rec_mii) << where;
      EXPECT_EQ(fast.mii, oracle.mii) << where;
    }
  }
}

TEST(SelectUnroll, LongMemoryDistanceFallsBackToNaive) {
  // X[i] vs X[i+100] alias at distance 100 > kMemDepMaxDistance: the base
  // DDG drops the dependence but the unrolled DDG re-admits it at a
  // shorter distance, so only the naive probe is exact.
  const Loop loop = parse_loop("loop far { x = load X[i]; y = fadd x, x; store X[i+100], y; }");
  EXPECT_FALSE(unroll_probe_is_exact(loop));

  const MachineConfig machine = MachineConfig::single_cluster_machine(12);
  const UnrollProbe fast = probe_unroll_factor(loop, machine);
  EXPECT_FALSE(fast.incremental);
  expect_probe_identical(fast, probe_unroll_factor_naive(loop, machine), loop.name);

  // Nearby references stay on the fast path.
  const Loop near = parse_loop("loop near { x = load X[i]; y = fadd x, x; store X[i+3], y; }");
  EXPECT_TRUE(unroll_probe_is_exact(near));
  EXPECT_TRUE(probe_unroll_factor(near, machine).incremental);
}

TEST(SelectUnroll, ProbeHandsBackWinnerArtifacts) {
  const MachineConfig machine = MachineConfig::single_cluster_machine(12);

  // offset_add wants unrolling on a wide machine: the winner is prebuilt.
  const Loop tiny = kernel_by_name("offset_add");
  const UnrollProbe unrolled = probe_unroll_factor(tiny, machine);
  ASSERT_GT(unrolled.choice.factor, 1);
  ASSERT_NE(unrolled.loop, nullptr);
  EXPECT_EQ(unrolled.loop->op_count(), tiny.op_count() * unrolled.choice.factor);
  EXPECT_EQ(unrolled.loop->stride, tiny.stride * unrolled.choice.factor);

  // geo_decay stays at factor 1: no loop to hand back.
  const Loop put = kernel_by_name("geo_decay");
  const UnrollProbe kept = probe_unroll_factor(put, machine);
  ASSERT_EQ(kept.choice.factor, 1);
  EXPECT_EQ(kept.loop, nullptr);
}

}  // namespace
}  // namespace qvliw
