// Randomized fuzz oracle cross-checking the static verifier against the
// cycle-accurate simulator (sim/vliwsim).
//
// Two directions, over synthesized loops x randomized machines:
//
//   1. Completeness: artifacts the pipeline produced must be
//      verifier-clean and must simulate bit-identically to the reference
//      interpreter.  A violation is a verifier false positive; a failed
//      simulation of a verifier-clean artifact means the two oracles
//      disagree.
//   2. Soundness: a *mutated* schedule the verifier accepts (with queues
//      reallocated for it) must still simulate bit-identically to the
//      reference interpreter.  A divergence here means the verifier
//      missed a legality rule the hardware model enforces.
//
// Both run twice: on machines with the classic or unit latency model,
// and on machines where each opcode's latency is 0 with probability 1/2
// (a value pushed and popped in one cycle).  Pair count defaults to 500
// per run (QVLIW_FUZZ_PAIRS overrides).  Divergences are reported as
// repros: the loop in parseable DSL text, the machine shape, the
// mutation, and the smallest failing trip count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/stage.h"
#include "ir/printer.h"
#include "machine/fu.h"
#include "qrf/queue_alloc.h"
#include "sim/vliwsim.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "support/strings.h"
#include "verify/verify.h"
#include "workload/synth.h"

namespace qvliw {
namespace {

int fuzz_pairs() {
  if (const char* env = std::getenv("QVLIW_FUZZ_PAIRS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 500;
}

/// A machine the generators never hand the pipeline: random cluster
/// count, FU mix, queue counts/depths and latency model, structurally
/// valid by construction.  With `zero_latencies`, each opcode's latency
/// is then set to 0 with probability 1/2.
MachineConfig random_machine(Rng& rng, bool zero_latencies) {
  const int clusters = rng.uniform_int(1, 4);
  MachineConfig machine;
  if (clusters == 1) {
    machine = MachineConfig::single_cluster_machine(3 * rng.uniform_int(1, 4));
  } else {
    machine = MachineConfig::clustered_machine(clusters);
    machine.segment.queues_per_segment = 4 << rng.uniform_int(0, 1);
    machine.segment.queue_depth = 8 << rng.uniform_int(0, 1);
  }
  for (ClusterConfig& cluster : machine.clusters) {
    cluster.fus(FuKind::kLS) = rng.uniform_int(1, 2);
    cluster.fus(FuKind::kAdd) = rng.uniform_int(1, 2);
    cluster.fus(FuKind::kMul) = rng.uniform_int(1, 2);
    cluster.fus(FuKind::kCopy) = rng.uniform_int(1, 2);
    cluster.private_queues = 8 << rng.uniform_int(0, 2);
    cluster.queue_depth = 8 << rng.uniform_int(0, 1);
  }
  if (rng.chance(0.25)) machine.latency = LatencyModel::unit();
  if (zero_latencies) {
    for (int& latency : machine.latency.latency) {
      if (rng.chance(0.5)) latency = 0;
    }
  }
  machine.name = cat("fuzz-", clusters, "c");
  machine.validate();
  return machine;
}

std::string describe_machine(const MachineConfig& machine) {
  std::string out = cat(machine.name, " [");
  for (int c = 0; c < machine.cluster_count(); ++c) {
    const ClusterConfig& cluster = machine.cluster(c);
    out += cat(c == 0 ? "" : " | ", cluster.fus(FuKind::kLS), "L/S ", cluster.fus(FuKind::kAdd),
               "A ", cluster.fus(FuKind::kMul), "M ", cluster.fus(FuKind::kCopy), "C q",
               cluster.private_queues, "x", cluster.queue_depth);
  }
  out += cat("] ring q", machine.segment.queues_per_segment, "x", machine.segment.queue_depth,
             ", latencies");
  for (const int latency : machine.latency.latency) out += cat(" ", latency);
  return out;
}

/// Smallest trip count (from a short ladder) still failing the checked
/// simulation — the "minimized" part of a divergence repro.
long long minimize_failing_trip(const Loop& loop, const Ddg& graph, const MachineConfig& machine,
                                const Schedule& schedule, const QueueAllocation& allocation) {
  for (const long long trip : {1LL, 2LL, 3LL, 4LL, 6LL, 12LL}) {
    if (!simulate_and_check(loop, graph, machine, schedule, allocation, trip).ok) return trip;
  }
  return 12;
}

std::string repro(const char* kind, const Loop& loop, const MachineConfig& machine,
                  const Schedule& schedule, const std::string& detail) {
  return cat("[", kind, "] machine ", describe_machine(machine), ", II ", schedule.ii(), "\n",
             detail, "\nloop:\n", to_text(loop));
}

/// One random single-placement edit.  Most mutants are illegal (the
/// verifier must say so); the occasional still-legal one feeds the
/// soundness direction.
void mutate_schedule(Rng& rng, Schedule& schedule, const MachineConfig& machine) {
  const int op = rng.uniform_int(0, schedule.op_count() - 1);
  Placement placement = schedule.place(op);
  switch (rng.uniform_int(0, 2)) {
    case 0:
      placement.cycle = std::max(0, placement.cycle + rng.uniform_int(-3, 3));
      break;
    case 1:
      placement.cluster = rng.uniform_int(0, machine.cluster_count() - 1);
      break;
    default:
      placement.fu = rng.uniform_int(0, 2);
      break;
  }
  schedule.set(op, placement);
}

/// Runs both directions over fuzz_pairs() (loop, random machine) pairs
/// whose machines and mutations are drawn from a generator seeded with
/// `rng_seed`, and checks that the oracles agree.
void expect_oracles_agree(std::uint64_t rng_seed, bool zero_latencies) {
  const int pairs = fuzz_pairs();
  SynthConfig config;
  config.loops = std::min(pairs, 200);
  config.seed = 0xF122;
  const std::vector<Loop> pool = synthesize_suite(config);
  Rng rng(rng_seed);

  int compiled = 0;
  int mutants = 0;
  int mutants_legal = 0;
  std::vector<std::string> divergences;

  for (int p = 0; p < pairs && divergences.size() < 5; ++p) {
    const Loop& source = pool[static_cast<std::size_t>(p) % pool.size()];
    const MachineConfig machine = random_machine(rng, zero_latencies);
    PipelineOptions options;
    if (machine.cluster_count() > 1) options.scheduler = SchedulerKind::kClustered;

    PipelineContext ctx(source, machine, options);
    if (run_front_end(ctx)) run_back_end(ctx);
    if (!ctx.result.ok) continue;  // many pairs are simply unschedulable
    ++compiled;

    // Direction 1: pipeline artifacts must verify clean and simulate.
    const VerifyReport clean =
        verify_artifacts(ctx.loop, *ctx.graph, machine, ctx.sched.schedule, &ctx.allocation,
                         /*check_fanout=*/true, ctx.result.fits_machine_queues);
    if (!clean.ok()) {
      divergences.push_back(repro("false-positive", ctx.loop, machine, ctx.sched.schedule,
                                  cat("verifier rejects a pipeline artifact: ",
                                      clean.summary())));
      continue;
    }
    const CheckedSim proven = simulate_and_check(ctx.loop, *ctx.graph, machine,
                                                 ctx.sched.schedule, ctx.allocation, 12);
    if (!proven.ok) {
      const long long trip = minimize_failing_trip(ctx.loop, *ctx.graph, machine,
                                                   ctx.sched.schedule, ctx.allocation);
      divergences.push_back(repro("sim-rejects-clean", ctx.loop, machine, ctx.sched.schedule,
                                  cat("verifier-clean pipeline artifact fails simulation at trip ",
                                      trip, ": ", proven.failure)));
      continue;
    }

    // Direction 2: a verifier-accepted mutant must still simulate
    // correctly.
    Schedule mutant = ctx.sched.schedule;
    mutate_schedule(rng, mutant, machine);
    ++mutants;
    VerifyReport verdict = verify_ddg(ctx.loop, *ctx.graph, machine.latency);
    verdict.merge(verify_modulo_schedule(ctx.loop, *ctx.graph, machine, mutant));
    verdict.merge(verify_routing(ctx.loop, *ctx.graph, machine, mutant, /*check_fanout=*/true));
    QueueAllocation reallocated;
    bool allocated = false;
    if (mutant.complete()) {
      try {
        reallocated = allocate_queues(ctx.loop, *ctx.graph, machine, mutant);
        allocated = true;
      } catch (const Error&) {
        // The allocator refuses (non-adjacent flow); the verifier must
        // have refused too — checked below via verdict.ok().
      }
    }
    if (allocated) {
      verdict.merge(verify_queue_allocation(ctx.loop, *ctx.graph, machine, mutant, reallocated,
                                            /*must_fit=*/false));
    }
    if (!verdict.ok()) continue;  // verifier rejected the mutant: nothing to cross-check

    ++mutants_legal;
    if (!allocated) {
      divergences.push_back(repro("no-allocation", ctx.loop, machine, mutant,
                                  "verifier accepted a mutant the queue allocator rejects"));
      continue;
    }
    const CheckedSim sim =
        simulate_and_check(ctx.loop, *ctx.graph, machine, mutant, reallocated, 12);
    if (!sim.ok) {
      const long long trip =
          minimize_failing_trip(ctx.loop, *ctx.graph, machine, mutant, reallocated);
      divergences.push_back(repro("false-negative", ctx.loop, machine, mutant,
                                  cat("verifier-accepted mutant fails simulation at trip ",
                                      trip, ": ", sim.failure)));
    }
  }

  std::string all;
  for (const std::string& d : divergences) all += d + "\n\n";
  EXPECT_TRUE(divergences.empty()) << all;
  // The oracle only means something if it exercised both directions.
  EXPECT_GT(compiled, pairs / 10) << "too few pairs compiled; fuzz coverage collapsed";
  EXPECT_GT(mutants, 0);
  std::cout << "[fuzz] " << pairs << " pairs, " << compiled << " compiled, " << mutants
            << " mutants (" << mutants_legal << " verifier-legal)\n";
}

TEST(VerifyFuzz, ValidatorVerdictsMatchTheSimulator) {
  expect_oracles_agree(0xFE57, /*zero_latencies=*/false);
}

// Latency-0 results are pushed and popped in one cycle; the verifier, the
// schedulers and the queue model all accept that, and so must the
// simulator.  A separate seed keeps the test above drawing as before.
TEST(VerifyFuzz, ZeroLatencyVerdictsMatchTheSimulator) {
  expect_oracles_agree(0x2E40, /*zero_latencies=*/true);
}


}  // namespace
}  // namespace qvliw
