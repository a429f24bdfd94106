// IMS search microbenchmark — allocation-free arena searcher vs the
// frozen set-based reference implementation.
//
// The arena path is sched/ims.cpp: one searcher allocation per call,
// O(touched) reset between II attempts, a height-bucketed bitset ready
// queue and a bitmask MRT.  The reference path is sched/ims_reference.cpp:
// the same algorithm written the straightforward way (std::set ready
// queue, per-attempt allocation, linear FU probes).  Both must produce
// bit-identical schedules and identical search effort on every loop — the
// bench fails otherwise, so it doubles as a golden-equivalence gate over
// the full suite.
//
// Timings are bucketed by loop size, and emitted as machine-readable
// BENCH_ims.json (override with argv[1] or QVLIW_IMS_BENCH_JSON) for CI
// artifact upload next to BENCH_pipeline.json.
//
//   QVLIW_LOOPS=200 QVLIW_IMS_REPS=3 ./build/bench/bench_ims [out.json]
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sched/ims.h"
#include "sched/ims_reference.h"
#include "support/blob.h"

namespace qvliw {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int env_reps() {
  if (const char* env = std::getenv("QVLIW_IMS_REPS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 5;
}

std::string schedule_bytes(const Schedule& schedule) {
  BlobWriter out;
  serialize_schedule(out, schedule);
  return out.take();
}

/// Size buckets over the loop's op count.
struct Bucket {
  const char* label;
  int min_ops;
  int max_ops;  // inclusive; INT_MAX-ish sentinel for the last bucket
  int loops = 0;
  long long placements = 0;
  long long evictions = 0;
  long long attempts = 0;
  double arena_seconds = 0.0;
  double reference_seconds = 0.0;
};

int run(int argc, char** argv) {
  print_banner(std::cout, "IMS search — arena searcher vs set-based reference",
               "bucket ready queue + bitmask MRT replace std::set and per-attempt allocation");
  const Suite suite = bench::make_suite();
  bench::print_suite_line(std::cout, suite);

  const MachineConfig machine = MachineConfig::single_cluster_machine(6);
  const int reps = env_reps();
  std::cout << "machine: " << machine.name << "; reps: " << reps
            << " (override with QVLIW_IMS_REPS=<n>)\n\n";

  std::vector<Bucket> buckets = {
      {"<8 ops", 0, 7},
      {"8-15 ops", 8, 15},
      {"16-31 ops", 16, 31},
      {">=32 ops", 32, 1 << 30},
  };
  const auto bucket_of = [&buckets](int ops) -> Bucket& {
    for (Bucket& b : buckets) {
      if (ops >= b.min_ops && ops <= b.max_ops) return b;
    }
    return buckets.back();
  };

  bool equivalent = true;
  for (const Loop& loop : suite.loops) {
    const Ddg graph = Ddg::build(loop, machine.latency);
    Bucket& bucket = bucket_of(loop.op_count());
    ++bucket.loops;

    // Equivalence first (untimed): same accept decision, II, schedule
    // bytes and search effort.  Anything else is a searcher bug.
    const ImsResult arena = ims_schedule(loop, graph, machine);
    const ImsResult reference = ims_schedule_reference(loop, graph, machine);
    bucket.placements += arena.stats.placements;
    bucket.evictions += arena.stats.evictions;
    bucket.attempts += arena.stats.ii_attempts;
    const bool same =
        arena.ok == reference.ok && arena.stats.placements == reference.stats.placements &&
        arena.stats.evictions == reference.stats.evictions &&
        arena.stats.ii_attempts == reference.stats.ii_attempts &&
        (!arena.ok || (arena.ii == reference.ii &&
                       schedule_bytes(arena.schedule) == schedule_bytes(reference.schedule)));
    if (!same) {
      equivalent = false;
      std::cerr << "MISMATCH on loop " << loop.name << "\n";
    }

    for (int rep = 0; rep < reps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      const ImsResult a = ims_schedule(loop, graph, machine);
      bucket.arena_seconds += seconds_since(t0);
      // Keep the results alive past the clock reads.
      if (a.stats.placements < 0) std::abort();

      const Clock::time_point t1 = Clock::now();
      const ImsResult r = ims_schedule_reference(loop, graph, machine);
      bucket.reference_seconds += seconds_since(t1);
      if (r.stats.placements < 0) std::abort();
    }
  }

  double arena_total = 0.0;
  double reference_total = 0.0;
  long long attempts_total = 0;
  long long placements_total = 0;
  long long evictions_total = 0;
  TextTable table({"bucket", "loops", "attempts/s", "evict/place", "arena s", "ref s", "speedup"});
  for (const Bucket& b : buckets) {
    arena_total += b.arena_seconds;
    reference_total += b.reference_seconds;
    attempts_total += b.attempts;
    placements_total += b.placements;
    evictions_total += b.evictions;
    const double attempts_per_sec =
        b.arena_seconds > 0.0 ? static_cast<double>(b.attempts) * reps / b.arena_seconds : 0.0;
    const double evictions_per_placement =
        b.placements > 0 ? static_cast<double>(b.evictions) / static_cast<double>(b.placements)
                         : 0.0;
    const double speedup = b.arena_seconds > 0.0 ? b.reference_seconds / b.arena_seconds : 0.0;
    table.add_row({std::string(b.label), static_cast<double>(b.loops), attempts_per_sec,
                   evictions_per_placement, b.arena_seconds, b.reference_seconds, speedup});
  }
  table.render(std::cout);
  const double total_speedup = arena_total > 0.0 ? reference_total / arena_total : 0.0;
  std::cout << "\ntotal: arena " << fixed(arena_total, 4) << " s, reference "
            << fixed(reference_total, 4) << " s (" << fixed(total_speedup, 2)
            << "x); schedule equivalence: " << (equivalent ? "identical" : "MISMATCH — BUG")
            << "\n";

  const char* env_path = std::getenv("QVLIW_IMS_BENCH_JSON");
  const std::string out_path = argc > 1 ? argv[1]
                               : env_path != nullptr ? env_path
                                                     : "BENCH_ims.json";
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"ims_search\",\n"
      << "  \"suite_loops\": " << suite.loops.size() << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"buckets\": [";
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const Bucket& b = buckets[i];
    const double attempts_per_sec =
        b.arena_seconds > 0.0 ? static_cast<double>(b.attempts) * reps / b.arena_seconds : 0.0;
    const double evictions_per_placement =
        b.placements > 0 ? static_cast<double>(b.evictions) / static_cast<double>(b.placements)
                         : 0.0;
    const double speedup = b.arena_seconds > 0.0 ? b.reference_seconds / b.arena_seconds : 0.0;
    out << (i == 0 ? "" : ",") << "\n    {\"bucket\": \"" << b.label
        << "\", \"loops\": " << b.loops << ", \"attempts_per_second\": "
        << fixed(attempts_per_sec, 1) << ", \"evictions_per_placement\": "
        << fixed(evictions_per_placement, 4) << ", \"arena_seconds\": "
        << fixed(b.arena_seconds, 6) << ", \"reference_seconds\": "
        << fixed(b.reference_seconds, 6) << ", \"speedup\": " << fixed(speedup, 3) << "}";
  }
  out << "\n  ],\n"
      << "  \"attempts\": " << attempts_total << ",\n"
      << "  \"placements\": " << placements_total << ",\n"
      << "  \"evictions\": " << evictions_total << ",\n"
      << "  \"arena_seconds\": " << fixed(arena_total, 6) << ",\n"
      << "  \"reference_seconds\": " << fixed(reference_total, 6) << ",\n"
      << "  \"speedup\": " << fixed(total_speedup, 3) << ",\n"
      << "  \"equivalent\": " << (equivalent ? "true" : "false") << "\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return equivalent ? 0 : 1;
}

}  // namespace
}  // namespace qvliw

int main(int argc, char** argv) { return qvliw::run(argc, argv); }
