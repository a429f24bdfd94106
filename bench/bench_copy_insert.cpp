// Copy-insertion microbenchmark — cold two-step rewrite vs the fused
// incremental path.
//
// The cold path is what the pipeline did before the rewrite was made
// analytic: insert_copies() to rewrite the loop, then a full Ddg::build()
// on the result (which recomputes the quadratic memory-dependence scan and
// revalidates the rewritten loop).  The fused path is
// insert_copies_with_graph(): one arena-backed rewrite pass that derives
// the post-copy DDG incrementally from the pre-copy memory dependences
// mapped through op_map.  Both paths must produce an identical loop
// (content hash) and an identical edge list — the bench fails otherwise,
// so it doubles as a golden-equivalence gate over the full suite.
//
// Timings are bucketed by pre-rewrite loop size so the per-loop-size
// scaling of the two paths is visible, and emitted as a machine-readable
// BENCH_copy_insert.json (override with argv[1] or QVLIW_COPY_BENCH_JSON),
// which CI uploads as an artifact.
//
//   QVLIW_LOOPS=200 QVLIW_COPY_REPS=3 ./build/bench/bench_copy_insert [out.json]
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/experiment.h"
#include "support/strings.h"
#include "support/table.h"
#include "xform/copy_insert.h"

namespace qvliw {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int env_reps() {
  if (const char* env = std::getenv("QVLIW_COPY_REPS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 5;
}

bool same_edges(const Ddg& a, const Ddg& b) {
  if (a.node_count() != b.node_count() || a.edge_count() != b.edge_count()) return false;
  for (int e = 0; e < a.edge_count(); ++e) {
    const DepEdge& x = a.edge(e);
    const DepEdge& y = b.edge(e);
    if (x.src != y.src || x.dst != y.dst || x.latency != y.latency ||
        x.distance != y.distance || x.kind != y.kind || x.dst_arg != y.dst_arg) {
      return false;
    }
  }
  return true;
}

/// Size buckets over the pre-rewrite op count.
struct Bucket {
  const char* label;
  int min_ops;
  int max_ops;  // inclusive; INT_MAX-ish sentinel for the last bucket
  int loops = 0;
  long long copies = 0;
  double cold_seconds = 0.0;
  double fused_seconds = 0.0;
};

int run(int argc, char** argv) {
  print_banner(std::cout, "copy insertion — cold rebuild vs fused incremental DDG",
               "one analytic pass + memdep mapping replaces rewrite-then-rebuild");
  const Suite suite = bench::make_suite();
  bench::print_suite_line(std::cout, suite);

  const MachineConfig machine = MachineConfig::clustered_machine(4);
  const int reps = env_reps();
  std::cout << "reps: " << reps << " (override with QVLIW_COPY_REPS=<n>)\n\n";

  std::vector<Bucket> buckets = {
      {"<=15 ops", 0, 15},
      {"16-31 ops", 16, 31},
      {"32-63 ops", 32, 63},
      {">=64 ops", 64, 1 << 30},
  };
  const auto bucket_of = [&buckets](int ops) -> Bucket& {
    for (Bucket& b : buckets) {
      if (ops >= b.min_ops && ops <= b.max_ops) return b;
    }
    return buckets.back();
  };

  bool equivalent = true;
  for (const Loop& loop : suite.loops) {
    Bucket& bucket = bucket_of(loop.op_count());
    ++bucket.loops;

    // Equivalence first (untimed): the fused path must reproduce the cold
    // path's loop and graph exactly.
    const CopyInsertResult cold = insert_copies(loop);
    const Ddg cold_graph = Ddg::build(cold.loop, machine.latency);
    const CopyInsertWithGraph fused = insert_copies_with_graph(loop, machine.latency);
    bucket.copies += cold.copies_added;
    if (cold.loop.content_hash() != fused.rewrite.loop.content_hash() ||
        cold.copies_added != fused.rewrite.copies_added ||
        cold.op_map != fused.rewrite.op_map || !same_edges(cold_graph, fused.graph)) {
      equivalent = false;
      std::cerr << "MISMATCH on loop " << loop.name << "\n";
    }

    for (int rep = 0; rep < reps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      const CopyInsertResult rewrite = insert_copies(loop);
      const Ddg graph = Ddg::build(rewrite.loop, machine.latency);
      bucket.cold_seconds += seconds_since(t0);
      // Keep the results alive past the clock reads.
      if (graph.edge_count() < 0) std::abort();

      const Clock::time_point t1 = Clock::now();
      const CopyInsertWithGraph f = insert_copies_with_graph(loop, machine.latency);
      bucket.fused_seconds += seconds_since(t1);
      if (f.graph.edge_count() < 0) std::abort();
    }
  }

  double cold_total = 0.0;
  double fused_total = 0.0;
  TextTable table({"bucket", "loops", "copies", "cold s", "fused s", "speedup"});
  for (const Bucket& b : buckets) {
    cold_total += b.cold_seconds;
    fused_total += b.fused_seconds;
    const double speedup = b.fused_seconds > 0.0 ? b.cold_seconds / b.fused_seconds : 0.0;
    table.add_row({std::string(b.label), static_cast<double>(b.loops),
                   static_cast<double>(b.copies), b.cold_seconds, b.fused_seconds, speedup});
  }
  table.render(std::cout);
  const double total_speedup = fused_total > 0.0 ? cold_total / fused_total : 0.0;
  std::cout << "\ntotal: cold " << fixed(cold_total, 4) << " s, fused " << fixed(fused_total, 4)
            << " s (" << fixed(total_speedup, 2) << "x); loop/graph equivalence: "
            << (equivalent ? "identical" : "MISMATCH — BUG") << "\n";

  const char* env_path = std::getenv("QVLIW_COPY_BENCH_JSON");
  const std::string out_path = argc > 1 ? argv[1]
                               : env_path != nullptr ? env_path
                                                     : "BENCH_copy_insert.json";
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"copy_insert\",\n"
      << "  \"suite_loops\": " << suite.loops.size() << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"buckets\": [";
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const Bucket& b = buckets[i];
    const double speedup = b.fused_seconds > 0.0 ? b.cold_seconds / b.fused_seconds : 0.0;
    out << (i == 0 ? "" : ",") << "\n    {\"bucket\": \"" << b.label
        << "\", \"loops\": " << b.loops << ", \"copies\": " << b.copies
        << ", \"cold_seconds\": " << fixed(b.cold_seconds, 6)
        << ", \"fused_seconds\": " << fixed(b.fused_seconds, 6)
        << ", \"speedup\": " << fixed(speedup, 3) << "}";
  }
  out << "\n  ],\n"
      << "  \"cold_seconds\": " << fixed(cold_total, 6) << ",\n"
      << "  \"fused_seconds\": " << fixed(fused_total, 6) << ",\n"
      << "  \"speedup\": " << fixed(total_speedup, 3) << ",\n"
      << "  \"equivalent\": " << (equivalent ? "true" : "false") << "\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return equivalent ? 0 : 1;
}

}  // namespace
}  // namespace qvliw

int main(int argc, char** argv) { return qvliw::run(argc, argv); }
