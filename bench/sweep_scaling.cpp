// Worker-scaling contention micro-bench.
//
// Runs the perf_micro multi-heuristic sweep uncached at a ladder of
// worker counts (default 1,2,4,8 — override with --counts 1,2,3) and
// reports per-count throughput plus the determinism check that justifies
// the whole threading design: every count's sweep_result_fingerprint
// must equal the single-worker run's.  Worker counts above the hardware
// thread count still run with that many real threads (SweepOptions::
// workers is an explicit request), so the identity check exercises true
// contention even on small boxes — only the *speedup* is meaningless
// there, which is why the JSON records hardware_threads and
// tools/check_bench_regression.py --scaling only enforces its
// parallel_speedup floor when the machine has 2+ hardware threads.
//
// parallel_speedup = best multi-worker throughput / single-worker
// throughput of this run (not a committed baseline): the bench measures
// how the *same binary on the same box* scales, so the floor is immune
// to hardware drift.
//
//   QVLIW_LOOPS=200 ./build/bench/sweep_scaling [out.json] [--counts 1,2,4,8]
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/shard.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qvliw {
namespace {

std::vector<int> parse_counts(const std::string& spec) {
  std::vector<int> counts;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item = spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const int n = std::atoi(item.c_str());
    if (n > 0) counts.push_back(n);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return counts;
}

struct CountResult {
  int workers = 0;
  double wall_seconds = 0.0;
  double loops_per_second = 0.0;
  std::uint64_t fingerprint = 0;
  bool identical = false;
};

int run(int argc, char** argv) {
  std::vector<int> counts = {1, 2, 4, 8};
  std::string out_override;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--counts" && a + 1 < argc) {
      counts = parse_counts(argv[++a]);
    } else if (arg == "--help" || (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-')) {
      std::cout << "usage: sweep_scaling [out.json] [--counts 1,2,4,8]\n";
      return arg == "--help" ? 0 : 1;
    } else {
      out_override = arg;
    }
  }
  if (counts.empty() || counts[0] != 1) counts.insert(counts.begin(), 1);

  print_banner(std::cout, "scaling — sweep throughput vs worker count",
               "one fingerprint at every count, or the thread pool is broken");
  const Suite suite = bench::make_suite();
  bench::print_suite_line(std::cout, suite);
  const std::vector<SweepPoint> points = bench::perf_sweep_points();
  std::cout << "sweep: " << points.size() << " points, " << worker_count()
            << " hardware thread(s)\n\n";

  std::vector<CountResult> results;
  std::uint64_t serial_fingerprint = 0;
  double serial_lps = 0.0;
  for (const int workers : counts) {
    SweepOptions options;
    options.use_cache = false;
    options.workers = workers;
    options.parallel = workers > 1;
    std::cout << "running with " << workers << " worker(s)...\n";
    const SweepResult sweep = SweepRunner(options).run(suite.loops, points);

    CountResult r;
    r.workers = workers;
    r.wall_seconds = sweep.wall_seconds;
    r.loops_per_second = sweep.pipelines_per_second();
    r.fingerprint = hash_bytes(sweep_result_fingerprint(sweep));
    if (workers == 1) {
      serial_fingerprint = r.fingerprint;
      serial_lps = r.loops_per_second;
    }
    r.identical = r.fingerprint == serial_fingerprint;
    results.push_back(r);
  }

  bool all_identical = true;
  double best_parallel_lps = 0.0;
  TextTable table({"workers", "wall s", "loops/s", "speedup", "identical"});
  for (const CountResult& r : results) {
    all_identical = all_identical && r.identical;
    if (r.workers > 1) best_parallel_lps = std::max(best_parallel_lps, r.loops_per_second);
    table.add_row({std::to_string(r.workers), r.wall_seconds, r.loops_per_second,
                   cat(fixed(serial_lps > 0.0 ? r.loops_per_second / serial_lps : 0.0, 2), "x"),
                   std::string(r.identical ? "yes" : "NO — BUG")});
  }
  table.render(std::cout);
  const double parallel_speedup =
      serial_lps > 0.0 && best_parallel_lps > 0.0 ? best_parallel_lps / serial_lps : 1.0;
  std::cout << "\nbest parallel speedup: " << fixed(parallel_speedup, 2)
            << "x; all counts identical: " << (all_identical ? "yes" : "NO — BUG") << "\n";

  const char* env_path = std::getenv("QVLIW_SCALING_JSON");
  const std::string out_path = !out_override.empty() ? out_override
                               : env_path != nullptr ? env_path
                                                     : "BENCH_sweep_scaling.json";
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"sweep_scaling\",\n"
      << "  \"suite_loops\": " << suite.loops.size() << ",\n"
      << "  \"sweep_points\": " << points.size() << ",\n"
      << "  \"hardware_threads\": " << worker_count() << ",\n"
      << "  \"counts\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CountResult& r = results[i];
    out << (i == 0 ? "" : ",") << "\n    {\"workers\": " << r.workers
        << ", \"wall_seconds\": " << fixed(r.wall_seconds, 6)
        << ", \"loops_per_second\": " << fixed(r.loops_per_second, 2)
        << ", \"fingerprint\": \"" << std::hex << r.fingerprint << std::dec
        << "\", \"identical\": " << (r.identical ? "true" : "false") << "}";
  }
  out << "\n  ],\n"
      << "  \"parallel_speedup\": " << fixed(parallel_speedup, 3) << ",\n"
      << "  \"scaling_results_identical\": " << (all_identical ? "true" : "false") << "\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace qvliw

int main(int argc, char** argv) { return qvliw::run(argc, argv); }
