// Pipeline performance microbenchmark.
//
// Times the multi-heuristic sweep that the prefix-artifact cache was
// built for — every point shares the unrolled/copy-inserted loop, DDG and
// MII bounds of the 4-cluster machine and differs only in back-end
// scheduling options — once with the cache off and once with it on.  The
// points form ascending-budget ladders per heuristic, so in the cached run
// each larger-budget point installs the MII-optimal schedule its smaller-
// budget sibling proved instead of re-searching.  Both runs are verified
// identical.  Emits a machine-readable BENCH_pipeline.json (override the
// path with QVLIW_BENCH_JSON or argv[1]) with per-stage wall times, cache
// and memo hit counts, per-point backend labels, back-end throughput, the
// cache speedup, and the cached run's outcome `fingerprint`, to track the
// perf trajectory across commits (tools/check_bench_regression.py gates
// CI on it).
//
// Every sweep runs on SweepOptions::workers threads (--workers N /
// QVLIW_WORKERS, 0 = one per hardware thread).  When more than one
// worker resolves, an extra single-threaded uncached run provides the
// serial baseline: `parallel_speedup` = serial wall / threaded wall, and
// `parallel_results_identical` asserts the threaded sweep is
// result-identical to the serial one (the determinism contract CI gates).
//
//   QVLIW_LOOPS=200 ./build/bench/perf_micro [out.json] [--workers N]
//                    [--topology ring|mesh|crossbar] [--clusters N]
//   ./build/bench/perf_micro --list-backends   # registry contents only
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "harness/shard.h"
#include "sched/backend.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qvliw {
namespace {

/// Equal outcomes in every semantic LoopResult field.
bool results_identical(const SweepResult& a, const SweepResult& b) {
  return sweep_result_fingerprint(a) == sweep_result_fingerprint(b);
}

/// Search-effort telemetry summed over every cell of a run (the new
/// ImsStats fields the arena searcher reports).
struct SchedTelemetry {
  long long placements = 0;
  long long evictions = 0;
  long long forced = 0;
  long long budget_spent = 0;
  long long mii_optimal = 0;   // cells whose accepted II == MII
  bool ii_consistent = true;   // every mii_optimal cell really has ii == mii
};

SchedTelemetry sched_telemetry(const SweepResult& sweep) {
  SchedTelemetry t;
  for (const std::vector<LoopResult>& point : sweep.by_point) {
    for (const LoopResult& r : point) {
      t.placements += r.sched_stats.placements;
      t.evictions += r.sched_stats.evictions;
      t.forced += r.sched_stats.forced;
      t.budget_spent += r.sched_stats.budget_spent;
      if (r.sched_stats.mii_optimal) {
        ++t.mii_optimal;
        if (!r.ok || r.ii != r.mii) t.ii_consistent = false;
      }
    }
  }
  return t;
}

/// The MII-optimality bit is an outcome property (II == MII), so it must
/// agree cell-for-cell across runs regardless of how each run obtained
/// its schedule (search or ladder memo install).
bool mii_optimal_identical(const SweepResult& a, const SweepResult& b) {
  if (a.by_point.size() != b.by_point.size()) return false;
  for (std::size_t p = 0; p < a.by_point.size(); ++p) {
    if (a.by_point[p].size() != b.by_point[p].size()) return false;
    for (std::size_t i = 0; i < a.by_point[p].size(); ++i) {
      if (a.by_point[p][i].sched_stats.mii_optimal != b.by_point[p][i].sched_stats.mii_optimal) {
        return false;
      }
    }
  }
  return true;
}

void print_backends(std::ostream& os) {
  os << "registered scheduler backends:";
  for (const std::string& name : SchedulerRegistry::instance().names()) os << " " << name;
  os << "\n";
}

void write_stage_seconds(std::ostream& os, const SweepResult& sweep, const char* indent) {
  os << "{";
  bool first = true;
  for (const StageTotal& total : sweep.stage_totals) {
    os << (first ? "" : ",") << "\n" << indent << "  \"" << total.stage
       << "\": " << fixed(total.seconds, 6);
    first = false;
  }
  os << "\n" << indent << "}";
}

void write_run(std::ostream& os, const char* name, const SweepResult& sweep) {
  const SchedTelemetry telemetry = sched_telemetry(sweep);
  const double backend_s = bench::backend_seconds(sweep);
  const double backend_lps =
      backend_s > 0.0 ? static_cast<double>(sweep.pipelines) / backend_s : 0.0;
  os << "  \"" << name << "\": {\n"
     << "    \"wall_seconds\": " << fixed(sweep.wall_seconds, 6) << ",\n"
     << "    \"pipelines\": " << sweep.pipelines << ",\n"
     << "    \"loops_per_second\": " << fixed(sweep.pipelines_per_second(), 2) << ",\n"
     << "    \"backend_seconds\": " << fixed(backend_s, 6) << ",\n"
     << "    \"backend_loops_per_second\": " << fixed(backend_lps, 2) << ",\n"
     << "    \"cache_hit_rate\": " << fixed(sweep.cache.hit_rate(), 6) << ",\n"
     << "    \"cache_probes\": " << sweep.cache.probes() << ",\n"
     << "    \"cache_hits\": " << sweep.cache.hits() << ",\n"
     << "    \"sched_memo_probes\": " << sweep.cache.sched_memo_probes << ",\n"
     << "    \"sched_memo_hits\": " << sweep.cache.sched_memo_hits << ",\n"
     << "    \"verify_checked\": " << sweep.verify_checked() << ",\n"
     << "    \"verify_violations\": " << sweep.verify_violations() << ",\n"
     << "    \"sched_placements\": " << telemetry.placements << ",\n"
     << "    \"sched_evictions\": " << telemetry.evictions << ",\n"
     << "    \"sched_forced\": " << telemetry.forced << ",\n"
     << "    \"sched_budget_spent\": " << telemetry.budget_spent << ",\n"
     << "    \"sched_mii_optimal\": " << telemetry.mii_optimal << ",\n"
     << "    \"mii_optimal_ii_consistent\": " << (telemetry.ii_consistent ? "true" : "false")
     << ",\n"
     << "    \"stage_seconds\": ";
  write_stage_seconds(os, sweep, "    ");
  os << "\n  }";
}

void write_points(std::ostream& os, const std::vector<SweepPoint>& points) {
  os << "  \"points\": [";
  for (std::size_t p = 0; p < points.size(); ++p) {
    const SchedulerBackend* backend =
        find_scheduler_backend(points[p].options.scheduler, points[p].options.backend);
    os << (p == 0 ? "" : ",") << "\n    {\"label\": \"" << points[p].label << "\", \"backend\": \""
       << (backend != nullptr ? backend->name() : std::string_view("<unknown>"))
       << "\", \"budget_ratio\": " << points[p].options.ims.budget_ratio << "}";
  }
  os << "\n  ]";
}

int run(int argc, char** argv) {
  int workers_request = bench::env_workers();
  bench::TopologyChoice topology;
  std::string out_override;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--list-backends") {
      print_backends(std::cout);
      return 0;
    }
    if (arg == "--workers" && a + 1 < argc) {
      workers_request = std::atoi(argv[++a]);
    } else if (arg == "--topology" || arg == "--clusters") {
      if (!topology.parse_flag(argc, argv, a)) {
        std::cerr << "bad " << arg << " value\n";
        return 2;
      }
    } else {
      out_override = arg;
    }
  }

  print_banner(std::cout, "perf — sweep throughput and prefix-cache speedup",
               "shared front ends + the ladder memo shrink sweeps to their novel work");
  print_backends(std::cout);
  const Suite suite = bench::make_suite();
  bench::print_suite_line(std::cout, suite);

  SweepOptions uncached_options;
  uncached_options.use_cache = false;
  uncached_options.workers = workers_request;
  // Every run of this bench re-verifies every emitted artifact with the
  // independent legality checker and fails the loop on any violation, so
  // results_identical doubles as a translation-validation gate.
  uncached_options.verify_mode = SweepVerifyMode::kStrict;
  const int workers = resolved_sweep_workers(uncached_options);

  const std::vector<SweepPoint> points = bench::perf_sweep_points(topology);
  std::cout << "sweep: " << points.size() << " points (3 heuristics x 2 IMS budgets on the "
            << topology.clusters << "-cluster " << topology_kind_name(topology.kind) << "), "
            << workers << " worker(s)\n\n";

  // Serial baseline for parallel_speedup, only worth a run when the
  // threaded sweeps actually use more than one worker.
  bool parallel_identical = true;
  double parallel_speedup = 1.0;
  SweepResult serial;
  if (workers > 1) {
    SweepOptions serial_options = uncached_options;
    serial_options.workers = 1;
    serial_options.parallel = false;
    std::cout << "running serial baseline (1 worker, uncached)...\n";
    serial = SweepRunner(serial_options).run(suite.loops, points);
  }

  std::cout << "running uncached (every point recomputes its front end)...\n";
  const SweepResult uncached = SweepRunner(uncached_options).run(suite.loops, points);
  if (workers > 1) {
    parallel_identical = results_identical(serial, uncached);
    parallel_speedup =
        uncached.wall_seconds > 0.0 ? serial.wall_seconds / uncached.wall_seconds : 0.0;
  }

  SweepOptions cached_options = uncached_options;
  cached_options.use_cache = true;
  std::cout << "running cached (prefix artifacts shared across points)...\n";
  const SweepResult cached = SweepRunner(cached_options).run(suite.loops, points);

  const bool identical = results_identical(uncached, cached);
  const bool optimality_identical = mii_optimal_identical(uncached, cached);
  const double speedup =
      cached.wall_seconds > 0.0 ? uncached.wall_seconds / cached.wall_seconds : 0.0;
  char fingerprint[17];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(hash_bytes(sweep_result_fingerprint(cached))));

  TextTable table({"variant", "wall s", "backend s", "loops/s", "cache hit"});
  table.add_row({std::string("uncached"), uncached.wall_seconds,
                 bench::backend_seconds(uncached), uncached.pipelines_per_second(),
                 percent(uncached.cache.hit_rate())});
  table.add_row({std::string("cached"), cached.wall_seconds, bench::backend_seconds(cached),
                 cached.pipelines_per_second(), percent(cached.cache.hit_rate())});
  table.render(std::cout);
  if (workers > 1) {
    std::cout << "\nparallel: " << workers << " workers, " << fixed(parallel_speedup, 2)
              << "x over serial; threaded results identical: "
              << (parallel_identical ? "yes" : "NO — BUG") << "\n";
  }
  std::cout << "\ncache speedup: " << fixed(speedup, 2)
            << "x; results identical: " << (identical ? "yes" : "NO — BUG") << "\n"
            << "ladder memo: " << cached.cache.sched_memo_hits << "/"
            << cached.cache.sched_memo_probes << " MII-optimal installs\n"
            << "verify: strict on every run; " << cached.verify_checked()
            << " artifact bundles checked (cached run), " << cached.verify_violations()
            << " violation(s)\n"
            << "fingerprint: " << fingerprint << "\n";
  bench::print_sweep_footer(std::cout, cached);

  const char* env_path = std::getenv("QVLIW_BENCH_JSON");
  const std::string out_path = !out_override.empty() ? out_override
                               : env_path != nullptr ? env_path
                                                     : "BENCH_pipeline.json";
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"pipeline_sweep\",\n"
      << "  \"suite_loops\": " << suite.loops.size() << ",\n"
      << "  \"sweep_points\": " << points.size() << ",\n"
      << "  \"topology\": \"" << topology_kind_name(topology.kind) << "\",\n"
      << "  \"clusters\": " << topology.clusters << ",\n"
      << "  \"workers\": " << workers << ",\n"
      << "  \"hardware_threads\": " << worker_count() << ",\n"
      << "  \"fingerprint\": \"" << fingerprint << "\",\n"
      << "  \"backends\": [";
  {
    const std::vector<std::string> names = SchedulerRegistry::instance().names();
    for (std::size_t b = 0; b < names.size(); ++b) {
      out << (b == 0 ? "" : ", ") << "\"" << names[b] << "\"";
    }
  }
  out << "],\n";
  write_points(out, points);
  out << ",\n";
  write_run(out, "uncached", uncached);
  out << ",\n";
  write_run(out, "cached", cached);
  out << ",\n"
      << "  \"cache_speedup\": " << fixed(speedup, 3) << ",\n"
      << "  \"parallel_speedup\": " << fixed(parallel_speedup, 3) << ",\n"
      << "  \"parallel_results_identical\": " << (parallel_identical ? "true" : "false") << ",\n"
      << "  \"mii_optimal_identical\": " << (optimality_identical ? "true" : "false") << ",\n"
      << "  \"results_identical\": " << (identical ? "true" : "false") << "\n"
      << "}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return identical && parallel_identical && optimality_identical ? 0 : 1;
}

}  // namespace
}  // namespace qvliw

int main(int argc, char** argv) { return qvliw::run(argc, argv); }
