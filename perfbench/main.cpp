// qvliw_perfbench — one workload, one seed, one run.
//
//   qvliw_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--suite full|small] [--trace-out FILE]
//   qvliw_perfbench --selftest
//
// --trace 0 measures the end-to-end metrics for S seconds: rounds of one
// set-up (setup_s), one serial run_pipeline pass over every cell (per-cell
// latency) and strict-verified sweeps on kSweepWorkers threads
// (cells_per_s).  --trace 1 runs untraced and traced passes over the same
// cells for S seconds, writes the first traced pass's spans to the
// --trace-out file, which it requires, and reports the per-layer metrics.
// Either way every output is checked (verify violations,
// fingerprint drift between sweeps, run_pipeline/traced outcomes against
// the sweep) and any failure exits 1.  The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <optional>

#include "bench.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "support/strings.h"
#include "workload/suite.h"

namespace qvliw::perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1998;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;  // small_suite, for the self-tests
  std::string trace_out;
  bool selftest = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    const bool has_value = a + 1 < argc;
    if (flag == "--selftest") {
      args.selftest = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++a];
      have_workload = true;
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++a], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++a]);
    } else if (flag == "--trace" && has_value) {
      const std::string value = argv[++a];
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--suite" && has_value) {
      const std::string value = argv[++a];
      if (value != "full" && value != "small") return std::nullopt;
      args.small = value == "small";
    } else if (flag == "--trace-out" && has_value) {
      args.trace_out = argv[++a];
    } else {
      return std::nullopt;
    }
  }
  if (!args.selftest && (!have_workload || args.seconds <= 0.0)) return std::nullopt;
  if (args.trace && args.trace_out.empty()) return std::nullopt;
  return args;
}

/// Loops per workload suite: twice the paper's 1258.  On a paper-sized
/// suite the draw of loops alone moves cell_p95_us by ~10% and queues_mean
/// by ~4% from one seed to the next.  More loops would damp that further
/// but leave fewer latency passes per run to filter the box's noise.
constexpr int kSuiteLoops = 2 * 1258;

Suite make_suite(const Args& args) {
  if (args.small) return small_suite(48, args.seed);
  SynthConfig config;
  config.seed = args.seed;
  config.loops = kSuiteLoops;
  return full_suite(config);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Identity of the generated inputs: every loop's content hash and every
/// point's label and machine.
std::uint64_t inputs_hash(const std::vector<Loop>& loops, const std::vector<SweepPoint>& points) {
  std::uint64_t key = hash64(loops.size());
  for (const Loop& loop : loops) key = hash_combine(key, loop.content_hash());
  for (const SweepPoint& point : points) {
    key = hash_combine(key, hash_bytes(point.label));
    key = hash_combine(key, point.machine.signature());
  }
  return key;
}

/// One workload's inputs: the generated suite and the fixed points.
struct Inputs {
  Suite suite;
  std::vector<SweepPoint> points;
  std::uint64_t hash = 0;  // inputs_hash, taken outside the timing
};

/// The benchmark's set-up: generates the suite and builds the points.
/// `setup_seconds` gets the time both took, `generate_seconds` (when not
/// null) the suite generation alone.
Inputs make_inputs(const Args& args, double& setup_seconds, double* generate_seconds) {
  Inputs inputs;
  const Clock::time_point start = Clock::now();
  inputs.suite = make_suite(args);
  const Clock::time_point generated = Clock::now();
  inputs.points = workload_points(args.workload);
  setup_seconds = seconds_between(start, Clock::now());
  if (generate_seconds != nullptr) *generate_seconds = seconds_between(start, generated);
  inputs.hash = inputs_hash(inputs.suite.loops, inputs.points);
  return inputs;
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    std::cout << (m == 0 ? "" : ", ") << "\"" << metrics[m].name << "\": {\"value\": "
              << json_number(metrics[m].value) << ", \"unit\": \"" << metrics[m].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// Collects failed checks; the run fails when any is recorded.
struct Problems {
  std::vector<std::string> lines;

  void add(const std::vector<std::string>& found) {
    lines.insert(lines.end(), found.begin(), found.end());
  }
  void report() const {
    const std::size_t shown = std::min<std::size_t>(lines.size(), 20);
    for (std::size_t k = 0; k < shown; ++k) std::cerr << "FAIL " << lines[k] << "\n";
    if (lines.size() > shown) std::cerr << "FAIL ... " << lines.size() - shown << " more\n";
  }
};

SweepOptions sweep_options(int workers) {
  SweepOptions options;
  options.workers = workers;
  options.parallel = workers > 1;
  options.verify_mode = SweepVerifyMode::kStrict;
  return options;
}

/// Sweep checks shared by both modes: verification, and the fingerprint
/// against the run's first sweep.
void check_sweep(const SweepResult& sweep, const std::vector<SweepPoint>& points,
                 const std::string& reference_fingerprint, std::string_view what,
                 Problems& problems) {
  problems.add(verify_problems(sweep, points));
  const std::string fingerprint = fingerprint_hex(sweep);
  if (fingerprint != reference_fingerprint) {
    problems.lines.push_back(cat(what, ": fingerprint ", fingerprint,
                                 " differs from the first sweep's ", reference_fingerprint));
  }
}

std::vector<Metric> end_to_end(const Args& args, const Inputs& inputs, double first_setup_s,
                               Problems& problems, std::uint64_t& attempted) {
  const std::vector<Loop>& loops = inputs.suite.loops;
  const std::vector<SweepPoint>& points = inputs.points;
  const SweepRunner runner(sweep_options(kSweepWorkers));
  const std::uint64_t cells = loops.size() * points.size();

  // The untimed first sweep lets lazy set-up (pools, registries) finish and
  // is the reference every later pass is checked against.
  const SweepResult reference = runner.run(loops, points);
  const std::string fingerprint = fingerprint_hex(reference);
  check_sweep(reference, points, fingerprint, "sweep 1", problems);
  attempted += cells;
  std::cout << "fingerprint " << fingerprint << "\n";

  // Rounds of {set-up, serial latency pass, half as long of sweeps},
  // repeated for the run's length.  Other tenants of the box slow
  // everything down by up to 1.9x for seconds at a time (CPU time slows as
  // much as wall time, so the cause is shared hardware, not preemption).
  // That noise only ever adds time, so the run keeps what the quiet
  // stretches measure: each cell's fastest pass, and the fastest sweep.
  // Interleaving spreads every metric's samples over the whole run, so
  // one burst cannot cover all samples of one metric.  Set-up time is the
  // median of one set-up per round.
  constexpr int kMinRounds = 6;
  std::vector<double> setup_times = {first_setup_s};
  std::vector<double> rates;
  std::vector<double> best_micros;
  int rounds = 0;
  const Clock::time_point start = Clock::now();
  while (rounds < kMinRounds || seconds_between(start, Clock::now()) < args.seconds) {
    ++rounds;
    if (make_inputs(args, setup_times.emplace_back(), nullptr).hash != inputs.hash) {
      problems.lines.push_back(cat("set-up round ", rounds, ": inputs differ from the first"));
    }

    LatencyPass latency = run_latency_pass(loops, points);
    problems.add(outcome_mismatches("run_pipeline", reference, latency.by_point, points));
    latency.by_point = {};  // checked; keep it out of the sweeps' peak memory
    attempted += cells;
    if (best_micros.empty()) {
      best_micros = std::move(latency.micros);
    } else {
      for (std::size_t c = 0; c < best_micros.size(); ++c) {
        best_micros[c] = std::min(best_micros[c], latency.micros[c]);
      }
    }

    const Clock::time_point round_sweeps = Clock::now();
    do {
      const Clock::time_point sweep_start = Clock::now();
      const SweepResult sweep = runner.run(loops, points);
      rates.push_back(static_cast<double>(sweep.pipelines) /
                      seconds_between(sweep_start, Clock::now()));
      check_sweep(sweep, points, fingerprint, cat("sweep ", rates.size() + 1), problems);
      attempted += cells;
    } while (seconds_between(round_sweeps, Clock::now()) < 0.5 * latency.wall_seconds);
  }
  std::cout << "rounds: " << rounds << "; sweeps: " << rates.size() << " timed, "
            << kSweepWorkers << " workers, " << cells << " cells each\n"
            << "cell latency: " << best_micros.size() << " samples, each the best of " << rounds
            << " serial run_pipeline passes\n";

  double log_ratio_sum = 0.0;
  std::uint64_t scheduled = 0;
  std::uint64_t queues = 0;
  for (const std::vector<LoopResult>& results : reference.by_point) {
    for (const LoopResult& r : results) {
      if (!r.ok) continue;
      ++scheduled;
      queues += static_cast<std::uint64_t>(r.total_queues);
      log_ratio_sum += std::log(static_cast<double>(r.ii) / r.mii);
    }
  }
  check(scheduled > 0, "no cell scheduled");
  std::cout << "scheduled: " << scheduled << "/" << cells << " cells\n";

  return {
      {"cells_per_s", *std::max_element(rates.begin(), rates.end()), "1/s"},
      {"cell_p50_us", percentile(best_micros, 50.0), "us"},
      {"cell_p95_us", percentile(best_micros, 95.0), "us"},
      {"ii_over_mii_geomean", std::exp(log_ratio_sum / static_cast<double>(scheduled)), "ratio"},
      {"queues_mean", ratio(queues, scheduled), "count"},
      {"scheduled_share", ratio(scheduled, cells), "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(setup_times), "s"},
  };
}

std::vector<Metric> per_layer(const Args& args, const Inputs& inputs, double generate_s,
                              Problems& problems, std::uint64_t& attempted) {
  const Suite& suite = inputs.suite;
  const std::vector<SweepPoint>& points = inputs.points;
  const std::uint64_t cells = suite.loops.size() * points.size();
  const Clock::time_point run_start = Clock::now();

  // Serial sweep: its wall minus its published stage times is the time no
  // stage accounts for.  Cache and memo counters do not depend on workers.
  const SweepResult serial = SweepRunner(sweep_options(1)).run(suite.loops, points);
  const std::string fingerprint = fingerprint_hex(serial);
  check_sweep(serial, points, fingerprint, "serial sweep", problems);
  attempted += cells;
  std::cout << "fingerprint " << fingerprint << "\n";
  double stage_sum = 0.0;
  for (const StageTotal& total : serial.stage_totals) stage_sum += total.seconds;

  // CPU use of the end-to-end sweep configuration.
  const SweepRunner runner(sweep_options(kSweepWorkers));
  double wall = 0.0;
  double cpu = 0.0;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const double cpu_start = cpu_seconds();
    const Clock::time_point start = Clock::now();
    const SweepResult sweep = runner.run(suite.loops, points);
    wall += seconds_between(start, Clock::now());
    cpu += cpu_seconds() - cpu_start;
    check_sweep(sweep, points, fingerprint, cat("parallel sweep ", repeat + 1), problems);
    attempted += cells;
  }

  // Pairs of {untraced, traced} passes for the rest of the run.  The pair
  // whose traced wall is the median is reported whole, so that its layer
  // self times plus its leftover still add up to its wall.  The first
  // traced pass is the one written out; every later one must repeat its
  // work counts exactly.
  struct PassPair {
    std::array<double, kLayerCount> self{};
    double traced_wall = 0.0;
    double untraced_wall = 0.0;
  };
  std::vector<PassPair> pairs;
  TraceCounts n;
  do {
    const LatencyPass latency = run_latency_pass(suite.loops, points);
    problems.add(outcome_mismatches("run_pipeline", serial, latency.by_point, points));
    const TracedPass traced = run_traced_pass(suite.loops, points);
    problems.add(outcome_mismatches("traced", serial, traced.by_point, points));
    attempted += 2 * cells;
    if (pairs.empty()) {
      n = traced.counts;
      if (const std::filesystem::path dir = std::filesystem::path(args.trace_out).parent_path();
          !dir.empty()) {
        std::filesystem::create_directories(dir);
      }
      write_trace_file(args.trace_out, traced, points, suite.loops.size());
      std::cout << "trace: " << traced.spans.size() << " spans over " << cells << " cells -> "
                << args.trace_out << "\n";
    } else if (traced.counts != n) {
      problems.lines.push_back(
          cat("traced pass ", pairs.size() + 1, ": work counts differ from the first pass"));
    }
    pairs.push_back({traced.self_seconds(), traced.wall_seconds, latency.wall_seconds});
  } while (seconds_between(run_start, Clock::now()) < args.seconds);

  std::sort(pairs.begin(), pairs.end(), [](const PassPair& a, const PassPair& b) {
    return a.traced_wall < b.traced_wall;
  });
  const PassPair& pair = pairs[pairs.size() / 2];
  const std::array<double, kLayerCount>& self = pair.self;
  double layer_sum = 0.0;
  for (std::size_t k = 1; k < kLayerCount; ++k) layer_sum += self[k];
  std::cout << "trace: " << pairs.size() << " pass pairs; the median one: layer self times "
            << fixed(layer_sum, 4) << " s + leftover " << fixed(pair.traced_wall - layer_sum, 4)
            << " s = traced wall " << fixed(pair.traced_wall, 4) << " s (untraced "
            << fixed(pair.untraced_wall, 4) << " s)\n";

  const SweepCacheStats& cache = serial.cache;
  const auto layer = [&](Layer l) { return self[static_cast<std::size_t>(l)]; };
  const auto count = [](std::uint64_t value) { return static_cast<double>(value); };
  return {
      {"workload.generate_s", generate_s, "s"},
      {"xform.invariants_s", layer(Layer::kInvariants), "s"},
      {"xform.unroll_s", layer(Layer::kUnroll), "s"},
      {"xform.copy_insert_s", layer(Layer::kCopyInsert), "s"},
      {"xform.ops_out", count(n.ops_out), "count"},
      {"xform.copies", count(n.copies), "count"},
      {"ir.ddg_build_s", layer(Layer::kDdgBuild), "s"},
      {"sched.mii_s", layer(Layer::kMii), "s"},
      {"sched.single_s", layer(Layer::kSingle), "s"},
      {"sched.placements", count(n.placements), "count"},
      {"sched.evictions", count(n.evictions), "count"},
      {"sched.ii_attempts", count(n.ii_attempts), "count"},
      {"sched.accept_per_attempt", ratio(n.scheduled, n.ii_attempts), "ratio"},
      {"cluster.partition_s", layer(Layer::kPartition), "s"},
      {"cluster.route_s", layer(Layer::kRoute), "s"},
      {"cluster.moves", count(n.moves), "count"},
      {"qrf.allocate_s", layer(Layer::kAllocate), "s"},
      {"qrf.registers_s", layer(Layer::kRegisters), "s"},
      {"qrf.fit_reschedule_s", layer(Layer::kFitReschedule), "s"},
      {"qrf.fit_retries", count(n.fit_retries), "count"},
      {"qrf.queues", count(n.queues), "count"},
      {"verify.artifacts_s", layer(Layer::kVerify), "s"},
      {"verify.cells", count(n.verified), "count"},
      {"harness.unattributed_s", serial.wall_seconds - stage_sum, "s"},
      {"harness.front_hit_rate", ratio(cache.front_hits, cache.front_probes), "ratio"},
      {"harness.front_probes", count(cache.front_probes), "count"},
      {"harness.sched_memo_hit_rate", ratio(cache.sched_memo_hits, cache.sched_memo_probes),
       "ratio"},
      {"harness.sched_memo_probes", count(cache.sched_memo_probes), "count"},
      {"harness.alloc_memo_hit_rate", ratio(cache.alloc_memo_hits, cache.alloc_memo_probes),
       "ratio"},
      {"harness.alloc_memo_probes", count(cache.alloc_memo_probes), "count"},
      {"harness.verify_memo_hit_rate", ratio(cache.verify_memo_hits, cache.verify_memo_probes),
       "ratio"},
      {"harness.verify_memo_probes", count(cache.verify_memo_probes), "count"},
      {"harness.cpu_utilization", cpu / (wall * kSweepWorkers), "ratio"},
      {"trace.wall_s", pair.traced_wall, "s"},
      {"trace.leftover_s", pair.traced_wall - layer_sum, "s"},
      {"trace.overhead_s", pair.traced_wall - pair.untraced_wall, "s"},
  };
}

int run(const Args& args) {
  double setup_s = 0.0;
  std::vector<double> generate_times(1);
  Inputs inputs = make_inputs(args, setup_s, &generate_times[0]);
  std::cout << "workload " << args.workload << " seed " << args.seed << ": "
            << inputs.suite.loops.size() << " loops x " << inputs.points.size() << " points = "
            << inputs.suite.loops.size() * inputs.points.size() << " cells\n"
            << "inputs " << std::hex << inputs.hash << std::dec << "\n";

  Problems problems;
  std::uint64_t attempted = 0;
  std::vector<Metric> metrics;
  if (args.trace) {
    // Suite generation time (the workload layer), median of a few.
    for (int repeat = 1; repeat < 5; ++repeat) {
      double ignored = 0.0;
      (void)make_inputs(args, ignored, &generate_times.emplace_back());
    }
    metrics = per_layer(args, inputs, median(generate_times), problems, attempted);
  } else {
    metrics = end_to_end(args, inputs, setup_s, problems, attempted);
  }
  problems.report();
  print_result(problems.lines.empty(), attempted, problems.lines.size(), metrics);
  return problems.lines.empty() ? 0 : 1;
}

// --- self-test ---------------------------------------------------------------------

/// Every check on a small suite: clean outputs pass, and each check fires
/// on a deliberately broken cell.
int selftest() {
  int failures = 0;
  const auto expect = [&](bool condition, std::string_view what) {
    std::cout << (condition ? "ok   " : "FAIL ") << what << "\n";
    if (!condition) ++failures;
  };
  const Suite suite = small_suite(16, 7);
  for (const std::string& workload : workload_names()) {
    const std::vector<SweepPoint> points = workload_points(workload);
    const SweepResult threaded = SweepRunner(sweep_options(kSweepWorkers)).run(suite.loops, points);
    const SweepResult serial = SweepRunner(sweep_options(1)).run(suite.loops, points);
    const LatencyPass latency = run_latency_pass(suite.loops, points);
    const TracedPass traced = run_traced_pass(suite.loops, points);

    expect(verify_problems(threaded, points).empty(), cat(workload, ": sweep verifies clean"));
    expect(fingerprint_hex(threaded) == fingerprint_hex(serial),
           cat(workload, ": fingerprint equal at 1 and ", kSweepWorkers, " workers"));
    expect(outcome_mismatches("run_pipeline", threaded, latency.by_point, points).empty(),
           cat(workload, ": run_pipeline matches the sweep"));
    expect(outcome_mismatches("traced", threaded, traced.by_point, points).empty(),
           cat(workload, ": traced pass matches the sweep"));

    // A scheduled cell to break.
    std::size_t p = 0;
    std::size_t i = 0;
    while (!threaded.by_point[p][i].ok) {
      if (++i == suite.loops.size()) i = 0, ++p;
    }

    SweepResult broken = threaded;
    broken.by_point[p][i].verify_violations = 1;
    expect(verify_problems(broken, points).size() == 1, cat(workload, ": verify violation fires"));
    broken = threaded;
    broken.by_point[p][i].verify_checked = false;
    expect(verify_problems(broken, points).size() == 1, cat(workload, ": unverified cell fires"));

    broken = threaded;
    ++broken.by_point[p][i].ii;
    expect(fingerprint_hex(broken) != fingerprint_hex(threaded),
           cat(workload, ": fingerprint drift fires"));

    // Each pinned field, broken in turn, in the run_pipeline and traced
    // outcomes.
    const std::vector<void (*)(LoopResult&)> breakers = {
        [](LoopResult& r) { r.ok = !r.ok; },
        [](LoopResult& r) { r.failed_stage = "schedule"; },
        [](LoopResult& r) { ++r.ii; },
        [](LoopResult& r) { ++r.mii; },
        [](LoopResult& r) { ++r.total_queues; },
        [](LoopResult& r) { ++r.registers; },
        [](LoopResult& r) { ++r.copies; },
        [](LoopResult& r) { ++r.moves; },
        [](LoopResult& r) { ++r.unroll_factor; },
        [](LoopResult& r) { ++r.sched_ops; },
    };
    int fired = 0;
    for (const auto breaker : breakers) {
      std::vector<std::vector<LoopResult>> pipeline = latency.by_point;
      breaker(pipeline[p][i]);
      std::vector<std::vector<LoopResult>> tracer = traced.by_point;
      breaker(tracer[p][i]);
      if (outcome_mismatches("run_pipeline", threaded, pipeline, points).size() == 1 &&
          outcome_mismatches("traced", threaded, tracer, points).size() == 1) {
        ++fired;
      }
    }
    expect(fired == static_cast<int>(breakers.size()),
           cat(workload, ": every pinned field mismatch fires (", fired, "/", breakers.size(),
               ")"));
  }
  std::cout << (failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qvliw::perfbench

int main(int argc, char** argv) {
  using namespace qvliw::perfbench;
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args.has_value()) {
    std::cerr << "usage: qvliw_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
                 "                       [--suite full|small] [--trace-out FILE]\n"
                 "       (--trace 1 requires --trace-out)\n"
                 "       qvliw_perfbench --selftest\n";
    return 2;
  }
  try {
    return args->selftest ? selftest() : run(*args);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
}
