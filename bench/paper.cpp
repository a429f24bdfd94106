// The paper's evaluation in one run.
//
// Every experiment of harness/experiment.h (Sec. 2, Figs. 3, 4 and 6-9,
// ablations A1 and A2) is swept once, as the union of their points, and
// printed under its own banner; one [sweep] footer follows.  The sweep
// runs the independent verifier on every scheduled cell, and the footer
// counts the cells it checked and the violations it found.  Fig. 7's
// ring resource curves also go to BENCH_fig7.json in the working
// directory.
//
//   QVLIW_LOOPS=200 ./build/bench/paper     (default: the paper's 1258 loops)
#include <fstream>
#include <iostream>

#include "bench_common.h"
#include "harness/experiment.h"
#include "support/strings.h"

namespace qvliw {
namespace {

constexpr const char* kFig7Json = "BENCH_fig7.json";

/// What the one sweep executed and verified, its wall time and cache
/// effectiveness, and the per-stage time, which is CPU time summed over
/// the workers.
void print_sweep_footer(std::ostream& os, const ExperimentRun& run, int workers) {
  const SweepResult& sweep = run.sweep;
  os << "[sweep] " << run.merged.references << " point references, "
     << run.merged.points.size() << " distinct points, " << sweep.pipelines
     << " cells swept\n[sweep] verified " << sweep.verify_checked() << " cells, "
     << sweep.verify_violations() << " violations\n[sweep] wall "
     << fixed(sweep.wall_seconds, 2) << " s (" << fixed(sweep.pipelines_per_second(), 1)
     << " cells/s); artifact cache hit rate "
     << percent(sweep.cache.hit_rate()) << " (" << sweep.cache.hits() << "/"
     << sweep.cache.probes() << " probes)\n[sweep] stage time summed over " << workers
     << " workers:";
  for (const StageTotal& total : sweep.stage_totals) {
    os << " " << stage_name(total.stage) << " " << fixed(total.seconds, 2) << "s";
  }
  os << "\n";
}

int run() {
  const Suite suite = bench::make_suite();
  bench::print_suite_line(std::cout, suite);

  const ExperimentRun run = run_experiments(suite.loops, paper_experiments());
  for (std::size_t e = 0; e < run.experiments.size(); ++e) {
    const Experiment& experiment = run.experiments[e];
    print_banner(std::cout, experiment.title, experiment.claim);
    experiment.render(run.cells(e), std::cout);
    if (experiment.id == "fig7") {
      std::ofstream out(kFig7Json);
      if (!out) {
        std::cerr << "cannot write " << kFig7Json << "\n";
        return 1;
      }
      write_fig7_json(out, run.cells(e));
      std::cout << "\nwrote " << kFig7Json << "\n";
    }
    std::cout << "\n";
  }
  print_sweep_footer(std::cout, run, resolved_sweep_workers(SweepOptions{}));
  return 0;
}

}  // namespace
}  // namespace qvliw

int main() { return qvliw::run(); }
