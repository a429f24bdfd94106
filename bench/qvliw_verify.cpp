// qvliw_verify — offline translation validation of dumped artifact
// bundles (src/verify).
//
//   qvliw_verify dump OUT.qvb [--index N] [--clusters K] [--budget R]
//     Compiles one suite loop through the full pipeline on the K-cluster
//     ring (K=1: the 6-FU single-cluster machine) and writes the emitted
//     artifacts — rewritten loop, machine, schedule, queue allocation —
//     as a verify bundle.
//
//   qvliw_verify check FILE...
//     Decodes each bundle and re-derives its legality from first
//     principles with the independent verifier.  Prints one line per
//     violated rule; exit 0 only when every bundle is clean.
//
// The DDG is rebuilt from the bundled loop at check time, so a bundle
// cannot smuggle in a forged dependence graph.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "harness/stage.h"
#include "support/diagnostics.h"
#include "verify/verify.h"

namespace qvliw {
namespace {

int usage() {
  std::cerr << "usage: qvliw_verify dump OUT.qvb [--index N] [--clusters K] [--budget R]\n"
            << "       qvliw_verify check FILE...\n";
  return 2;
}

int dump(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string out_path = argv[2];
  int index = 0;
  int clusters = 4;
  int budget = 6;
  for (int a = 3; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--index" && a + 1 < argc) {
      index = std::atoi(argv[++a]);
    } else if (arg == "--clusters" && a + 1 < argc) {
      clusters = std::atoi(argv[++a]);
    } else if (arg == "--budget" && a + 1 < argc) {
      budget = std::atoi(argv[++a]);
    } else {
      return usage();
    }
  }

  const Suite suite = bench::make_suite();
  if (index < 0 || index >= static_cast<int>(suite.loops.size())) {
    std::cerr << "loop index " << index << " out of range (suite has " << suite.loops.size()
              << " loops; QVLIW_LOOPS resizes it)\n";
    return 2;
  }

  PipelineOptions options;
  options.unroll = true;
  options.ims.budget_ratio = budget;
  MachineConfig machine = MachineConfig::single_cluster_machine(6);
  if (clusters > 1) {
    machine = MachineConfig::clustered_machine(clusters);
    options.scheduler = SchedulerKind::kClustered;
  }

  // Run the pipeline keeping the context, so the artifacts the stages
  // produced (not just the scalar result) are still in hand.
  PipelineContext ctx(suite.loops[static_cast<std::size_t>(index)], machine, options);
  if (run_front_end(ctx)) run_back_end(ctx);
  if (!ctx.result.ok) {
    std::cerr << "pipeline failed on loop " << ctx.result.name << " ("
              << ctx.result.failed_stage << "): " << ctx.result.failure << "\n";
    return 2;
  }

  VerifyBundle bundle;
  bundle.loop = ctx.loop;
  bundle.machine = *ctx.machine;
  bundle.schedule = ctx.sched.schedule;
  bundle.has_allocation = true;
  bundle.allocation = ctx.allocation;
  bundle.check_fanout = options.insert_copies;
  bundle.must_fit = ctx.result.fits_machine_queues;

  const std::string blob = encode_verify_bundle(bundle);
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.flush();
  if (!out.good()) {
    std::cerr << "cannot write " << out_path << "\n";
    return 2;
  }
  std::cout << "wrote " << out_path << ": loop " << ctx.result.name << " on " << machine.name
            << ", II " << ctx.sched.schedule.ii() << ", " << blob.size() << " bytes\n";
  return 0;
}

int check(int argc, char** argv) {
  if (argc < 3) return usage();
  int bad = 0;
  for (int a = 2; a < argc; ++a) {
    const std::string path = argv[a];
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << path << ": cannot read\n";
      ++bad;
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      const VerifyBundle bundle = decode_verify_bundle(std::move(buffer).str());
      const VerifyReport report = verify_bundle(bundle);
      if (report.ok()) {
        std::cout << path << ": ok (loop " << bundle.loop.name << ", II "
                  << bundle.schedule.ii() << ", " << bundle.machine.name << ")\n";
      } else {
        ++bad;
        std::cout << path << ": " << report.violations() << " violation(s)\n";
        for (const VerifyDiagnostic& d : report.diagnostics) {
          std::cout << "  " << d.message << "\n";
        }
      }
    } catch (const Error& error) {
      std::cerr << path << ": malformed bundle: " << error.what() << "\n";
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "dump") return dump(argc, argv);
  if (mode == "check") return check(argc, argv);
  return usage();
}

}  // namespace
}  // namespace qvliw

int main(int argc, char** argv) { return qvliw::run(argc, argv); }
