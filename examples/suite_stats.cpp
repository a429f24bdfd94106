// Workload suite anatomy.
//
// Prints the composition of the benchmark suite standing in for the
// paper's 1258 Perfect Club loops: body sizes, operation mix, recurrence
// structure, and the resource- vs recurrence-bound split that drives
// Figs. 8/9.  The recurrence bounds come from one SweepRunner pass over a
// bare (no copies, no unrolling) pipeline point; the memory-dependence
// probe inspects the DDG directly.  Useful when re-calibrating the
// generator.
//
//   QVLIW_LOOPS=200 ./build/examples/suite_stats
#include <iostream>

#include "bench_common.h"
#include "harness/sweep.h"
#include "ir/ddg.h"
#include "support/stats.h"
#include "support/strings.h"
#include "support/table.h"
#include "workload/suite.h"

using namespace qvliw;

int main() {
  SynthConfig config;
  config.loops = bench::suite_size();
  const Suite suite = full_suite(config);
  std::cout << "suite: " << suite.loops.size() << " loops (" << suite.kernel_count
            << " kernels + synthetic, seed " << config.seed << ")\n\n";

  // One bare pipeline point: no copies and no unrolling, so the reported
  // RecMII is the source loop's recurrence bound — and the same pass
  // yields the suite's schedulability on the paper's 6-FU machine.
  PipelineOptions bare;
  bare.insert_copies = false;
  const SweepResult sweep =
      SweepRunner().run(suite.loops, MachineConfig::single_cluster_machine(6), {bare});
  const std::vector<LoopResult>& results = sweep.by_point[0];
  int scheduled = 0;
  OnlineStats ii;
  for (const LoopResult& r : results) {
    if (!r.ok) continue;
    ++scheduled;
    ii.add(r.ii);
  }

  OnlineStats size;
  OnlineStats mem_fraction;
  OnlineStats invariants;
  int with_recurrence = 0;
  int memory_recurrence = 0;
  int resource_bound = 0;
  Histogram size_hist(0, 70, 14);
  const LatencyModel lat = LatencyModel::classic();

  for (std::size_t i = 0; i < suite.loops.size(); ++i) {
    const Loop& loop = suite.loops[i];
    size.add(loop.op_count());
    size_hist.add(loop.op_count());
    int mem = 0;
    for (const Op& op : loop.ops) {
      if (is_memory(op.opcode)) ++mem;
    }
    mem_fraction.add(static_cast<double>(mem) / loop.op_count());
    invariants.add(static_cast<double>(loop.invariants.size()));

    if (results[i].rec_mii > 1) ++with_recurrence;
    bool mem_edge = false;
    const Ddg graph = Ddg::build(loop, lat);
    for (const DepEdge& e : graph.edges()) {
      if (e.kind != DepKind::kFlow && e.distance > 0) mem_edge = true;
    }
    if (mem_edge) ++memory_recurrence;
    if (is_resource_constrained(loop)) ++resource_bound;
  }

  const double n = static_cast<double>(suite.loops.size());
  TextTable table({"metric", "value"});
  table.add_row({std::string("mean body size (ops)"), size.mean()});
  table.add_row({std::string("min / max body size"),
                 cat(static_cast<int>(size.min()), " / ", static_cast<int>(size.max()))});
  table.add_row({std::string("mean memory-op fraction"), percent(mem_fraction.mean())});
  table.add_row({std::string("loops with register/memory recurrence"),
                 percent(with_recurrence / n)});
  table.add_row({std::string("loops with loop-carried memory dependence"),
                 percent(memory_recurrence / n)});
  table.add_row({std::string("resource-bound at 18 FUs (Fig. 9 subset)"),
                 percent(resource_bound / n)});
  table.add_row({std::string("mean invariants per loop"), invariants.mean()});
  table.add_row({std::string("schedulable on 6 FUs (bare, no copies)"), percent(scheduled / n)});
  table.add_row({std::string("mean II on 6 FUs (bare)"), ii.mean()});
  table.render(std::cout);

  std::cout << "\nbody-size histogram:\n";
  for (std::size_t b = 0; b < size_hist.bins(); ++b) {
    if (size_hist.bin_count(b) == 0) continue;
    std::cout << pad_left(cat(static_cast<int>(size_hist.bin_lo(b)), "-",
                              static_cast<int>(size_hist.bin_hi(b))),
                          8)
              << " | " << std::string(size_hist.bin_count(b) * 60 / suite.loops.size() + 1, '#')
              << " " << size_hist.bin_count(b) << "\n";
  }
  return 0;
}
