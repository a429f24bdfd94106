#include "workload/suite.h"

#include <algorithm>

#include "workload/kernels.h"
#include "xform/unroll.h"

namespace qvliw {

Suite full_suite(const SynthConfig& config) {
  Suite suite;
  suite.loops = kernel_corpus();
  suite.kernel_count = static_cast<int>(suite.loops.size());
  // Keep the total at config.loops (the paper's 1258) including the corpus.
  SynthConfig adjusted = config;
  adjusted.loops = std::max(0, config.loops - suite.kernel_count);
  std::vector<Loop> synthetic = synthesize_suite(adjusted);
  suite.loops.insert(suite.loops.end(), std::make_move_iterator(synthetic.begin()),
                     std::make_move_iterator(synthetic.end()));
  return suite;
}

Suite small_suite(int synthetic, std::uint64_t seed) {
  SynthConfig config;
  config.loops = synthetic;
  config.seed = seed;
  Suite suite;
  suite.loops = kernel_corpus();
  suite.kernel_count = static_cast<int>(suite.loops.size());
  std::vector<Loop> extra = synthesize_suite(config);
  suite.loops.insert(suite.loops.end(), std::make_move_iterator(extra.begin()),
                     std::make_move_iterator(extra.end()));
  return suite;
}

bool is_resource_constrained(const Loop& loop, int max_unroll) {
  // At the per-source-rate-minimising unroll factor on the largest machine
  // studied (18 FUs), is the binding MII term the resource bound?  The
  // comparison happens at a common factor because RecMII floors at 1
  // (II >= 1) while unrolling dilutes that floor across U source
  // iterations.
  const UnrollProbe probe =
      probe_unroll_factor(loop, MachineConfig::single_cluster_machine(18), max_unroll);
  return probe.mii.res_mii >= probe.mii.rec_mii;
}

}  // namespace qvliw
