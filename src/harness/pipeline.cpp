#include "harness/pipeline.h"

#include "harness/stage.h"

namespace qvliw {

std::string_view stage_name(Stage stage) {
  static constexpr std::string_view kNames[kStageCount] = {
      "invariants", "unroll", "copy_insert", "mii", "schedule", "queue_alloc", "sim", "verify"};
  return kNames[static_cast<std::size_t>(stage)];
}

LoopResult run_pipeline(const Loop& source, const MachineConfig& machine,
                        const PipelineOptions& options) {
  PipelineContext ctx(source, machine, options);
  if (run_front_end(ctx)) run_back_end(ctx);
  return std::move(ctx.result);
}

}  // namespace qvliw
