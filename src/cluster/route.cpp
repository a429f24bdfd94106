#include "cluster/route.h"

#include "support/strings.h"
#include "xform/move_insert.h"

namespace qvliw {

RouteResult partition_with_moves(const Loop& loop, const MachineConfig& machine,
                                 const PartitionOptions& options, int max_rounds) {
  RouteResult result;
  result.loop = loop;
  // result.ims.stats sums the effort of every strict and relaxed round;
  // once a strict round succeeds, its budget_spent and mii_optimal stand.
  ImsStats& effort = result.ims.stats;

  PartitionOptions strict = options;
  strict.strict = true;
  PartitionOptions relaxed = options;
  relaxed.strict = false;

  for (int round = 0; round < max_rounds; ++round) {
    result.rounds = round + 1;
    const Ddg graph = Ddg::build(result.loop, machine.latency);

    // Try the real (strict) partitioner first; once the moves inserted in
    // earlier rounds suffice, this succeeds and we are done.
    ImsResult attempt = partition_schedule(result.loop, graph, machine, strict);
    if (attempt.ok) {
      add_effort(attempt.stats, effort);
      result.ok = true;
      result.ims = std::move(attempt);
      return result;
    }
    add_effort(effort, attempt.stats);

    // Discover which value flows want to span multiple hops.
    ImsResult relaxed_attempt = partition_schedule(result.loop, graph, machine, relaxed);
    add_effort(effort, relaxed_attempt.stats);
    if (!relaxed_attempt.ok) {
      result.failure = cat("relaxed partitioning failed: ", relaxed_attempt.failure);
      return result;
    }
    auto violations = find_comm_violations(graph, machine, relaxed_attempt.schedule);
    if (violations.empty()) {
      // The relaxed schedule is communication-legal but the strict search
      // missed it; one more strict round with a fresh II ladder rarely
      // fails, but give up rather than loop forever.
      result.failure = "strict partitioning failed although a legal placement exists";
      return result;
    }

    // Split every violating operand with hops-1 relay moves, remapping the
    // remaining violation list through each rewrite.
    for (std::size_t v = 0; v < violations.size(); ++v) {
      const CommViolation& violation = violations[v];
      MoveInsertResult rewrite =
          insert_move_chain(result.loop, violation.dst, violation.dst_arg, violation.hops - 1);
      result.moves_added += rewrite.moves_added;
      result.loop = std::move(rewrite.loop);
      for (std::size_t w = v + 1; w < violations.size(); ++w) {
        violations[w].dst = rewrite.op_map[static_cast<std::size_t>(violations[w].dst)];
      }
    }
  }

  result.failure = cat("no legal routed schedule after ", max_rounds, " rounds");
  return result;
}

}  // namespace qvliw
