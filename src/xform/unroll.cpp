#include "xform/unroll.h"

#include <algorithm>
#include <cstdlib>

#include "ir/memdep.h"
#include "sched/mii.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

Loop unroll(const Loop& src, int factor) {
  src.validate();
  check(factor >= 1, "unroll: factor must be >= 1");
  if (factor == 1) return src;

  Loop out;
  out.name = cat(src.name, "_x", factor);
  out.stride = src.stride * factor;
  // Ceiling division: a partial trailing group of source iterations still
  // costs one full kernel iteration (trip_hint 7 at factor 4 -> 2, not 1).
  out.trip_hint = std::max(1, (src.trip_hint + factor - 1) / factor);
  out.invariants = src.invariants;
  out.arrays = src.arrays;

  const int n = src.op_count();
  // new index of replica k of source op v = k*n + v (replicas in blocks).
  auto replica = [n](int v, int k) { return k * n + v; };

  for (int k = 0; k < factor; ++k) {
    for (int v = 0; v < n; ++v) {
      Op op = src.ops[static_cast<std::size_t>(v)];
      if (op.defines_value()) op.name = cat(op.name, "_u", k);
      if (is_memory(op.opcode)) op.mem_offset += src.stride * k;
      for (Operand& arg : op.args) {
        switch (arg.kind) {
          case Operand::Kind::kValue: {
            const int m = k - arg.distance;
            if (m >= 0) {
              arg = Operand::value(replica(arg.value_op, m), 0);
            } else {
              // ceil((-m)/factor) unrolled iterations back.
              const int q = (-m + factor - 1) / factor;
              arg = Operand::value(replica(arg.value_op, m + q * factor), q);
            }
            break;
          }
          case Operand::Kind::kIndex:
            arg.index_offset += src.stride * k;
            break;
          case Operand::Kind::kInvariant:
          case Operand::Kind::kImmediate:
            break;
        }
      }
      out.add_op(std::move(op));
    }
  }

  out.validate();
  return out;
}

bool unroll_probe_is_exact(const Loop& loop) {
  const int n = loop.op_count();
  for (int a = 0; a < n; ++a) {
    const Op& op_a = loop.ops[static_cast<std::size_t>(a)];
    if (!is_memory(op_a.opcode)) continue;
    for (int b = a + 1; b < n; ++b) {
      const Op& op_b = loop.ops[static_cast<std::size_t>(b)];
      if (!is_memory(op_b.opcode)) continue;
      if (op_a.array != op_b.array) continue;
      if (op_a.opcode != Opcode::kStore && op_b.opcode != Opcode::kStore) continue;
      const int delta = op_a.mem_offset - op_b.mem_offset;
      if (delta % loop.stride != 0) continue;
      // A pair past the cutoff is invisible to the base DDG but lifts to a
      // distance <= ceil(d/factor) that the unrolled DDG may keep.
      if (std::abs(delta / loop.stride) > kMemDepMaxDistance) return false;
    }
  }
  return true;
}

namespace {

/// Shared candidate walk: `measure(factor)` returns the (exact) bounds of
/// unroll(loop, factor); `adopted()` fires whenever the factor just
/// measured becomes the best so far (letting the naive path pin that
/// candidate's loop).  Selection is the smallest factor strictly
/// improving the per-source-iteration rate, identical on both paths.
template <typename Measure, typename Adopted>
UnrollProbe probe_with(const Loop& loop, int max_factor, int max_ops, Measure measure,
                       Adopted adopted) {
  UnrollProbe probe;
  {
    const MiiInfo base = measure(1);
    check(base.feasible, "select_unroll_factor: loop infeasible on machine");
    probe.choice.factor = 1;
    probe.choice.rate = static_cast<double>(base.mii);
    probe.mii = base;
    probe.factors_probed = 1;
    adopted();
  }
  for (int factor = 2; factor <= max_factor; ++factor) {
    if (loop.op_count() * factor > max_ops) break;
    const MiiInfo mii = measure(factor);
    ++probe.factors_probed;
    if (!mii.feasible) continue;
    const double rate = static_cast<double>(mii.mii) / static_cast<double>(factor);
    if (rate < probe.choice.rate - 1e-9) {
      probe.choice.factor = factor;
      probe.choice.rate = rate;
      probe.mii = mii;
      adopted();
    }
  }
  return probe;
}

}  // namespace

UnrollProbe probe_unroll_factor_naive(const Loop& loop, const MachineConfig& machine,
                                      int max_factor, int max_ops) {
  check(max_factor >= 1, "select_unroll_factor: max_factor must be >= 1");

  // The current candidate's loop; pinned as the winner whenever the walk
  // adopts the candidate, so nothing is ever materialised twice.
  std::unique_ptr<Loop> candidate_loop;
  std::unique_ptr<Loop> best_loop;

  auto measure = [&](int factor) {
    candidate_loop = factor == 1 ? nullptr : std::make_unique<Loop>(unroll(loop, factor));
    const Loop& body = factor == 1 ? loop : *candidate_loop;
    return compute_mii(body, Ddg::build(body, machine.latency), machine);
  };
  // The adopted candidate moves into the winner's slot (factor 1 adopts
  // no loop); the next measure builds a fresh candidate.
  auto adopted = [&] { best_loop = std::move(candidate_loop); };

  UnrollProbe probe = probe_with(loop, max_factor, max_ops, measure, adopted);
  probe.loop = std::move(best_loop);
  return probe;
}

UnrollProbe probe_unroll_factor(const Loop& loop, const MachineConfig& machine, int max_factor,
                                int max_ops) {
  check(max_factor >= 1, "select_unroll_factor: max_factor must be >= 1");
  if (!unroll_probe_is_exact(loop)) return probe_unroll_factor_naive(loop, machine, max_factor, max_ops);

  // One recurrence core answers RecMII for every factor.
  RecMii rec(Ddg::build(loop, machine.latency));
  UnrollProbe probe = probe_with(
      loop, max_factor, max_ops,
      [&](int factor) { return compute_mii(loop, rec, machine, factor); }, [] {});
  probe.incremental = true;
  if (probe.choice.factor > 1) {
    // The one materialisation of the winner; callers reuse it directly.
    probe.loop = std::make_unique<Loop>(unroll(loop, probe.choice.factor));
  }
  return probe;
}

UnrollChoice select_unroll_factor(const Loop& loop, const MachineConfig& machine, int max_factor,
                                  int max_ops) {
  return probe_unroll_factor(loop, machine, max_factor, max_ops).choice;
}

}  // namespace qvliw
