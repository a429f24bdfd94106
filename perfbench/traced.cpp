// The traced pass: run_pipeline's stage plan rebuilt from the layers'
// public functions, with a span around every call into a layer.
//
// The stage bodies mirror harness/stage.cpp step for step — invariants,
// unroll, copy insertion (or a plain DDG build), MII, the scheduler
// backend, queue allocation with queue-fit escalation, the register
// baseline, verification — so the benchmark can attribute time to layers
// without instrumenting the library.  The one deliberate difference is
// the sweep runner's: MII is computed outside the backend and passed on
// as ImsOptions::known_mii when the backend consumes cached bounds, so
// the MII layer gets its own span.  main.cpp checks every cell's outcome
// against run_pipeline's; a drift in either copy fails the run.
#include <algorithm>
#include <fstream>
#include <memory>

#include "bench.h"
#include "qrf/queue_alloc.h"
#include "qrf/rf_alloc.h"
#include "sched/backend.h"
#include "sched/mii.h"
#include "sched/schedule.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "verify/verify.h"
#include "xform/copy_insert.h"
#include "xform/invariants.h"
#include "xform/unroll.h"

namespace qvliw::perfbench {

std::string_view layer_name(Layer layer) {
  static constexpr std::string_view kNames[kLayerCount] = {
      "cell",          "xform.invariants",  "xform.unroll",  "xform.copy_insert",
      "ir.ddg_build",  "sched.mii",         "sched.single",  "cluster.partition",
      "cluster.route", "qrf.allocate",      "qrf.fit_reschedule", "qrf.registers",
      "verify.artifacts"};
  return kNames[static_cast<std::size_t>(layer)];
}

std::array<double, kLayerCount> TracedPass::self_seconds() const {
  std::array<double, kLayerCount> seconds{};
  for (const SpanRecord& span : spans) {
    seconds[static_cast<std::size_t>(span.layer)] +=
        1e-9 * static_cast<double>(span.end_ns - span.start_ns);
  }
  return seconds;
}

namespace {

class Recorder {
 public:
  explicit Recorder(std::vector<SpanRecord>& spans) : spans_(spans), origin_(Clock::now()) {}

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  /// Runs `body` inside a span of `layer` for `cell` and returns its value.
  template <typename Body>
  auto span(std::uint32_t cell, Layer layer, Body&& body) {
    const std::int64_t start = now_ns();
    struct Close {
      Recorder& recorder;
      std::uint32_t cell;
      Layer layer;
      std::int64_t start;
      ~Close() { recorder.spans_.push_back({cell, layer, start, recorder.now_ns()}); }
    } close{*this, cell, layer, start};
    return body();
  }

 private:
  std::vector<SpanRecord>& spans_;
  Clock::time_point origin_;
};

Layer backend_layer(std::string_view backend) {
  if (backend == scheduler_kind_name(SchedulerKind::kClustered)) return Layer::kPartition;
  if (backend == scheduler_kind_name(SchedulerKind::kClusteredMoves)) return Layer::kRoute;
  return Layer::kSingle;
}

/// One cell through the stage plan.  Returns the LoopResult run_pipeline
/// would have produced.
LoopResult traced_cell(const Loop& source, const MachineConfig& machine,
                       const PipelineOptions& options, std::uint32_t cell, Recorder& rec,
                       TraceCounts& counts) {
  LoopResult result;
  result.name = source.name;
  result.src_ops = source.op_count();
  std::string_view stage = "invariants";
  try {
    // Front end.
    Loop loop = rec.span(cell, Layer::kInvariants,
                         [&] { return materialize_invariants(source, options.invariants); });
    stage = "unroll";
    if (options.unroll) {
      rec.span(cell, Layer::kUnroll, [&] {
        if (options.forced_unroll >= 1) {
          result.unroll_factor = options.forced_unroll;
          loop = unroll(loop, result.unroll_factor);
          return;
        }
        UnrollProbe probe = probe_unroll_factor(loop, machine, options.max_unroll);
        result.unroll_factor = probe.choice.factor;
        if (probe.loop != nullptr) loop = *probe.loop;
      });
    }
    stage = "copy_insert";
    std::shared_ptr<const Ddg> graph;
    if (options.insert_copies) {
      CopyInsertWithGraph fused = rec.span(cell, Layer::kCopyInsert, [&] {
        return insert_copies_with_graph(loop, machine.latency, options.copy_shape);
      });
      result.copies = fused.rewrite.copies_added;
      loop = std::move(fused.rewrite.loop);
      graph = std::make_shared<const Ddg>(std::move(fused.graph));
    } else {
      graph = std::make_shared<const Ddg>(
          rec.span(cell, Layer::kDdgBuild, [&] { return Ddg::build(loop, machine.latency); }));
    }
    counts.ops_out += static_cast<std::uint64_t>(loop.op_count());
    counts.copies += static_cast<std::uint64_t>(result.copies);

    // Scheduling.
    stage = "schedule";
    const SchedulerBackend& backend =
        options.backend.empty() ? scheduler_backend(options.scheduler)
                                : SchedulerRegistry::instance().require(options.backend);
    MiiInfo known_mii;
    if (backend.consumes_cached_mii()) {
      known_mii =
          rec.span(cell, Layer::kMii, [&] { return compute_mii(loop, *graph, machine); });
    }
    const auto attempt = [&](int start_ii, Layer layer) {
      ScheduleRequest request;
      request.loop = &loop;
      request.graph = graph.get();
      request.machine = &machine;
      request.ims = options.ims;
      request.ims.start_ii = std::max(request.ims.start_ii, start_ii);
      if (backend.consumes_cached_mii()) request.ims.known_mii = known_mii;
      request.heuristic = options.heuristic;
      ScheduleOutcome outcome = rec.span(cell, layer, [&] { return backend.schedule(request); });
      result.backend = backend.name();
      if (outcome.rewrote) {
        result.moves = outcome.moves_added;
        loop = std::move(outcome.rewritten_loop);
        graph = std::move(outcome.rewritten_graph);
        known_mii = MiiInfo{};
      }
      counts.placements += static_cast<std::uint64_t>(outcome.ims.stats.placements);
      counts.evictions += static_cast<std::uint64_t>(outcome.ims.stats.evictions);
      counts.ii_attempts += static_cast<std::uint64_t>(outcome.ims.stats.ii_attempts);
      return std::move(outcome.ims);
    };
    ImsResult sched = attempt(0, backend_layer(backend.name()));
    counts.moves += static_cast<std::uint64_t>(result.moves);
    result.warm_started = sched.warm_started;
    result.sched_ops = loop.op_count();
    result.res_mii = sched.mii.res_mii;
    result.rec_mii = sched.mii.rec_mii;
    result.mii = sched.mii.mii;
    result.sched_stats = sched.stats;
    if (!sched.ok) {
      result.failure = sched.failure;
      result.failed_stage = stage;
      return result;
    }
    ++counts.scheduled;

    // Queue allocation, with II escalation until the machine's queues fit.
    stage = "queue_alloc";
    const auto allocate = [&] {
      return rec.span(cell, Layer::kAllocate,
                      [&] { return allocate_queues(loop, *graph, machine, sched.schedule); });
    };
    QueueAllocation allocation = allocate();
    result.fits_machine_queues = allocation.capacity_violations(machine).empty();
    if (options.enforce_queue_limits) {
      while (!result.fits_machine_queues && result.queue_fit_retries < options.queue_fit_attempts) {
        ++result.queue_fit_retries;
        ++counts.fit_retries;
        ImsResult retry = attempt(sched.ii + 1, Layer::kFitReschedule);
        if (!retry.ok) {
          result.failure = cat("queue-fit retry failed: ", retry.failure);
          result.failed_stage = stage;
          return result;
        }
        sched = std::move(retry);
        result.warm_started = sched.warm_started;
        allocation = allocate();
        result.fits_machine_queues = allocation.capacity_violations(machine).empty();
      }
      if (!result.fits_machine_queues) {
        result.failure = cat("allocation does not fit machine queues after ",
                             result.queue_fit_retries, " II escalations");
        result.failed_stage = stage;
        return result;
      }
      result.sched_stats = sched.stats;
    }
    result.sched_ops = loop.op_count();
    result.ii = sched.ii;
    result.stage_count = sched.schedule.stage_count();
    result.ii_per_source = static_cast<double>(sched.ii) / result.unroll_factor;
    result.ipc_static = static_ipc(loop, sched.schedule);
    const long long trip = std::max(1, loop.trip_hint);
    result.ipc_dynamic = dynamic_ipc(loop, machine.latency, sched.schedule, trip);
    result.total_queues = allocation.total_queues();
    result.max_private_queues = allocation.max_private_queues();
    result.max_segment_queues = allocation.max_segment_queues();
    result.max_positions = allocation.max_positions();
    counts.queues += static_cast<std::uint64_t>(result.total_queues);
    result.registers = rec.span(cell, Layer::kRegisters, [&] {
      return register_requirement(loop, *graph, machine.latency, sched.schedule);
    });

    // No workload simulates (see README.md), so the sim stage is a no-op.
    stage = "sim";
    check(!options.simulate, "the traced pass does not simulate");

    stage = "verify";
    if (options.verify != VerifyPolicy::kOff) {
      const VerifyReport report = rec.span(cell, Layer::kVerify, [&] {
        return verify_artifacts(loop, *graph, machine, sched.schedule, &allocation,
                                options.insert_copies, result.fits_machine_queues);
      });
      ++counts.verified;
      result.verify_checked = true;
      result.verify_violations = report.violations();
      if (result.verify_violations > 0 && options.verify == VerifyPolicy::kStrict) {
        result.failure = cat("legality verification failed: ", report.summary());
        result.failed_stage = stage;
        return result;
      }
    }
    result.ok = true;
  } catch (const Error& error) {
    result.failure = cat("pipeline error: ", error.what());
    result.failed_stage = stage;
  }
  return result;
}

}  // namespace

TracedPass run_traced_pass(const std::vector<Loop>& loops, const std::vector<SweepPoint>& points) {
  std::vector<PipelineOptions> options;
  for (const SweepPoint& point : points) options.push_back(cell_options(point));
  TracedPass pass;
  pass.by_point.assign(points.size(), std::vector<LoopResult>(loops.size()));
  // About ten spans per cell; reserving keeps reallocation out of the spans.
  pass.spans.reserve(loops.size() * points.size() * 10);
  Recorder rec(pass.spans);
  const Clock::time_point pass_start = Clock::now();
  std::uint32_t cell = 0;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    for (std::size_t p = 0; p < points.size(); ++p, ++cell) {
      pass.by_point[p][i] = rec.span(cell, Layer::kCell, [&] {
        return traced_cell(loops[i], points[p].machine, options[p], cell, rec, pass.counts);
      });
    }
  }
  pass.wall_seconds = seconds_between(pass_start, Clock::now());
  return pass;
}

void write_trace_file(const std::string& path, const TracedPass& pass,
                      const std::vector<SweepPoint>& points, std::size_t loops) {
  std::ofstream out(path);
  check(out.good(), cat("cannot write trace file ", path));
  // A layer span's parent is the cell span with the same cell id; only the
  // cell spans carry the point label and loop index.
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : pass.spans) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << layer_name(span.layer)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << fixed(1e-3 * span.start_ns, 3)
        << ",\"dur\":" << fixed(1e-3 * (span.end_ns - span.start_ns), 3) << ",\"args\":{\"cell\":"
        << span.cell;
    if (span.layer == Layer::kCell) {
      out << ",\"point\":\"" << points[span.cell % points.size()].label
          << "\",\"loop\":" << span.cell / points.size();
    }
    out << "}}";
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"loops\":" << loops
      << ",\"points\":" << points.size() << "}}\n";
  check(out.good(), cat("failed writing trace file ", path));
}

}  // namespace qvliw::perfbench
