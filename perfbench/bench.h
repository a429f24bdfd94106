// The qvliw benchmark: workloads, correctness checks and the traced pass.
//
// Everything here drives the library through its public functions only
// (full_suite, SweepRunner::run, run_pipeline and the per-layer entry
// points), so the benchmark measures the code as shipped and can be
// carried unchanged across commits.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/pipeline.h"
#include "harness/sweep.h"

namespace qvliw::perfbench {

/// Worker threads of every end-to-end sweep.  Fixed, so that cells_per_s
/// means the same thing on every box; at most the 4 cores of the machine
/// the bounds were set on.
inline constexpr int kSweepWorkers = 4;

/// The benchmark's workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The fixed point set of a workload; throws Error on an unknown name.
[[nodiscard]] std::vector<SweepPoint> workload_points(std::string_view workload);

/// The options a cell runs under in every pass: the point's own options
/// with strict verification, exactly what SweepVerifyMode::kStrict gives
/// each cell of the sweep.
[[nodiscard]] PipelineOptions cell_options(const SweepPoint& point);

// --- correctness checks --------------------------------------------------

/// Compares the outcome fields the benchmark pins (ok, failed stage, ii,
/// mii, queues, registers, copies, moves, unroll, scheduled ops) and
/// returns a description of the first difference, or "" when they agree.
[[nodiscard]] std::string cell_mismatch(const LoopResult& expected, const LoopResult& actual);

/// Every cell of `sweep` with a verify violation, or a scheduled cell the
/// verifier never checked, as "point/loop: reason" lines.
[[nodiscard]] std::vector<std::string> verify_problems(const SweepResult& sweep,
                                                       const std::vector<SweepPoint>& points);

/// hash_bytes(sweep_result_fingerprint(sweep)) as 16 hex digits.
[[nodiscard]] std::string fingerprint_hex(const SweepResult& sweep);

/// Cell-by-cell comparison of `actual[p][i]` against the sweep's cells;
/// one "what: point/loop: difference" line per mismatching cell.
[[nodiscard]] std::vector<std::string> outcome_mismatches(
    std::string_view what, const SweepResult& sweep,
    const std::vector<std::vector<LoopResult>>& actual, const std::vector<SweepPoint>& points);

// --- latency pass ----------------------------------------------------------

/// One serial, uncached run_pipeline call per cell, each timed from
/// outside: by_point[p][i] and micros[k] in loop-major cell order.
struct LatencyPass {
  std::vector<std::vector<LoopResult>> by_point;
  std::vector<double> micros;
  double wall_seconds = 0.0;
};

[[nodiscard]] LatencyPass run_latency_pass(const std::vector<Loop>& loops,
                                           const std::vector<SweepPoint>& points);

// --- traced pass ---------------------------------------------------------

/// The spans the traced pass records: one per call into a layer, each a
/// child of its cell's span.  The names (plus "_s") are the per-layer time
/// metrics.
enum class Layer : std::uint8_t {
  kCell,
  kInvariants,
  kUnroll,
  kCopyInsert,
  kDdgBuild,
  kMii,
  kSingle,
  kPartition,
  kRoute,
  kAllocate,
  kFitReschedule,
  kRegisters,
  kVerify,
};
inline constexpr std::size_t kLayerCount = 13;

[[nodiscard]] std::string_view layer_name(Layer layer);

struct SpanRecord {
  std::uint32_t cell = 0;  // loop-major cell id; the cell span's own id too
  Layer layer = Layer::kCell;
  std::int64_t start_ns = 0;  // from the traced pass's start
  std::int64_t end_ns = 0;
};

/// Work counts taken at the same call boundaries as the spans.
struct TraceCounts {
  std::uint64_t ops_out = 0;      // ops leaving the front end (post copies)
  std::uint64_t copies = 0;       // copy ops the front end inserted
  std::uint64_t placements = 0;   // ImsStats over every backend call
  std::uint64_t evictions = 0;
  std::uint64_t ii_attempts = 0;
  std::uint64_t scheduled = 0;    // cells whose schedule stage succeeded
  std::uint64_t moves = 0;        // relay ops the moves router inserted
  std::uint64_t fit_retries = 0;  // queue-fit II escalations
  std::uint64_t queues = 0;       // queues of every allocated cell
  std::uint64_t verified = 0;     // cells the verifier checked

  bool operator==(const TraceCounts&) const = default;
};

struct TracedPass {
  std::vector<std::vector<LoopResult>> by_point;
  std::vector<SpanRecord> spans;
  TraceCounts counts;
  double wall_seconds = 0.0;

  /// Summed span duration per layer.  Every layer span is a leaf, so for
  /// all but kCell (the parent of every span) this is the self time.
  [[nodiscard]] std::array<double, kLayerCount> self_seconds() const;
};

/// Re-runs run_pipeline's stage plan cell by cell (serial, uncached) from
/// the layers' public functions, recording a span around each call.  The
/// outcome of every cell must match run_pipeline's.
[[nodiscard]] TracedPass run_traced_pass(const std::vector<Loop>& loops,
                                         const std::vector<SweepPoint>& points);

/// Writes the spans as a Chrome trace-event file: one complete event per
/// span with its cell id, whose cell span is its parent.
void write_trace_file(const std::string& path, const TracedPass& pass,
                      const std::vector<SweepPoint>& points, std::size_t loops);

// --- timing helpers ----------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile (q in [0, 100]) of `values`.
[[nodiscard]] double percentile(std::vector<double> values, double q);

}  // namespace qvliw::perfbench
