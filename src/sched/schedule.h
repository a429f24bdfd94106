// Modulo schedule representation and validation.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/ddg.h"
#include "ir/loop.h"
#include "machine/machine.h"

namespace qvliw {

/// Where and when one operation issues (cycle within the flat one-iteration
/// schedule; the instance of iteration j issues at cycle + j*II).
struct Placement {
  int cycle = -1;
  int cluster = 0;
  int fu = 0;  // instance index within its FU kind

  friend bool operator==(const Placement&, const Placement&) = default;
};

class Schedule {
 public:
  Schedule() = default;
  Schedule(int op_count, int ii);

  /// Rebinds to a new (op_count, ii) with every op unscheduled — same
  /// post-state as constructing afresh, but reusing the placement storage
  /// so the II-ladder searcher pays no allocation between attempts.
  void reset(int op_count, int ii);

  [[nodiscard]] int ii() const { return ii_; }
  [[nodiscard]] int op_count() const { return static_cast<int>(places_.size()); }

  [[nodiscard]] bool scheduled(int op) const;
  [[nodiscard]] const Placement& place(int op) const;
  [[nodiscard]] int cycle(int op) const { return place(op).cycle; }
  [[nodiscard]] int cluster(int op) const { return place(op).cluster; }

  void set(int op, Placement placement);
  void clear(int op);

  /// True when every op is placed.
  [[nodiscard]] bool complete() const;

  /// Largest issue cycle over scheduled ops (-1 when none).
  [[nodiscard]] int max_cycle() const;

  /// floor(max_cycle / II) + 1 — the paper's stage count (SC).
  [[nodiscard]] int stage_count() const;

  /// Completion time of a `trip`-iteration run under this schedule:
  /// (trip-1)*II + max over ops of (cycle + latency). Matches the
  /// cycle-accurate simulator.
  [[nodiscard]] long long total_cycles(const Loop& loop, const LatencyModel& lat,
                                       long long trip) const;

 private:
  int ii_ = 1;
  std::vector<std::optional<Placement>> places_;
};

/// Full verification of a candidate schedule: op-count agreement with the
/// loop/DDG, every dependence constraint, and every resource constraint.
/// Empty == the schedule is valid for this (loop, graph, machine).  Used
/// to vet warm-start seeds before the scheduler adopts them, and by tests.
/// A thin wrapper over the independent verifier's schedule-legality pass
/// (verify_modulo_schedule in verify/verify.h), which is the single
/// implementation of these rules.
[[nodiscard]] std::vector<std::string> verify_schedule(const Loop& loop, const Ddg& graph,
                                                       const MachineConfig& machine,
                                                       const Schedule& schedule);

/// Operations per source iteration that the paper counts for IPC
/// (copies and moves are plumbing, not issued work of the source program).
[[nodiscard]] int useful_op_count(const Loop& loop);

/// Static issue rate: useful ops per kernel cycle.
[[nodiscard]] double static_ipc(const Loop& loop, const Schedule& schedule);

/// Dynamic issue rate over `trip` kernel iterations including prologue and
/// epilogue occupancy (the paper's IPC_dynamic).
[[nodiscard]] double dynamic_ipc(const Loop& loop, const LatencyModel& lat,
                                 const Schedule& schedule, long long trip);

/// Renders a kernel picture: one line per modulo slot, one column per FU.
[[nodiscard]] std::string format_kernel(const Loop& loop, const MachineConfig& machine,
                                        const Schedule& schedule);

class BlobReader;
class BlobWriter;

/// Serialises `schedule` into the portable blob format
/// (support/blob.h): II, op count, and per-op placements.  Used by the
/// verify bundle.
void serialize_schedule(BlobWriter& out, const Schedule& schedule);

/// Bounds deserialize_schedule enforces, far above any schedule the
/// experiments produce, so that II * distance and cycle arithmetic over a
/// decoded schedule stays inside int (see kMaxOperandDistance).
inline constexpr int kMaxScheduleIi = 1 << 16;
inline constexpr int kMaxScheduleCycle = 1 << 24;

/// Inverse of serialize_schedule; throws Error on truncation or a
/// structurally invalid placement (negative field, cycle beyond
/// kMaxScheduleCycle, II outside [1, kMaxScheduleIi]).  The result is
/// *not* verified against any loop/machine — run verify_schedule before
/// trusting a deserialised schedule.
[[nodiscard]] Schedule deserialize_schedule(BlobReader& in);

}  // namespace qvliw
