#include "sched/schedule.h"

#include <algorithm>
#include <sstream>

#include "ir/printer.h"
#include "machine/fu.h"
#include "support/blob.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "verify/verify.h"

namespace qvliw {

Schedule::Schedule(int op_count, int ii) : ii_(ii), places_(static_cast<std::size_t>(op_count)) {
  check(op_count >= 0, "Schedule: negative op count");
  check(ii >= 1, "Schedule: ii must be >= 1");
}

void Schedule::reset(int op_count, int ii) {
  check(op_count >= 0, "Schedule: negative op count");
  check(ii >= 1, "Schedule: ii must be >= 1");
  ii_ = ii;
  places_.assign(static_cast<std::size_t>(op_count), std::nullopt);
}

bool Schedule::scheduled(int op) const {
  check(op >= 0 && op < op_count(), "Schedule: op out of range");
  return places_[static_cast<std::size_t>(op)].has_value();
}

const Placement& Schedule::place(int op) const {
  check(scheduled(op), "Schedule: op not scheduled");
  return *places_[static_cast<std::size_t>(op)];
}

void Schedule::set(int op, Placement placement) {
  check(op >= 0 && op < op_count(), "Schedule: op out of range");
  check(placement.cycle >= 0, "Schedule: negative cycle");
  places_[static_cast<std::size_t>(op)] = placement;
}

void Schedule::clear(int op) {
  check(op >= 0 && op < op_count(), "Schedule: op out of range");
  places_[static_cast<std::size_t>(op)].reset();
}

bool Schedule::complete() const {
  for (const auto& p : places_) {
    if (!p.has_value()) return false;
  }
  return true;
}

int Schedule::max_cycle() const {
  int max = -1;
  for (const auto& p : places_) {
    if (p.has_value()) max = std::max(max, p->cycle);
  }
  return max;
}

int Schedule::stage_count() const {
  const int max = max_cycle();
  return max < 0 ? 0 : max / ii_ + 1;
}

long long Schedule::total_cycles(const Loop& loop, const LatencyModel& lat, long long trip) const {
  check(trip >= 1, "total_cycles: trip must be >= 1");
  check(loop.op_count() == op_count(), "total_cycles: loop/schedule mismatch");
  int span = 0;
  for (int op = 0; op < op_count(); ++op) {
    if (!scheduled(op)) continue;
    span = std::max(span, cycle(op) + lat.of(loop.ops[static_cast<std::size_t>(op)].opcode));
  }
  return (trip - 1) * static_cast<long long>(ii_) + span;
}

std::vector<std::string> verify_schedule(const Loop& loop, const Ddg& graph,
                                         const MachineConfig& machine, const Schedule& schedule) {
  // One implementation of schedule legality: the independent verifier's
  // pass (src/verify).  The scheduler-side helpers this file used to carry
  // (dependence_violations / resource_violations) duplicated a subset of
  // those rules against the producer's own ReservationTable; they are gone.
  const VerifyReport report = verify_modulo_schedule(loop, graph, machine, schedule);
  std::vector<std::string> violations;
  violations.reserve(report.diagnostics.size());
  for (const VerifyDiagnostic& diagnostic : report.diagnostics) {
    violations.push_back(diagnostic.message);
  }
  return violations;
}

int useful_op_count(const Loop& loop) {
  int count = 0;
  for (const Op& op : loop.ops) {
    if (op.opcode != Opcode::kCopy && op.opcode != Opcode::kMove) ++count;
  }
  return count;
}

double static_ipc(const Loop& loop, const Schedule& schedule) {
  return static_cast<double>(useful_op_count(loop)) / static_cast<double>(schedule.ii());
}

double dynamic_ipc(const Loop& loop, const LatencyModel& lat, const Schedule& schedule,
                   long long trip) {
  const long long total = schedule.total_cycles(loop, lat, trip);
  return static_cast<double>(useful_op_count(loop)) * static_cast<double>(trip) /
         static_cast<double>(total);
}

std::string format_kernel(const Loop& loop, const MachineConfig& machine,
                          const Schedule& schedule) {
  const int ii = schedule.ii();
  std::ostringstream os;
  os << "II=" << ii << " SC=" << schedule.stage_count() << "\n";
  for (int slot = 0; slot < ii; ++slot) {
    os << pad_left(std::to_string(slot), 3) << " |";
    for (int c = 0; c < machine.cluster_count(); ++c) {
      if (c > 0) os << " ||";
      for (int k = 0; k < kNumFuKinds; ++k) {
        const auto kind = static_cast<FuKind>(k);
        for (int fu = 0; fu < machine.fu_count(c, kind); ++fu) {
          // Find an op issued on this FU at this slot.
          std::string cell = ".";
          for (int op = 0; op < loop.op_count(); ++op) {
            if (!schedule.scheduled(op)) continue;
            const Placement& p = schedule.place(op);
            if (p.cluster == c && p.fu == fu &&
                fu_for(loop.ops[static_cast<std::size_t>(op)].opcode) == kind &&
                p.cycle % ii == slot) {
              cell = loop.ops[static_cast<std::size_t>(op)].defines_value()
                         ? loop.ops[static_cast<std::size_t>(op)].name
                         : cat("st#", op);
              cell += cat("(s", p.cycle / ii, ")");
              break;
            }
          }
          os << ' ' << pad_right(cell, 10);
        }
      }
    }
    os << '\n';
  }
  return os.str();
}

void serialize_schedule(BlobWriter& out, const Schedule& schedule) {
  out.put_i32(schedule.ii());
  out.put_i32(schedule.op_count());
  for (int op = 0; op < schedule.op_count(); ++op) {
    const bool placed = schedule.scheduled(op);
    out.put_bool(placed);
    if (!placed) continue;
    const Placement& p = schedule.place(op);
    out.put_i32(p.cycle);
    out.put_i32(p.cluster);
    out.put_i32(p.fu);
  }
}

Schedule deserialize_schedule(BlobReader& in) {
  const std::int32_t ii = in.get_i32();
  const std::int32_t ops = in.get_i32();
  if (ii < 1 || ii > kMaxScheduleIi) {
    fail(cat("deserialize_schedule: II ", ii, " outside [1, ", kMaxScheduleIi, "]"));
  }
  check(ops >= 0 && ops <= 1 << 24, "deserialize_schedule: implausible op count");
  Schedule schedule(ops, ii);
  for (int op = 0; op < ops; ++op) {
    if (!in.get_bool()) continue;
    Placement p;
    p.cycle = in.get_i32();
    p.cluster = in.get_i32();
    p.fu = in.get_i32();
    check(p.cycle >= 0 && p.cluster >= 0 && p.fu >= 0,
          "deserialize_schedule: negative placement field");
    if (p.cycle > kMaxScheduleCycle) {
      fail(cat("deserialize_schedule: cycle ", p.cycle, " beyond ", kMaxScheduleCycle));
    }
    schedule.set(op, p);
  }
  return schedule;
}

}  // namespace qvliw
