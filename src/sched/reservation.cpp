#include "sched/reservation.h"

#include <bit>

#include "support/diagnostics.h"

namespace qvliw {

ReservationTable::ReservationTable(const MachineConfig& machine, int ii)
    : clusters_(machine.cluster_count()) {
  const auto cells = static_cast<std::size_t>(clusters_ * kNumFuKinds);
  counts_.resize(cells);
  full_.resize(cells);
  offsets_.resize(cells);
  for (int c = 0; c < clusters_; ++c) {
    for (int k = 0; k < kNumFuKinds; ++k) {
      const auto i = static_cast<std::size_t>(c * kNumFuKinds + k);
      counts_[i] = machine.fu_count(c, static_cast<FuKind>(k));
      check(counts_[i] <= 64, "ReservationTable: more than 64 FU instances of one kind");
      full_[i] = counts_[i] == 64 ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << counts_[i]) - 1;
    }
  }
  reset(ii);
}

void ReservationTable::reset(int ii) {
  check(ii >= 1, "ReservationTable: ii must be >= 1");
  ii_ = ii;
  std::size_t total = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    offsets_[i] = total;
    total += static_cast<std::size_t>(counts_[i]) * static_cast<std::size_t>(ii_);
  }
  slots_.assign(total, -1);
  busy_.assign(counts_.size() * static_cast<std::size_t>(ii_), 0);
}

std::size_t ReservationTable::cell(int cluster, FuKind kind) const {
  QVLIW_ASSERT(cluster >= 0 && cluster < clusters_, "MRT: cluster out of range");
  return static_cast<std::size_t>(cluster * kNumFuKinds) + static_cast<std::size_t>(kind);
}

std::size_t ReservationTable::base(int cluster, FuKind kind) const {
  return offsets_[cell(cluster, kind)];
}

int ReservationTable::slot_of(int cycle) const {
  QVLIW_ASSERT(cycle >= 0, "MRT: negative cycle");
  return cycle % ii_;
}

int ReservationTable::instances(int cluster, FuKind kind) const {
  return counts_[cell(cluster, kind)];
}

int ReservationTable::find_free(int cluster, FuKind kind, int cycle) const {
  const std::size_t i = cell(cluster, kind);
  const std::uint64_t free =
      full_[i] & ~busy_[i * static_cast<std::size_t>(ii_) + static_cast<std::size_t>(slot_of(cycle))];
  return free != 0 ? std::countr_zero(free) : -1;
}

std::uint64_t ReservationTable::busy_word(int cluster, FuKind kind, int cycle) const {
  const std::size_t i = cell(cluster, kind);
  return busy_[i * static_cast<std::size_t>(ii_) + static_cast<std::size_t>(slot_of(cycle))];
}

int ReservationTable::occupant(int cluster, FuKind kind, int fu, int cycle) const {
  QVLIW_ASSERT(fu >= 0 && fu < instances(cluster, kind), "MRT: fu out of range");
  return slots_[base(cluster, kind) + static_cast<std::size_t>(fu * ii_ + slot_of(cycle))];
}

void ReservationTable::place(int cluster, FuKind kind, int fu, int cycle, int op) {
  const std::size_t i = cell(cluster, kind);
  QVLIW_ASSERT(fu >= 0 && fu < counts_[i], "MRT: fu out of range");
  const int slot = slot_of(cycle);
  int& s = slots_[offsets_[i] + static_cast<std::size_t>(fu * ii_ + slot)];
  QVLIW_ASSERT(s < 0, "MRT: placing into an occupied slot");
  s = op;
  busy_[i * static_cast<std::size_t>(ii_) + static_cast<std::size_t>(slot)] |= std::uint64_t{1} << fu;
}

void ReservationTable::remove(int cluster, FuKind kind, int fu, int cycle, int op) {
  const std::size_t i = cell(cluster, kind);
  QVLIW_ASSERT(fu >= 0 && fu < counts_[i], "MRT: fu out of range");
  const int slot = slot_of(cycle);
  int& s = slots_[offsets_[i] + static_cast<std::size_t>(fu * ii_ + slot)];
  QVLIW_ASSERT(s == op, "MRT: removing an op that is not booked here");
  s = -1;
  busy_[i * static_cast<std::size_t>(ii_) + static_cast<std::size_t>(slot)] &=
      ~(std::uint64_t{1} << fu);
}

}  // namespace qvliw
