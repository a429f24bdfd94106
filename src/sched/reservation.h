// Modulo reservation table (MRT).
//
// Tracks which operation occupies each FU instance at each of the II
// modulo slots.  Fully pipelined FUs: one issue per instance per slot.
//
// Occupancy is mirrored in one bitmask word per (cluster, kind, slot):
// bit `fu` set iff that instance is busy.  find_free is a countr_zero of
// the complement instead of a linear probe, and victim selection walks
// the set bits of the same word.  reset(ii) rebinds to a new II reusing
// the allocated storage, so the II-ladder searcher never reconstructs
// the table.
#pragma once

#include <cstdint>
#include <vector>

#include "machine/machine.h"

namespace qvliw {

class ReservationTable {
 public:
  ReservationTable(const MachineConfig& machine, int ii);

  /// Rebinds the table to a new II with every slot free.  Reuses the
  /// existing storage (amortised growth across an ascending II ladder).
  void reset(int ii);

  [[nodiscard]] int ii() const { return ii_; }

  /// Index of a free instance of `kind` in `cluster` at modulo slot of
  /// `cycle`, or -1 when all are busy.
  [[nodiscard]] int find_free(int cluster, FuKind kind, int cycle) const;

  /// Occupant op of an instance at the slot of `cycle`, or -1.
  [[nodiscard]] int occupant(int cluster, FuKind kind, int fu, int cycle) const;

  /// Number of instances of `kind` in `cluster`.
  [[nodiscard]] int instances(int cluster, FuKind kind) const;

  /// Busy-instance bitmask of (cluster, kind) at the slot of `cycle`:
  /// bit `fu` set iff that instance is occupied.  Lets victim selection
  /// iterate occupants with countr_zero instead of probing each instance.
  [[nodiscard]] std::uint64_t busy_word(int cluster, FuKind kind, int cycle) const;

  /// Books `op` onto (cluster, kind, fu) at the slot of `cycle`.
  /// The slot must be free.
  void place(int cluster, FuKind kind, int fu, int cycle, int op);

  /// Releases the booking; the slot must currently hold `op`.
  void remove(int cluster, FuKind kind, int fu, int cycle, int op);

 private:
  [[nodiscard]] std::size_t cell(int cluster, FuKind kind) const;
  [[nodiscard]] std::size_t base(int cluster, FuKind kind) const;
  [[nodiscard]] int slot_of(int cycle) const;

  int ii_ = 1;
  int clusters_ = 0;
  // Per (cluster, kind): FU instance count, all-instances mask, and
  // offset into slots_.
  std::vector<int> counts_;
  std::vector<std::uint64_t> full_;
  std::vector<std::size_t> offsets_;
  std::vector<int> slots_;           // [offset + fu*ii + slot] -> op or -1
  std::vector<std::uint64_t> busy_;  // [cell*ii + slot] -> busy-instance mask
  static_assert(kMaxFusPerKind <= 64, "one busy bit per FU instance of a kind");
};

}  // namespace qvliw
