#include "sim/memory.h"

#include "sim/eval.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

MemoryImage::MemoryImage(int arrays, long long elements, std::uint64_t seed)
    : elements_(elements) {
  check(arrays >= 0, "MemoryImage: negative array count");
  check(elements >= 0, "MemoryImage: negative element count");
  data_.resize(static_cast<std::size_t>(arrays));
  const auto size = static_cast<std::size_t>(elements + 2 * kPad);
  for (int a = 0; a < arrays; ++a) {
    auto& column = data_[static_cast<std::size_t>(a)];
    column.resize(size);
    for (std::size_t s = 0; s < size; ++s) {
      column[s] = initial_array_value(seed, a, static_cast<long long>(s) - kPad);
    }
  }
}

std::size_t MemoryImage::slot(int array, long long index) const {
  check(array >= 0 && array < arrays(), "MemoryImage: array out of range");
  if (index < -kPad || index >= elements_ + kPad) {
    fail(cat("MemoryImage: index ", index, " outside [-", kPad, ", ", elements_ + kPad, ")"));
  }
  return static_cast<std::size_t>(index + kPad);
}

// slot() checks `array` before it indexes data_: in data_[array][slot(...)]
// the outer subscript would be evaluated first.
std::int64_t MemoryImage::load(int array, long long index) const {
  const std::size_t at = slot(array, index);
  return data_[static_cast<std::size_t>(array)][at];
}

void MemoryImage::store(int array, long long index, std::int64_t value) {
  const std::size_t at = slot(array, index);
  data_[static_cast<std::size_t>(array)][at] = value;
}

std::pair<int, long long> MemoryImage::first_difference(const MemoryImage& other) const {
  for (int a = 0; a < arrays() && a < other.arrays(); ++a) {
    const auto& mine = data_[static_cast<std::size_t>(a)];
    const auto& theirs = other.data_[static_cast<std::size_t>(a)];
    for (std::size_t s = 0; s < mine.size() && s < theirs.size(); ++s) {
      if (mine[s] != theirs[s]) return {a, static_cast<long long>(s) - kPad};
    }
  }
  if (arrays() != other.arrays() || elements_ != other.elements_) return {-2, 0};
  return {-1, 0};
}

}  // namespace qvliw
