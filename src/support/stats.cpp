#include "support/stats.h"

#include <algorithm>
#include <cmath>

#include "support/diagnostics.h"

namespace qvliw {

void OnlineStats::add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
}

double OnlineStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double OnlineStats::min() const { return min_; }

double OnlineStats::max() const { return max_; }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    check(v > 0.0, "geomean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double percentile(std::vector<double> values, double p) {
  check(!values.empty(), "percentile of empty vector");
  check(p >= 0.0 && p <= 100.0, "percentile p out of range");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi), counts_(bins, 0) {
  check(bins > 0, "Histogram needs at least one bin");
  check(hi > lo, "Histogram range must be non-empty");
}

void Histogram::add(double value) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<std::ptrdiff_t>(std::floor((value - lo_) / width));
  bin = std::clamp<std::ptrdiff_t>(bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

std::size_t Histogram::bin_count(std::size_t bin) const {
  check(bin < counts_.size(), "Histogram bin out of range");
  return counts_[bin];
}

double Histogram::bin_lo(std::size_t bin) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin + 1);
}

}  // namespace qvliw
