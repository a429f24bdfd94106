// Summary statistics used by the experiment harness and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qvliw {

/// Welford-style online accumulator for count/mean/min/max/sum.
class OnlineStats {
 public:
  void add(double value);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Arithmetic mean; 0 for empty input.
[[nodiscard]] double mean(const std::vector<double>& values);

/// Geometric mean; requires strictly positive values; 0 for empty input.
[[nodiscard]] double geomean(const std::vector<double>& values);

/// p-th percentile (p in [0,100]) by linear interpolation on sorted copy;
/// 0 for empty input.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Fixed-bin histogram over [lo, hi); out-of-range values clamp to edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value);
  [[nodiscard]] std::size_t bin_count(std::size_t bin) const;
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const;
  [[nodiscard]] double bin_hi(std::size_t bin) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace qvliw
