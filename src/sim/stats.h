#ifndef FARVIEW_SIM_STATS_H_
#define FARVIEW_SIM_STATS_H_

#include <cstddef>
#include <vector>

namespace farview::sim {

/// Accumulates scalar samples and reports summary statistics. The paper
/// reports medians over repeated runs (Section 6.2); experiment drivers use
/// this accumulator for the same reduction.
class SampleStats {
 public:
  // fvcheck:allow=hot-path-alloc report-time sink
  void Add(double v) { samples_.push_back(v); }

  /// Adds every sample of `other` (not this accumulator), in its order.
  void Append(const SampleStats& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Arithmetic mean; 0 when empty.
  double Mean() const;

  /// Median (lower median for even counts); 0 when empty.
  double Median() const;

  /// Minimum / maximum; 0 when empty.
  double Min() const;
  double Max() const;

  /// p-th percentile via nearest-rank, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;

  /// Population standard deviation; 0 when fewer than 2 samples.
  double StdDev() const;

  void Clear() { samples_.clear(); }

 private:
  /// Returns a sorted copy (samples are kept in arrival order so that
  /// repeated percentile queries stay correct as samples accumulate).
  std::vector<double> Sorted() const;

  std::vector<double> samples_;
};

}  // namespace farview::sim

#endif  // FARVIEW_SIM_STATS_H_
