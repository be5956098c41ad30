#ifndef EALGAP_STATS_DESCRIPTIVE_H_
#define EALGAP_STATS_DESCRIPTIVE_H_

#include <cstdint>
#include <vector>

namespace ealgap {
namespace stats {

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& v);

/// Population variance (divides by n); 0 for fewer than 1 element.
double Variance(const std::vector<double>& v);

/// Population standard deviation.
double StdDev(const std::vector<double>& v);

double Min(const std::vector<double>& v);
double Max(const std::vector<double>& v);

/// Linear-interpolation quantile, q in [0, 1]: the sorted values
/// interpolated at position q*(n-1). Sorts a copy.
double Quantile(std::vector<double> v, double q);

/// A value that stands for `weight` equal samples (weight >= 0), e.g. one
/// coalesced serve step's wall time, once per request it answered.
struct WeightedValue {
  double value = 0.0;
  int64_t weight = 0;
};

/// Quantile() of the expanded sample in which each value appears `weight`
/// times (n = the total weight, which must be positive), computed without
/// expanding it. Sorts a copy.
double WeightedQuantile(std::vector<WeightedValue> v, double q);

/// Median (Quantile 0.5).
double Median(std::vector<double> v);

/// Pearson correlation of two equal-length series; 0 when degenerate.
double Correlation(const std::vector<double>& a, const std::vector<double>& b);

/// Skewness (population); heavy-tail indicator used by the data analysis.
double Skewness(const std::vector<double>& v);

}  // namespace stats
}  // namespace ealgap

#endif  // EALGAP_STATS_DESCRIPTIVE_H_
