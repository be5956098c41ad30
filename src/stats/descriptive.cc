#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ealgap {
namespace stats {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 1) return 0.0;
  const double m = Mean(v);
  double ss = 0.0;
  for (double x : v) ss += (x - m) * (x - m);
  return ss / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) { return std::sqrt(Variance(v)); }

double Min(const std::vector<double>& v) {
  EALGAP_CHECK(!v.empty());
  return *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  EALGAP_CHECK(!v.empty());
  return *std::max_element(v.begin(), v.end());
}

double Quantile(std::vector<double> v, double q) {
  EALGAP_CHECK(!v.empty());
  EALGAP_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double WeightedQuantile(std::vector<WeightedValue> v, double q) {
  EALGAP_CHECK(q >= 0.0 && q <= 1.0);
  int64_t n = 0;
  for (const WeightedValue& e : v) {
    EALGAP_CHECK(e.weight >= 0);
    n += e.weight;
  }
  EALGAP_CHECK(n > 0);
  std::sort(v.begin(), v.end(),
            [](const WeightedValue& a, const WeightedValue& b) {
              return a.value < b.value;
            });
  // Quantile()'s arithmetic, with n the expanded sample's size.
  const double pos = q * static_cast<double>(n - 1);
  const int64_t lo = static_cast<int64_t>(pos);
  const int64_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  // Element i of the expanded sample is the first entry whose running
  // weight exceeds i.
  double at_lo = 0.0;
  double at_hi = 0.0;
  int64_t seen = 0;
  for (const WeightedValue& e : v) {
    if (seen <= lo && lo < seen + e.weight) at_lo = e.value;
    seen += e.weight;
    if (hi < seen) {
      at_hi = e.value;
      break;
    }
  }
  return at_lo * (1.0 - frac) + at_hi * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Correlation(const std::vector<double>& a, const std::vector<double>& b) {
  EALGAP_CHECK_EQ(a.size(), b.size());
  if (a.size() < 2) return 0.0;
  const double ma = Mean(a), mb = Mean(b);
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  const double denom = std::sqrt(va * vb);
  return denom > 0.0 ? cov / denom : 0.0;
}

double Skewness(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  const double sd = StdDev(v);
  if (sd == 0.0) return 0.0;
  double s3 = 0.0;
  for (double x : v) s3 += std::pow((x - m) / sd, 3.0);
  return s3 / static_cast<double>(v.size());
}

}  // namespace stats
}  // namespace ealgap
