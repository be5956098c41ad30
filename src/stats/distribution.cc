#include "stats/distribution.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace ealgap {
namespace stats {

namespace {
constexpr double kMinMean = 1e-6;
constexpr double kMinStddev = 1e-6;
}  // namespace

ExponentialDistribution::ExponentialDistribution(double lambda)
    : lambda_(lambda) {
  EALGAP_CHECK_GT(lambda, 0.0);
}

Result<ExponentialDistribution> ExponentialDistribution::Fit(
    const std::vector<double>& values) {
  if (values.empty()) {
    return Status::InvalidArgument("exponential fit on empty sample");
  }
  double sum = 0.0;
  for (double v : values) {
    if (v < 0.0) {
      return Status::InvalidArgument("exponential fit on negative value");
    }
    sum += v;
  }
  const double mean = std::max(sum / static_cast<double>(values.size()),
                               kMinMean);
  return ExponentialDistribution(1.0 / mean);
}

double ExponentialDistribution::Pdf(double x) const {
  if (x < 0.0) return 0.0;
  return lambda_ * std::exp(-lambda_ * x);
}

double ExponentialDistribution::Cdf(double x) const {
  if (x < 0.0) return 0.0;
  return 1.0 - std::exp(-lambda_ * x);
}

double ExponentialDistribution::LogLikelihood(
    const std::vector<double>& values) const {
  double ll = 0.0;
  for (double v : values) {
    ll += std::log(lambda_) - lambda_ * std::max(v, 0.0);
  }
  return ll;
}

NormalDistribution::NormalDistribution(double mean, double stddev)
    : mean_(mean), stddev_(stddev) {
  EALGAP_CHECK_GT(stddev, 0.0);
}

Result<NormalDistribution> NormalDistribution::Fit(
    const std::vector<double>& values) {
  if (values.empty()) {
    return Status::InvalidArgument("normal fit on empty sample");
  }
  double sum = 0.0;
  for (double v : values) sum += v;
  const double mean = sum / static_cast<double>(values.size());
  double ss = 0.0;
  for (double v : values) ss += (v - mean) * (v - mean);
  const double stddev =
      std::max(std::sqrt(ss / static_cast<double>(values.size())), kMinStddev);
  return NormalDistribution(mean, stddev);
}

double NormalDistribution::Pdf(double x) const {
  const double z = (x - mean_) / stddev_;
  return std::exp(-0.5 * z * z) / (stddev_ * std::sqrt(2.0 * M_PI));
}

double NormalDistribution::Cdf(double x) const {
  return 0.5 * std::erfc(-(x - mean_) / (stddev_ * std::sqrt(2.0)));
}

double NormalDistribution::LogLikelihood(
    const std::vector<double>& values) const {
  double ll = 0.0;
  for (double v : values) ll += std::log(std::max(Pdf(v), 1e-300));
  return ll;
}

Tensor RowwisePdf(const Tensor& x, DistributionFamily family) {
  EALGAP_CHECK_EQ(x.ndim(), 2);
  const int64_t n = x.dim(0), l = x.dim(1);
  const kernels::KernelTable& t = kernels::Active();
  Tensor z(x.shape());
  const float* px = x.data();
  float* pz = z.data();
  // Parameter fits stay in double (exact per row); the per-element PDF
  // runs on the float32 SIMD kernels, bit-identical across backends. Rows
  // are evaluated kBlock at a time in a (L, rows) transposed layout, so
  // each kernel call spans a whole block instead of one L-wide row (whose
  // few elements would all take the kernels' scalar tail). The arithmetic
  // per element is exp_pdf_row's / normal_pdf_row's with the per-row
  // parameters as lane vectors — no row is negative there, because the
  // exponential fit rejects negative values.
  constexpr int64_t kBlock = 64;
  // Reused across calls: RowwisePdf sits on the per-step serve path, where
  // a fresh row buffer every call would be a heap allocation. The block
  // buffers are a Tensor, so serving takes them from its arena.
  static thread_local std::vector<double> row;
  row.resize(l);
  Tensor buf({(2 * l + 3) * kBlock});
  float* xt = buf.data();             // (L, rows) block of x
  float* et = xt + l * kBlock;        // (L, rows) densities
  float* p0 = et + l * kBlock;        // per-row parameters
  float* p1 = p0 + kBlock;
  float* p2 = p1 + kBlock;
  for (int64_t r0 = 0; r0 < n; r0 += kBlock) {
    const int64_t rows = std::min(kBlock, n - r0);
    for (int64_t i = 0; i < rows; ++i) {
      const float* xi = px + (r0 + i) * l;
      for (int64_t j = 0; j < l; ++j) {
        row[j] = xi[j];
        xt[j * rows + i] = xi[j];
      }
      if (family == DistributionFamily::kExponential) {
        auto fit = ExponentialDistribution::Fit(row);
        EALGAP_CHECK(fit.ok()) << fit.status().ToString();
        const float lambda = static_cast<float>(fit->lambda());
        p0[i] = -lambda;
        p1[i] = lambda;
      } else {
        auto fit = NormalDistribution::Fit(row);
        EALGAP_CHECK(fit.ok()) << fit.status().ToString();
        const double stddev = fit->stddev();
        p0[i] = static_cast<float>(fit->mean());
        p1[i] = static_cast<float>(1.0 / stddev);
        p2[i] = static_cast<float>(1.0 / (stddev * std::sqrt(2.0 * M_PI)));
      }
    }
    if (family == DistributionFamily::kExponential) {
      // lambda * exp(-lambda * x)
      for (int64_t j = 0; j < l; ++j) {
        t.mul_vv(xt + j * rows, p0, et + j * rows, rows);
      }
      t.exp(et, et, l * rows);
      for (int64_t j = 0; j < l; ++j) {
        t.mul_vv(p1, et + j * rows, et + j * rows, rows);
      }
    } else {
      // inv_norm * exp(-0.5 * ((x - mean) * inv_stddev)^2)
      for (int64_t j = 0; j < l; ++j) {
        t.sub_vv(xt + j * rows, p0, et + j * rows, rows);
        t.mul_vv(et + j * rows, p1, et + j * rows, rows);
      }
      t.mul_vv(et, et, et, l * rows);
      t.mul_vs(et, -0.5f, et, l * rows);
      t.exp(et, et, l * rows);
      for (int64_t j = 0; j < l; ++j) {
        t.mul_vv(p2, et + j * rows, et + j * rows, rows);
      }
    }
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < l; ++j) pz[(r0 + i) * l + j] = et[j * rows + i];
    }
  }
  return z;
}

}  // namespace stats
}  // namespace ealgap
