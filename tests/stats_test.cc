#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stats/descriptive.h"
#include "stats/distribution.h"
#include "stats/histogram.h"
#include "stats/metrics.h"
#include "tensor/kernels.h"

namespace ealgap {
namespace {

// --- distributions ----------------------------------------------------------

TEST(ExponentialTest, FitIsReciprocalOfMean) {
  auto fit = stats::ExponentialDistribution::Fit({1.0, 2.0, 3.0});
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit->lambda(), 0.5);
  EXPECT_DOUBLE_EQ(fit->Mean(), 2.0);
}

TEST(ExponentialTest, RejectsEmptyAndNegative) {
  EXPECT_FALSE(stats::ExponentialDistribution::Fit({}).ok());
  EXPECT_FALSE(stats::ExponentialDistribution::Fit({1.0, -2.0}).ok());
}

TEST(ExponentialTest, AllZeroSampleStaysFinite) {
  auto fit = stats::ExponentialDistribution::Fit({0.0, 0.0, 0.0});
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(std::isfinite(fit->lambda()));
  EXPECT_GT(fit->lambda(), 0.0);
}

TEST(ExponentialTest, PdfAndCdfProperties) {
  stats::ExponentialDistribution d(2.0);
  EXPECT_DOUBLE_EQ(d.Pdf(0.0), 2.0);
  EXPECT_EQ(d.Pdf(-1.0), 0.0);
  EXPECT_NEAR(d.Cdf(std::log(2.0) / 2.0), 0.5, 1e-12);  // median
  EXPECT_EQ(d.Cdf(-1.0), 0.0);
}

class MleRecoveryTest : public ::testing::TestWithParam<double> {};

TEST_P(MleRecoveryTest, ExponentialFitRecoversRate) {
  const double lambda = GetParam();
  Rng rng(21);
  std::vector<double> sample(20000);
  for (double& v : sample) v = rng.Exponential(lambda);
  auto fit = stats::ExponentialDistribution::Fit(sample);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->lambda(), lambda, 0.05 * lambda);
}

TEST_P(MleRecoveryTest, NormalFitRecoversMoments) {
  const double scale = GetParam();
  Rng rng(22);
  std::vector<double> sample(20000);
  for (double& v : sample) v = rng.Normal(3.0 * scale, scale);
  auto fit = stats::NormalDistribution::Fit(sample);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->mean(), 3.0 * scale, 0.05 * scale);
  EXPECT_NEAR(fit->stddev(), scale, 0.05 * scale);
}

INSTANTIATE_TEST_SUITE_P(Rates, MleRecoveryTest,
                         ::testing::Values(0.1, 1.0, 5.0));

TEST(DistributionTest, ExponentialLikelihoodBeatsNormalOnExponentialData) {
  Rng rng(23);
  std::vector<double> sample(5000);
  for (double& v : sample) v = rng.Exponential(0.05);
  auto e = stats::ExponentialDistribution::Fit(sample);
  auto n = stats::NormalDistribution::Fit(sample);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(n.ok());
  EXPECT_GT(e->LogLikelihood(sample), n->LogLikelihood(sample));
}

TEST(DistributionTest, RowwisePdfMatchesScalarPdf) {
  Tensor x = Tensor::FromVector({2, 3}, {1, 2, 3, 10, 20, 30});
  Tensor z = stats::RowwisePdf(x, stats::DistributionFamily::kExponential);
  stats::ExponentialDistribution row0(1.0 / 2.0);
  stats::ExponentialDistribution row1(1.0 / 20.0);
  EXPECT_NEAR(z.at({0, 1}), row0.Pdf(2.0), 1e-6);
  EXPECT_NEAR(z.at({1, 2}), row1.Pdf(30.0), 1e-6);
  Tensor zn = stats::RowwisePdf(x, stats::DistributionFamily::kNormal);
  EXPECT_GT(zn.at({0, 1}), zn.at({0, 2}));  // density peaks near the mean
}

// RowwisePdf evaluates blocks of rows at once; each row must still be
// exactly what the per-row PDF kernels make of that row's fit, in every
// backend, for block-straddling row counts and all-zero rows.
TEST(DistributionTest, RowwisePdfIsTheRowKernelsBitForBit) {
  const kernels::Backend native = kernels::ActiveBackend();
  Rng rng(29);
  for (kernels::Backend b : {kernels::Backend::kScalar,
                             kernels::Backend::kSse2,
                             kernels::Backend::kAvx2}) {
    if (!kernels::BackendSupported(b)) continue;
    kernels::SetBackendForTesting(b);
    const kernels::KernelTable& t = kernels::Active();
    for (int64_t n : {1, 63, 64, 65, 130}) {
      for (int64_t l : {1, 2, 5, 9}) {
        Tensor x = Tensor::Rand({n, l}, rng, 0.f, 40.f);
        for (int64_t j = 0; j < l; ++j) x.data()[(n / 2) * l + j] = 0.f;
        for (auto family : {stats::DistributionFamily::kExponential,
                            stats::DistributionFamily::kNormal}) {
          const Tensor z = stats::RowwisePdf(x, family);
          std::vector<double> row(l);
          std::vector<float> want(l);
          for (int64_t i = 0; i < n; ++i) {
            const float* xi = x.data() + i * l;
            for (int64_t j = 0; j < l; ++j) row[j] = xi[j];
            if (family == stats::DistributionFamily::kExponential) {
              auto fit = stats::ExponentialDistribution::Fit(row);
              ASSERT_TRUE(fit.ok());
              t.exp_pdf_row(xi, static_cast<float>(fit->lambda()),
                            want.data(), l);
            } else {
              auto fit = stats::NormalDistribution::Fit(row);
              ASSERT_TRUE(fit.ok());
              const double sd = fit->stddev();
              t.normal_pdf_row(
                  xi, static_cast<float>(fit->mean()),
                  static_cast<float>(1.0 / sd),
                  static_cast<float>(1.0 / (sd * std::sqrt(2.0 * M_PI))),
                  want.data(), l);
            }
            ASSERT_EQ(std::memcmp(want.data(), z.data() + i * l,
                                  l * sizeof(float)),
                      0)
                << kernels::BackendName(b) << " n=" << n << " l=" << l
                << " row " << i;
          }
        }
      }
    }
  }
  kernels::SetBackendForTesting(native);
}

// --- descriptive ------------------------------------------------------------

TEST(DescriptiveTest, BasicStats) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(stats::Variance(v), 1.25);
  EXPECT_DOUBLE_EQ(stats::StdDev(v), std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(stats::Min(v), 1);
  EXPECT_DOUBLE_EQ(stats::Max(v), 4);
  EXPECT_DOUBLE_EQ(stats::Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(stats::Quantile({0, 10}, 0.25), 2.5);
}

// The weighted quantile is Quantile() over the expanded sample, bit for
// bit: with ties, with zero weights, in any input order, and for n = 1.
TEST(DescriptiveTest, WeightedQuantileMatchesTheExpandedSample) {
  const std::vector<std::vector<stats::WeightedValue>> cases = {
      {{2.5, 1}},
      {{7.0, 5}},
      {{3.0, 2}, {1.0, 3}, {3.0, 1}, {0.5, 0}, {2.0, 4}},
      {{0.125, 1}, {9.0, 1}, {4.0, 7}, {4.0, 2}, {1e-3, 1}, {6.5, 3}},
  };
  for (const auto& weighted : cases) {
    std::vector<double> expanded;
    for (const stats::WeightedValue& e : weighted) {
      expanded.insert(expanded.end(), static_cast<size_t>(e.weight), e.value);
    }
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.73, 0.95, 0.99, 1.0}) {
      EXPECT_EQ(stats::WeightedQuantile(weighted, q),
                stats::Quantile(expanded, q))
          << "n=" << expanded.size() << " q=" << q;
    }
  }
  EXPECT_EQ(stats::WeightedQuantile({{1.0, 1}, {3.0, 1}}, 0.5), 2.0);
}

TEST(DescriptiveTest, CorrelationSignAndBounds) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(stats::Correlation(x, y), 1.0, 1e-12);
  std::vector<double> ny{10, 8, 6, 4, 2};
  EXPECT_NEAR(stats::Correlation(x, ny), -1.0, 1e-12);
  EXPECT_EQ(stats::Correlation(x, {1, 1, 1, 1, 1}), 0.0);
}

TEST(DescriptiveTest, SkewnessDetectsHeavyRightTail) {
  Rng rng(24);
  std::vector<double> exp_sample(10000), norm_sample(10000);
  for (auto& v : exp_sample) v = rng.Exponential(1.0);
  for (auto& v : norm_sample) v = rng.Normal();
  EXPECT_GT(stats::Skewness(exp_sample), 1.5);  // theory: 2
  EXPECT_NEAR(stats::Skewness(norm_sample), 0.0, 0.15);
}

// --- metrics ----------------------------------------------------------------

TEST(MetricsTest, PerfectPrediction) {
  const std::vector<double> t{1, 5, 10};
  auto m = stats::ComputeMetrics(t, t);
  EXPECT_DOUBLE_EQ(m.er, 0.0);
  EXPECT_DOUBLE_EQ(m.msle, 0.0);
  EXPECT_DOUBLE_EQ(m.r2, 1.0);
  EXPECT_DOUBLE_EQ(m.rmse, 0.0);
  EXPECT_DOUBLE_EQ(m.mae, 0.0);
}

TEST(MetricsTest, KnownValues) {
  const std::vector<double> pred{2, 2};
  const std::vector<double> truth{1, 3};
  EXPECT_DOUBLE_EQ(stats::ErrorRate(pred, truth), 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(stats::Rmse(pred, truth), 1.0);
  EXPECT_DOUBLE_EQ(stats::MeanAbsoluteError(pred, truth), 1.0);
  // MSLE = mean(|log2(3)-log2(2)|, |log2(3)-log2(4)|)
  const double expected =
      (std::fabs(std::log2(3.0) - std::log2(2.0)) +
       std::fabs(std::log2(3.0) - std::log2(4.0))) /
      2.0;
  EXPECT_NEAR(stats::Msle(pred, truth), expected, 1e-12);
}

TEST(MetricsTest, MeanPredictorHasZeroR2) {
  const std::vector<double> truth{1, 2, 3, 4};
  const std::vector<double> pred{2.5, 2.5, 2.5, 2.5};
  EXPECT_NEAR(stats::RSquared(pred, truth), 0.0, 1e-12);
}

TEST(MetricsTest, ZeroTruthGuards) {
  const std::vector<double> zeros{0, 0};
  EXPECT_DOUBLE_EQ(stats::ErrorRate({1, 1}, zeros), 2.0);  // floor denom 1
  EXPECT_LT(stats::RSquared({0, 0}, zeros), -1e8);         // constant truth
}

class MetricScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(MetricScaleTest, ErrorRateIsScaleInvariant) {
  const double s = GetParam();
  Rng rng(25);
  std::vector<double> truth(100), pred(100), truth_s(100), pred_s(100);
  for (int i = 0; i < 100; ++i) {
    truth[i] = rng.Uniform(1, 100);
    pred[i] = truth[i] + rng.Normal(0, 5);
    truth_s[i] = truth[i] * s;
    pred_s[i] = pred[i] * s;
  }
  EXPECT_NEAR(stats::ErrorRate(pred, truth),
              stats::ErrorRate(pred_s, truth_s), 1e-9);
  EXPECT_NEAR(stats::RSquared(pred, truth),
              stats::RSquared(pred_s, truth_s), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, MetricScaleTest,
                         ::testing::Values(2.0, 10.0, 1000.0));

// --- histogram --------------------------------------------------------------

TEST(HistogramTest, CountsAndDensityIntegrateToOne) {
  Rng rng(26);
  std::vector<double> sample(5000);
  for (double& v : sample) v = rng.Exponential(0.1);
  auto h = stats::Histogram::Build(sample, 20);
  ASSERT_TRUE(h.ok());
  int64_t total = 0;
  double integral = 0.0;
  for (int b = 0; b < h->num_bins(); ++b) {
    total += h->Count(b);
    integral += h->Density(b) * h->bin_width();
  }
  EXPECT_EQ(total, 5000);
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(HistogramTest, RejectsBadInput) {
  EXPECT_FALSE(stats::Histogram::Build({}, 10).ok());
  EXPECT_FALSE(stats::Histogram::Build({1.0}, 0).ok());
}

TEST(HistogramTest, SingleValueDegenerateRange) {
  auto h = stats::Histogram::Build({5.0, 5.0, 5.0}, 4);
  ASSERT_TRUE(h.ok());
  int64_t total = 0;
  for (int b = 0; b < h->num_bins(); ++b) total += h->Count(b);
  EXPECT_EQ(total, 3);
}

}  // namespace
}  // namespace ealgap
