// Differential test of the fused no-grad EALGAP forward (DESIGN.md §8i).
//
// ForwardBatch takes the region-blocked kernel pass whenever gradients are
// off, and the autograd graph otherwise. The autograd forward is the
// reference: for every option family (full model, ablations (ii) and
// (iii), the normal-family fit) and J in {1, 2, 4}, over region counts
// around the block width, history lengths and window counts, the fused
// (B, N) output must equal the autograd output byte for byte — under every
// supported SIMD backend and at 1, 2 and 8 pool threads. The inputs include
// perturbed and trained weights, all-zero rows (the kMinMean floor of the
// density fit) and a NaN sample.

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ealgap.h"
#include "data/dataset.h"
#include "data/synthetic_city.h"
#include "tensor/kernels.h"

namespace ealgap {
namespace core {
namespace {

/// Exposes the protected batch forward.
class ProbedEalgap : public EalgapForecaster {
 public:
  using EalgapForecaster::EalgapForecaster;
  using EalgapForecaster::ForwardBatch;
};

struct Shape3 {
  int n, l, m;
};

struct NamedOptions {
  std::string name;
  EalgapOptions options;
};

std::vector<NamedOptions> OptionFamilies(int64_t j) {
  std::vector<NamedOptions> out(4);
  out[0].name = "Full";
  out[1].name = "GlobalOnly";
  out[1].options.use_extreme = false;
  out[2].name = "ExtremeOnly";
  out[2].options.use_global_attention = false;
  out[3].name = "Normal";
  out[3].options.family = stats::DistributionFamily::kNormal;
  for (NamedOptions& o : out) {
    o.options.attention_dim = j;
    o.name += "/J" + std::to_string(j);
  }
  return out;
}

data::SlidingWindowDataset MakeDataset(const Shape3& s) {
  data::RegionSeriesConfig config;
  config.num_regions = s.n;
  config.num_days = 40;
  config.seed = 17 + s.n;
  data::DatasetOptions options;
  options.history_length = s.l;
  options.num_windows = s.m;
  options.norm_history = 3;
  auto ds = data::SlidingWindowDataset::Create(
      data::GenerateRegionSeries(config), options);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return std::move(ds).value();
}

/// Adds seeded noise to every parameter, so no weight keeps its
/// initializer value (dec3/pred3 biases start at exactly 1, gamma at 1).
void PerturbWeights(ProbedEalgap* model, uint64_t seed) {
  auto params = model->CaptureParams();
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  Rng rng(seed);
  for (auto& [name, t] : *params) {
    float* p = t.data();
    for (int64_t i = 0; i < t.numel(); ++i) {
      p[i] += static_cast<float>(rng.Normal(0.0, 0.4));
    }
  }
  ASSERT_TRUE(model->RestoreParams(*params).ok());
}

/// Three samples: as generated; with every 5th region's counts zeroed (the
/// density fit's kMinMean floor, zero sigma in the degree); and with a NaN
/// in the inputs the model reads without aborting — the windows when the
/// extreme module runs, the history when no density is fitted.
std::vector<data::WindowSample> MakeBatch(const data::SlidingWindowDataset& ds,
                                          const EalgapOptions& options) {
  const data::StepRanges split = data::MakeChronoSplit(ds).value();
  std::vector<data::WindowSample> batch;
  for (int64_t k = 0; k < 3; ++k) {
    data::WindowSample s = ds.MakeSample(split.test_begin + k);
    s.x = s.x.Clone();
    s.f = s.f.Clone();
    s.f_mu = s.f_mu.Clone();
    s.f_sigma = s.f_sigma.Clone();
    batch.push_back(s);
  }
  const int64_t n = batch[0].x.dim(0);
  const int64_t l = batch[0].x.dim(1);
  const int64_t m = batch[0].f.dim(0);
  for (int64_t r = 0; r < n; r += 5) {
    for (int64_t j = 0; j < l; ++j) batch[1].x.data()[r * l + j] = 0.f;
    for (int64_t w = 0; w < m; ++w) {
      for (int64_t j = 0; j < l; ++j) {
        const int64_t i = (w * n + r) * l + j;
        batch[1].f.data()[i] = 0.f;
        batch[1].f_mu.data()[i] = 0.f;
        batch[1].f_sigma.data()[i] = 0.f;
      }
    }
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const int64_t r = n / 2;
  if (options.use_extreme) batch[2].f.data()[r * l + l - 1] = nan;
  if (!options.use_global_attention) batch[2].x.data()[r * l] = nan;
  return batch;
}

/// The autograd output (gradients on) as raw bytes.
std::vector<float> Reference(ProbedEalgap* model,
                             const std::vector<data::WindowSample>& batch) {
  EXPECT_TRUE(GradEnabled());
  const Tensor out = model->ForwardBatch(batch).value();
  return std::vector<float>(out.data(), out.data() + out.numel());
}

/// Checks the fused pass against `want` under every supported backend at
/// 1, 2 and 8 threads; `what` names the case in failure messages.
void ExpectFusedMatches(ProbedEalgap* model,
                        const std::vector<data::WindowSample>& batch,
                        const std::string& what) {
  const kernels::Backend native = kernels::ActiveBackend();
  const int saved_threads = GetNumThreads();
  for (kernels::Backend b : {kernels::Backend::kScalar,
                             kernels::Backend::kSse2,
                             kernels::Backend::kAvx2}) {
    if (!kernels::BackendSupported(b)) continue;
    kernels::SetBackendForTesting(b);
    SetNumThreads(1);
    const std::vector<float> want = Reference(model, batch);
    for (int threads : {1, 2, 8}) {
      SetNumThreads(threads);
      NoGradGuard no_grad;
      const Tensor got = model->ForwardBatch(batch).value();
      ASSERT_EQ(static_cast<size_t>(got.numel()), want.size()) << what;
      if (std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) !=
          0) {
        size_t i = 0;
        while (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) ==
               0) {
          ++i;
        }
        ADD_FAILURE() << what << " [" << kernels::BackendName(b) << ", "
                      << threads << " threads]: fused output differs from "
                      << "autograd at element " << i << ": " << got.data()[i]
                      << " vs " << want[i];
        break;
      }
    }
  }
  kernels::SetBackendForTesting(native);
  SetNumThreads(saved_threads);
}

TEST(EalgapInferTest, FusedPassIsBitIdenticalToAutograd) {
  // Every N, L and M value appears; N straddles the 64-region block.
  const std::vector<Shape3> shapes = {{1, 2, 1},  {3, 6, 3},  {63, 5, 6},
                                      {64, 2, 3}, {65, 6, 1}, {1000, 5, 3}};
  for (const Shape3& shape : shapes) {
    const data::SlidingWindowDataset ds = MakeDataset(shape);
    const data::StepRanges split = data::MakeChronoSplit(ds).value();
    for (int64_t j : {1, 2, 4}) {
      for (const NamedOptions& family : OptionFamilies(j)) {
        const std::string what = family.name + " N=" + std::to_string(shape.n) +
                                 " L=" + std::to_string(shape.l) +
                                 " M=" + std::to_string(shape.m);
        ProbedEalgap model(family.options);
        TrainConfig train;
        train.epochs = 0;
        train.seed = 5;
        const Status fit = model.Fit(ds, split, train);
        ASSERT_TRUE(fit.ok()) << what << ": " << fit.ToString();
        PerturbWeights(&model, 100 + shape.n + j);
        ExpectFusedMatches(&model, MakeBatch(ds, family.options), what);
        if (HasFailure()) return;
      }
    }
  }
}

TEST(EalgapInferTest, TrainedModelsMatchAutograd) {
  const Shape3 shape{40, 5, 3};
  const data::SlidingWindowDataset ds = MakeDataset(shape);
  const data::StepRanges split = data::MakeChronoSplit(ds).value();
  for (int64_t j : {1, 2}) {
    for (const NamedOptions& family : OptionFamilies(j)) {
      ProbedEalgap model(family.options);
      TrainConfig train;
      train.epochs = 2;
      train.seed = 9;
      train.learning_rate = 3e-3f;
      const Status fit = model.Fit(ds, split, train);
      ASSERT_TRUE(fit.ok()) << family.name << ": " << fit.ToString();
      ExpectFusedMatches(&model, MakeBatch(ds, family.options),
                         "trained " + family.name);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace ealgap
