// google-benchmark microbenchmarks of the no-grad EALGAP forward, stage by
// stage (DESIGN.md §8i): BM_ForwardStage/<stage>/<N> times one stage of
// the fused pass over a whole city of N regions on one thread, in the
// order the pass runs them:
//
//   pdf        A-1 row-wise exponential PDF (stats::RowwisePdf)
//   decoder    A-1 dec1 -> softmax -> dec2 -> softmax -> dec3
//   attention  A-2 per-region attention, block by block
//   eq7        Eq. 7 prediction MLP, block by block
//   degree     Eq. 9 extreme degree + tanh over the M windows
//   gru        Eq. 10 GRU over the M windows + head
//   fusion     Eq. 11 ReLU(X̂g + X̂g ⊙ D̂)
//
// BM_ForwardStage/serve/<N> is the whole serve step the stages add up to
// (OnlinePredictor::PredictNextInto, the BM_ServePredictNextRegions
// number): the residual is sample assembly from the ring, input scaling
// and the lanes gathers, plus the Var and arena overhead.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ealgap.h"
#include "core/extreme_degree.h"
#include "core/global_impact.h"
#include "data/dataset.h"
#include "data/synthetic_city.h"
#include "serve/online_predictor.h"
#include "stats/distribution.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace {

using namespace ealgap;

constexpr int64_t kHistory = 5;
constexpr int64_t kWindows = 3;
constexpr int64_t kHidden = 32;
constexpr int64_t kGruHidden = 16;
/// The block width of the fused pass (core/ealgap.cc).
constexpr int64_t kBlock = 64;

enum class Stage { kPdf, kDecoder, kAttention, kEq7, kDegree, kGru, kFusion };

/// One served sample of an N-region city and its modules. A-1 runs on the
/// whole city; the per-block stages sweep every block of kBlock regions
/// the way the fused pass does — one set of lanes buffers reused block
/// after block, so they stay cache-hot — with the per-region parameters
/// (decoded W^Q/K/V rows, gamma, eps) read at each block's offset. The
/// buffers hold real stage outputs of the city's first block; a stage's
/// cost does not depend on the values.
struct Fixture {
  explicit Fixture(int regions)
      : n(regions),
        rng(7),
        global(n, kHistory, kHidden, rng),
        extreme(n, kHistory, kGruHidden, rng) {
    data::RegionSeriesConfig config;
    config.num_regions = regions;
    config.num_days = 40;
    data::DatasetOptions options;
    options.history_length = kHistory;
    options.num_windows = kWindows;
    options.norm_history = 3;
    dataset.emplace(data::SlidingWindowDataset::Create(
                        data::GenerateRegionSeries(config), options)
                        .value());
    split = data::MakeChronoSplit(*dataset).value();
    const data::WindowSample s = dataset->MakeSample(split.test_begin);
    const float inv = 1.f / 20.f;
    x = ops::MulScalar(s.x, inv);
    z = stats::RowwisePdf(x, stats::DistributionFamily::kExponential);
    w = global.InferAttentionParams(z);
    lanes0 = std::min(kBlock, n);
    const int64_t rows = kWindows * kHistory;
    xl = Lanes(x, 0, kHistory);
    hist.assign(kHistory * kBlock, 0.f);
    xg.assign(kBlock, 0.f);
    d.assign(kBlock, 0.f);
    out.assign(kBlock, 0.f);
    e.assign(rows * kBlock, 0.f);
    for (int64_t win = 0; win < kWindows; ++win) {
      auto window = [&](const Tensor& t) {
        return Lanes(ops::MulScalar(t, inv), win * n, kHistory);
      };
      auto append = [](std::vector<float> part, std::vector<float>* dst) {
        dst->insert(dst->end(), part.begin(), part.end());
      };
      append(window(s.f), &f);
      append(window(s.f_mu), &mu);
      append(window(s.f_sigma), &sigma);
    }
    scratch.assign(
        std::max({global.AttentionLanesScratch(kBlock),
                  global.PredictLanesScratch(kBlock),
                  core::ExtremeDegreeModule::DegreeLanesScratch(rows, kBlock),
                  extreme.PredictDegreeLanesScratch(kBlock)}),
        0.f);
    // Real upstream outputs as the downstream stages' inputs.
    for (Stage st : {Stage::kAttention, Stage::kEq7, Stage::kDegree,
                     Stage::kGru}) {
      RunBlock(st, 0, lanes0);
    }
  }

  /// The first block's rows [row0, row0 + lanes0) of the (rows, cols)
  /// matrix t, in the lanes layout (cols, lanes0).
  std::vector<float> Lanes(const Tensor& t, int64_t row0, int64_t cols) const {
    std::vector<float> v(cols * lanes0);
    for (int64_t r = 0; r < lanes0; ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        v[c * lanes0 + r] = t.data()[(row0 + r) * cols + c];
      }
    }
    return v;
  }

  void RunBlock(Stage stage, int64_t r0, int64_t lanes) {
    const kernels::KernelTable& t = kernels::Active();
    float* scr = scratch.data();
    switch (stage) {
      case Stage::kAttention:
        global.AttentionLanes(xl.data(), w.data() + r0 * w.dim(1), lanes,
                              hist.data(), scr);
        break;
      case Stage::kEq7:
        global.PredictLanes(hist.data(), lanes, xg.data(), scr);
        break;
      case Stage::kDegree:
        extreme.DegreeLanes(f.data(), mu.data(), sigma.data(),
                            kWindows * kHistory, r0, lanes, e.data(), scr);
        break;
      case Stage::kGru:
        extreme.PredictDegreeLanes(e.data(), kWindows, lanes, d.data(), scr);
        break;
      case Stage::kFusion:
        t.mul_vv(xg.data(), d.data(), out.data(), lanes);
        t.add_vv(xg.data(), out.data(), out.data(), lanes);
        t.relu_ip(out.data(), lanes);
        break;
      default:
        break;
    }
  }

  void Run(Stage stage) {
    switch (stage) {
      case Stage::kPdf:
        benchmark::DoNotOptimize(
            stats::RowwisePdf(x, stats::DistributionFamily::kExponential));
        return;
      case Stage::kDecoder:
        benchmark::DoNotOptimize(global.InferAttentionParams(z));
        return;
      default:
        for (int64_t r0 = 0; r0 < n; r0 += kBlock) {
          RunBlock(stage, r0, std::min(kBlock, n - r0));
        }
    }
  }

  int64_t n;
  Rng rng;
  core::GlobalImpactModule global;
  core::ExtremeDegreeModule extreme;
  std::optional<data::SlidingWindowDataset> dataset;
  data::StepRanges split;
  Tensor x, z, w;
  int64_t lanes0 = 0;
  std::vector<float> xl, hist, xg, f, mu, sigma, e, d, out, scratch;
};

Fixture& GetFixture(int regions) {
  static std::map<int, std::unique_ptr<Fixture>> cache;
  auto& slot = cache[regions];
  if (!slot) slot = std::make_unique<Fixture>(regions);
  return *slot;
}

void BM_ForwardStage(benchmark::State& state, Stage stage) {
  const int saved = GetNumThreads();
  SetNumThreads(1);
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  NoGradGuard no_grad;
  for (auto _ : state) {
    f.Run(stage);
    benchmark::DoNotOptimize(f.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  SetNumThreads(saved);
}

#define EALGAP_STAGE(name, stage)                             \
  BENCHMARK_CAPTURE(BM_ForwardStage, name, Stage::stage)      \
      ->Arg(20)                                               \
      ->Arg(1000)                                             \
      ->Arg(10000)
EALGAP_STAGE(pdf, kPdf);
EALGAP_STAGE(decoder, kDecoder);
EALGAP_STAGE(attention, kAttention);
EALGAP_STAGE(eq7, kEq7);
EALGAP_STAGE(degree, kDegree);
EALGAP_STAGE(gru, kGru);
EALGAP_STAGE(fusion, kFusion);
#undef EALGAP_STAGE

/// The whole serve step the stages sum to: an arena-backed PredictNextInto
/// on an untrained default model of the same shapes, one thread.
void BM_ForwardStageServe(benchmark::State& state) {
  const int saved = GetNumThreads();
  SetNumThreads(1);
  Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  static std::map<int64_t, std::unique_ptr<core::EalgapForecaster>> models;
  auto& model = models[state.range(0)];
  if (!model) {
    model = std::make_unique<core::EalgapForecaster>();
    TrainConfig train;
    train.epochs = 0;
    train.seed = 11;
    EALGAP_CHECK(model->Fit(*f.dataset, f.split, train).ok());
  }
  auto predictor = serve::OnlinePredictor::Create(model.get(), *f.dataset,
                                                  f.split.test_begin)
                       .value();
  std::vector<double> out;
  EALGAP_CHECK(predictor.PredictNextInto(&out).ok());  // warm the arena
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.PredictNextInto(&out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  SetNumThreads(saved);
}
BENCHMARK(BM_ForwardStageServe)
    ->Name("BM_ForwardStage/serve")
    ->Arg(20)
    ->Arg(1000)
    ->Arg(10000);

}  // namespace

// main() lives in bench_main.cc (stamps ealgap_build_type / ealgap_simd).
