#include "core/ealgap.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/extreme_degree.h"
#include "core/global_impact.h"
#include "nn/linear.h"
#include "stats/distribution.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace ealgap {
namespace core {

namespace {

/// Regions per block of the no-grad pass: all of a default-model block's
/// buffers take about 35 KB, well inside L2.
constexpr int64_t kBlockRegions = 64;

/// Copies rows [r0, r0 + lanes) of a row-major (N, cols) matrix into the
/// lanes layout (cols, lanes).
void ToLanes(const float* src, int64_t cols, int64_t r0, int64_t lanes,
             float* dst) {
  for (int64_t r = 0; r < lanes; ++r) {
    const float* row = src + (r0 + r) * cols;
    for (int64_t c = 0; c < cols; ++c) dst[c * lanes + r] = row[c];
  }
}

}  // namespace

struct EalgapForecaster::Net : nn::Module {
  Net(const EalgapOptions& opts, int64_t n, int64_t l, Rng& rng)
      : n(n), l(l) {
    if (opts.use_global_attention) {
      global = std::make_unique<GlobalImpactModule>(
          n, l, opts.hidden, rng, opts.family, opts.attention_dim);
      RegisterModule("global", global.get());
    } else {
      // Ablation (iii): two Dense layers with ReLU predict the global
      // impacts (paper Sec. VI-C).
      mlp1 = std::make_unique<nn::Linear>(l, opts.hidden, rng);
      mlp2 = std::make_unique<nn::Linear>(opts.hidden, 1, rng);
      RegisterModule("mlp1", mlp1.get());
      RegisterModule("mlp2", mlp2.get());
    }
    if (opts.use_extreme) {
      extreme =
          std::make_unique<ExtremeDegreeModule>(n, l, opts.gru_hidden, rng);
      RegisterModule("extreme", extreme.get());
    }
  }

  // The training forward, recorded for backprop. All inputs in model
  // space. Returns the (N) prediction; when `d_steps` is non-null (degree
  // supervision) it receives Eq. (10)'s per-window degree predictions.
  Var Forward(const Var& x, const Var& f, const Var& f_mu, const Var& f_sigma,
              std::vector<Var>* d_steps) const {
    const int64_t n = x.value().dim(0);
    Var xg_next;
    if (global) {
      xg_next = global->Forward(x).xg_next;
    } else {
      xg_next = Reshape(mlp2->Forward(Relu(mlp1->Forward(x))), {n});
    }
    if (!extreme) {
      // ablation (ii): global impacts only
      return Relu(xg_next);
    }
    ExtremeDegreeModule::Output ed = extreme->Forward(f, f_mu, f_sigma);
    if (d_steps != nullptr) *d_steps = std::move(ed.d_steps);
    // Eq. (11): X̂ = ReLU(X̂g + X̂g ⊙ D̂).
    return Relu(Add(xg_next, Mul(xg_next, ed.d_next)));
  }

  /// The no-grad forward (DESIGN.md §8i): Forward() for every sample of
  /// `batch`, bit-identical, returned as (B, N). The A-1 decoder runs once
  /// per sample; everything else runs per block of regions, blocks fanned
  /// out across the pool.
  Tensor Infer(const std::vector<data::WindowSample>& batch, float inv) const {
    // Forward() checks shapes inside the modules; the block sweep indexes
    // raw buffers, so every sample is checked up front.
    EALGAP_CHECK(!batch.empty());
    const Shape xshape{n, l};
    const int64_t m = extreme ? batch.front().f.dim(0) : 0;
    const Shape fshape{m, n, l};
    for (const data::WindowSample& s : batch) {
      EALGAP_CHECK(s.x.shape() == xshape) << ShapeToString(s.x.shape());
      if (extreme) {
        EALGAP_CHECK_GE(m, 1);
        EALGAP_CHECK(s.f.shape() == fshape && s.f_mu.shape() == fshape &&
                     s.f_sigma.shape() == fshape)
            << ShapeToString(s.f.shape());
      }
    }
    const int64_t nblocks = (n + kBlockRegions - 1) / kBlockRegions;
    const int64_t chunks =
        InParallelRegion()
            ? 1
            : std::min<int64_t>(nblocks, std::max(1, GetNumThreads()));
    const int64_t per_chunk = Layout(m, std::min(kBlockRegions, n)).total;
    // Scratch lands on the ambient arena when serving installed one; each
    // chunk owns one slice, so concurrent blocks never share a buffer.
    Tensor scratch({chunks, per_chunk});
    Tensor out({static_cast<int64_t>(batch.size()), n});
    for (size_t b = 0; b < batch.size(); ++b) {
      const data::WindowSample& s = batch[b];
      const Tensor x = ops::MulScalar(s.x, inv);
      Tensor w;
      if (global) {
        w = global->InferAttentionParams(stats::RowwisePdf(x, global->family()));
      }
      float* dst = out.data() + static_cast<int64_t>(b) * n;
      ParallelFor(0, chunks, 1, [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c) {
          float* scr = scratch.data() + c * per_chunk;
          for (int64_t blk = c * nblocks / chunks;
               blk < (c + 1) * nblocks / chunks; ++blk) {
            const int64_t r0 = blk * kBlockRegions;
            const int64_t lanes = std::min(kBlockRegions, n - r0);
            InferBlock(s, x, w, inv, r0, lanes, dst + r0, scr);
          }
        }
      });
    }
    return out;
  }

  /// Where InferBlock's buffers sit in a block's scratch, in floats. Each
  /// starts 64-byte aligned, so the lanes rows of a full block keep the
  /// kernels' aligned path; `stage` is shared by the module stages, which
  /// run one after another.
  struct BlockLayout {
    int64_t x = 0, xg = 0, hist = 0, hidden = 0;
    int64_t f = 0, mu = 0, sigma = 0, d = 0, stage = 0, total = 0;
  };
  BlockLayout Layout(int64_t m, int64_t lanes) const {
    BlockLayout o;
    auto take = [&o](int64_t floats) {
      const int64_t at = o.total;
      o.total += (floats + 15) / 16 * 16;
      return at;
    };
    int64_t stage = 0;
    o.x = take(l * lanes);
    o.xg = take(lanes);
    if (global) {
      o.hist = take(l * lanes);
      stage = std::max(global->AttentionLanesScratch(lanes),
                       global->PredictLanesScratch(lanes));
    } else {
      o.hidden = take(mlp1->out_features() * lanes);
    }
    if (extreme) {
      o.f = take(m * l * lanes);
      o.mu = take(m * l * lanes);
      o.sigma = take(m * l * lanes);
      o.d = take(lanes);
      stage = std::max({stage,
                        ExtremeDegreeModule::DegreeLanesScratch(m * l, lanes),
                        extreme->PredictDegreeLanesScratch(lanes)});
    }
    o.stage = take(stage);
    return o;
  }

  /// One block: regions [r0, r0 + lanes) of sample `s`, whose scaled
  /// history is `x` and decoded attention parameters `w` (global path).
  /// Writes the block's Eq. (11) predictions to `dst`.
  void InferBlock(const data::WindowSample& s, const Tensor& x,
                  const Tensor& w, float inv, int64_t r0, int64_t lanes,
                  float* dst, float* scratch) const {
    const kernels::KernelTable& t = kernels::Active();
    const int64_t m = extreme ? s.f.dim(0) : 0;
    const BlockLayout o = Layout(m, lanes);
    float* xl = scratch + o.x;
    float* xg = scratch + o.xg;
    float* stage = scratch + o.stage;
    ToLanes(x.data(), l, r0, lanes, xl);
    if (global) {
      float* hist = scratch + o.hist;
      global->AttentionLanes(xl, w.data() + r0 * w.dim(1), lanes, hist, stage);
      global->PredictLanes(hist, lanes, xg, stage);
    } else {
      // Ablation (iii): two Dense layers with ReLU.
      float* hidden = scratch + o.hidden;
      mlp1->ForwardLanes(xl, lanes, hidden);
      t.relu_ip(hidden, mlp1->out_features() * lanes);
      mlp2->ForwardLanes(hidden, lanes, xg);
    }
    if (extreme) {
      const int64_t rows = m * l;
      float* f = scratch + o.f;
      float* mu = scratch + o.mu;
      float* sigma = scratch + o.sigma;
      float* d = scratch + o.d;
      // Window w's rows of the (M, N, L) inputs, scaled like Forward's.
      for (int64_t win = 0; win < m; ++win) {
        const int64_t off = win * n * l;
        ToLanes(s.f.data() + off, l, r0, lanes, f + win * l * lanes);
        ToLanes(s.f_mu.data() + off, l, r0, lanes, mu + win * l * lanes);
        ToLanes(s.f_sigma.data() + off, l, r0, lanes, sigma + win * l * lanes);
      }
      t.mul_vs(f, inv, f, rows * lanes);
      t.mul_vs(mu, inv, mu, rows * lanes);
      t.mul_vs(sigma, inv, sigma, rows * lanes);
      extreme->DegreeLanes(f, mu, sigma, rows, r0, lanes, f, stage);
      extreme->PredictDegreeLanes(f, m, lanes, d, stage);
      // Eq. (11): X̂ = ReLU(X̂g + X̂g ⊙ D̂).
      t.mul_vv(xg, d, d, lanes);
      t.add_vv(xg, d, xg, lanes);
    }
    t.relu(xg, dst, lanes);
  }

  int64_t n;  ///< regions
  int64_t l;  ///< history length
  std::unique_ptr<GlobalImpactModule> global;
  std::unique_ptr<nn::Linear> mlp1, mlp2;
  std::unique_ptr<ExtremeDegreeModule> extreme;
};

EalgapForecaster::EalgapForecaster(EalgapOptions options)
    : options_(options) {}

EalgapForecaster::~EalgapForecaster() = default;

nn::Module* EalgapForecaster::module() { return net_.get(); }

void EalgapForecaster::Initialize(const data::SlidingWindowDataset& dataset,
                                  const data::StepRanges& split,
                                  const TrainConfig& config) {
  // Scale = std of the training slice (no centering: the global module
  // needs non-negative inputs for the exponential fit).
  Tensor train_slice =
      ops::Slice(dataset.series().counts, 1, 0, split.train_end);
  const float* p = train_slice.data();
  double ss = 0.0;
  for (int64_t i = 0; i < train_slice.numel(); ++i) ss += double(p[i]) * p[i];
  scale_ = static_cast<float>(
      std::sqrt(std::max(ss / train_slice.numel(), 1e-12)));
  num_regions_ = dataset.series().num_regions;
  history_length_ = dataset.options().history_length;
  Rng rng(config.seed);
  net_ = std::make_unique<Net>(options_, num_regions_, history_length_, rng);
}

Var EalgapForecaster::ForwardBatch(
    const std::vector<data::WindowSample>& batch) {
  const float inv = 1.f / scale_;
  // Every no-grad forward — serving, Predict, evaluation losses, shadow
  // scoring — takes the fused pass; only training records the graph.
  if (!GradEnabled()) return Var::Leaf(net_->Infer(batch, inv));
  std::vector<Var> outs;
  std::vector<Var> degree_losses;
  std::vector<Var> d_steps;
  const bool want_degree = net_->extreme && options_.degree_loss_weight > 0.f;
  for (const data::WindowSample& sample : batch) {
    Var x = Var::Leaf(ops::MulScalar(sample.x, inv));
    Var f = Var::Leaf(ops::MulScalar(sample.f, inv));
    Var f_mu = Var::Leaf(ops::MulScalar(sample.f_mu, inv));
    Var f_sigma = Var::Leaf(ops::MulScalar(sample.f_sigma, inv));
    Var prediction = net_->Forward(x, f, f_mu, f_sigma,
                                   want_degree ? &d_steps : nullptr);
    outs.push_back(Reshape(prediction, {1, prediction.value().numel()}));
    // Eq. (10) supervision: each window's degree prediction is pulled
    // toward the realized degree one step past the window (computed with
    // the current gamma/eps, treated as a constant target).
    if (want_degree) {
      const int64_t m = sample.w_next.dim(0);
      const int64_t n = sample.w_next.dim(1);
      for (int64_t w = 0; w < m; ++w) {
        Var xw = Var::Leaf(
            ops::MulScalar(ops::Slice(sample.w_next, 0, w, w + 1), inv)
                .Reshape({n, 1}));
        Var mw = Var::Leaf(
            ops::MulScalar(ops::Slice(sample.w_next_mu, 0, w, w + 1), inv)
                .Reshape({n, 1}));
        Var sw = Var::Leaf(
            ops::MulScalar(ops::Slice(sample.w_next_sigma, 0, w, w + 1), inv)
                .Reshape({n, 1}));
        Var target = net_->extreme->ExtremeDegree(xw, mw, sw).Detach();
        Var diff = Sub(Reshape(d_steps[w], {n, 1}), target);
        degree_losses.push_back(MeanAll(Mul(diff, diff)));
      }
    }
  }
  // pending_degree_loss_ is only touched on this gradient path: the no-grad
  // paths above run concurrently from pool threads (EvaluateLoss).
  pending_degree_loss_ = Var();
  if (!degree_losses.empty()) {
    Var total = degree_losses[0];
    for (size_t i = 1; i < degree_losses.size(); ++i) {
      total = Add(total, degree_losses[i]);
    }
    pending_degree_loss_ =
        MulScalar(total, 1.f / static_cast<float>(degree_losses.size()));
  }
  return Concat(outs, 0);  // (B, N)
}

Var EalgapForecaster::ComputeLoss(const Var& predictions,
                                  const Tensor& scaled_targets) {
  Var loss = NeuralForecaster::ComputeLoss(predictions, scaled_targets);
  if (pending_degree_loss_.defined()) {
    loss = Add(loss,
               MulScalar(pending_degree_loss_, options_.degree_loss_weight));
    pending_degree_loss_ = Var();
  }
  return loss;
}

Tensor EalgapForecaster::ScaleTargets(const Tensor& targets) const {
  return ops::MulScalar(targets, 1.f / scale_);
}

Tensor EalgapForecaster::InverseScale(const Tensor& predictions) const {
  return ops::MaximumScalar(ops::MulScalar(predictions, scale_), 0.f);
}

Status EalgapForecaster::EncodeConfig(CheckpointConfig* config) const {
  std::ostringstream scale;
  scale.precision(std::numeric_limits<float>::max_digits10);
  scale << scale_;
  std::ostringstream dlw;
  dlw.precision(std::numeric_limits<float>::max_digits10);
  dlw << options_.degree_loss_weight;
  config->emplace_back("use_global_attention",
                       options_.use_global_attention ? "1" : "0");
  config->emplace_back("use_extreme", options_.use_extreme ? "1" : "0");
  config->emplace_back(
      "family", options_.family == stats::DistributionFamily::kNormal
                    ? "normal"
                    : "exponential");
  config->emplace_back("hidden", std::to_string(options_.hidden));
  config->emplace_back("gru_hidden", std::to_string(options_.gru_hidden));
  config->emplace_back("attention_dim",
                       std::to_string(options_.attention_dim));
  config->emplace_back("degree_loss_weight", dlw.str());
  config->emplace_back("num_regions", std::to_string(num_regions_));
  config->emplace_back("history_length", std::to_string(history_length_));
  config->emplace_back("scale", scale.str());
  return Status::OK();
}

Status EalgapForecaster::DecodeConfig(
    const std::map<std::string, std::string>& config) {
  EalgapOptions opts;
  int64_t v = 0;
  EALGAP_RETURN_IF_ERROR(ConfigInt(config, "use_global_attention", 0, 1, &v));
  opts.use_global_attention = v == 1;
  EALGAP_RETURN_IF_ERROR(ConfigInt(config, "use_extreme", 0, 1, &v));
  opts.use_extreme = v == 1;
  auto family = config.find("family");
  if (family == config.end()) {
    return Status::ParseError("checkpoint config missing key family");
  }
  if (family->second == "exponential") {
    opts.family = stats::DistributionFamily::kExponential;
  } else if (family->second == "normal") {
    opts.family = stats::DistributionFamily::kNormal;
  } else {
    return Status::InvalidArgument("unknown distribution family " +
                                   family->second);
  }
  EALGAP_RETURN_IF_ERROR(ConfigInt(config, "hidden", 1, 1 << 16, &opts.hidden));
  EALGAP_RETURN_IF_ERROR(
      ConfigInt(config, "gru_hidden", 1, 1 << 16, &opts.gru_hidden));
  EALGAP_RETURN_IF_ERROR(
      ConfigInt(config, "attention_dim", 1, 1 << 10, &opts.attention_dim));
  EALGAP_RETURN_IF_ERROR(
      ConfigFloat(config, "degree_loss_weight", &opts.degree_loss_weight));
  int64_t n = 0, l = 0;
  EALGAP_RETURN_IF_ERROR(ConfigInt(config, "num_regions", 1, 1 << 20, &n));
  EALGAP_RETURN_IF_ERROR(ConfigInt(config, "history_length", 1, 1 << 16, &l));
  float scale = 1.f;
  EALGAP_RETURN_IF_ERROR(ConfigFloat(config, "scale", &scale));
  if (!(scale > 0.f) || !std::isfinite(scale)) {
    return Status::InvalidArgument("checkpoint scale must be positive");
  }
  options_ = opts;
  num_regions_ = n;
  history_length_ = l;
  scale_ = scale;
  // The initializer RNG is irrelevant: every parameter is overwritten by
  // the checkpoint's values right after this rebuild.
  Rng rng(0);
  net_ = std::make_unique<Net>(options_, num_regions_, history_length_, rng);
  return Status::OK();
}

}  // namespace core
}  // namespace ealgap
