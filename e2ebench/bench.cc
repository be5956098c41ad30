#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "baselines/forecaster.h"
#include "common/arena.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "core/extreme_degree.h"
#include "core/global_impact.h"
#include "serve/online_predictor.h"
#include "serve/resilient_predictor.h"
#include "stats/distribution.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace e2e {

using namespace ealgap;

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  // SplitMix64 finalizer over (seed, tag): distinct tags give unrelated
  // streams, and the same (seed, tag) always gives the same value.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool KeepSettingUp(size_t reps_done, double spent_s) {
  return reps_done < 5 || (spent_s < 2.0 && reps_done < 30);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  // Equal neighbours (two +inf misses included) need no interpolation;
  // inf - inf would make the quantile NaN.
  if (v[hi] == v[lo]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double TailQuantile(const std::vector<double>& v, double q, double* used) {
  const double n = static_cast<double>(v.size());
  // Ten samples beyond quantile q need n * (1 - q) >= 10.
  double take = q;
  if (n * (1.0 - q) < 10.0) take = n > 10.0 ? 1.0 - 10.0 / n : 0.5;
  if (used != nullptr) *used = take;
  return Quantile(v, take);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

uint32_t CrcDoubles(const double* values, size_t n, uint32_t crc) {
  return Crc32(values, n * sizeof(double), crc);
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void RunResult::Metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void RunResult::Info(const std::string& key, const std::string& value) {
  info_.push_back({key, value});
}

void RunResult::Info(const std::string& key, double value) {
  info_.push_back({key, Num(value)});
}

void RunResult::Check(const std::string& name, bool ok,
                      const std::string& detail) {
  checks_.push_back({name, (ok ? "ok: " : "FAILED: ") + detail});
  if (!ok) {
    ++checks_failed_;
    ++failed_;
  }
}

void RunResult::Timing(const std::string& base, const std::string& unit,
                       const std::vector<double>& samples, size_t block) {
  double used = 0.0;
  double tail = TailQuantile(samples, 0.99, &used);
  if (block > 0 && samples.size() >= block) {
    Info(base + ".pooled_p99_" + unit, tail);
    std::vector<double> block_tails;
    for (size_t b = 0; b + block <= samples.size(); b += block) {
      block_tails.push_back(TailQuantile(
          std::vector<double>(samples.begin() + b, samples.begin() + b + block),
          0.99, &used));
    }
    tail = Median(block_tails);
    Info(base + ".tail_blocks", static_cast<double>(block_tails.size()));
  }
  Metric(base + "_p50_" + unit, Median(samples), unit);
  Metric(base + "_p99_" + unit, tail, unit);
  Info(base + ".samples", static_cast<double>(samples.size()));
  Info(base + ".tail_quantile", used);
}

std::string RunResult::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out += (i ? ", \"" : "\"") + JsonEscape(metrics_[i].first) +
           "\": {\"value\": " + Num(metrics_[i].second.first) +
           ", \"unit\": \"" + JsonEscape(metrics_[i].second.second) + "\"}";
  }
  out += "}, \"info\": {";
  for (size_t i = 0; i < info_.size(); ++i) {
    out += (i ? ", \"" : "\"") + JsonEscape(info_[i].first) + "\": \"" +
           JsonEscape(info_[i].second) + "\"";
  }
  out += "}, \"checks\": {";
  for (size_t i = 0; i < checks_.size(); ++i) {
    out += (i ? ", \"" : "\"") + JsonEscape(checks_[i].first) + "\": \"" +
           JsonEscape(checks_[i].second) + "\"";
  }
  out += "}}";
  return out;
}

data::DatasetOptions ServeDatasetOptions() {
  data::DatasetOptions options;
  options.history_length = 5;
  options.num_windows = 3;
  options.norm_history = 3;
  return options;
}

namespace {

/// FLOPs and bytes of one EALGAP forward, computed from tensor shapes
/// (not measured): each op counts its multiply-adds and the float32 bytes
/// of its inputs, weights and outputs.
struct ForwardCost {
  double flops = 0.0;
  double bytes = 0.0;
  void Linear(double rows, double in, double out) {
    flops += 2.0 * rows * in * out + rows * out;
    bytes += 4.0 * (rows * in + in * out + out + rows * out);
  }
  void Elementwise(double n, double flops_per, double tensors) {
    flops += n * flops_per;
    bytes += 4.0 * n * tensors;
  }
};

ForwardCost EalgapForwardCost(double n, double l, double m, double h,
                              double g) {
  ForwardCost c;
  // Input scaling of x, f, f_mu, f_sigma.
  c.Elementwise(n * l + 3.0 * m * n * l, 1.0, 2.0);
  // A-1: exponential fit + density (mean, rate, exp), decoder GEMVs.
  c.Elementwise(n * l, 4.0, 2.0);
  c.Linear(1.0, n * l, h);
  c.Elementwise(h, 4.0, 2.0);
  c.Linear(1.0, h, h);
  c.Elementwise(h, 4.0, 2.0);
  c.Linear(1.0, h, 3.0 * n);
  // A-2: q/k/v outer products (I = J = 1), logits, softmax, scores . v.
  c.Elementwise(3.0 * n * l, 1.0, 2.0);
  c.Elementwise(n * l * l, 2.0, 3.0);
  c.Elementwise(n * l * l, 4.0, 2.0);
  c.Elementwise(n * l * l, 2.0, 3.0);
  // Eq. 7 MLP.
  c.Linear(n, l, h);
  c.Elementwise(n * h, 1.0, 2.0);
  c.Linear(n, h, h);
  c.Elementwise(n * h, 1.0, 2.0);
  c.Linear(n, h, 1.0);
  // B: per window Eq. 9 degree (7 elementwise ops) + GRU cell + head.
  for (int w = 0; w < static_cast<int>(m); ++w) {
    c.Elementwise(n * l, 7.0, 8.0);
    for (int gate = 0; gate < 3; ++gate) {
      c.Linear(n, l, g);
      c.Linear(n, g, g);
    }
    c.Elementwise(n * g, 10.0, 10.0);
    c.Linear(n, g, 1.0);
    c.Elementwise(n, 1.0, 2.0);
  }
  // Eq. 11 fusion and inverse scaling.
  c.Elementwise(n, 3.0, 4.0);
  c.Elementwise(n, 2.0, 2.0);
  return c;
}

std::vector<double> Row(const data::SlidingWindowDataset& ds, int64_t s) {
  const std::vector<float> row = ds.StepCounts(s);
  return std::vector<double>(row.begin(), row.end());
}

}  // namespace

float RmsScale(const data::SlidingWindowDataset& dataset) {
  const Tensor& counts = dataset.series().counts;
  const float* p = counts.data();
  double ss = 0.0;
  for (int64_t i = 0; i < counts.numel(); ++i) ss += double(p[i]) * p[i];
  return static_cast<float>(
      std::sqrt(std::max(ss / static_cast<double>(counts.numel()), 1e-12)));
}

void RunLayerProbe(const ProbeConfig& cfg, uint64_t seed, Tracer* tracer,
                   RunResult* result) {
  const data::SlidingWindowDataset& ds = *cfg.dataset;
  const int64_t n = ds.series().num_regions;
  const int64_t l = ds.options().history_length;
  const int64_t m = ds.options().num_windows;
  const int64_t total = ds.series().total_steps();

  // Standalone module instances of the served shapes, fed one real sample.
  Rng rng(DeriveSeed(seed, kSeedProbe));
  core::GlobalImpactModule global(n, l, cfg.hidden, rng);
  core::ExtremeDegreeModule extreme(n, l, cfg.gru_hidden, rng);
  const data::WindowSample sample = ds.MakeSample(cfg.serve_begin);
  const float inv = 1.f / cfg.scale;
  const Var x = Var::Leaf(ops::MulScalar(sample.x, inv));
  const Var f = Var::Leaf(ops::MulScalar(sample.f, inv));
  const Var f_mu = Var::Leaf(ops::MulScalar(sample.f_mu, inv));
  const Var f_sigma = Var::Leaf(ops::MulScalar(sample.f_sigma, inv));
  std::vector<Var> fw, mw, sw;
  for (int64_t w = 0; w < m; ++w) {
    fw.push_back(Var::Leaf(ops::Slice(f.value(), 0, w, w + 1).Reshape({n, l})));
    mw.push_back(
        Var::Leaf(ops::Slice(f_mu.value(), 0, w, w + 1).Reshape({n, l})));
    sw.push_back(
        Var::Leaf(ops::Slice(f_sigma.value(), 0, w, w + 1).Reshape({n, l})));
  }
  std::vector<std::vector<double>> rows;
  for (int64_t step = cfg.serve_begin; step + 1 < total; ++step) {
    rows.push_back(Row(ds, step));
  }
  Arena arena;
  core::ExtremeDegreeModule::Output ed;
  serve::ServedPrediction served;
  std::vector<double> direct;
  int64_t mismatches = 0, steps = 0;
  double arena_hwm_kb = 0.0;
  std::unique_ptr<serve::OnlinePredictor> online;

  // Laps over the serve range, each from a fresh predictor, until the
  // time budget is spent.
  const auto t_start = Clock::now();
  while (steps == 0 || SecondsSince(t_start) < cfg.seconds) {
    auto created = serve::OnlinePredictor::Create(cfg.model, ds, cfg.serve_begin);
    if (!created.ok()) {
      result->Check("probe.create", false, created.status().ToString());
      return;
    }
    online = std::make_unique<serve::OnlinePredictor>(std::move(created).value());
    serve::ResilientPredictor resilient(online.get(), {});
    if (!resilient.PredictNextInto(&served).ok()) ++mismatches;  // warm-up
    for (size_t k = 0; k < rows.size(); ++k) {
      if (steps > 0 && SecondsSince(t_start) >= cfg.seconds) break;
      tracer->SetRun(steps++);
      ScopedSpan probe_step(tracer, "probe.step");
      {
        ScopedSpan span(tracer, "serve.online.observe");
        if (!online->Observe(rows[k]).ok()) ++mismatches;
      }
      {
        ScopedSpan span(tracer, "serve.resilient.step");
        if (!resilient.PredictNextInto(&served).ok()) ++mismatches;
      }
      {
        // Same stream position: PredictNextInto does not advance, so the
        // direct call must reproduce the chain's answer bit for bit.
        ScopedSpan span(tracer, "serve.online.predict");
        if (!online->PredictNextInto(&direct).ok()) ++mismatches;
      }
      if (served.source != serve::FallbackLevel::kFullModel ||
          direct.size() != served.values.size() ||
          std::memcmp(direct.data(), served.values.data(),
                      direct.size() * sizeof(double)) != 0) {
        ++mismatches;
      }
      NoGradGuard no_grad;
      ScopedSpan core_span(tracer, "core.modules");
      {
        ArenaScope scope(&arena);
        ScopedSpan span(tracer, "core.global.forward");
        global.Forward(x);
      }
      {
        ArenaScope scope(&arena);
        ScopedSpan span(tracer, "core.extreme.forward");
        extreme.ForwardInto(f, f_mu, f_sigma, &ed);
        ed = core::ExtremeDegreeModule::Output();
      }
      {
        ArenaScope scope(&arena);
        ScopedSpan span(tracer, "core.extreme.degree");
        for (int64_t w = 0; w < m; ++w) {
          extreme.ExtremeDegree(fw[w], mw[w], sw[w]);
        }
      }
      {
        ArenaScope scope(&arena);
        ScopedSpan span(tracer, "stats.pdf");
        stats::RowwisePdf(x.value(), stats::DistributionFamily::kExponential);
      }
    }
    arena_hwm_kb = static_cast<double>(online->arena()->high_water_bytes()) /
                   1024.0;
  }
  result->Check("probe.parity", mismatches == 0,
                std::to_string(mismatches) +
                    " probe steps where the chain and the direct predict "
                    "disagreed or failed");

  // At least 3 saves, then up to 20 within a second (one 10k-region save
  // takes about 2 s).
  const auto t_save = Clock::now();
  for (int k = 0; k < 20 && (k < 3 || SecondsSince(t_save) < 1.0); ++k) {
    tracer->SetRun(k);
    ScopedSpan span(tracer, "serve.online.save_state");
    if (!online->SaveState(cfg.state_path).ok()) ++mismatches;
  }
  result->Check("probe.save_state", mismatches == 0, "SaveState succeeded");

  auto p50 = [&](const char* name) { return Median(tracer->DurationsUs(name)); };
  auto p99 = [&](const char* name) {
    return TailQuantile(tracer->DurationsUs(name), 0.99, nullptr);
  };
  const double predict_us = p50("serve.online.predict");
  const double global_us = p50("core.global.forward");
  const double extreme_us = p50("core.extreme.forward");
  result->Metric("serve.online.predict_us.p50", predict_us, "us");
  result->Metric("serve.online.predict_us.p99", p99("serve.online.predict"), "us");
  result->Metric("serve.online.observe_us.p50", p50("serve.online.observe"), "us");
  result->Metric("serve.online.observe_us.p99", p99("serve.online.observe"), "us");
  result->Metric("serve.online.arena_hwm_kb", arena_hwm_kb, "KB");
  result->Metric("serve.online.save_state_ms.p50",
                 p50("serve.online.save_state") / 1000.0, "ms");
  result->Metric("serve.resilient.step_us.p50", p50("serve.resilient.step"), "us");
  result->Metric("core.global.forward_us", global_us, "us");
  result->Metric("core.extreme.forward_us", extreme_us, "us");
  result->Metric("core.extreme.degree_us", p50("core.extreme.degree"), "us");
  result->Metric("stats.pdf_us", p50("stats.pdf"), "us");
  result->Metric("core.residual_us", predict_us - global_us - extreme_us, "us");
  const ForwardCost cost =
      EalgapForwardCost(static_cast<double>(n), static_cast<double>(l),
                        static_cast<double>(m), static_cast<double>(cfg.hidden),
                        static_cast<double>(cfg.gru_hidden));
  result->Metric("core.forward_flops", cost.flops, "flop");
  result->Metric("core.forward_bytes", cost.bytes, "B");
  result->Metric("core.forward_gflops",
                 predict_us > 0 ? cost.flops / (predict_us * 1e3) : 0.0,
                 "GFLOP/s");
  result->Info("core.forward_cost", "flops and bytes computed from tensor "
                                    "shapes, not measured");
  result->Info("probe.regions", static_cast<double>(n));
  result->Info("probe.steps", static_cast<double>(steps));
}

void ReportSelfTimes(const Tracer& tracer, RunResult* result) {
  for (const std::string& name : tracer.Names()) {
    result->Metric("self." + name + "_us.p50", Median(tracer.SelfUs(name)),
                   "us");
  }
}

}  // namespace e2e
