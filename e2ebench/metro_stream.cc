// metro_stream: one closed-loop serving stream over a 10,000-region city.
// Each step observes the realized row through ResilientPredictor::Observe
// and predicts the next step with PredictNextInto. The model is
// initialized but untrained (epochs = 0): weight values do not change the
// cost of a forward, and training at N = 10k would dominate the run.
//
// The stream replays a fixed range of the generated series in laps; every
// lap starts from a freshly created predictor, so each lap serves exactly
// the same values and the lap digests must agree.

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/checksum.h"
#include "core/ealgap.h"
#include "data/dataset.h"
#include "data/synthetic_city.h"
#include "serve/online_predictor.h"
#include "serve/resilient_predictor.h"
#include "stats/metrics.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace ealgap;

constexpr int kRegions = 10000;
constexpr int kHistoryDays = 21;  ///< seeds the predictor's matched stats
constexpr int kLapDays = 7;       ///< replayed per lap
constexpr int kParitySamples = 8;

struct Setup {
  std::optional<data::SlidingWindowDataset> dataset;
  std::unique_ptr<core::EalgapForecaster> model;
  std::unique_ptr<serve::OnlinePredictor> online;
  std::unique_ptr<serve::ResilientPredictor> resilient;
  double generate_s = 0.0;  ///< data::GenerateRegionSeries
  double window_s = 0.0;    ///< SlidingWindowDataset::Create + split
};

/// Builds (or rebuilds) the predictor stack at the start of the lap range
/// and runs its warm-up step (sizes the arena).
bool StartLap(Setup* s, int64_t history_end) {
  auto online =
      serve::OnlinePredictor::Create(s->model.get(), *s->dataset, history_end);
  if (!online.ok()) return false;
  s->online = std::make_unique<serve::OnlinePredictor>(std::move(online).value());
  s->resilient = std::make_unique<serve::ResilientPredictor>(s->online.get());
  serve::ServedPrediction warm;
  return s->resilient->PredictNextInto(&warm).ok();
}

bool BuildSetup(uint64_t seed, Setup* s) {
  const auto t0 = Clock::now();
  data::RegionSeriesConfig series;
  series.num_regions = kRegions;
  series.num_days = kHistoryDays + kLapDays;
  series.seed = DeriveSeed(seed, kSeedSeries);
  data::MobilitySeries city = data::GenerateRegionSeries(series);
  s->generate_s = SecondsSince(t0);
  const auto t_window = Clock::now();
  auto dataset =
      data::SlidingWindowDataset::Create(std::move(city), ServeDatasetOptions());
  if (!dataset.ok()) return false;
  s->dataset.emplace(std::move(dataset).value());
  auto split = data::MakeChronoSplit(*s->dataset);
  if (!split.ok()) return false;
  s->window_s = SecondsSince(t_window);

  s->model = std::make_unique<core::EalgapForecaster>();
  TrainConfig train;
  train.epochs = 0;
  train.seed = DeriveSeed(seed, kSeedTrain);
  if (!s->model->Fit(*s->dataset, *split, train).ok()) return false;
  return StartLap(s, static_cast<int64_t>(kHistoryDays) * 24);
}

struct StreamSamples {
  std::vector<double> step_ms, predict_ms;
  std::vector<uint32_t> lap_digests;
  int64_t steps = 0, full_model = 0, errors = 0;
  /// Lap 0's served values, step-major, for quality and parity checks.
  std::vector<double> first_lap;
};

/// Runs laps until `seconds` have been spent in served steps. Lap 0 must
/// complete (it is the reference for quality and parity).
void Stream(Setup* s, const std::vector<std::vector<double>>& rows,
            int64_t history_end, double seconds, Tracer* tracer,
            StreamSamples* out) {
  serve::ServedPrediction served;
  double spent_s = 0.0;
  for (int lap = 0; lap == 0 || spent_s < seconds; ++lap) {
    if (lap > 0 && !StartLap(s, history_end)) {
      ++out->errors;
      return;
    }
    uint32_t crc = 0;
    bool complete = true;
    for (size_t k = 0; k < rows.size(); ++k) {
      if (lap > 0 && spent_s >= seconds) {
        complete = false;
        break;
      }
      if (tracer != nullptr) tracer->SetRun(out->steps);
      const auto t0 = Clock::now();
      Clock::time_point t1;
      {
        ScopedSpan step(tracer, "step");
        {
          ScopedSpan span(tracer, "serve.resilient.observe");
          if (!s->resilient->Observe(rows[k]).ok()) ++out->errors;
        }
        t1 = Clock::now();
        ScopedSpan span(tracer, "serve.resilient.predict");
        if (!s->resilient->PredictNextInto(&served).ok()) ++out->errors;
      }
      const auto t2 = Clock::now();
      out->step_ms.push_back(MsBetween(t0, t2));
      out->predict_ms.push_back(MsBetween(t1, t2));
      spent_s += MsBetween(t0, t2) / 1000.0;
      ++out->steps;
      if (served.source == serve::FallbackLevel::kFullModel) ++out->full_model;
      crc = CrcDoubles(served.values.data(), served.values.size(), crc);
      if (lap == 0) {
        out->first_lap.insert(out->first_lap.end(), served.values.begin(),
                              served.values.end());
      }
    }
    if (complete) out->lap_digests.push_back(crc);
  }
}

}  // namespace

int RunMetroStream(const Options& options, RunResult* result) {
  const int64_t history_end = static_cast<int64_t>(kHistoryDays) * 24;

  // --- set-up, repeated; the last repetition's objects serve the stream.
  std::vector<double> setup_s;
  Setup setup;
  const auto t_setup = Clock::now();
  while (KeepSettingUp(setup_s.size(), SecondsSince(t_setup))) {
    setup = Setup();
    const auto t0 = Clock::now();
    if (!BuildSetup(options.seed, &setup)) {
      result->Check("setup", false, "metro_stream set-up failed");
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
  }
  const data::SlidingWindowDataset& ds = *setup.dataset;
  const int64_t total = ds.series().total_steps();
  // Realized rows of the lap: observe step s, then predict s + 1.
  std::vector<std::vector<double>> rows;
  for (int64_t step = history_end; step + 1 < total; ++step) {
    const std::vector<float> row = ds.StepCounts(step);
    rows.emplace_back(row.begin(), row.end());
  }

  StreamSamples run;
  const double measure_s = options.trace ? options.seconds / 3.0
                                         : options.seconds;
  Stream(&setup, rows, history_end, measure_s, nullptr, &run);
  const double peak_rss = PeakRssMb();

  // --- output checks (outside the timed loop).
  result->AddAttempted(run.steps);
  result->Check("stream.errors", run.errors == 0,
                std::to_string(run.errors) + " Observe/Predict errors");
  bool laps_agree = !run.lap_digests.empty();
  for (uint32_t d : run.lap_digests) laps_agree &= d == run.lap_digests[0];
  result->Check("stream.lap_digests", laps_agree,
                std::to_string(run.lap_digests.size()) +
                    " complete laps serve identical values");
  result->Info("served_digest",
               run.lap_digests.empty() ? "none" : Crc32Hex(run.lap_digests[0]));
  const size_t n = static_cast<size_t>(kRegions);
  int parity_bad = 0;
  std::vector<double> truth;
  for (size_t k = 0; k < rows.size(); ++k) {
    const std::vector<float> t = ds.StepCounts(history_end + k + 1);
    truth.insert(truth.end(), t.begin(), t.end());
  }
  for (int i = 0; i < kParitySamples; ++i) {
    const size_t k = (rows.size() - 1) * i / (kParitySamples - 1);
    auto batch = setup.model->Predict(ds, history_end + k + 1);
    if (!batch.ok() || batch->size() != n ||
        std::memcmp(batch->data(), run.first_lap.data() + k * n,
                    n * sizeof(double)) != 0) {
      ++parity_bad;
    }
  }
  result->Check("stream.batch_parity", parity_bad == 0,
                std::to_string(parity_bad) + " of " +
                    std::to_string(kParitySamples) +
                    " sampled steps differ from Forecaster::Predict");
  const stats::MetricReport quality = stats::ComputeMetrics(run.first_lap, truth);
  result->Check("stream.quality_finite",
                std::isfinite(quality.er) && std::isfinite(quality.msle),
                "er/msle finite");

  double total_step_s = 0.0;
  for (double v : run.step_ms) total_step_s += v / 1000.0;
  result->Metric("setup_s", Median(setup_s), "s");
  result->Metric("peak_rss_mb", peak_rss, "MB");
  // Tails per lap (each lap is the same work), median over laps: the
  // slow steps of this workload come in host interference stretches of
  // tens of steps, not from the program.
  result->Timing("step", "ms", run.step_ms, rows.size());
  result->Timing("predict", "ms", run.predict_ms, rows.size());
  result->Metric("capacity_rps",
                 total_step_s > 0 ? run.full_model / total_step_s : 0.0, "1/s");
  result->Metric("served_ratio",
                 run.steps > 0 ? static_cast<double>(run.full_model) / run.steps
                               : 0.0,
                 "ratio");
  result->Metric("er", quality.er, "ratio");
  result->Metric("msle", quality.msle, "log2sq");
  result->Info("regions", static_cast<double>(kRegions));
  result->Info("lap_steps", static_cast<double>(rows.size()));
  result->Info("laps", static_cast<double>(run.lap_digests.size()));

  if (options.trace) {
    // Tracing overhead: laps alternate between spans off and on, so both
    // sides see the same host conditions.
    Tracer tracer;
    StreamSamples plain, traced;
    const auto t_pass = Clock::now();
    do {
      for (Tracer* t : {static_cast<Tracer*>(nullptr), &tracer}) {
        if (!StartLap(&setup, history_end)) {
          result->Check("trace.setup", false, "predictor rebuild failed");
          return 1;
        }
        Stream(&setup, rows, history_end, 0.0, t, t ? &traced : &plain);
      }
    } while (SecondsSince(t_pass) < measure_s);
    const double plain_p50 = Median(plain.step_ms);
    result->Metric("trace.overhead_pct",
                   100.0 * (Median(traced.step_ms) - plain_p50) / plain_p50,
                   "%");
    result->Metric("data.generate_s", setup.generate_s, "s");
    result->Metric("data.window_s", setup.window_s, "s");
    ProbeConfig probe;
    probe.dataset = &ds;
    probe.model = setup.model.get();
    probe.serve_begin = history_end;
    probe.seconds = measure_s;
    probe.scale = RmsScale(ds);
    probe.state_path = options.state_dir + "/metro_probe.state";
    RunLayerProbe(probe, options.seed, &tracer, result);
    RunPaperCellLayers(options, &tracer, result);
    ReportSelfTimes(tracer, result);
    if (!options.trace_out.empty()) {
      result->Check("trace.write",
                    tracer.WriteJson(options.trace_out, options.workload,
                                     options.seed),
                    "spans written to " + options.trace_out);
    }
  }
  return 0;
}

}  // namespace e2e
