// Failure-injection and boundary-condition tests: corrupt feeds, degenerate
// configurations, and edge-of-range behaviour across the pipeline.

#include <cmath>
#include <fstream>
#include <memory>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/recurrent.h"
#include "core/ealgap.h"
#include "core/experiment.h"
#include "core/extreme_degree.h"
#include "data/aggregate.h"
#include "data/cleaning.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "data/synthetic_city.h"
#include "data/trip.h"
#include "nn/loss.h"
#include "serve/adaptive_predictor.h"
#include "serve/online_predictor.h"
#include "tests/record_test_util.h"

namespace ealgap {
namespace {

// --- corrupt CSV feeds -------------------------------------------------------

TEST(RobustnessTest, TripCsvMissingColumnsRejected) {
  const std::string path = ::testing::TempDir() + "/rb_missing_cols.csv";
  {
    std::ofstream out(path);
    out << "started_at,start_station_id\n";
    out << "2020-06-01 10:00:00,1\n";
  }
  auto trips = data::ReadTripsCsv(path);
  EXPECT_FALSE(trips.ok());
  EXPECT_EQ(trips.status().code(), StatusCode::kParseError);
}

TEST(RobustnessTest, TripCsvRaggedRowRejected) {
  const std::string path = ::testing::TempDir() + "/rb_ragged.csv";
  {
    std::ofstream out(path);
    out << "started_at,ended_at,start_station_id,end_station_id\n";
    out << "2020-06-01 10:00:00,2020-06-01 10:20:00,1\n";  // 3 fields
  }
  EXPECT_FALSE(data::ReadTripsCsv(path).ok());
}

TEST(RobustnessTest, StationCsvGarbageCoordinatesRejected) {
  const std::string path = ::testing::TempDir() + "/rb_stations.csv";
  {
    std::ofstream out(path);
    out << "station_id,lon,lat\n";
    out << "1,not_a_number,40.7\n";
  }
  // Historical wart, now fixed: atof silently parsed garbage to 0.0 and
  // relocated the station to (0, 0). Strict parsing rejects the row.
  auto stations = data::ReadStationsCsv(path);
  ASSERT_FALSE(stations.ok());
  EXPECT_EQ(stations.status().code(), StatusCode::kParseError);
  EXPECT_NE(stations.status().message().find("not_a_number"),
            std::string::npos);

  // Garbage ids and partially-numeric fields ("40.7abc") are rejected too;
  // clean rows still parse, including negative coordinates.
  {
    std::ofstream out(path);
    out << "station_id,lon,lat\n";
    out << "x1,-73.99,40.7\n";
  }
  EXPECT_FALSE(data::ReadStationsCsv(path).ok());
  {
    std::ofstream out(path);
    out << "station_id,lon,lat\n";
    out << "1,-73.99,40.7abc\n";
  }
  EXPECT_FALSE(data::ReadStationsCsv(path).ok());
  {
    std::ofstream out(path);
    out << "station_id,lon,lat\n";
    out << "1,-73.990000,40.700000\n";
  }
  auto good = data::ReadStationsCsv(path);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ((*good)[0].id, 1);
  EXPECT_NEAR((*good)[0].lon, -73.99, 1e-9);
  EXPECT_NEAR((*good)[0].lat, 40.7, 1e-9);
}

TEST(RobustnessTest, AllTripsDirtyYieldsEmptyCleanSet) {
  std::vector<data::TripRecord> trips;
  for (int i = 0; i < 50; ++i) {
    trips.push_back({1000 + i, 1000 + i - 5, 1, 1});  // end before start
  }
  std::vector<data::Station> stations{{1, 0, 0}};
  data::CleaningReport report;
  auto clean = data::CleanTrips(trips, stations, {}, &report);
  EXPECT_TRUE(clean.empty());
  EXPECT_EQ(report.removed_bad_timestamps, 50u);
}

// --- degenerate pipeline configurations ---------------------------------------

TEST(RobustnessTest, SingleRegionPipelineWorks) {
  data::CityConfig config;
  config.num_stations = 5;
  config.num_regions = 1;
  config.num_days = 30;
  config.base_region_hour_rate = 6.0;
  config.seed = 61;
  auto city = data::GenerateCity(config);
  ASSERT_TRUE(city.ok());
  data::PartitionOptions popts;
  popts.num_regions = 1;
  auto part = data::PartitionStations(city->stations, popts);
  ASSERT_TRUE(part.ok());
  auto series = data::AggregateTrips(city->trips, city->stations, *part,
                                     config.start_date, config.num_days);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->num_regions, 1);
}

TEST(RobustnessTest, ZeroTurbulenceGeneratorIsValid) {
  data::CityConfig config;
  config.num_stations = 10;
  config.num_regions = 2;
  config.num_days = 14;
  config.turbulence_sigma = 0.0;
  config.weather_sigma = 0.0;
  config.seed = 62;
  auto city = data::GenerateCity(config);
  ASSERT_TRUE(city.ok());
  // Counts finite and non-negative.
  for (int64_t i = 0; i < city->region_counts.numel(); ++i) {
    EXPECT_GE(city->region_counts.data()[i], 0.f);
    EXPECT_TRUE(std::isfinite(city->region_counts.data()[i]));
  }
}

TEST(RobustnessTest, ConstantSeriesDatasetIsFinite) {
  // A constant series has zero variance everywhere; the matched sigma is 0
  // and downstream extreme degrees must stay finite (epsilon floor).
  data::MobilitySeries series;
  series.num_regions = 2;
  series.steps_per_day = 24;
  series.start_date = {2020, 6, 1};
  series.num_days = 20;
  series.counts = Tensor::Full({2, 20 * 24}, 7.f);
  data::DatasetOptions options;
  auto ds = data::SlidingWindowDataset::Create(std::move(series), options);
  ASSERT_TRUE(ds.ok());
  for (int64_t i = 0; i < ds->sigma().numel(); ++i) {
    EXPECT_EQ(ds->sigma().data()[i], 0.f);
  }
  auto sample = ds->MakeSample(ds->MinTargetStep());
  Rng rng(7);
  core::ExtremeDegreeModule module(2, options.history_length, 4, rng);
  // x == mu, sigma == 0 -> degree exactly 0, no NaN (epsilon floor).
  Var d2 = module.ExtremeDegree(
      Var::Leaf(sample.x), Var::Leaf(sample.x),
      Var::Leaf(Tensor::Zeros({2, options.history_length})));
  for (int64_t i = 0; i < d2.value().numel(); ++i) {
    EXPECT_EQ(d2.value().data()[i], 0.f);
    EXPECT_FALSE(std::isnan(d2.value().data()[i]));
  }
}

TEST(RobustnessTest, TrainingOnConstantSeriesStaysFinite) {
  data::MobilitySeries series;
  series.num_regions = 2;
  series.steps_per_day = 24;
  series.start_date = {2020, 6, 1};
  series.num_days = 40;
  series.counts = Tensor::Full({2, 40 * 24}, 5.f);
  data::DatasetOptions options;
  auto ds = data::SlidingWindowDataset::Create(std::move(series), options);
  ASSERT_TRUE(ds.ok());
  auto split = data::MakeChronoSplit(*ds);
  ASSERT_TRUE(split.ok());
  core::EalgapForecaster model;
  TrainConfig train;
  train.epochs = 2;
  ASSERT_TRUE(model.Fit(*ds, *split, train).ok());
  auto pred = model.Predict(*ds, split->test_begin);
  ASSERT_TRUE(pred.ok());
  for (double v : *pred) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_NEAR(v, 5.0, 3.0);  // constant series is easy
  }
}

// --- event edge cases -----------------------------------------------------------

TEST(RobustnessTest, EventOutsideSeriesRangeIsHarmless) {
  data::CityConfig config;
  config.num_stations = 10;
  config.num_regions = 2;
  config.num_days = 10;
  config.seed = 63;
  data::AnomalyEvent e;
  e.kind = data::EventKind::kHurricane;
  e.start_date = AddDays(config.start_date, 100);  // after the series
  e.end_date = e.start_date;
  config.events.push_back(e);
  EXPECT_TRUE(data::GenerateCity(config).ok());
}

TEST(RobustnessTest, EventHourMultiplierBounds) {
  data::AnomalyEvent e;
  e.kind = data::EventKind::kRainstorm;
  e.severity = 0.4;
  for (int h = 0; h < 24; ++h) {
    const double m = data::EventHourMultiplier(e, 0.4, h, 10, 20);
    EXPECT_GE(m, 0.6 - 1e-12);
    EXPECT_LE(m, 1.0 + 1e-12);
  }
  // Holiday: flat.
  e.kind = data::EventKind::kHoliday;
  EXPECT_DOUBLE_EQ(data::EventHourMultiplier(e, 0.3, 3, 10, 20), 0.7);
  EXPECT_DOUBLE_EQ(data::EventHourMultiplier(e, 0.3, 15, 10, 20), 0.7);
}

// --- losses on extreme inputs -----------------------------------------------------

TEST(RobustnessTest, LossesFiniteOnLargeValues) {
  Var pred = Var::Leaf(Tensor::Full({4}, 1e6f), true);
  Var target = Var::Leaf(Tensor::Zeros({4}));
  EXPECT_TRUE(std::isfinite(nn::MseLoss(pred, target).value().data()[0]));
  EXPECT_TRUE(std::isfinite(nn::MaeLoss(pred, target).value().data()[0]));
  EXPECT_TRUE(
      std::isfinite(nn::HuberLoss(pred, target, 1.f).value().data()[0]));
}

TEST(RobustnessTest, EvlLossAllExtremeBatch) {
  nn::EvlConfig config;
  config.high_threshold = 0.f;  // everything above zero is "extreme"
  config.low_threshold = -1.f;
  config.gamma = 1.f;
  Var pred = Var::Leaf(Tensor::Ones({4}), true);
  Var target = Var::Leaf(Tensor::Full({4}, 2.f));
  Var loss = nn::EvlLoss(pred, target, config);
  EXPECT_TRUE(std::isfinite(loss.value().data()[0]));
  Backward(loss);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isfinite(pred.grad().data()[i]));
  }
}

// --- forecaster misuse -------------------------------------------------------------

TEST(RobustnessTest, PredictOutOfRangeStepFails) {
  data::MobilitySeries series;
  series.num_regions = 2;
  series.steps_per_day = 24;
  series.start_date = {2020, 6, 1};
  series.num_days = 40;
  series.counts = Tensor::Full({2, 40 * 24}, 3.f);
  data::DatasetOptions options;
  auto ds = data::SlidingWindowDataset::Create(std::move(series), options);
  ASSERT_TRUE(ds.ok());
  auto split = data::MakeChronoSplit(*ds);
  ASSERT_TRUE(split.ok());
  RecurrentForecaster gru(RecurrentKind::kGru, 4);
  TrainConfig train;
  train.epochs = 1;
  ASSERT_TRUE(gru.Fit(*ds, *split, train).ok());
  // Steps outside the series must not crash; MakeSample CHECKs in debug,
  // so use the documented valid range and verify the boundary inputs work.
  EXPECT_TRUE(gru.Predict(*ds, ds->MinTargetStep()).ok());
  EXPECT_TRUE(gru.Predict(*ds, ds->series().total_steps() - 1).ok());
}


// --- corrupt state/checkpoint headers ----------------------------------------
//
// Loaders must reject zero/negative counts with a hard error NAMING the bad
// field — a corrupt geometry must never survive into ring sizing, tensor
// allocation, or an OOB copy. The bad values are written into correctly
// framed record files, so the CRCs pass and the semantic check runs.

namespace corrupt {

/// A minimal fitted model + predictor over a synthetic city, for
/// exercising the serve-state and checkpoint loaders.
struct ServeFixture {
  data::SlidingWindowDataset dataset;
  data::StepRanges split;
  std::unique_ptr<core::EalgapForecaster> model;

  static ServeFixture Make() {
    data::RegionSeriesConfig cfg;
    cfg.num_regions = 4;
    cfg.num_days = 30;
    cfg.seed = 3;
    auto dataset = data::SlidingWindowDataset::Create(
        data::GenerateRegionSeries(cfg), data::DatasetOptions{});
    EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
    auto split = data::MakeChronoSplit(*dataset);
    EXPECT_TRUE(split.ok()) << split.status().ToString();
    ServeFixture f{std::move(dataset).value(), *split,
                   std::make_unique<core::EalgapForecaster>()};
    TrainConfig train;
    train.epochs = 0;
    train.seed = 5;
    EXPECT_TRUE(f.model->Fit(f.dataset, f.split, train).ok());
    return f;
  }
};

}  // namespace corrupt

TEST(RobustnessTest, ServeStateZeroRegionsRejectedByFieldName) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  auto predictor =
      serve::OnlinePredictor::Create(f.model.get(), f.dataset, f.split.test_begin);
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();
  const std::string path = ::testing::TempDir() + "/zero_regions.state";
  ASSERT_TRUE(predictor->SaveState(path).ok());

  // geometry: num_regions, steps_per_day, L, M, NH (i64 each)
  testing_record::PokeI64(path, testing_record::kServeState, "geometry", 0,
                          0);
  auto loaded = serve::OnlinePredictor::LoadState(path, f.model.get());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("num_regions"), std::string::npos)
      << loaded.status().ToString();
}

TEST(RobustnessTest, ServeStateNegativeStepsPerDayRejectedByFieldName) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  auto predictor =
      serve::OnlinePredictor::Create(f.model.get(), f.dataset, f.split.test_begin);
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();
  const std::string path = ::testing::TempDir() + "/neg_steps.state";
  ASSERT_TRUE(predictor->SaveState(path).ok());

  testing_record::PokeI64(path, testing_record::kServeState, "geometry", 8,
                          -24);
  auto loaded = serve::OnlinePredictor::LoadState(path, f.model.get());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("steps_per_day"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(RobustnessTest, CheckpointZeroDimensionRejectedByParameterName) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  const std::string path = ::testing::TempDir() + "/zero_dim.ckpt";
  ASSERT_TRUE(f.model->SaveCheckpoint(path).ok());

  // Zero the first dimension of the first parameter record.
  std::string victim;
  testing_record::RewriteSection(
      path, testing_record::kCheckpoint, "params",
      [&](RecordSection& old, RecordWriter& writer) {
        uint64_t count = 0;
        std::vector<int64_t> dims;
        int64_t numel = 0;
        ASSERT_TRUE(old.ReadCount("tensors", 8, &count).ok());
        ASSERT_TRUE(old.ReadString("name", &victim).ok());
        ASSERT_TRUE(old.ReadShape(victim, &dims, &numel).ok());
        dims[0] = 0;
        writer.PutU64(count).PutString(victim).PutShape(dims.data(),
                                                        dims.size());
        const std::string_view payload = old.bytes();
        writer.PutBytes(payload.substr(payload.size() - old.remaining()));
      });
  auto loaded = core::LoadForecasterFromCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  const std::string msg = loaded.status().ToString();
  EXPECT_NE(msg.find(victim), std::string::npos) << msg;
  EXPECT_NE(msg.find("must be >= 1"), std::string::npos) << msg;
}

TEST(RobustnessTest, AdaptStateNegativeRegionsRejectedByFieldName) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  auto adaptive = serve::AdaptivePredictor::Create(f.model.get());
  ASSERT_TRUE(adaptive.ok()) << adaptive.status().ToString();
  const std::string path = ::testing::TempDir() + "/neg_regions.adapt";
  ASSERT_TRUE((*adaptive)->SaveState(path).ok());

  // detector: regions (i64), then the ewma and cusum arrays.
  testing_record::PokeI64(path, testing_record::kAdaptState, "detector", 0,
                          -1);
  Status loaded = (*adaptive)->LoadState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.ToString().find("field 'regions'"), std::string::npos)
      << loaded.ToString();
}

TEST(RobustnessTest, AdaptStateBitFlipFailsChecksum) {
  corrupt::ServeFixture f = corrupt::ServeFixture::Make();
  auto adaptive = serve::AdaptivePredictor::Create(f.model.get());
  ASSERT_TRUE(adaptive.ok()) << adaptive.status().ToString();
  const std::string path = ::testing::TempDir() + "/bitflip.adapt";
  ASSERT_TRUE((*adaptive)->SaveState(path).ok());

  // Flip the guard section's frozen flag in place: still a valid value,
  // but the bytes no longer match the section CRC — the loader must
  // reject, never half-load.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const size_t guard = testing_record::PayloadOffset(bytes, "guard");
  ASSERT_NE(guard, std::string::npos);
  bytes[guard] ^= 1;  // the u32 frozen flag's low byte
  std::ofstream(path, std::ios::binary) << bytes;
  Status loaded = (*adaptive)->LoadState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.ToString().find("section 'guard' CRC mismatch"),
            std::string::npos)
      << loaded.ToString();
  // The failed load left the in-memory posture untouched.
  EXPECT_FALSE((*adaptive)->frozen());
}

}  // namespace
}  // namespace ealgap
