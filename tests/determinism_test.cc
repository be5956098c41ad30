// Thread-count determinism: training and serving must produce BIT-IDENTICAL
// results whether the pool runs 1, 2, or 8 workers. The parallel substrate
// (PR 1) guarantees per-slot writes and fixed reduction orders; this test
// holds the whole model to that contract end to end.

#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ealgap.h"
#include "data/dataset.h"
#include "serve/online_predictor.h"

namespace ealgap {
namespace {

data::MobilitySeries MakeTestSeries(int regions = 3, int days = 35,
                                    uint64_t seed = 9) {
  Rng rng(seed);
  data::MobilitySeries series;
  series.num_regions = regions;
  series.steps_per_day = 24;
  series.start_date = {2021, 3, 1};
  series.num_days = days;
  series.counts = Tensor::Zeros({regions, static_cast<int64_t>(days) * 24});
  for (int r = 0; r < regions; ++r) {
    double ar = 0.0;
    for (int64_t s = 0; s < days * 24; ++s) {
      const int h = static_cast<int>(s % 24);
      const double base =
          15.0 + 12.0 * std::exp(-0.5 * std::pow((h - 8.0) / 2.0, 2)) +
          14.0 * std::exp(-0.5 * std::pow((h - 18.0) / 3.0, 2));
      ar = 0.85 * ar + rng.Normal(0.0, 1.0);
      series.counts.data()[r * days * 24 + s] = static_cast<float>(
          std::max(0.0, base * (1.0 + 0.2 * r) + ar));
    }
  }
  return series;
}

struct Trained {
  data::SlidingWindowDataset dataset;
  data::StepRanges split;
  std::unique_ptr<core::EalgapForecaster> model;
  std::string checkpoint_text;          ///< full parameter dump
  std::vector<double> test_predictions;  ///< flattened over 40 test steps
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Trained TrainOnce(int threads) {
  SetNumThreads(threads);
  Trained out;
  data::DatasetOptions options;
  options.history_length = 5;
  options.num_windows = 3;
  options.norm_history = 3;
  auto ds = data::SlidingWindowDataset::Create(MakeTestSeries(), options);
  EXPECT_TRUE(ds.ok());
  out.dataset = std::move(ds).value();
  auto split = data::MakeChronoSplit(out.dataset);
  EXPECT_TRUE(split.ok());
  out.split = *split;

  out.model = std::make_unique<core::EalgapForecaster>();
  TrainConfig train;
  train.epochs = 2;
  train.learning_rate = 3e-3f;
  train.seed = 11;
  EXPECT_TRUE(out.model->Fit(out.dataset, out.split, train).ok());

  // The checkpoint stores every parameter as raw float bits, so byte-equal
  // checkpoints mean bit-equal weights.
  const std::string path = ::testing::TempDir() + "/determinism_" +
                           std::to_string(threads) + ".ckpt";
  EXPECT_TRUE(out.model->SaveCheckpoint(path).ok());
  out.checkpoint_text = ReadAll(path);

  for (int64_t step = out.split.test_begin;
       step < out.split.test_begin + 40; ++step) {
    auto pred = out.model->Predict(out.dataset, step);
    EXPECT_TRUE(pred.ok());
    out.test_predictions.insert(out.test_predictions.end(), pred->begin(),
                                pred->end());
  }
  return out;
}

TEST(DeterminismTest, TrainingAndPredictionIdenticalAt1_2_8Threads) {
  const int saved = GetNumThreads();
  Trained t1 = TrainOnce(1);
  Trained t2 = TrainOnce(2);
  Trained t8 = TrainOnce(8);
  SetNumThreads(saved);

  ASSERT_FALSE(t1.checkpoint_text.empty());
  EXPECT_EQ(t1.checkpoint_text, t2.checkpoint_text)
      << "weights after training diverged between 1 and 2 threads";
  EXPECT_EQ(t1.checkpoint_text, t8.checkpoint_text)
      << "weights after training diverged between 1 and 8 threads";
  EXPECT_EQ(t1.test_predictions, t2.test_predictions);
  EXPECT_EQ(t1.test_predictions, t8.test_predictions);
}

TEST(DeterminismTest, PredictManyIdenticalAcrossThreadCounts) {
  const int saved = GetNumThreads();
  SetNumThreads(1);
  Trained t = TrainOnce(1);

  // A small fleet of streams at staggered positions, replayed under each
  // pool size; the batched results must be byte-for-byte the same.
  auto make_fleet = [&](std::vector<serve::OnlinePredictor>* fleet) {
    for (int i = 0; i < 5; ++i) {
      auto p = serve::OnlinePredictor::Create(t.model.get(), t.dataset,
                                              t.split.test_begin);
      ASSERT_TRUE(p.ok());
      fleet->push_back(std::move(p).value());
      for (int64_t step = t.split.test_begin;
           step < t.split.test_begin + 2 * i; ++step) {
        const std::vector<float> row = t.dataset.StepCounts(step);
        ASSERT_TRUE(
            fleet->back()
                .Observe(std::vector<double>(row.begin(), row.end()))
                .ok());
      }
    }
  };
  std::vector<serve::OnlinePredictor> fleet;
  make_fleet(&fleet);
  ASSERT_EQ(fleet.size(), 5u);
  std::vector<serve::OnlinePredictor*> ptrs;
  for (auto& p : fleet) ptrs.push_back(&p);

  std::vector<std::vector<double>> reference;
  for (auto* p : ptrs) {
    auto pred = p->PredictNext();
    ASSERT_TRUE(pred.ok());
    reference.push_back(std::move(pred).value());
  }

  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    auto many = serve::OnlinePredictor::PredictMany(ptrs);
    ASSERT_EQ(many.size(), 5u);
    for (size_t i = 0; i < many.size(); ++i) {
      ASSERT_TRUE(many[i].ok());
      EXPECT_EQ(*many[i], reference[i])
          << "stream " << i << " diverged at " << threads << " threads";
    }
  }
  SetNumThreads(saved);
}

}  // namespace
}  // namespace ealgap
