// Batch-vs-streaming parity harness for serve::OnlinePredictor.
//
// The contract under test: replaying a feed through Observe()/PredictNext()
// produces predictions BIT-IDENTICAL (exact double equality, no tolerance)
// to the batch pipeline that rebuilds every sample from the full
// SlidingWindowDataset — at every step of a 200+ step replay, across
// thread counts, through a mid-stream checkpoint save/load boundary, and
// under the batched PredictMany entry point.

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ealgap.h"
#include "core/experiment.h"
#include "core/rollout.h"
#include "data/dataset.h"
#include "serve/online_predictor.h"
#include "serve/resilient_predictor.h"
#include "serve/stack.h"
#include "tests/record_test_util.h"

namespace ealgap {
namespace {

using serve::OnlinePredictor;

// Daily structure + AR noise (same recipe as baselines_test): enough
// signal that the fitted model produces non-trivial predictions.
data::MobilitySeries MakeTestSeries(int regions = 4, int days = 40,
                                    uint64_t seed = 3) {
  Rng rng(seed);
  data::MobilitySeries series;
  series.num_regions = regions;
  series.steps_per_day = 24;
  series.start_date = {2020, 6, 1};
  series.num_days = days;
  series.counts = Tensor::Zeros({regions, static_cast<int64_t>(days) * 24});
  for (int r = 0; r < regions; ++r) {
    double ar = 0.0;
    for (int64_t s = 0; s < days * 24; ++s) {
      const int h = static_cast<int>(s % 24);
      const double base =
          20.0 + 15.0 * std::exp(-0.5 * std::pow((h - 8.5) / 2.5, 2)) +
          18.0 * std::exp(-0.5 * std::pow((h - 17.5) / 2.5, 2));
      ar = 0.9 * ar + rng.Normal(0.0, 1.5);
      series.counts.data()[r * days * 24 + s] = static_cast<float>(
          std::max(0.0, base * (1.0 + 0.1 * r) + ar + rng.Normal(0, 1)));
    }
  }
  return series;
}

std::vector<double> StepTruth(const data::SlidingWindowDataset& dataset,
                              int64_t step) {
  const std::vector<float> row = dataset.StepCounts(step);
  return std::vector<double>(row.begin(), row.end());
}

// One fitted EALGAP shared by every test in the suite (training is the
// expensive part; each test only runs forward passes).
class ServeParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetOptions options;
    options.history_length = 5;
    options.num_windows = 3;
    options.norm_history = 3;
    auto ds = data::SlidingWindowDataset::Create(MakeTestSeries(), options);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new data::SlidingWindowDataset(std::move(ds).value());
    auto split = data::MakeChronoSplit(*dataset_);
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    split_ = new data::StepRanges(*split);
    model_ = new core::EalgapForecaster();
    TrainConfig train;
    train.epochs = 2;
    train.learning_rate = 3e-3f;
    train.seed = 11;
    ASSERT_TRUE(model_->Fit(*dataset_, *split_, train).ok());
  }

  static void TearDownTestSuite() {
    delete model_;
    delete split_;
    delete dataset_;
    model_ = nullptr;
    split_ = nullptr;
    dataset_ = nullptr;
  }

  static data::SlidingWindowDataset* dataset_;
  static data::StepRanges* split_;
  static core::EalgapForecaster* model_;
};

data::SlidingWindowDataset* ServeParityTest::dataset_ = nullptr;
data::StepRanges* ServeParityTest::split_ = nullptr;
core::EalgapForecaster* ServeParityTest::model_ = nullptr;

TEST_F(ServeParityTest, StreamingMatchesBatchBitExactOver200Steps) {
  auto predictor =
      OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();

  int64_t checked = 0;
  for (int64_t step = split_->test_begin; step < split_->test_end; ++step) {
    ASSERT_EQ(predictor->next_step(), step);
    auto streaming = predictor->PredictNext();
    ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
    auto batch = model_->Predict(*dataset_, step);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(streaming->size(), batch->size());
    for (size_t r = 0; r < batch->size(); ++r) {
      // Exact equality: the streaming path must reproduce the batch
      // pipeline's floating-point computation bit for bit.
      ASSERT_EQ((*streaming)[r], (*batch)[r])
          << "step " << step << " region " << r;
    }
    ASSERT_TRUE(predictor->Observe(StepTruth(*dataset_, step)).ok());
    ++checked;
  }
  EXPECT_GE(checked, 200) << "replay too short to be meaningful";
}

TEST_F(ServeParityTest, ReplayInvariantToThreadCount) {
  const int saved = GetNumThreads();
  const int64_t replay_steps = 60;
  std::vector<std::vector<double>> runs;
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    auto predictor =
        OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
    ASSERT_TRUE(predictor.ok());
    std::vector<double> flat;
    for (int64_t step = split_->test_begin;
         step < split_->test_begin + replay_steps; ++step) {
      auto pred = predictor->PredictNext();
      ASSERT_TRUE(pred.ok());
      flat.insert(flat.end(), pred->begin(), pred->end());
      ASSERT_TRUE(predictor->Observe(StepTruth(*dataset_, step)).ok());
    }
    runs.push_back(std::move(flat));
  }
  SetNumThreads(saved);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], runs[1]) << "1 vs 2 threads diverged";
  EXPECT_EQ(runs[0], runs[2]) << "1 vs 8 threads diverged";
}

TEST_F(ServeParityTest, PredictManyMatchesSerialAcrossThreadCounts) {
  // Six predictors advanced to different stream positions, sharing one
  // model. PredictMany must equal serial PredictNext bit for bit, at any
  // pool size.
  const int kClients = 6;
  std::vector<OnlinePredictor> owned;
  owned.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    auto p = OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
    ASSERT_TRUE(p.ok());
    owned.push_back(std::move(p).value());
    for (int64_t step = split_->test_begin; step < split_->test_begin + 3 * i;
         ++step) {
      ASSERT_TRUE(owned[i].Observe(StepTruth(*dataset_, step)).ok());
    }
  }
  std::vector<OnlinePredictor*> predictors;
  for (auto& p : owned) predictors.push_back(&p);

  std::vector<std::vector<double>> serial;
  for (auto* p : predictors) {
    auto pred = p->PredictNext();
    ASSERT_TRUE(pred.ok());
    serial.push_back(std::move(pred).value());
  }

  const int saved = GetNumThreads();
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    auto many = OnlinePredictor::PredictMany(predictors);
    ASSERT_EQ(many.size(), static_cast<size_t>(kClients));
    for (int i = 0; i < kClients; ++i) {
      ASSERT_TRUE(many[i].ok()) << many[i].status().ToString();
      EXPECT_EQ(*many[i], serial[i]) << "client " << i << " at " << threads
                                     << " threads";
    }
  }
  SetNumThreads(saved);
}

TEST_F(ServeParityTest, MidStreamCheckpointPreservesBitExactness) {
  const std::string ckpt = ::testing::TempDir() + "/parity_model.ckpt";
  const std::string state = ::testing::TempDir() + "/parity_serve.state";

  auto predictor =
      OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(predictor.ok());
  for (int64_t step = split_->test_begin; step < split_->test_begin + 50;
       ++step) {
    ASSERT_TRUE(predictor->Observe(StepTruth(*dataset_, step)).ok());
  }

  ASSERT_TRUE(model_->SaveCheckpoint(ckpt).ok());
  ASSERT_TRUE(predictor->SaveState(state).ok());

  auto loaded = core::LoadForecasterFromCheckpoint(ckpt);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), "EALGAP");
  auto restored = OnlinePredictor::LoadState(state, loaded->get());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->next_step(), predictor->next_step());

  // Original and restored node must agree with each other AND with the
  // batch pipeline for the rest of the replay.
  for (int64_t step = predictor->next_step(); step < split_->test_end;
       ++step) {
    auto a = predictor->PredictNext();
    auto b = restored->PredictNext();
    auto batch = model_->Predict(*dataset_, step);
    ASSERT_TRUE(a.ok() && b.ok() && batch.ok());
    ASSERT_EQ(*a, *b) << "restored node diverged at step " << step;
    ASSERT_EQ(*a, *batch) << "stream diverged from batch at step " << step;
    const std::vector<double> truth = StepTruth(*dataset_, step);
    ASSERT_TRUE(predictor->Observe(truth).ok());
    ASSERT_TRUE(restored->Observe(truth).ok());
  }
}

TEST_F(ServeParityTest, RolloutMatchesRepeatedObservePredictNext) {
  const int horizon = 12;
  auto rollout = core::RolloutForecast(*model_, *dataset_, split_->test_begin,
                                       horizon);
  ASSERT_TRUE(rollout.ok()) << rollout.status().ToString();
  ASSERT_EQ(rollout->size(), static_cast<size_t>(horizon));

  auto predictor =
      OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(predictor.ok());
  for (int h = 0; h < horizon; ++h) {
    auto pred = predictor->PredictNext();
    ASSERT_TRUE(pred.ok());
    EXPECT_EQ(*pred, (*rollout)[h]) << "horizon " << h;
    ASSERT_TRUE(predictor->Observe(*pred).ok());
  }
}

TEST_F(ServeParityTest, StreamingRolloutMatchesLegacyClonePath) {
  // The pre-streaming implementation: clone the dataset, write each
  // prediction back, re-predict. The incremental path must reproduce it
  // exactly.
  const int horizon = 12;
  auto streaming = core::RolloutForecast(*model_, *dataset_,
                                         split_->test_begin, horizon);
  ASSERT_TRUE(streaming.ok());

  data::SlidingWindowDataset working = dataset_->Clone();
  for (int h = 0; h < horizon; ++h) {
    const int64_t step = split_->test_begin + h;
    auto pred = model_->Predict(working, step);
    ASSERT_TRUE(pred.ok());
    EXPECT_EQ(*pred, (*streaming)[h]) << "horizon " << h;
    ASSERT_TRUE(working.OverwriteStep(step, *pred).ok());
  }
}

TEST_F(ServeParityTest, ExponentialRateTracksLiveWindow) {
  auto predictor =
      OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(predictor.ok());
  for (int64_t step = split_->test_begin; step < split_->test_begin + 30;
       ++step) {
    ASSERT_TRUE(predictor->Observe(StepTruth(*dataset_, step)).ok());
    // lambda = 1 / mean over the last L observed values.
    const int64_t l = dataset_->options().history_length;
    for (int r = 0; r < predictor->num_regions(); ++r) {
      double sum = 0.0;
      for (int64_t s = step - l + 1; s <= step; ++s) {
        sum += dataset_->StepCounts(s)[r];
      }
      const double mean = std::max(sum / static_cast<double>(l), 1e-12);
      EXPECT_NEAR(predictor->ExponentialRate(r), 1.0 / mean,
                  1e-9 * (1.0 + 1.0 / mean));
    }
  }
}

// --- checkpoint / state error handling --------------------------------------

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

TEST_F(ServeParityTest, CorruptCheckpointsReturnErrorsNotCrashes) {
  const std::string good = ::testing::TempDir() + "/err_model.ckpt";
  ASSERT_TRUE(model_->SaveCheckpoint(good).ok());
  const std::string text = ReadAll(good);
  const std::string bad = ::testing::TempDir() + "/err_model_bad.ckpt";

  EXPECT_FALSE(core::LoadForecasterFromCheckpoint(
                   ::testing::TempDir() + "/no_such_file.ckpt")
                   .ok());

  WriteAll(bad, "hello world, not a checkpoint\n");
  EXPECT_FALSE(core::LoadForecasterFromCheckpoint(bad).ok());

  // Truncation at several depths: mid-header, mid-params, missing the end
  // marker. Every cut must be detected.
  for (double frac : {0.1, 0.5, 0.98}) {
    WriteAll(bad, text.substr(0, static_cast<size_t>(frac * text.size())));
    auto r = core::LoadForecasterFromCheckpoint(bad);
    EXPECT_FALSE(r.ok()) << "truncation at " << frac << " went undetected";
  }

  // Config/parameter shape mismatch: shrink the hidden width the config
  // echo advertises; the stored tensors no longer fit the rebuilt network.
  WriteAll(bad, text);
  testing_record::RewriteSection(
      bad, testing_record::kCheckpoint, "config",
      [](RecordSection& old, RecordWriter& writer) {
        uint64_t entries = 0;
        ASSERT_TRUE(old.ReadCount("entries", 8, &entries).ok());
        writer.PutU64(entries);
        for (uint64_t i = 0; i < entries; ++i) {
          std::string key, value;
          ASSERT_TRUE(old.ReadString("key", &key).ok());
          ASSERT_TRUE(old.ReadString(key, &value).ok());
          if (key == "hidden") {
            ASSERT_EQ(value, "32");
            value = "8";
          }
          writer.PutString(key).PutString(value);
        }
      });
  auto mismatched = core::LoadForecasterFromCheckpoint(bad);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_NE(mismatched.status().message().find("shape mismatch"),
            std::string::npos)
      << mismatched.status().ToString();

  // Wrong model name vs the loading forecaster.
  WriteAll(bad, text);
  testing_record::RewriteSection(
      bad, testing_record::kCheckpoint, "model",
      [](RecordSection&, RecordWriter& writer) {
        writer.PutString("ST-Norm");
      });
  core::EalgapForecaster fresh;
  const Status renamed = fresh.LoadCheckpoint(bad);
  ASSERT_FALSE(renamed.ok());
  EXPECT_NE(renamed.message().find("holds model ST-Norm"), std::string::npos)
      << renamed.ToString();

  // The intact file still loads.
  EXPECT_TRUE(core::LoadForecasterFromCheckpoint(good).ok());
}

TEST_F(ServeParityTest, CorruptServeStateReturnsErrorsNotCrashes) {
  const std::string good = ::testing::TempDir() + "/err_serve.state";
  auto predictor =
      OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(predictor.ok());
  ASSERT_TRUE(predictor->SaveState(good).ok());
  const std::string text = ReadAll(good);
  const std::string bad = ::testing::TempDir() + "/err_serve_bad.state";

  EXPECT_FALSE(OnlinePredictor::LoadState(
                   ::testing::TempDir() + "/no_such.state", model_)
                   .ok());

  WriteAll(bad, "not a serve state\n");
  EXPECT_FALSE(OnlinePredictor::LoadState(bad, model_).ok());

  for (double frac : {0.1, 0.5, 0.98}) {
    WriteAll(bad, text.substr(0, static_cast<size_t>(frac * text.size())));
    EXPECT_FALSE(OnlinePredictor::LoadState(bad, model_).ok())
        << "truncation at " << frac << " went undetected";
  }

  // Wrong model name.
  WriteAll(bad, text);
  testing_record::RewriteSection(
      bad, testing_record::kServeState, "model",
      [](RecordSection&, RecordWriter& writer) { writer.PutString("GRU"); });
  auto renamed = OnlinePredictor::LoadState(bad, model_);
  ASSERT_FALSE(renamed.ok());
  EXPECT_NE(renamed.status().message().find("captured for model GRU"),
            std::string::npos)
      << renamed.status().ToString();

  EXPECT_TRUE(OnlinePredictor::LoadState(good, model_).ok());
}

// One changed byte in a field whose new value a loader would accept — the
// config echo's scale, the serve state's next_step — must be rejected
// naming the section, never served as a silently different model or
// stream position.
TEST_F(ServeParityTest, OneByteChangeInAValidFieldIsRejectedNamingTheSection) {
  const std::string ckpt = ::testing::TempDir() + "/onebyte_model.ckpt";
  ASSERT_TRUE(model_->SaveCheckpoint(ckpt).ok());
  std::string bytes = ReadAll(ckpt);
  const size_t scale = bytes.find("scale");
  ASSERT_NE(scale, std::string::npos);
  // The value follows the key as a u32 length and its decimal digits.
  char& digit = bytes[scale + 5 + sizeof(uint32_t)];
  ASSERT_TRUE(digit >= '0' && digit <= '9') << bytes.substr(scale, 20);
  digit = digit == '9' ? '8' : static_cast<char>(digit + 1);
  WriteAll(ckpt, bytes);
  auto loaded = core::LoadForecasterFromCheckpoint(ckpt);
  ASSERT_FALSE(loaded.ok()) << "a changed config scale was accepted";
  EXPECT_NE(loaded.status().message().find("section 'config' CRC mismatch"),
            std::string::npos)
      << loaded.status().ToString();

  const std::string state = ::testing::TempDir() + "/onebyte_serve.state";
  auto predictor =
      OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(predictor.ok());
  ASSERT_TRUE(predictor->SaveState(state).ok());
  bytes = ReadAll(state);
  // stream = year, month, day, next_step (i64 each).
  const size_t stream = testing_record::PayloadOffset(bytes, "stream");
  ASSERT_NE(stream, std::string::npos);
  bytes[stream + 3 * sizeof(int64_t)] ^= 0x01;
  WriteAll(state, bytes);
  auto restored = OnlinePredictor::LoadState(state, model_);
  ASSERT_FALSE(restored.ok()) << "a changed next_step was accepted";
  EXPECT_NE(restored.status().message().find("section 'stream' CRC mismatch"),
            std::string::npos)
      << restored.status().ToString();
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The end-to-end benchmark's stream workload wires its serving pair by hand
// (OnlinePredictor::Create, then a default ResilientPredictor, one warm-up
// step, then observe/predict). A BuildStack stack with adaptation off must
// serve the same bytes at every step, so the benchmark measures the stack
// production builds.
TEST_F(ServeParityTest, BuiltStackMatchesTheHandWiredPairBitExact) {
  auto online = OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  serve::ResilientPredictor resilient(&*online);
  auto stack = serve::BuildStack(model_, serve::StackOptions{}, *dataset_,
                                 split_->test_begin);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  EXPECT_FALSE(stack->restored);
  EXPECT_EQ(stack->adaptive, nullptr);

  serve::ServedPrediction hand, built;
  ASSERT_TRUE(resilient.PredictNextInto(&hand).ok());
  ASSERT_TRUE(stack->resilient->PredictNextInto(&built).ok());
  ASSERT_TRUE(SameBits(hand.values, built.values)) << "warm-up step";
  int64_t checked = 0;
  for (int64_t step = split_->test_begin; step + 1 < split_->test_end;
       ++step) {
    const std::vector<double> truth = StepTruth(*dataset_, step);
    ASSERT_TRUE(resilient.Observe(truth).ok());
    ASSERT_TRUE(stack->resilient->Observe(truth).ok());
    ASSERT_TRUE(resilient.PredictNextInto(&hand).ok());
    ASSERT_TRUE(stack->resilient->PredictNextInto(&built).ok());
    ASSERT_TRUE(SameBits(hand.values, built.values)) << "step " << step + 1;
    ASSERT_EQ(hand.source, built.source) << "step " << step + 1;
    ++checked;
  }
  EXPECT_GE(checked, 200) << "replay too short to be meaningful";
}

// BuildStack restores from a state file when it loads, and seeds from the
// dataset when it does not; either way it says which it did.
TEST_F(ServeParityTest, BuiltStackRestoresFromStateOrSeeds) {
  const std::string state = ::testing::TempDir() + "/stack_serve.state";
  auto live = serve::BuildStack(model_, serve::StackOptions{}, *dataset_,
                                split_->test_begin);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  for (int64_t step = split_->test_begin; step < split_->test_begin + 30;
       ++step) {
    ASSERT_TRUE(live->resilient->Observe(StepTruth(*dataset_, step)).ok());
  }
  ASSERT_TRUE(live->online->SaveState(state).ok());

  auto restored = serve::BuildStack(model_, serve::StackOptions{}, *dataset_,
                                    split_->test_begin, state);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->restored);
  ASSERT_EQ(restored->online->next_step(), live->online->next_step());
  serve::ServedPrediction a, b;
  ASSERT_TRUE(live->resilient->PredictNextInto(&a).ok());
  ASSERT_TRUE(restored->resilient->PredictNextInto(&b).ok());
  EXPECT_TRUE(SameBits(a.values, b.values));

  auto seeded = serve::BuildStack(model_, serve::StackOptions{}, *dataset_,
                                  split_->test_begin,
                                  ::testing::TempDir() + "/no_such.state");
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  EXPECT_FALSE(seeded->restored);
  EXPECT_EQ(seeded->online->next_step(), split_->test_begin);
}

// A streaming forecaster that predicts zeros and keeps a heap clone of the
// last sample it was handed, cloned under a heap ArenaScope as
// serve::AdaptivePredictor clones its pending sample.
class SampleCapture : public Forecaster {
 public:
  std::string name() const override { return "SampleCapture"; }
  Status Fit(const data::SlidingWindowDataset&, const data::StepRanges&,
             const TrainConfig&) override {
    return Status::OK();
  }
  Result<std::vector<double>> Predict(const data::SlidingWindowDataset&,
                                      int64_t) override {
    return Status::NotImplemented("SampleCapture only serves samples");
  }
  bool SupportsStreaming() const override { return true; }
  Status PredictSampleInto(const data::WindowSample& sample,
                           std::vector<double>* out) override {
    {
      ArenaScope heap(nullptr);
      last.x = sample.x.Clone();
      last.f = sample.f.Clone();
      last.f_mu = sample.f_mu.Clone();
      last.f_sigma = sample.f_sigma.Clone();
      last.w_next = sample.w_next.Clone();
      last.w_next_mu = sample.w_next_mu.Clone();
      last.w_next_sigma = sample.w_next_sigma.Clone();
      last.target_step = sample.target_step;
    }
    out->assign(sample.x.dim(0), 0.0);
    return Status::OK();
  }

  data::WindowSample last;
};

// The first `count` floats of a and b hold the same bits.
bool SameFloats(const Tensor& a, const Tensor& b, int64_t count) {
  return a.numel() >= count && b.numel() >= count &&
         std::memcmp(a.data(), b.data(), count * sizeof(float)) == 0;
}

// Replays [begin, end) through `predictor` and requires every sample the
// ring fills to equal MakeSample's: the windows and their statistics in
// full, and the Eq. 10 next-step rows of every window but the last (whose
// next step is the unobserved target).
void ExpectRingSamplesMatchDataset(const data::SlidingWindowDataset& dataset,
                                   OnlinePredictor* predictor,
                                   const SampleCapture& capture, int64_t end) {
  for (int64_t step = predictor->next_step(); step < end; ++step) {
    ASSERT_TRUE(predictor->PredictNext().ok());
    const data::WindowSample& ring = capture.last;
    const data::WindowSample batch = dataset.MakeSample(step);
    ASSERT_EQ(ring.target_step, step);
    for (auto [name, a, b] :
         {std::tuple{"x", &ring.x, &batch.x}, {"f", &ring.f, &batch.f},
          {"f_mu", &ring.f_mu, &batch.f_mu},
          {"f_sigma", &ring.f_sigma, &batch.f_sigma}}) {
      ASSERT_EQ(a->shape(), b->shape()) << name << " at step " << step;
      ASSERT_TRUE(SameFloats(*a, *b, b->numel()))
          << name << " differs at step " << step;
    }
    const int64_t observed = (batch.w_next.dim(0) - 1) * batch.w_next.dim(1);
    for (auto [name, a, b] :
         {std::tuple{"w_next", &ring.w_next, &batch.w_next},
          {"w_next_mu", &ring.w_next_mu, &batch.w_next_mu},
          {"w_next_sigma", &ring.w_next_sigma, &batch.w_next_sigma}}) {
      ASSERT_EQ(a->shape(), b->shape()) << name << " at step " << step;
      ASSERT_TRUE(SameFloats(*a, *b, observed))
          << name << " differs at step " << step;
    }
    ASSERT_TRUE(predictor->Observe(StepTruth(dataset, step)).ok());
  }
}

// Prediction parity cannot see the w_next rows (the no-grad forward never
// reads them), yet adaptive micro-fits train on them through the Eq. 10
// degree loss. So compare the samples themselves, over a clean replay and
// across a SaveState/LoadState boundary.
TEST_F(ServeParityTest, RingSamplesMatchDatasetSamplesBitExact) {
  SampleCapture capture;
  auto clean = OnlinePredictor::Create(&capture, *dataset_, split_->test_begin);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ExpectRingSamplesMatchDataset(*dataset_, &*clean, capture, split_->test_end);
  if (HasFatalFailure()) return;

  const std::string state = ::testing::TempDir() + "/capture_serve.state";
  auto live = OnlinePredictor::Create(&capture, *dataset_, split_->test_begin);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ExpectRingSamplesMatchDataset(*dataset_, &*live, capture,
                                split_->test_begin + 50);
  if (HasFatalFailure()) return;
  ASSERT_TRUE(live->SaveState(state).ok());
  auto restored = OnlinePredictor::LoadState(state, &capture);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->next_step(), split_->test_begin + 50);
  ExpectRingSamplesMatchDataset(*dataset_, &*restored, capture,
                                split_->test_end);
}

TEST_F(ServeParityTest, CreateRejectsBadArgumentsAndModels) {
  EXPECT_FALSE(OnlinePredictor::Create(nullptr, *dataset_, split_->test_begin)
                   .ok());
  // Too little history for the first prediction's windows.
  EXPECT_FALSE(OnlinePredictor::Create(model_, *dataset_,
                                       dataset_->MinTargetStep() - 1)
                   .ok());
  // Beyond the series.
  EXPECT_FALSE(OnlinePredictor::Create(model_, *dataset_,
                                       dataset_->series().total_steps() + 1)
                   .ok());
  // Wrong-width observation.
  auto p = OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->Observe({1.0}).ok());
}

}  // namespace
}  // namespace ealgap
