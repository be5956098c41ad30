// Crash-safe resumable training, held to the repo's determinism contract:
// a run killed mid-epoch (by injected train-step or checkpoint-write
// faults) and resumed from its train-state snapshot must produce a final
// checkpoint and test predictions BYTE-IDENTICAL to the uninterrupted run
// — across 1/2/8 pool threads and across SIMD backends. Also covers the
// divergence sentinel: an injected NaN step rolls training back with LR
// backoff (attributed in TrainStats), and exhausting the rollback budget
// fails Fit with an error instead of producing garbage.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ealgap.h"
#include "data/dataset.h"
#include "tensor/kernels.h"
#include "tests/record_test_util.h"

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
      series.counts.data()[r * days * 24 + s] =
          static_cast<float>(std::max(0.0, base * (1.0 + 0.2 * r) + ar));
    }
  }
  return series;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TrainConfig BaseTrain() {
  TrainConfig train;
  train.epochs = 4;
  train.learning_rate = 3e-3f;
  train.seed = 11;
  return train;
}

struct FitOutcome {
  Status status = Status::OK();
  std::string checkpoint_text;     ///< model checkpoint after Fit (if ok)
  std::vector<double> predictions;  ///< 20 test steps, flattened
  TrainStats stats;
};

class TrainResumeTest : public ::testing::Test {
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
  }

  static void TearDownTestSuite() {
    delete split_;
    delete dataset_;
    dataset_ = nullptr;
    split_ = nullptr;
  }

  /// Optimizer steps in one epoch (batch_size 16) — used to aim fault
  /// triggers at a specific epoch.
  static int64_t StepsPerEpoch() {
    const size_t n =
        dataset_->TargetSteps(split_->train_begin, split_->train_end).size();
    return static_cast<int64_t>((n + 15) / 16);
  }

  static FitOutcome RunFit(const TrainConfig& train, const std::string& tag) {
    FitOutcome out;
    core::EalgapForecaster model;
    out.status = model.Fit(*dataset_, *split_, train);
    out.stats = model.train_stats();
    if (!out.status.ok()) return out;
    const std::string path =
        ::testing::TempDir() + "/train_resume_" + tag + ".ckpt";
    EXPECT_TRUE(model.SaveCheckpoint(path).ok());
    out.checkpoint_text = ReadAll(path);
    std::remove(path.c_str());
    for (int64_t step = split_->test_begin; step < split_->test_begin + 20;
         ++step) {
      auto pred = model.Predict(*dataset_, step);
      EXPECT_TRUE(pred.ok());
      out.predictions.insert(out.predictions.end(), pred->begin(),
                             pred->end());
    }
    return out;
  }

  static data::SlidingWindowDataset* dataset_;
  static data::StepRanges* split_;
};

data::SlidingWindowDataset* TrainResumeTest::dataset_ = nullptr;
data::StepRanges* TrainResumeTest::split_ = nullptr;

/// Interrupt training mid-epoch-3 via an injected hard step fault (with
/// per-epoch train-state checkpoints on), then resume. Interrupt and
/// resume may run at different thread counts than the clean reference; the
/// final model checkpoint and predictions must be byte-identical anyway.
TEST_F(TrainResumeTest, MidEpochKillThenResumeIsBitIdentical) {
  const int saved_threads = GetNumThreads();
  fault::ScopedFaults off("");

  SetNumThreads(1);
  const FitOutcome clean = RunFit(BaseTrain(), "clean");
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  ASSERT_FALSE(clean.checkpoint_text.empty());
  EXPECT_EQ(clean.stats.resumed_epoch, -1);
  EXPECT_EQ(clean.stats.rollbacks, 0);

  const std::string state =
      ::testing::TempDir() + "/train_resume_state.train";
  std::remove(state.c_str());
  TrainConfig ckpt_train = BaseTrain();
  ckpt_train.checkpoint_path = state;
  ckpt_train.checkpoint_every = 1;

  // Kill inside epoch 3 (0-based epoch 2): epochs 0 and 1 complete and are
  // checkpointed, epoch 2's partial work is lost.
  {
    SetNumThreads(2);
    std::ostringstream spec;
    spec << "train.step.error:every=1:after=" << (2 * StepsPerEpoch() + 2)
         << ":max=1";
    fault::ScopedFaults kill(spec.str());
    FitOutcome interrupted = RunFit(ckpt_train, "interrupted");
    ASSERT_FALSE(interrupted.status.ok())
        << "the injected step fault must abort training";
    EXPECT_NE(interrupted.status.message().find("injected train step"),
              std::string::npos)
        << interrupted.status.ToString();
  }
  ASSERT_TRUE(std::ifstream(state).good())
      << "no train-state checkpoint survived the kill";

  SetNumThreads(8);
  TrainConfig resume_train = ckpt_train;
  resume_train.resume = true;
  const FitOutcome resumed = RunFit(resume_train, "resumed");
  SetNumThreads(saved_threads);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();

  EXPECT_EQ(resumed.stats.resumed_epoch, 2)
      << "resume should continue from the epoch-2 boundary";
  EXPECT_EQ(resumed.checkpoint_text, clean.checkpoint_text)
      << "resumed weights diverged from the uninterrupted run";
  EXPECT_EQ(resumed.predictions, clean.predictions)
      << "resumed predictions diverged from the uninterrupted run";
  std::remove(state.c_str());
}

/// Same contract across SIMD backends: interrupt + resume under the forced
/// scalar backend must still reproduce the native run byte-for-byte.
TEST_F(TrainResumeTest, ResumeUnderScalarSimdMatchesNativeBackend) {
  const kernels::Backend native = kernels::ActiveBackend();
  if (native == kernels::Backend::kScalar) {
    GTEST_SKIP() << "already running the scalar backend";
  }
  const int saved_threads = GetNumThreads();
  fault::ScopedFaults off("");
  SetNumThreads(2);

  const FitOutcome clean = RunFit(BaseTrain(), "simd_clean");
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();

  const std::string state = ::testing::TempDir() + "/train_resume_simd.train";
  std::remove(state.c_str());
  TrainConfig ckpt_train = BaseTrain();
  ckpt_train.checkpoint_path = state;
  ckpt_train.checkpoint_every = 1;

  kernels::SetBackendForTesting(kernels::Backend::kScalar);
  {
    std::ostringstream spec;
    spec << "train.step.error:every=1:after=" << (StepsPerEpoch() + 2)
         << ":max=1";
    fault::ScopedFaults kill(spec.str());
    FitOutcome interrupted = RunFit(ckpt_train, "simd_interrupted");
    ASSERT_FALSE(interrupted.status.ok());
  }
  TrainConfig resume_train = ckpt_train;
  resume_train.resume = true;
  const FitOutcome resumed = RunFit(resume_train, "simd_resumed");
  kernels::SetBackendForTesting(native);
  SetNumThreads(saved_threads);

  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.stats.resumed_epoch, 1);
  EXPECT_EQ(resumed.checkpoint_text, clean.checkpoint_text)
      << "scalar-backend resume diverged from the native clean run";
  EXPECT_EQ(resumed.predictions, clean.predictions);
  std::remove(state.c_str());
}

/// A crash while WRITING the train state must not destroy resumability:
/// WriteFileAtomic leaves the previous snapshot intact, and resuming from
/// it still converges to the uninterrupted result.
TEST_F(TrainResumeTest, CheckpointWriteCrashLeavesPreviousStateResumable) {
  const int saved_threads = GetNumThreads();
  SetNumThreads(1);
  fault::ScopedFaults off("");
  const FitOutcome clean = RunFit(BaseTrain(), "wcrash_clean");
  ASSERT_TRUE(clean.status.ok());

  const std::string state =
      ::testing::TempDir() + "/train_resume_wcrash.train";
  std::remove(state.c_str());
  TrainConfig ckpt_train = BaseTrain();
  ckpt_train.checkpoint_path = state;
  ckpt_train.checkpoint_every = 1;
  {
    // Call 1 (epoch-0 snapshot) succeeds; calls 2-4 — all three atomic
    // write attempts of the epoch-1 snapshot — crash mid-file. Fit fails.
    fault::ScopedFaults faults("io.write.partial:every=1:after=1");
    FitOutcome interrupted = RunFit(ckpt_train, "wcrash_interrupted");
    ASSERT_FALSE(interrupted.status.ok());
    EXPECT_EQ(interrupted.status.code(), StatusCode::kIoError);
  }
  // The epoch-0 snapshot survived the torn writes bit-intact.
  ASSERT_TRUE(std::ifstream(state).good());

  TrainConfig resume_train = ckpt_train;
  resume_train.resume = true;
  const FitOutcome resumed = RunFit(resume_train, "wcrash_resumed");
  SetNumThreads(saved_threads);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.stats.resumed_epoch, 1);
  EXPECT_EQ(resumed.checkpoint_text, clean.checkpoint_text);
  EXPECT_EQ(resumed.predictions, clean.predictions);
  std::remove(state.c_str());
}

/// The divergence sentinel: one injected NaN loss rolls the epoch back to
/// the last good boundary, halves the learning rate, and attributes the
/// event in TrainStats — while training still completes.
TEST_F(TrainResumeTest, NanStepRollsBackWithLrBackoffAttributed) {
  const int saved_threads = GetNumThreads();
  SetNumThreads(1);
  std::ostringstream spec;
  spec << "train.step.nan:every=1:after=" << (StepsPerEpoch() + 1) << ":max=1";
  fault::ScopedFaults faults(spec.str());
  const FitOutcome out = RunFit(BaseTrain(), "nan_rollback");
  SetNumThreads(saved_threads);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();

  EXPECT_EQ(out.stats.rollbacks, 1);
  EXPECT_EQ(out.stats.retries, 1);
  EXPECT_GE(out.stats.skipped_steps, 1);
  EXPECT_EQ(out.stats.epochs_completed, 4);
  // One rollback: lr = 3e-3 * 0.5 (the default rollback_lr_backoff).
  EXPECT_FLOAT_EQ(out.stats.final_lr, 3e-3f * 0.5f);
  for (double v : out.predictions) EXPECT_TRUE(std::isfinite(v));
}

/// Exhausting the rollback budget is a hard, attributed failure — not an
/// endless retry loop, and not a silently garbage model.
TEST_F(TrainResumeTest, ExhaustedRollbackBudgetFailsWithAttribution) {
  const int saved_threads = GetNumThreads();
  SetNumThreads(1);
  fault::ScopedFaults faults("train.step.nan:every=1");  // every step is NaN
  TrainConfig train = BaseTrain();
  train.max_rollbacks = 2;
  const FitOutcome out = RunFit(train, "exhausted");
  SetNumThreads(saved_threads);

  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kInternal);
  EXPECT_NE(out.status.message().find("exhausting"), std::string::npos)
      << out.status.ToString();
  EXPECT_NE(out.status.message().find("non-finite training loss"),
            std::string::npos)
      << out.status.ToString();
  EXPECT_EQ(out.stats.rollbacks, 3);  // max_rollbacks + the fatal one
}

/// Resuming a run whose train state is corrupt must fail loudly (never a
/// silent restart), and the error names the corrupted section. One changed
/// byte in the loop fields (epoch, lr) is caught like one in the weights.
TEST_F(TrainResumeTest, CorruptTrainStateIsRejectedOnResume) {
  const int saved_threads = GetNumThreads();
  SetNumThreads(1);
  fault::ScopedFaults off("");
  const std::string state =
      ::testing::TempDir() + "/train_resume_corrupt.train";
  std::remove(state.c_str());
  TrainConfig ckpt_train = BaseTrain();
  ckpt_train.epochs = 1;
  ckpt_train.checkpoint_path = state;
  ckpt_train.checkpoint_every = 1;
  ASSERT_TRUE(RunFit(ckpt_train, "corrupt_seed").status.ok());
  const std::string pristine = ReadAll(state);

  struct Corruption {
    const char* section;
    size_t offset;  ///< byte within the section payload
    const char* what;
  };
  // loop = epoch (i64), lr (f32), ...
  for (const Corruption& c : {Corruption{"loop", 0, "epoch"},
                              Corruption{"loop", 8, "lr"},
                              Corruption{"params", 64, "a weight"}}) {
    std::string bytes = pristine;
    const size_t payload = testing_record::PayloadOffset(bytes, c.section);
    ASSERT_NE(payload, std::string::npos) << c.section;
    bytes[payload + c.offset] ^= 0x01;
    std::ofstream(state, std::ios::binary) << bytes;

    TrainConfig resume_train = ckpt_train;
    resume_train.epochs = 2;
    resume_train.resume = true;
    const FitOutcome resumed = RunFit(resume_train, "corrupt_resume");
    ASSERT_FALSE(resumed.status.ok()) << "changed " << c.what << " accepted";
    EXPECT_NE(resumed.status.message().find(std::string("section '") +
                                            c.section + "' CRC mismatch"),
              std::string::npos)
        << c.what << ": " << resumed.status.ToString();
  }
  SetNumThreads(saved_threads);
  std::remove(state.c_str());
}

}  // namespace
}  // namespace ealgap
