// Fault-tolerant serving, exercised end to end through the deterministic
// fault-injection harness (common/fault_injection.h):
//
//  * harness semantics — every=/after=/max=/p=/seed= clauses, determinism,
//    ScopedFaults save/restore, malformed-spec rejection;
//  * atomic checkpointing — WriteFileAtomic survives transient failures,
//    an injected crash mid-save leaves the previous file bit-identical,
//    and CRC32 catches single-character corruption that structural
//    parsing would accept;
//  * input guards — reject / hold-last / impute repair policies, per-region
//    quarantine counters, and ObserveAt gap handling;
//  * the degradation chain — model NaN / error / deadline faults fall back
//    to matched-mean with hysteresis recovery, every degraded step is
//    attributed to a cause, and the full fault-armed test replay stays
//    bit-identical to the clean run on every non-degraded step.
//
// Every test pins its own fault configuration with ScopedFaults (possibly
// the empty spec), so this binary is also safe to run with an ambient
// EALGAP_FAULTS — which the CI fault stage does to exercise env arming.

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "core/ealgap.h"
#include "core/experiment.h"
#include "data/dataset.h"
#include "serve/online_predictor.h"
#include "serve/resilient_predictor.h"
#include "tests/record_test_util.h"

namespace ealgap {
namespace {

using serve::DegradeCause;
using serve::FallbackLevel;
using serve::GuardPolicy;
using serve::OnlinePredictor;
using serve::RepairPolicy;
using serve::ResilienceOptions;
using serve::ResilientPredictor;

// --- harness semantics -------------------------------------------------------

TEST(FaultHarnessTest, DisarmedSitesNeverFire) {
  fault::ScopedFaults off("");
  EXPECT_FALSE(fault::Armed());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(EALGAP_FAULT("test.some"));
  }
}

TEST(FaultHarnessTest, EveryClauseFiresPeriodically) {
  fault::ScopedFaults faults("test.a:every=3");
  std::vector<bool> pattern;
  for (int i = 0; i < 9; ++i) pattern.push_back(fault::ShouldFail("test.a"));
  const std::vector<bool> want = {false, false, true,  false, false,
                                  true,  false, false, true};
  EXPECT_EQ(pattern, want);
  const auto snap = fault::Snapshot();
  ASSERT_EQ(snap.count("test.a"), 1u);
  EXPECT_EQ(snap.at("test.a").calls, 9);
  EXPECT_EQ(snap.at("test.a").fires, 3);
  // Unarmed sites never fire and are not tracked.
  EXPECT_FALSE(fault::ShouldFail("test.unarmed"));
  EXPECT_EQ(fault::Snapshot().count("test.unarmed"), 0u);
}

TEST(FaultHarnessTest, AfterAndMaxBoundTheFireWindow) {
  // Skip the first 2 calls, then fire every call, at most 3 times.
  fault::ScopedFaults faults("test.t:every=1:after=2:max=3");
  std::vector<bool> pattern;
  for (int i = 0; i < 8; ++i) pattern.push_back(fault::ShouldFail("test.t"));
  const std::vector<bool> want = {false, false, true, true,
                                  true,  false, false, false};
  EXPECT_EQ(pattern, want);
}

TEST(FaultHarnessTest, ProbabilisticSitesAreDeterministicGivenSeed) {
  auto run = [] {
    std::vector<bool> p;
    for (int i = 0; i < 64; ++i) p.push_back(fault::ShouldFail("test.p"));
    return p;
  };
  fault::ScopedFaults a("test.p:p=0.4:seed=99");
  const std::vector<bool> first = run();
  int fires = 0;
  for (bool b : first) fires += b ? 1 : 0;
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64);
  {
    // Re-arming the identical spec replays the identical fire pattern.
    fault::ScopedFaults b("test.p:p=0.4:seed=99");
    EXPECT_EQ(run(), first);
  }
  {
    // A different seed draws a different stream.
    fault::ScopedFaults c("test.p:p=0.4:seed=100");
    EXPECT_NE(run(), first);
  }
}

TEST(FaultHarnessTest, ParamReadsSiteOptionsWithDefaults) {
  fault::ScopedFaults faults("test.d:every=1:ms=7.5");
  EXPECT_DOUBLE_EQ(fault::Param("test.d", "ms", 50.0), 7.5);
  EXPECT_DOUBLE_EQ(fault::Param("test.d", "other", 3.0), 3.0);
  EXPECT_DOUBLE_EQ(fault::Param("test.unknown", "ms", 50.0), 50.0);
}

TEST(FaultHarnessTest, MaybeDelaySleepsForTheConfiguredTime) {
  fault::ScopedFaults faults("test.sleep:every=2:ms=30");
  EXPECT_FALSE(fault::MaybeDelay("test.sleep"));  // call 1: no fire, no sleep
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(fault::MaybeDelay("test.sleep"));  // call 2 fires
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_GE(ms, 29.0);  // sleep_for guarantees at least the duration
}

TEST(FaultHarnessTest, MalformedSpecsAreRejectedWithoutDisarming) {
  fault::ScopedFaults guard("test.good:every=2");
  for (const char* bad :
       {":every=1",              // missing site name
        "test.x:novalue",        // option without '='
        "test.x:p=nope",         // non-numeric value
        "test.x:p=1.5"}) {       // probability out of range
    Status st = fault::ArmFromSpec(bad);
    EXPECT_FALSE(st.ok()) << bad;
    EXPECT_EQ(st.code(), StatusCode::kParseError) << bad;
  }
  // The previous configuration survived every rejected spec.
  EXPECT_TRUE(fault::Armed());
  EXPECT_FALSE(fault::ShouldFail("test.good"));
  EXPECT_TRUE(fault::ShouldFail("test.good"));
}

TEST(FaultHarnessTest, UnknownSiteIsRejectedNamingTheBadToken) {
  // Restores any ambient (env-derived) arming after the raw ArmFromSpec
  // calls below — EnvVarArmsTheHarness runs later in this binary.
  fault::ScopedFaults guard("");
  // A typo'd site, or one whose code was removed (a stale EALGAP_FAULTS
  // spec), must fail loudly at arm time, not silently never fire.
  for (const std::string site : {"nn.predct.nan", "nn.quant.drift"}) {
    Status st = fault::ArmFromSpec(site + ":every=3");
    ASSERT_FALSE(st.ok()) << site;
    EXPECT_EQ(st.code(), StatusCode::kParseError);
    EXPECT_NE(st.message().find(site), std::string::npos) << st.ToString();
    EXPECT_NE(st.message().find("unknown fault site"), std::string::npos)
        << st.ToString();
  }
  // Production sites and the reserved test.* namespace both arm cleanly.
  EXPECT_TRUE(fault::ArmFromSpec("io.write.fail:every=2").ok());
  EXPECT_TRUE(fault::ArmFromSpec("test.anything.goes:every=2").ok());
}

TEST(FaultHarnessTest, UnknownOptionKeyIsRejectedNamingTheBadToken) {
  fault::ScopedFaults guard("");
  Status st = fault::ArmFromSpec("test.x:evry=3");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("evry"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("unknown fault option key"), std::string::npos)
      << st.ToString();
}

TEST(FaultHarnessTest, MsOptionRejectedOnNonDelaySitesNamingTheSite) {
  fault::ScopedFaults guard("");
  // ms= configures a stall; on a hard-fault site it would silently mean
  // nothing. Rejected at arm time, naming the offending site.
  Status st = fault::ArmFromSpec("serve.adapt.nan:every=3:ms=40");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("serve.adapt.nan"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("ms="), std::string::npos) << st.ToString();
  // Delay sites and the free-form test.* namespace still accept it.
  EXPECT_TRUE(fault::ArmFromSpec("serve.adapt.delay:every=3:ms=40").ok());
  EXPECT_TRUE(fault::ArmFromSpec("nn.predict.delay:every=3:ms=40").ok());
  EXPECT_TRUE(fault::ArmFromSpec("test.x:every=3:ms=40").ok());
}

TEST(FaultHarnessTest, ScopedFaultsRestoresOuterConfiguration) {
  fault::ScopedFaults outer("test.outer:every=1");
  {
    fault::ScopedFaults inner("test.inner:every=1");
    EXPECT_TRUE(fault::ShouldFail("test.inner"));
    EXPECT_FALSE(fault::ShouldFail("test.outer"));
  }
  EXPECT_TRUE(fault::ShouldFail("test.outer"));
  EXPECT_FALSE(fault::ShouldFail("test.inner"));
}

TEST(FaultHarnessTest, EnvVarArmsTheHarness) {
  // The CI fault stage runs this binary with EALGAP_FAULTS set; the env
  // spec must arm the registry (and survive every ScopedFaults restore).
  const char* env = std::getenv("EALGAP_FAULTS");
  if (env == nullptr || env[0] == '\0') {
    GTEST_SKIP() << "EALGAP_FAULTS not set";
  }
  EXPECT_TRUE(fault::Armed());
}

// --- CRC32 -------------------------------------------------------------------

TEST(ChecksumTest, MatchesTheStandardCheckValue) {
  // The canonical CRC-32 check vector.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(ChecksumTest, IncrementalEqualsOneShotAndHexIsFixedWidth) {
  const uint32_t once = Crc32("hello world\n");
  uint32_t inc = Crc32("hello ");
  inc = Crc32(std::string_view("world\n"), inc);
  EXPECT_EQ(inc, once);
  EXPECT_EQ(Crc32Hex(0x0009abcdu), "0009abcd");
}

// --- atomic file writes ------------------------------------------------------

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(AtomicWriteTest, WritesAndReplacesContent) {
  fault::ScopedFaults off("");
  const std::string path = ::testing::TempDir() + "/aw_basic.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "v1\n").ok());
  auto r = ReadFileToString(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "v1\n");
  ASSERT_TRUE(WriteFileAtomic(path, "v2, rather longer\n").ok());
  EXPECT_EQ(ReadAll(path), "v2, rather longer\n");
  EXPECT_FALSE(ReadFileToString(::testing::TempDir() + "/aw_missing").ok());
}

TEST(AtomicWriteTest, TransientFailuresAreRetried) {
  const std::string path = ::testing::TempDir() + "/aw_retry.txt";
  // Two failures, three attempts: the third succeeds.
  fault::ScopedFaults faults("io.write.fail:every=1:max=2");
  ASSERT_TRUE(WriteFileAtomic(path, "payload\n").ok());
  EXPECT_EQ(ReadAll(path), "payload\n");
  const auto snap = fault::Snapshot();
  ASSERT_EQ(snap.count("io.write.fail"), 1u);
  EXPECT_EQ(snap.at("io.write.fail").fires, 2);
}

TEST(AtomicWriteTest, ExhaustedRetriesLeaveThePreviousFileUntouched) {
  const std::string path = ::testing::TempDir() + "/aw_crash.txt";
  {
    fault::ScopedFaults off("");
    ASSERT_TRUE(WriteFileAtomic(path, "good v1\n").ok());
  }
  // Every attempt crashes halfway through the temp file.
  fault::ScopedFaults faults("io.write.partial:every=1");
  const Status st = WriteFileAtomic(path, "new version that never lands\n");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(ReadAll(path), "good v1\n");
  // Failed attempts clean up their temp file.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  EXPECT_FALSE(std::ifstream(tmp).good());
}

// --- fitted-model fixture ----------------------------------------------------

// Daily structure + AR noise, same recipe as serve_parity_test: enough
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

// One fitted EALGAP shared by every test (training is the expensive part).
class FaultServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fault::ScopedFaults off("");  // never train under ambient faults
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

  static OnlinePredictor NewPredictor() {
    auto p = OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return std::move(p).value();
  }

  static data::SlidingWindowDataset* dataset_;
  static data::StepRanges* split_;
  static core::EalgapForecaster* model_;
};

data::SlidingWindowDataset* FaultServeTest::dataset_ = nullptr;
data::StepRanges* FaultServeTest::split_ = nullptr;
core::EalgapForecaster* FaultServeTest::model_ = nullptr;

// --- crash-consistent checkpoints --------------------------------------------

TEST_F(FaultServeTest, CheckpointSurvivesInjectedCrashMidSave) {
  const std::string ckpt = ::testing::TempDir() + "/fi_model.ckpt";
  {
    fault::ScopedFaults off("");
    ASSERT_TRUE(model_->SaveCheckpoint(ckpt).ok());
  }
  const std::string before = ReadAll(ckpt);
  ASSERT_FALSE(before.empty());
  {
    // The save crashes halfway through writing, on every retry.
    fault::ScopedFaults faults("io.write.partial:every=1");
    EXPECT_FALSE(model_->SaveCheckpoint(ckpt).ok());
  }
  // The previous checkpoint is bit-identical on disk and still loads.
  EXPECT_EQ(ReadAll(ckpt), before);
  fault::ScopedFaults off("");
  auto loaded = core::LoadForecasterFromCheckpoint(ckpt);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto a = model_->Predict(*dataset_, split_->test_begin);
  auto b = (*loaded)->Predict(*dataset_, split_->test_begin);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(FaultServeTest, ServeStateSurvivesInjectedCrashMidSave) {
  fault::ScopedFaults off("");
  const std::string path = ::testing::TempDir() + "/fi_serve.state";
  auto predictor = NewPredictor();
  const int64_t saved_at = split_->test_begin + 30;
  for (int64_t step = split_->test_begin; step < saved_at; ++step) {
    ASSERT_TRUE(predictor.Observe(StepTruth(*dataset_, step)).ok());
  }
  ASSERT_TRUE(predictor.SaveState(path).ok());
  const std::string before = ReadAll(path);

  // Advance the stream, then crash while persisting the newer state.
  for (int64_t step = saved_at; step < saved_at + 10; ++step) {
    ASSERT_TRUE(predictor.Observe(StepTruth(*dataset_, step)).ok());
  }
  {
    fault::ScopedFaults faults("io.write.partial:every=1");
    EXPECT_FALSE(predictor.SaveState(path).ok());
  }
  EXPECT_EQ(ReadAll(path), before);

  // The surviving file restores the pre-crash stream position and stays
  // bit-identical with the batch pipeline.
  auto restored = OnlinePredictor::LoadState(path, model_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->next_step(), saved_at);
  auto streaming = restored->PredictNext();
  auto batch = model_->Predict(*dataset_, saved_at);
  ASSERT_TRUE(streaming.ok() && batch.ok());
  EXPECT_EQ(*streaming, *batch);
}

// Flips one bit in the payload of the record section `name`: the framing
// stays intact, so only that section's CRC can catch the corruption.
// Returns false if the section is absent.
bool FlipBitInSection(std::string* bytes, const std::string& name) {
  const size_t payload = testing_record::PayloadOffset(*bytes, name);
  if (payload == std::string::npos || payload + 2 >= bytes->size()) {
    return false;
  }
  (*bytes)[payload + 2] ^= 0x10;
  return true;
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

TEST_F(FaultServeTest, ChecksumCatchesBitFlipInCheckpointParams) {
  fault::ScopedFaults off("");
  const std::string good = ::testing::TempDir() + "/fi_crc_model.ckpt";
  ASSERT_TRUE(model_->SaveCheckpoint(good).ok());
  std::string bytes = ReadAll(good);
  ASSERT_TRUE(FlipBitInSection(&bytes, "params"));

  const std::string bad = ::testing::TempDir() + "/fi_crc_model_bad.ckpt";
  WriteAll(bad, bytes);
  auto r = core::LoadForecasterFromCheckpoint(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("section 'params' CRC mismatch"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(FaultServeTest, ChecksumCatchesBitFlipInServeStateBody) {
  fault::ScopedFaults off("");
  const std::string good = ::testing::TempDir() + "/fi_crc_serve.state";
  auto predictor = NewPredictor();
  ASSERT_TRUE(predictor.SaveState(good).ok());
  std::string bytes = ReadAll(good);
  ASSERT_TRUE(FlipBitInSection(&bytes, "ring"));

  const std::string bad = ::testing::TempDir() + "/fi_crc_serve_bad.state";
  WriteAll(bad, bytes);
  auto r = OnlinePredictor::LoadState(bad, model_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("section 'ring' CRC mismatch"),
            std::string::npos)
      << r.status().ToString();
}

// --- input guards ------------------------------------------------------------

TEST_F(FaultServeTest, RejectPolicyRefusesPoisonedRowsWithoutStateChange) {
  fault::ScopedFaults off("");
  auto predictor = NewPredictor();  // default policy: reject everything
  const int64_t step0 = predictor.next_step();
  auto baseline = predictor.PredictNext();
  ASSERT_TRUE(baseline.ok());

  const std::vector<double> clean = StepTruth(*dataset_, step0);
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         -3.0,
                         1e300};  // overflows float -> inf
  for (double v : kBad) {
    std::vector<double> row = clean;
    row[1] = v;
    Status st = predictor.Observe(row);
    EXPECT_FALSE(st.ok()) << "accepted " << v;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  // Wrong-length rows are always rejected (nothing to repair).
  EXPECT_FALSE(
      predictor.Observe(std::vector<double>(clean.size() + 1, 1.0)).ok());

  EXPECT_EQ(predictor.guard_stats().rejected_observations, 6);
  EXPECT_EQ(predictor.guard_stats().repaired_values, 0);
  EXPECT_EQ(predictor.next_step(), step0);  // state unchanged
  auto again = predictor.PredictNext();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *baseline);  // rejected rows left no trace
  EXPECT_TRUE(predictor.Observe(clean).ok());
}

TEST_F(FaultServeTest, HoldLastRepairsAndQuarantines) {
  fault::ScopedFaults off("");
  auto predictor = NewPredictor();
  GuardPolicy policy;
  policy.on_bad_value = RepairPolicy::kHoldLast;
  predictor.SetGuardPolicy(policy);

  const double held = predictor.LastObserved()[2];
  std::vector<double> row = StepTruth(*dataset_, predictor.next_step());
  row[2] = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(predictor.Observe(row).ok());

  // The poisoned region re-served its previous value; others took truth.
  EXPECT_EQ(predictor.LastObserved()[2], held);
  EXPECT_EQ(predictor.LastObserved()[0], row[0]);
  const auto& stats = predictor.guard_stats();
  EXPECT_EQ(stats.repaired_values, 1);
  EXPECT_EQ(stats.repaired_steps, 1);
  EXPECT_EQ(stats.rejected_observations, 0);
  ASSERT_EQ(stats.quarantine.size(), static_cast<size_t>(4));
  EXPECT_EQ(stats.quarantine[2], 1);
  EXPECT_EQ(stats.quarantine[0], 0);

  // A second bad step keeps the per-region counter honest.
  row = StepTruth(*dataset_, predictor.next_step());
  row[2] = -1.0;
  ASSERT_TRUE(predictor.Observe(row).ok());
  EXPECT_EQ(predictor.guard_stats().quarantine[2], 2);

  auto pred = predictor.PredictNext();
  ASSERT_TRUE(pred.ok());
  for (double v : *pred) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(FaultServeTest, ImputeRepairsWithTheMatchedSlotMean) {
  fault::ScopedFaults off("");
  auto predictor = NewPredictor();
  GuardPolicy policy;
  policy.on_bad_value = RepairPolicy::kImpute;
  predictor.SetGuardPolicy(policy);

  // The repair value is the matched same-slot mean for the incoming step —
  // exactly what MatchedMeanNext() reports before the observation.
  const double expected = predictor.MatchedMeanNext()[1];
  std::vector<double> row = StepTruth(*dataset_, predictor.next_step());
  row[1] = -5.0;
  ASSERT_TRUE(predictor.Observe(row).ok());
  EXPECT_EQ(predictor.LastObserved()[1], expected);
  EXPECT_EQ(predictor.guard_stats().quarantine[1], 1);
}

TEST_F(FaultServeTest, ObserveAtHandlesStaleGapsAndBounds) {
  fault::ScopedFaults off("");
  auto predictor = NewPredictor();
  const int64_t begin = predictor.next_step();

  // Default gap policy rejects; stale observations always reject.
  Status gap = predictor.ObserveAt(begin + 3, StepTruth(*dataset_, begin + 3));
  EXPECT_FALSE(gap.ok());
  EXPECT_EQ(gap.code(), StatusCode::kFailedPrecondition);
  Status stale = predictor.ObserveAt(begin - 1, StepTruth(*dataset_, begin - 1));
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(predictor.next_step(), begin);

  // In-order ObserveAt is a plain Observe.
  ASSERT_TRUE(predictor.ObserveAt(begin, StepTruth(*dataset_, begin)).ok());
  EXPECT_EQ(predictor.next_step(), begin + 1);

  // With an impute gap policy, the missing steps are synthesized.
  GuardPolicy policy;
  policy.on_gap = RepairPolicy::kImpute;
  predictor.SetGuardPolicy(policy);
  ASSERT_TRUE(
      predictor.ObserveAt(begin + 5, StepTruth(*dataset_, begin + 5)).ok());
  EXPECT_EQ(predictor.next_step(), begin + 6);
  EXPECT_EQ(predictor.guard_stats().gap_steps_filled, 4);
  auto pred = predictor.PredictNext();
  ASSERT_TRUE(pred.ok());
  for (double v : *pred) EXPECT_TRUE(std::isfinite(v));

  // Gaps beyond max_gap_steps reject regardless of the repair policy.
  const int64_t far = predictor.next_step() + policy.max_gap_steps + 1;
  Status outage = predictor.ObserveAt(far, std::vector<double>(4, 1.0));
  EXPECT_FALSE(outage.ok());
  EXPECT_EQ(outage.code(), StatusCode::kFailedPrecondition);
}

TEST_F(FaultServeTest, FallbackAccessorsAreFiniteAndTrackTheStream) {
  fault::ScopedFaults off("");
  auto predictor = NewPredictor();
  const int64_t begin = predictor.next_step();
  for (int64_t step = begin; step < begin + 10; ++step) {
    ASSERT_TRUE(predictor.Observe(StepTruth(*dataset_, step)).ok());
  }
  const int64_t l = dataset_->options().history_length;
  const std::vector<double> last = predictor.LastObserved();
  const std::vector<double> recent = predictor.RecentMeanNext();
  const std::vector<double> matched = predictor.MatchedMeanNext();
  for (int r = 0; r < predictor.num_regions(); ++r) {
    EXPECT_EQ(last[r], StepTruth(*dataset_, begin + 9)[r]);
    double sum = 0.0;
    for (int64_t s = begin + 10 - l; s < begin + 10; ++s) {
      sum += static_cast<double>(dataset_->StepCounts(s)[r]);
    }
    EXPECT_NEAR(recent[r], sum / static_cast<double>(l),
                1e-9 * (1.0 + recent[r]));
    EXPECT_TRUE(std::isfinite(matched[r]));
    EXPECT_GE(matched[r], 0.0);
  }
}

// --- degradation chain -------------------------------------------------------

TEST_F(FaultServeTest, NonFiniteModelOutputDegradesAndRecovers) {
  const int64_t begin = split_->test_begin;
  const int kSteps = 12;

  // Clean reference replay.
  std::vector<std::vector<double>> base;
  {
    fault::ScopedFaults off("");
    auto clean = NewPredictor();
    for (int k = 0; k < kSteps; ++k) {
      auto pred = clean.PredictNext();
      ASSERT_TRUE(pred.ok());
      base.push_back(std::move(pred).value());
      ASSERT_TRUE(clean.Observe(StepTruth(*dataset_, begin + k)).ok());
    }
  }

  auto inner = NewPredictor();
  ResilienceOptions options;
  options.recovery_successes = 2;
  ResilientPredictor resilient(&inner, options);
  // One PredictSample per step: the NaN poisons steps 4 and 9 (0-based).
  fault::ScopedFaults faults("nn.predict.nan:every=5");
  for (int k = 0; k < kSteps; ++k) {
    auto served = resilient.PredictNext();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    for (double v : served->values) ASSERT_TRUE(std::isfinite(v));
    if (k == 4 || k == 9) {
      EXPECT_EQ(served->cause, DegradeCause::kNonFinite) << "step " << k;
      EXPECT_EQ(served->source, FallbackLevel::kMatchedMean) << "step " << k;
      EXPECT_EQ(served->values, inner.MatchedMeanNext()) << "step " << k;
    } else if (k == 5 || k == 10) {
      // First healthy probe after a failure: hysteresis (2) not yet met.
      EXPECT_EQ(served->cause, DegradeCause::kProbation) << "step " << k;
      EXPECT_NE(served->source, FallbackLevel::kFullModel) << "step " << k;
    } else {
      // Healthy chain, including the promotion step itself: the served
      // values are the model's, bit-identical to the clean run.
      EXPECT_EQ(served->cause, DegradeCause::kNone) << "step " << k;
      EXPECT_EQ(served->source, FallbackLevel::kFullModel) << "step " << k;
      EXPECT_EQ(served->values, base[k]) << "step " << k;
    }
    ASSERT_TRUE(resilient.Observe(StepTruth(*dataset_, begin + k)).ok());
  }

  const auto& state = resilient.degradation();
  EXPECT_EQ(state.total_steps, kSteps);
  EXPECT_EQ(state.degraded_steps, 4);
  EXPECT_EQ(state.by_cause[static_cast<int>(DegradeCause::kNonFinite)], 2);
  EXPECT_EQ(state.by_cause[static_cast<int>(DegradeCause::kProbation)], 2);
  EXPECT_EQ(state.by_level[static_cast<int>(FallbackLevel::kMatchedMean)], 4);
  EXPECT_FALSE(state.degraded());  // recovered by the end
}

TEST_F(FaultServeTest, ModelErrorsAreAbsorbedByTheChain) {
  const int64_t begin = split_->test_begin;
  auto inner = NewPredictor();
  ResilienceOptions options;
  options.recovery_successes = 1;  // recover on the first healthy probe
  ResilientPredictor resilient(&inner, options);
  fault::ScopedFaults faults("nn.predict.error:every=4:max=1");
  for (int k = 0; k < 8; ++k) {
    auto served = resilient.PredictNext();
    ASSERT_TRUE(served.ok()) << "a model error leaked through the chain";
    if (k == 3) {
      EXPECT_EQ(served->cause, DegradeCause::kModelError);
      EXPECT_EQ(served->source, FallbackLevel::kMatchedMean);
    } else {
      EXPECT_EQ(served->cause, DegradeCause::kNone) << "step " << k;
    }
    ASSERT_TRUE(resilient.Observe(StepTruth(*dataset_, begin + k)).ok());
  }
  const auto& state = resilient.degradation();
  EXPECT_EQ(state.degraded_steps, 1);
  EXPECT_EQ(state.by_cause[static_cast<int>(DegradeCause::kModelError)], 1);
  EXPECT_EQ(state.by_cause[static_cast<int>(DegradeCause::kProbation)], 0);
}

TEST_F(FaultServeTest, DeadlineOverrunsDegrade) {
  const int64_t begin = split_->test_begin;
  auto inner = NewPredictor();
  ResilienceOptions options;
  // Generous margins so sanitizer builds do not trip the deadline on
  // healthy forwards: the injected delay is 4x the deadline.
  options.deadline_ms = 100.0;
  options.recovery_successes = 1;
  ResilientPredictor resilient(&inner, options);
  fault::ScopedFaults faults("nn.predict.delay:every=3:max=1:ms=400");
  for (int k = 0; k < 5; ++k) {
    auto served = resilient.PredictNext();
    ASSERT_TRUE(served.ok());
    if (k == 2) {
      EXPECT_EQ(served->cause, DegradeCause::kDeadline);
      EXPECT_GE(served->model_latency_ms, 390.0);
    } else {
      EXPECT_EQ(served->cause, DegradeCause::kNone) << "step " << k;
    }
    ASSERT_TRUE(resilient.Observe(StepTruth(*dataset_, begin + k)).ok());
  }
  EXPECT_EQ(resilient.degradation()
                .by_cause[static_cast<int>(DegradeCause::kDeadline)],
            1);
}

// --- the acceptance replay ---------------------------------------------------

// The full test range (240 steps) with mixed model faults armed: the
// replay must finish with zero crashes, every degraded step attributed to
// a cause, and every non-degraded step bit-identical to the no-fault run.
TEST_F(FaultServeTest, FaultArmedFullReplayIsAttributedAndBitIdentical) {
  const int64_t begin = split_->test_begin;
  const int64_t end = split_->test_end;
  ASSERT_GE(end - begin, 240);

  std::vector<std::vector<double>> base;
  {
    fault::ScopedFaults off("");
    auto clean = NewPredictor();
    for (int64_t step = begin; step < end; ++step) {
      auto pred = clean.PredictNext();
      ASSERT_TRUE(pred.ok());
      base.push_back(std::move(pred).value());
      ASSERT_TRUE(clean.Observe(StepTruth(*dataset_, step)).ok());
    }
  }

  auto inner = NewPredictor();
  ResilienceOptions options;
  options.recovery_successes = 3;
  ResilientPredictor resilient(&inner, options);
  fault::ScopedFaults faults("nn.predict.nan:every=17,nn.predict.error:every=23");
  int64_t degraded_seen = 0;
  for (int64_t step = begin; step < end; ++step) {
    const size_t k = static_cast<size_t>(step - begin);
    auto served = resilient.PredictNext();
    ASSERT_TRUE(served.ok()) << "crash at step " << step << ": "
                             << served.status().ToString();
    for (double v : served->values) {
      ASSERT_TRUE(std::isfinite(v)) << "non-finite served at step " << step;
    }
    if (served->source == FallbackLevel::kFullModel) {
      EXPECT_EQ(served->cause, DegradeCause::kNone);
      ASSERT_EQ(served->values, base[k])
          << "healthy step " << step << " diverged from the no-fault run";
    } else {
      // Every degraded step carries its cause.
      EXPECT_NE(served->cause, DegradeCause::kNone) << "step " << step;
      ++degraded_seen;
    }
    ASSERT_TRUE(resilient.Observe(StepTruth(*dataset_, step)).ok());
  }

  const auto& state = resilient.degradation();
  EXPECT_EQ(state.total_steps, end - begin);
  EXPECT_EQ(state.degraded_steps, degraded_seen);
  EXPECT_GT(state.degraded_steps, 0);
  EXPECT_LT(state.degraded_steps, state.total_steps / 2);
  int64_t by_cause_sum = 0;
  for (int c = 1; c < serve::kNumDegradeCauses; ++c) {
    by_cause_sum += state.by_cause[c];
  }
  EXPECT_EQ(by_cause_sum, state.degraded_steps);
  int64_t by_level_sum = 0;
  for (int l = 1; l < serve::kNumFallbackLevels; ++l) {
    by_level_sum += state.by_level[l];
  }
  EXPECT_EQ(by_level_sum, state.degraded_steps);
  // Both armed fault kinds occurred, and hysteresis produced probation.
  EXPECT_GT(state.by_cause[static_cast<int>(DegradeCause::kNonFinite)], 0);
  EXPECT_GT(state.by_cause[static_cast<int>(DegradeCause::kModelError)], 0);
  EXPECT_GT(state.by_cause[static_cast<int>(DegradeCause::kProbation)], 0);
}

// --- durable renames ---------------------------------------------------------

// WriteFileAtomic's rename is only durable once the PARENT DIRECTORY is
// fsynced — the directory entry lives in directory metadata, not the file.
// io.dir.fsync.fail fires after the rename already landed.

TEST(AtomicWriteTest, DirectoryFsyncFailureIsRetriedToSuccess) {
  const std::string path = ::testing::TempDir() + "/aw_dirsync.txt";
  fault::ScopedFaults faults("io.dir.fsync.fail:every=1:max=1");
  ASSERT_TRUE(WriteFileAtomic(path, "durable\n").ok());
  EXPECT_EQ(ReadAll(path), "durable\n");
  const auto snap = fault::Snapshot();
  ASSERT_EQ(snap.count("io.dir.fsync.fail"), 1u);
  EXPECT_EQ(snap.at("io.dir.fsync.fail").fires, 1);
}

TEST(AtomicWriteTest, PersistentDirectoryFsyncFailureSurfacesAnError) {
  const std::string path = ::testing::TempDir() + "/aw_dirsync_fail.txt";
  fault::ScopedFaults faults("io.dir.fsync.fail:every=1");
  const Status st = WriteFileAtomic(path, "maybe durable\n");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // The failure is about DURABILITY, not content: every attempt's rename
  // landed before its directory fsync failed, so the file reads back fine
  // — the error tells the caller the entry may not survive a power cut.
  EXPECT_EQ(ReadAll(path), "maybe durable\n");
}

// --- resilience edges: deadlines and recovery hysteresis ---------------------

// recovery_successes at its boundaries. 0 and 1 both promote on the FIRST
// healthy probe after a failure (the probe's own healthy answer is served);
// a large value pins the chain in probation for the rest of the run.
TEST_F(FaultServeTest, RecoveryHysteresisBoundaryValues) {
  const int64_t begin = split_->test_begin;
  for (const int recovery : {0, 1}) {
    auto inner = NewPredictor();
    ResilienceOptions options;
    options.recovery_successes = recovery;
    ResilientPredictor resilient(&inner, options);
    fault::ScopedFaults faults("nn.predict.nan:every=1:max=1");
    for (int k = 0; k < 6; ++k) {
      auto served = resilient.PredictNext();
      ASSERT_TRUE(served.ok());
      if (k == 0) {
        EXPECT_EQ(served->cause, DegradeCause::kNonFinite) << recovery;
      } else {
        // No probation window at 0 or 1: healthy probe => model, served.
        EXPECT_EQ(served->cause, DegradeCause::kNone)
            << "recovery=" << recovery << " step " << k;
        EXPECT_EQ(served->source, FallbackLevel::kFullModel);
      }
      ASSERT_TRUE(resilient.Observe(StepTruth(*dataset_, begin + k)).ok());
    }
    EXPECT_EQ(resilient.degradation().degraded_steps, 1) << recovery;
  }

  {
    auto inner = NewPredictor();
    ResilienceOptions options;
    options.recovery_successes = 1000;  // unreachable within the run
    ResilientPredictor resilient(&inner, options);
    fault::ScopedFaults faults("nn.predict.nan:every=1:max=1");
    for (int k = 0; k < 10; ++k) {
      auto served = resilient.PredictNext();
      ASSERT_TRUE(served.ok());
      EXPECT_EQ(served->cause, k == 0 ? DegradeCause::kNonFinite
                                      : DegradeCause::kProbation)
          << "step " << k;
      EXPECT_NE(served->source, FallbackLevel::kFullModel) << "step " << k;
      ASSERT_TRUE(resilient.Observe(StepTruth(*dataset_, begin + k)).ok());
    }
    EXPECT_EQ(resilient.degradation().degraded_steps, 10);
    EXPECT_TRUE(resilient.degradation().degraded());  // still in probation
  }
}

// After re-promotion the chain is a pure passthrough again: every healthy
// step's values are bit-identical to a predictor that never faulted.
TEST_F(FaultServeTest, RepromotedChainIsBitIdenticalToClean) {
  const int64_t begin = split_->test_begin;
  const int kSteps = 20;
  std::vector<std::vector<double>> base;
  {
    fault::ScopedFaults off("");
    auto clean = NewPredictor();
    for (int k = 0; k < kSteps; ++k) {
      auto pred = clean.PredictNext();
      ASSERT_TRUE(pred.ok());
      base.push_back(std::move(pred).value());
      ASSERT_TRUE(clean.Observe(StepTruth(*dataset_, begin + k)).ok());
    }
  }
  auto inner = NewPredictor();
  ResilienceOptions options;
  options.recovery_successes = 2;
  ResilientPredictor resilient(&inner, options);
  // One failure at step 3; probation at 4; promotion serves at 5.
  fault::ScopedFaults faults("nn.predict.error:every=4:max=1");
  for (int k = 0; k < kSteps; ++k) {
    auto served = resilient.PredictNext();
    ASSERT_TRUE(served.ok());
    if (k >= 5) {
      EXPECT_EQ(served->source, FallbackLevel::kFullModel) << "step " << k;
      ASSERT_EQ(served->values, base[static_cast<size_t>(k)])
          << "post-promotion step " << k << " is not a clean passthrough";
    }
    ASSERT_TRUE(resilient.Observe(StepTruth(*dataset_, begin + k)).ok());
  }
}

// The daemon rebinds each batch's remaining budget via set_deadline_ms():
// the SAME chain must enforce a deadline one step and ignore it the next.
TEST_F(FaultServeTest, DeadlineRebindsPerStep) {
  const int64_t begin = split_->test_begin;
  auto inner = NewPredictor();
  ResilienceOptions options;
  options.deadline_ms = 0.0;  // start unbounded
  options.recovery_successes = 1;
  ResilientPredictor resilient(&inner, options);
  fault::ScopedFaults faults("nn.predict.delay:every=1:ms=120");

  // Unbounded: the injected 120ms delay is slow but not a failure.
  auto served = resilient.PredictNext();
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->cause, DegradeCause::kNone);
  EXPECT_GE(served->model_latency_ms, 100.0);
  ASSERT_TRUE(resilient.Observe(StepTruth(*dataset_, begin)).ok());

  // A tight budget arrives: the same delay now degrades with kDeadline.
  resilient.set_deadline_ms(30.0);
  served = resilient.PredictNext();
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->cause, DegradeCause::kDeadline);
  EXPECT_EQ(served->source, FallbackLevel::kMatchedMean);
  ASSERT_TRUE(resilient.Observe(StepTruth(*dataset_, begin + 1)).ok());

  // Budget relaxes again: the healthy (if slow) probe re-promotes.
  resilient.set_deadline_ms(0.0);
  served = resilient.PredictNext();
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->cause, DegradeCause::kNone);
  EXPECT_EQ(served->source, FallbackLevel::kFullModel);
  EXPECT_EQ(resilient.degradation()
                .by_cause[static_cast<int>(DegradeCause::kDeadline)],
            1);
}

}  // namespace
}  // namespace ealgap
