// Allocation contract of the serve path (DESIGN.md §8e).
//
// The claims under test:
//  * Arena: 64-byte-aligned bump allocation, checkpoint/rewind reclaims,
//    exhaustion grows by appending slabs (never invalidating live blocks),
//    Reserve pre-warms capacity, ArenaScope installs/restores the
//    thread-local current arena.
//  * Zero-allocation serving: after a warm-up step, a steady-state
//    Observe/PredictNext loop — through ResilientPredictor, on both the
//    healthy path and a fault-armed degraded path, and for a 1000-region
//    city whose forward fans region blocks across the pool — performs ZERO
//    heap allocations, counted by the malloc-interposition hook in
//    alloc_count_hook.cc (linked only into this binary).
//
// Under ASan and TSan the hook is compiled out (the sanitizer owns
// malloc); the counting assertions skip, but every replay still runs at
// every thread count, which makes the ASan build a lifetime check of the
// exact arena-rewind scenario and the TSan build a race check of the
// pool-dispatched forward.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/aligned_alloc.h"
#include "common/alloc_count.h"
#include "common/arena.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ealgap.h"
#include "data/dataset.h"
#include "data/synthetic_city.h"
#include "serve/online_predictor.h"
#include "serve/resilient_predictor.h"
#include "tensor/tensor.h"

namespace ealgap {
namespace {

// --- arena unit tests --------------------------------------------------------

TEST(ArenaTest, AllocationsAre64ByteAligned) {
  Arena arena(1 << 12);
  for (std::size_t bytes : {1u, 3u, 63u, 64u, 65u, 1000u, 4096u}) {
    void* p = arena.Allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(IsAligned(p)) << "Allocate(" << bytes << ") misaligned";
  }
}

TEST(ArenaTest, CheckpointRewindReclaims) {
  Arena arena(1 << 12);
  arena.Allocate(128);
  const std::size_t before = arena.allocated_bytes();
  const Arena::Mark mark = arena.Checkpoint();
  void* a = arena.Allocate(256);
  EXPECT_GT(arena.allocated_bytes(), before);
  arena.Rewind(mark);
  EXPECT_EQ(arena.allocated_bytes(), before);
  // The next allocation reuses the rewound region: same pointer back.
  void* b = arena.Allocate(256);
  EXPECT_EQ(a, b);
}

TEST(ArenaTest, ExhaustionGrowsWithoutInvalidatingLiveBlocks) {
  Arena arena(256);
  const std::size_t slabs_before = arena.slab_count();
  // Write through every block afterwards: if growth moved or recycled an
  // earlier slab, these writes would stomp each other.
  std::vector<char*> blocks;
  for (int i = 0; i < 64; ++i) {
    char* p = static_cast<char*>(arena.Allocate(192));
    p[0] = static_cast<char>(i);
    p[191] = static_cast<char>(i + 1);
    blocks.push_back(p);
  }
  EXPECT_GT(arena.slab_count(), slabs_before);
  EXPECT_GE(arena.capacity_bytes(), arena.allocated_bytes());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(blocks[i][0], static_cast<char>(i));
    EXPECT_EQ(blocks[i][191], static_cast<char>(i + 1));
  }
  EXPECT_EQ(arena.high_water_bytes(), arena.allocated_bytes());
  arena.Reset();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  // Capacity is retained across Reset — that is the whole point.
  EXPECT_GE(arena.capacity_bytes(), 64u * 192u);
}

TEST(ArenaTest, OversizeRequestGetsDedicatedSlab) {
  Arena arena(64);
  void* p = arena.Allocate(5u << 20);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(IsAligned(p));
  EXPECT_GE(arena.capacity_bytes(), 5u << 20);
}

TEST(ArenaTest, ReservePrewarmsCapacity) {
  Arena arena(64);
  arena.Reserve(1 << 16);
  const std::size_t cap = arena.capacity_bytes();
  EXPECT_GE(cap, static_cast<std::size_t>(1 << 16));
  const std::size_t slabs = arena.slab_count();
  for (int i = 0; i < 100; ++i) arena.Allocate(512);
  EXPECT_EQ(arena.slab_count(), slabs) << "Reserve did not cover the pass";
}

TEST(ArenaTest, ScopeInstallsRewindsAndRestores) {
  EXPECT_EQ(CurrentArena(), nullptr);
  Arena outer_arena, inner_arena;
  {
    ArenaScope outer(&outer_arena);
    EXPECT_EQ(CurrentArena(), &outer_arena);
    outer_arena.Allocate(64);
    const std::size_t outer_held = outer_arena.allocated_bytes();
    {
      ArenaScope inner(&inner_arena);
      EXPECT_EQ(CurrentArena(), &inner_arena);
      inner_arena.Allocate(128);
    }
    EXPECT_EQ(CurrentArena(), &outer_arena);
    EXPECT_EQ(inner_arena.allocated_bytes(), 0u) << "inner scope must rewind";
    EXPECT_EQ(outer_arena.allocated_bytes(), outer_held);
  }
  EXPECT_EQ(CurrentArena(), nullptr);
}

TEST(ArenaTest, ScopedTensorsComeFromTheArena) {
  Arena arena;
  {
    ArenaScope scope(&arena);
    Tensor t = Tensor::Zeros({16, 16});
    EXPECT_GE(arena.allocated_bytes(), 16u * 16u * sizeof(float));
    EXPECT_TRUE(IsAligned(t.data()));
  }
  EXPECT_EQ(arena.allocated_bytes(), 0u);
}

TEST(AlignedBufferTest, ZeroInitializedAndAligned) {
  AlignedBuffer<float> buf(100);
  EXPECT_TRUE(IsAligned(buf.data()));
  for (float v : buf) EXPECT_EQ(v, 0.f);
  buf.Reset(7);
  EXPECT_EQ(buf.size(), 7u);
  EXPECT_TRUE(IsAligned(buf.data()));
}

// --- counting hook sanity ----------------------------------------------------

TEST(AllocCountTest, HookObservesThisThreadsAllocations) {
  if (!alloc_count::HookLinked()) {
    GTEST_SKIP() << "allocation hook not linked (sanitizer build)";
  }
  alloc_count::ScopedCounter counter;
  auto* v = new std::vector<double>(4096);
  EXPECT_GE(counter.delta(), 1);
  EXPECT_GE(counter.delta_bytes(), 4096 * static_cast<int64_t>(sizeof(double)));
  const std::int64_t frees = alloc_count::ThreadDeallocations();
  delete v;
  EXPECT_GT(alloc_count::ThreadDeallocations(), frees);
}

// --- zero-allocation serve replay -------------------------------------------

// Same recipe as serve_parity_test: daily structure + AR noise, enough
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

class AllocGuardServeTest : public ::testing::Test {
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

  /// Runs `steps` serve iterations (PredictNextInto + Observe of the just
  /// predicted values — a self-rollout, so the replay length is not bound
  /// by the dataset) and returns the number of heap allocations the loop
  /// performed on this thread after `warmup` un-counted steps.
  static std::int64_t CountReplayAllocations(serve::ResilientPredictor* served,
                                             int warmup, int steps) {
    serve::ServedPrediction out;
    for (int i = 0; i < warmup; ++i) {
      EXPECT_TRUE(served->PredictNextInto(&out).ok());
      EXPECT_TRUE(served->Observe(out.values).ok());
    }
    alloc_count::ScopedCounter counter;
    for (int i = 0; i < steps; ++i) {
      EXPECT_TRUE(served->PredictNextInto(&out).ok());
      EXPECT_TRUE(served->Observe(out.values).ok());
    }
    return counter.delta();
  }

  static data::SlidingWindowDataset* dataset_;
  static data::StepRanges* split_;
  static core::EalgapForecaster* model_;
};

data::SlidingWindowDataset* AllocGuardServeTest::dataset_ = nullptr;
data::StepRanges* AllocGuardServeTest::split_ = nullptr;
core::EalgapForecaster* AllocGuardServeTest::model_ = nullptr;

TEST_F(AllocGuardServeTest, HealthySteadyStateServesWithZeroAllocations) {
  const int saved_threads = GetNumThreads();
  for (int threads : {1, 8}) {
    // threads=1 runs every kernel inline on this thread, so the counter
    // sees ALL work; threads=8 additionally proves the pool dispatch on
    // the calling side is allocation-free.
    SetNumThreads(threads);
    auto predictor =
        serve::OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
    ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();
    serve::ResilientPredictor served(&*predictor);
    const std::int64_t allocs = CountReplayAllocations(&served, 3, 240);
    EXPECT_FALSE(served.degradation().degraded());
    // Without the hook every thread count still replays (the sanitizers
    // check it); only the count is skipped.
    if (!alloc_count::HookLinked()) continue;
    EXPECT_EQ(allocs, 0)
        << "healthy serve loop hit the heap (threads=" << threads
        << "); arena high-water " << predictor->arena()->high_water_bytes()
        << " bytes";
  }
  SetNumThreads(saved_threads);
  if (!alloc_count::HookLinked()) {
    GTEST_SKIP() << "allocation hook not linked (sanitizer build)";
  }
}

TEST_F(AllocGuardServeTest, DegradedSteadyStateServesWithZeroAllocations) {
  // nn.predict.nan poisons every second model answer, so the degradation
  // chain flaps between fallback serving and recovery probation — the
  // degraded path must be as allocation-free as the healthy one. (The
  // nan site is the right fault here: model-error sites build Status
  // strings, which allocate by design.)
  fault::ScopedFaults faults("nn.predict.nan:every=2");
  auto predictor =
      serve::OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();
  serve::ResilientPredictor served(&*predictor);
  const std::int64_t allocs = CountReplayAllocations(&served, 4, 240);
  EXPECT_GT(served.degradation().degraded_steps, 0)
      << "fault did not exercise the degraded path";
  if (!alloc_count::HookLinked()) {
    GTEST_SKIP() << "allocation hook not linked (sanitizer build)";
  }
  EXPECT_EQ(allocs, 0) << "degraded serve loop hit the heap; arena "
                          "high-water "
                       << predictor->arena()->high_water_bytes() << " bytes";
}

// A city of 1000 regions spans 16 blocks of the fused no-grad forward, so
// with 4 pool threads the blocks fan out across workers: the per-chunk
// scratch comes from the predictor's arena and the dispatch itself must
// stay off the heap too.
TEST(AllocGuardBlockedServeTest, ThousandRegionStreamServesWithZeroAllocations) {
  data::RegionSeriesConfig config;
  config.num_regions = 1000;
  config.num_days = 40;
  data::DatasetOptions options;
  options.history_length = 5;
  options.num_windows = 3;
  options.norm_history = 3;
  auto ds = data::SlidingWindowDataset::Create(
      data::GenerateRegionSeries(config), options);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  auto split = data::MakeChronoSplit(*ds);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  core::EalgapForecaster model;
  TrainConfig train;
  train.epochs = 0;  // initialized weights: the forward's cost is the same
  train.seed = 11;
  ASSERT_TRUE(model.Fit(*ds, *split, train).ok());
  const int saved_threads = GetNumThreads();
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    auto predictor =
        serve::OnlinePredictor::Create(&model, *ds, split->test_begin);
    ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();
    serve::ResilientPredictor served(&*predictor);
    serve::ServedPrediction out;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(served.PredictNextInto(&out).ok());
      ASSERT_TRUE(served.Observe(out.values).ok());
    }
    alloc_count::ScopedCounter counter;
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(served.PredictNextInto(&out).ok());
      ASSERT_TRUE(served.Observe(out.values).ok());
    }
    const std::int64_t allocs = counter.delta();
    EXPECT_EQ(out.source, serve::FallbackLevel::kFullModel);
    if (!alloc_count::HookLinked()) continue;
    EXPECT_EQ(allocs, 0) << "1000-region serve loop hit the heap (threads="
                         << threads << "); arena high-water "
                         << predictor->arena()->high_water_bytes() << " bytes";
  }
  SetNumThreads(saved_threads);
  if (!alloc_count::HookLinked()) {
    GTEST_SKIP() << "allocation hook not linked (sanitizer build)";
  }
}

TEST_F(AllocGuardServeTest, ArenaRewindsToEmptyBetweenSteps) {
  auto predictor =
      serve::OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(predictor.ok());
  std::vector<double> out;
  ASSERT_TRUE(predictor->PredictNextInto(&out).ok());
  // Everything the forward pass put on the arena is reclaimed by the
  // scope rewind; only capacity (slabs) is retained.
  EXPECT_EQ(predictor->arena()->allocated_bytes(), 0u);
  EXPECT_GT(predictor->arena()->high_water_bytes(), 0u);
  const std::size_t cap = predictor->arena()->capacity_bytes();
  ASSERT_TRUE(predictor->Observe(out).ok());
  ASSERT_TRUE(predictor->PredictNextInto(&out).ok());
  EXPECT_EQ(predictor->arena()->capacity_bytes(), cap)
      << "second step should not grow the warm arena";
}

}  // namespace
}  // namespace ealgap
