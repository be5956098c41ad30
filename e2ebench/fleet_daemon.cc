// fleet_daemon: the daemon serving path. A Daemon runs many 16-region
// shards, fed by a seeded LoadGen (a steady phase and a short burst above
// batch_max).
//
//  * Paced laps: an open loop, each tick started when it is due at the
//    daemon's own ms_per_tick. A request's latency runs from the wall time
//    its tick was due to the end of the tick that answered it, so a stall
//    is charged to every request it delays.
//  * Unpaced laps: ticks back to back, for capacity. Two follow each
//    paced lap.
//
// The measured fleet has no state directory. Checkpoints to the
// checkout's disk spent most of a durable fleet's wall time in fsync and
// rename, whose latency follows the host's other disk traffic, so they
// would gate the disk rather than the daemon. A traced run measures the
// checkpoint path on a separate durable fleet (default cadence) instead.
//
// The daemon does not report per-request answer ticks, so the benchmark
// keeps a shadow of every shard's FIFO queue (capacity, batch_max and the
// deadline rule as documented in serve/daemon.h). The shadow is checked
// against the real queue depth after every tick and against the daemon's
// shed and expiry totals at the end; any disagreement fails the run.

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "bench.h"
#include "common/checksum.h"
#include "core/ealgap.h"
#include "data/aggregate.h"
#include "data/dataset.h"
#include "data/synthetic_city.h"
#include "serve/daemon.h"
#include "serve/load_gen.h"
#include "serve/shard.h"
#include "stats/metrics.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace ealgap;

constexpr int kRegionsPerShard = 16;
/// The measured fleet. Its mean unpaced tick is about a third of
/// ms_per_tick at the benchmark's pool size; at half, a host stall of a
/// few ms left the paced loop behind on most laps (README, Fleet sizing).
constexpr int kShards = 32;
/// The traced run's durable fleet: a state directory and the default
/// checkpoint cadence (16 observes). Every shard checkpoints on the same
/// tick, so a small fleet keeps that tick short.
constexpr int kDurableShards = 8;
constexpr int64_t kDurableLaps = 2;
constexpr int kSeriesDays = 40;
/// Unpaced lap: two load cycles and eight checkpoint cycles, so every lap
/// does the same work.
constexpr int64_t kLapTicks = 128;
constexpr int64_t kWarmupLaps = 2;
/// Unpaced laps run after each paced lap.
constexpr int64_t kUnpacedPerPaced = 2;
/// Arrivals per shard per tick over a 64-tick load cycle: steady, a burst
/// above batch_max (64) that backs queues up and sheds a few requests,
/// then steady again. The burst spans cycle ticks 56-59: each burst tick
/// leaves a backlog that the next tick answers first, and the backlog
/// clears on tick 60. So about a sixth of the predicts wait one tick,
/// a virtual-time effect that puts the predict tail at one ms_per_tick
/// plus the wall time of the tick that answers them. In the durable fleet
/// the burst never waits behind a checkpoint (cycle ticks 15, 31, 47, 63).
constexpr serve::LoadPhase kSteady{56, 6.0};
constexpr serve::LoadPhase kBurst{4, 74.0};
constexpr serve::LoadPhase kCoolDown{4, 6.0};

struct Fleet {
  std::unique_ptr<serve::Daemon> daemon;
  data::MobilitySeries city;
  double generate_s = 0.0;  ///< data::GenerateRegionSeries
  double window_s = 0.0;    ///< shard slices: SlidingWindowDataset + split
};

void MakeDirs(const std::string& path) {
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      ::mkdir(path.substr(0, i).c_str(), 0755);
    }
  }
}

Result<data::SlidingWindowDataset> ShardDataset(const data::MobilitySeries& city,
                                                int shard) {
  EALGAP_ASSIGN_OR_RETURN(
      data::MobilitySeries slice,
      data::SliceRegions(city, shard * kRegionsPerShard,
                         (shard + 1) * kRegionsPerShard));
  return data::SlidingWindowDataset::Create(std::move(slice),
                                            ServeDatasetOptions());
}

/// Builds `shards` shards; an empty `state_root` means no state directory
/// and so no checkpoints.
bool BuildFleet(uint64_t seed, int shards, const std::string& state_root,
                Fleet* fleet) {
  data::RegionSeriesConfig series;
  series.num_regions = shards * kRegionsPerShard;
  series.num_days = kSeriesDays;
  series.seed = DeriveSeed(seed, kSeedSeries);
  const auto t_gen = Clock::now();
  fleet->city = data::GenerateRegionSeries(series);
  fleet->generate_s = SecondsSince(t_gen);
  fleet->daemon = std::make_unique<serve::Daemon>(serve::DaemonConfig{});
  const uint64_t train_seed = DeriveSeed(seed, kSeedTrain);
  for (int s = 0; s < shards; ++s) {
    const auto t_window = Clock::now();
    auto dataset = ShardDataset(fleet->city, s);
    if (!dataset.ok()) return false;
    auto split = data::MakeChronoSplit(*dataset);
    if (!split.ok()) return false;
    fleet->window_s += SecondsSince(t_window);
    auto model = std::make_unique<core::EalgapForecaster>();
    TrainConfig train;
    train.epochs = 0;
    train.seed = DeriveSeed(train_seed, static_cast<uint64_t>(s));
    if (!model->Fit(*dataset, *split, train).ok()) return false;
    serve::ShardConfig config;
    config.name = "s" + std::to_string(s);
    if (!state_root.empty()) {
      config.state_dir = state_root + "/" + config.name;
      MakeDirs(config.state_dir);
    }
    // Daemon shards absorb gaps and bad values (micro_daemon's settings).
    config.guard.on_bad_value = serve::RepairPolicy::kImpute;
    config.guard.on_gap = serve::RepairPolicy::kImpute;
    config.guard.max_gap_steps = 4096;
    auto shard = serve::Shard::Create(std::move(*dataset), std::move(model),
                                      split->test_begin, config);
    if (!shard.ok()) return false;
    fleet->daemon->AddShard(std::move(shard).value());
  }
  return true;
}

/// Shadow of the shards' FIFO queues (see file comment).
class QueueShadow {
 public:
  QueueShadow(int shards, size_t capacity, const serve::DaemonConfig& config)
      : queues_(static_cast<size_t>(shards)),
        capacity_(capacity),
        config_(config) {}

  /// Admission of one tick's arrivals: the feed observe, then predicts.
  /// Returns the number of predicts shed.
  int64_t Admit(int64_t tick, const std::vector<int>& arrivals) {
    int64_t shed = 0;
    for (size_t s = 0; s < queues_.size(); ++s) {
      Push(s, Entry{false, tick});
      for (int a = 0; a < arrivals[s]; ++a) {
        if (!Push(s, Entry{true, tick})) ++shed;
      }
    }
    shed_predicts_ += shed;
    return shed;
  }

  /// Drain of tick `tick`: calls answered(shard, arrival_tick) for every
  /// predict the model answered this tick; expired ones are counted.
  template <typename F>
  void Drain(int64_t tick, F answered) {
    served_shards_.assign(queues_.size(), 0);
    for (size_t s = 0; s < queues_.size(); ++s) {
      std::deque<Entry>& q = queues_[s];
      for (int popped = 0; popped < config_.batch_max && !q.empty(); ++popped) {
        const Entry e = q.front();
        q.pop_front();
        if (!e.predict) continue;
        if (config_.deadline_ticks > 0 &&
            e.arrival + config_.deadline_ticks < tick) {
          ++expired_;
          continue;
        }
        served_shards_[s] = 1;
        answered(s, e.arrival);
      }
      depth_max_ = std::max<int64_t>(depth_max_, static_cast<int64_t>(q.size()));
    }
  }

  size_t depth(size_t s) const { return queues_[s].size(); }
  bool empty() const {
    for (const auto& q : queues_) {
      if (!q.empty()) return false;
    }
    return true;
  }
  bool served(size_t s) const { return served_shards_[s] != 0; }
  int64_t shed_predicts() const { return shed_predicts_; }
  int64_t shed_observes() const { return shed_observes_; }
  int64_t expired() const { return expired_; }
  int64_t depth_max() const { return depth_max_; }

 private:
  struct Entry {
    bool predict;
    int64_t arrival;
  };
  bool Push(size_t s, Entry e) {
    if (queues_[s].size() >= capacity_) {
      if (!e.predict) ++shed_observes_;
      return false;
    }
    queues_[s].push_back(e);
    return true;
  }

  std::vector<std::deque<Entry>> queues_;
  size_t capacity_;
  serve::DaemonConfig config_;
  std::vector<uint8_t> served_shards_;
  int64_t shed_predicts_ = 0, shed_observes_ = 0, expired_ = 0;
  int64_t depth_max_ = 0;
};

struct PhaseSamples {
  std::vector<double> tick_ms, tick_ckpt_ms, tick_plain_ms;
  std::vector<double> predict_ms;  ///< due -> answered; sheds/expiries = inf
  std::vector<double> late_ms;     ///< generator lateness per paced tick
  std::vector<double> lap_predict_p50, lap_predict_p99;  ///< per paced lap
  std::vector<double> lap_rps;  ///< unpaced laps: answers per second

  /// Sizes the buffers for a whole pass up front, so that their growth,
  /// which follows the seed's request count, does not move peak_rss_mb.
  void Reserve(int64_t paced_ticks, int64_t unpaced_ticks, int shards) {
    const double per_tick =
        (kSteady.ticks * kSteady.predict_rate +
         kBurst.ticks * kBurst.predict_rate +
         kCoolDown.ticks * kCoolDown.predict_rate) /
        (kSteady.ticks + kBurst.ticks + kCoolDown.ticks);
    // Twice the mean arrivals: far above any Poisson count of a pass.
    predict_ms.reserve(static_cast<size_t>(2.0 * per_tick * shards) *
                       paced_ticks);
    late_ms.reserve(paced_ticks);
    tick_ms.reserve(paced_ticks + unpaced_ticks);
    tick_plain_ms.reserve(paced_ticks + unpaced_ticks);
    pred.reserve(static_cast<size_t>(paced_ticks) * shards * kRegionsPerShard);
    truth.reserve(pred.capacity());
  }
  int64_t shadow_mismatches = 0;
  std::vector<double> pred, truth;  ///< paced-phase served values
};

class FleetRunner {
 public:
  FleetRunner(Fleet* fleet, uint64_t seed)
      : daemon_(fleet->daemon.get()),
        shadow_(daemon_->num_shards(), daemon_->shard(0)->queue().capacity(),
                serve::DaemonConfig{}),
        gen_(LoadConfig(seed, daemon_->num_shards())) {}

  static serve::LoadGenConfig LoadConfig(uint64_t seed, int shards) {
    serve::LoadGenConfig config;
    config.phases = {kSteady, kBurst, kCoolDown};
    config.seed = DeriveSeed(seed, kSeedLoad);
    config.num_shards = shards;
    return config;
  }

  /// One tick. `due` is the wall time the tick was due (paced lap) or
  /// its start (unpaced). Fills latency samples when `paced`.
  void Tick(Clock::time_point due, bool paced, bool collect_quality,
            Tracer* tracer, PhaseSamples* out) {
    const int64_t tick = daemon_->now_tick();
    gen_.ArrivalsAt(tick, &arrivals_);
    const int64_t shed = shadow_.Admit(tick, arrivals_);
    if (paced) {
      // Shed requests miss every latency limit.
      for (int64_t i = 0; i < shed; ++i) {
        out->predict_ms.push_back(kMissed);
      }
    }
    const int64_t ckpt_before = CheckpointsWritten();
    const auto t0 = Clock::now();
    if (tracer != nullptr) tracer->SetRun(tick);
    {
      ScopedSpan span(tracer, "serve.daemon.tick");
      daemon_->Tick(arrivals_);
    }
    const auto t1 = Clock::now();
    const double tick_ms = MsBetween(t0, t1);
    out->tick_ms.push_back(tick_ms);
    (CheckpointsWritten() > ckpt_before ? out->tick_ckpt_ms : out->tick_plain_ms)
        .push_back(tick_ms);
    const int64_t expired_before = shadow_.expired();
    shadow_.Drain(tick, [&](size_t, int64_t arrival) {
      ++answered_;
      if (paced) {
        const auto arrival_due =
            due - std::chrono::microseconds((tick - arrival) * kTickUs);
        out->predict_ms.push_back(MsBetween(arrival_due, t1));
      }
    });
    if (paced) {
      for (int64_t i = expired_before; i < shadow_.expired(); ++i) {
        out->predict_ms.push_back(kMissed);
      }
    }
    for (int s = 0; s < daemon_->num_shards(); ++s) {
      serve::Shard* sh = daemon_->shard(s);
      if (shadow_.depth(static_cast<size_t>(s)) != sh->queue().SizeApprox()) {
        ++out->shadow_mismatches;
      }
      if (!shadow_.served(static_cast<size_t>(s))) continue;
      ++forwards_;
      if (collect_quality) {
        const std::vector<double>& served = sh->last_served().values;
        const std::vector<double>& truth =
            sh->FeedCounts(sh->predictor()->next_step());
        out->pred.insert(out->pred.end(), served.begin(), served.end());
        out->truth.insert(out->truth.end(), truth.begin(), truth.end());
      }
    }
  }

  /// `laps` rounds of one paced lap and then kUnpacedPerPaced unpaced
  /// laps, so the latency and the capacity samples span the same stretch
  /// of host time.
  void Pass(int64_t laps, bool collect_quality, Tracer* tracer,
            PhaseSamples* out) {
    for (int64_t lap = 0; lap < laps; ++lap) {
      PacedLap(collect_quality, tracer, out);
      Unpaced(kUnpacedPerPaced, tracer, out);
    }
  }

  /// One lap of an open loop paced at ms_per_tick. Its schedule starts
  /// when the lap does, so a slow stretch of the host is charged to one
  /// lap, not to every later one.
  void PacedLap(bool collect_quality, Tracer* tracer, PhaseSamples* out) {
    const auto anchor = Clock::now();
    const size_t lap_begin = out->predict_ms.size();
    for (int64_t i = 0; i < kLapTicks; ++i) {
      const auto due = anchor + std::chrono::microseconds(i * kTickUs);
      // Sleep to just short of the due time, then spin: a vCPU woken from
      // idle adds host scheduling jitter that is not the daemon's.
      std::this_thread::sleep_until(due - std::chrono::microseconds(500));
      while (Clock::now() < due) {
      }
      out->late_ms.push_back(MsBetween(due, Clock::now()));
      Tick(due, /*paced=*/true, collect_quality, tracer, out);
    }
    const std::vector<double> lap(out->predict_ms.begin() + lap_begin,
                                  out->predict_ms.end());
    out->lap_predict_p50.push_back(Median(lap));
    out->lap_predict_p99.push_back(Quantile(lap, 0.99));
  }

  /// `laps` back-to-back laps of kLapTicks.
  void Unpaced(int64_t laps, Tracer* tracer, PhaseSamples* out) {
    for (int64_t lap = 0; lap < laps; ++lap) {
      const auto lap_t0 = Clock::now();
      const int64_t answered_before = answered_;
      for (int64_t i = 0; i < kLapTicks; ++i) {
        Tick(Clock::now(), /*paced=*/false, false, tracer, out);
      }
      out->lap_rps.push_back((answered_ - answered_before) /
                             SecondsSince(lap_t0));
    }
  }

  /// Ticks with no predict arrivals until every queue is empty, so the
  /// final report has nothing still queued.
  void Drain() {
    std::vector<int> none(static_cast<size_t>(daemon_->num_shards()), 0);
    for (int i = 0; i < 64 && !shadow_.empty(); ++i) {
      const int64_t tick = daemon_->now_tick();
      gen_.ArrivalsAt(tick, &arrivals_);  // keep the generator in step
      shadow_.Admit(tick, none);
      daemon_->Tick(none);
      shadow_.Drain(tick, [](size_t, int64_t) {});
      CountForwards();
    }
  }

  /// Shard-ticks that ran a model pass, over every tick driven so far.
  int64_t forwards() const { return forwards_; }

  const QueueShadow& shadow() const { return shadow_; }

 private:
  static constexpr int64_t kTickUs = 10000;  ///< DaemonConfig::ms_per_tick
  static constexpr double kMissed = std::numeric_limits<double>::infinity();

  void CountForwards() {
    for (int s = 0; s < daemon_->num_shards(); ++s) {
      if (shadow_.served(static_cast<size_t>(s))) ++forwards_;
    }
  }

  int64_t CheckpointsWritten() const {
    int64_t total = 0;
    for (int s = 0; s < daemon_->num_shards(); ++s) {
      total += daemon_->shard(s)->Totals().checkpoints_written;
    }
    return total;
  }

  serve::Daemon* daemon_;
  QueueShadow shadow_;
  serve::LoadGen gen_;
  std::vector<int> arrivals_;
  int64_t forwards_ = 0;
  int64_t answered_ = 0;  ///< live predicts answered, over every tick
};

}  // namespace

int RunFleetDaemon(const Options& options, RunResult* result) {
  const std::string state_root = options.state_dir + "/fleet";
  std::vector<double> setup_s;
  Fleet fleet;
  const auto t_setup = Clock::now();
  while (KeepSettingUp(setup_s.size(), SecondsSince(t_setup))) {
    fleet = Fleet();
    const auto t0 = Clock::now();
    if (!BuildFleet(options.seed, kShards, "", &fleet)) {
      result->Check("setup", false, "fleet_daemon set-up failed");
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
  }

  // Untraced pass: half the budget in paced laps, each followed by two
  // unpaced laps. The unpaced laps are a fixed amount of work, so memory
  // and lap counts do not depend on the host's speed. A traced run splits
  // the budget over an untraced pass, a traced pass and the probe.
  const double pass_s = options.trace ? options.seconds / 3.0 : options.seconds;
  const int64_t paced_laps =
      std::max<int64_t>(1, static_cast<int64_t>(pass_s * 0.5 / 0.010) / kLapTicks);
  const int64_t paced_ticks = paced_laps * kLapTicks;
  const int64_t unpaced_laps = kUnpacedPerPaced * paced_laps;
  FleetRunner runner(&fleet, options.seed);
  // Unmeasured warm-up laps bring the host out of idle before the paced
  // phase.
  PhaseSamples warmup;
  runner.Unpaced(kWarmupLaps, nullptr, &warmup);
  PhaseSamples run;
  run.Reserve(paced_ticks, unpaced_laps * kLapTicks, kShards);
  runner.Pass(paced_laps, /*collect_quality=*/true, nullptr, &run);
  const uint32_t replay_digest = fleet.daemon->digest();
  const double peak_rss = PeakRssMb();
  runner.Drain();
  const serve::SloReport report = fleet.daemon->Report();

  // --- output checks.
  result->AddAttempted(report.predict_requests);
  result->Check("daemon.unattributed_predicts", report.UnattributedPredicts() == 0,
                std::to_string(report.UnattributedPredicts()));
  result->Check("daemon.unattributed_observes", report.UnattributedObserves() == 0,
                std::to_string(report.UnattributedObserves()));
  result->Check("daemon.degraded_cause_mismatch",
                report.DegradedCauseMismatch() == 0,
                std::to_string(report.DegradedCauseMismatch()));
  result->Check("daemon.checkpoint_failures", report.checkpoint_failures == 0,
                std::to_string(report.checkpoint_failures));
  const QueueShadow& shadow = runner.shadow();
  result->Check("shadow.queue_depth", run.shadow_mismatches == 0,
                std::to_string(run.shadow_mismatches) +
                    " shard-ticks where the shadow depth differs");
  result->Check("shadow.totals",
                shadow.shed_predicts() == report.shed_overload_predict &&
                    shadow.shed_observes() == report.shed_overload_observe &&
                    shadow.expired() == report.expired_fallback,
                "shadow sheds/expiries " + std::to_string(shadow.shed_predicts()) +
                    "/" + std::to_string(shadow.expired()) + " vs daemon " +
                    std::to_string(report.shed_overload_predict) + "/" +
                    std::to_string(report.expired_fallback));
  const stats::MetricReport quality = stats::ComputeMetrics(run.pred, run.truth);
  result->Check("daemon.quality_finite",
                std::isfinite(quality.er) && std::isfinite(quality.msle),
                "er/msle finite");
  result->Info("replay_digest", Crc32Hex(replay_digest));

  const double limit_ms = 80.0;  // deadline_ticks x ms_per_tick
  int64_t within = 0;
  for (double v : run.predict_ms) within += v <= limit_ms ? 1 : 0;
  result->Metric("setup_s", Median(setup_s), "s");
  result->Metric("peak_rss_mb", peak_rss, "MB");
  // Tick tails per lap (each lap is the same work), median over laps: a
  // tick is a few ms, so one host interruption is a large part of it.
  result->Timing("step", "ms", run.tick_ms, kLapTicks);
  // In an open loop one slow stretch of the host makes every later tick
  // late until the loop catches up. Medians over paced laps (each lap:
  // two load cycles, ~10^5 requests) keep such a stretch from deciding
  // the run; the pooled values are printed beside them.
  result->Metric("predict_p50_ms", Median(run.lap_predict_p50), "ms");
  result->Metric("predict_p99_ms", Median(run.lap_predict_p99), "ms");
  result->Info("predict.pooled_p50_ms", Median(run.predict_ms));
  result->Info("predict.samples", static_cast<double>(run.predict_ms.size()));
  result->Info("predict.pooled_p99_ms", Quantile(run.predict_ms, 0.99));
  // Median over laps of answers per second, one lap hit by a host hiccup
  // not deciding it; times the run's full-model share of answers, so
  // degraded answers do not count (the shadow cannot tell them apart).
  const int64_t answers =
      report.served_model + report.served_degraded;
  result->Metric("capacity_rps",
                 answers > 0 ? Median(run.lap_rps) * report.served_model / answers
                             : 0.0,
                 "1/s");
  result->Metric("served_ratio",
                 report.predict_requests > 0
                     ? static_cast<double>(report.served_model) /
                           report.predict_requests
                     : 0.0,
                 "ratio");
  result->Metric("er", quality.er, "ratio");
  result->Metric("msle", quality.msle, "log2sq");
  result->Info("shards", static_cast<double>(kShards));
  result->Info("regions_per_shard", static_cast<double>(kRegionsPerShard));
  result->Info("paced_ticks", static_cast<double>(paced_ticks));
  result->Info("predict.limit_ms", limit_ms);
  result->Info("predict.within_limit_ratio",
               run.predict_ms.empty()
                   ? 0.0
                   : static_cast<double>(within) / run.predict_ms.size());
  result->Info("late_ms.p50", Median(run.late_ms));
  result->Info("late_ms.p99", TailQuantile(run.late_ms, 0.99, nullptr));
  result->Info("fail_ratio", report.predict_requests > 0
                                 ? 1.0 - static_cast<double>(report.served_model) /
                                             report.predict_requests
                                 : 0.0);

  if (options.trace) {
    Tracer tracer;
    PhaseSamples traced;
    runner.Pass(paced_laps, false, &tracer, &traced);
    result->Metric("trace.overhead_pct",
                   100.0 * (Median(traced.tick_ms) - Median(run.tick_ms)) /
                       Median(run.tick_ms),
                   "%");
    const serve::SloReport slo = fleet.daemon->Report();
    result->Metric("serve.daemon.tick_ms.p50", Median(traced.tick_ms), "ms");
    result->Metric("serve.daemon.tick_ms.p99",
                   TailQuantile(traced.tick_ms, 0.99, nullptr), "ms");
    result->Metric("serve.daemon.tick_plain_ms.p50",
                   Median(traced.tick_plain_ms), "ms");

    // The checkpoint path: unpaced laps of a durable fleet that writes
    // its state to the run directory at the default cadence.
    Fleet durable;
    if (!BuildFleet(options.seed, kDurableShards, state_root, &durable)) {
      result->Check("durable.setup", false, "durable fleet set-up failed");
      return 1;
    }
    FleetRunner durable_runner(&durable, options.seed);
    PhaseSamples durable_warmup, durable_run;
    durable_runner.Unpaced(kWarmupLaps, nullptr, &durable_warmup);
    durable_runner.Unpaced(kDurableLaps, nullptr, &durable_run);
    durable_runner.Drain();
    const serve::SloReport durable_slo = durable.daemon->Report();
    result->Check("durable.checkpoint_failures",
                  durable_slo.checkpoint_failures == 0 &&
                      durable_slo.UnattributedPredicts() == 0,
                  std::to_string(durable_slo.checkpoint_failures) +
                      " checkpoint failures, " +
                      std::to_string(durable_slo.UnattributedPredicts()) +
                      " unattributed predicts");
    result->Metric("serve.daemon.tick_ckpt_ms.p50",
                   Median(durable_run.tick_ckpt_ms), "ms");
    result->Metric("serve.daemon.checkpoints_written",
                   durable_slo.checkpoints_written, "count");
    result->Info("durable.shards", static_cast<double>(kDurableShards));
    result->Info("durable.tick_plain_ms.p50", Median(durable_run.tick_plain_ms));
    result->Metric("serve.daemon.model_ms.p50", slo.p50_ms, "ms");
    result->Metric("serve.daemon.model_ms.p99", slo.p99_ms, "ms");
    result->Metric("serve.daemon.late_ms.p99",
                   TailQuantile(traced.late_ms, 0.99, nullptr), "ms");
    result->Metric("serve.daemon.served_model", slo.served_model, "count");
    result->Metric("serve.daemon.served_degraded", slo.served_degraded, "count");
    result->Metric("serve.daemon.expired", slo.expired_fallback, "count");
    result->Metric("serve.daemon.shed_overload", slo.shed_overload_predict,
                   "count");
    result->Metric("serve.daemon.queue_depth_max",
                   runner.shadow().depth_max(), "count");
    result->Metric("serve.daemon.answers_per_forward",
                   runner.forwards() > 0
                       ? static_cast<double>(slo.served_model) /
                             runner.forwards()
                       : 0.0,
                   "ratio");
    result->Metric("serve.resilient.degraded_steps", slo.served_degraded,
                   "count");

    result->Metric("data.generate_s", fleet.generate_s, "s");
    result->Metric("data.window_s", fleet.window_s, "s");
    // Layer probe on a standalone shard-shaped stack (shard 0's data).
    auto dataset = ShardDataset(fleet.city, 0);
    auto split = dataset.ok() ? data::MakeChronoSplit(*dataset)
                              : Result<data::StepRanges>(dataset.status());
    core::EalgapForecaster model;
    TrainConfig train;
    train.epochs = 0;
    train.seed = DeriveSeed(DeriveSeed(options.seed, kSeedTrain), 0);
    if (!split.ok() || !model.Fit(*dataset, *split, train).ok()) {
      result->Check("probe.setup", false, "probe shard set-up failed");
      return 1;
    }
    ProbeConfig probe;
    probe.dataset = &*dataset;
    probe.model = &model;
    probe.serve_begin = split->test_begin;
    probe.seconds = pass_s;
    probe.scale = RmsScale(*dataset);
    probe.state_path = options.state_dir + "/fleet_probe.state";
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
