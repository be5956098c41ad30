#include "serve/daemon.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"

namespace ealgap {
namespace serve {
namespace {

double WallMsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Daemon::Daemon(DaemonConfig config) : config_(config) {
  if (config_.batch_max < 1) config_.batch_max = 1;
}

void Daemon::AddShard(std::unique_ptr<Shard> shard) {
  shards_.push_back(std::move(shard));
  const size_t n = shards_.size();
  stalled_.resize(n, 0);
  pending_.resize(n);
}

void Daemon::DigestAdd(uint64_t word) {
  digest_ = Crc32(&word, sizeof(word), digest_);
}

void Daemon::DigestAddValues(const std::vector<double>& values) {
  for (double v : values) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    DigestAdd(bits);
  }
}

void Daemon::Shed(int shard_index, const Request& request, RejectCause cause) {
  const bool predict = request.kind == RequestKind::kPredict;
  switch (cause) {
    case RejectCause::kOverload:
      ++(predict ? stats_.shed_overload_predict : stats_.shed_overload_observe);
      break;
    case RejectCause::kQuarantined:
      ++(predict ? stats_.shed_quarantine_predict
                 : stats_.shed_quarantine_observe);
      break;
    case RejectCause::kExpired:
      // Expired predicts are not shed — they get a fallback answer — so
      // this arm only exists to keep the switch exhaustive.
      break;
  }
  // Sheds are decisions: they go into the replay digest.
  DigestAdd(0xD0000000ull | static_cast<uint64_t>(cause));
  DigestAdd(static_cast<uint64_t>(shard_index));
  DigestAdd(static_cast<uint64_t>(request.id));
}

void Daemon::DrainQueueAsShed(int shard_index, RejectCause cause) {
  Shard& sh = *shards_[static_cast<size_t>(shard_index)];
  Request req;
  while (sh.queue().TryPop(&req)) {
    --(req.kind == RequestKind::kPredict ? inq_predict_ : inq_observe_);
    Shed(shard_index, req, cause);
  }
}

void Daemon::Quarantine(int shard_index, bool injected_crash) {
  Shard& sh = *shards_[static_cast<size_t>(shard_index)];
  sh.BeginQuarantine(tick_, injected_crash);
  // A fenced shard answers nothing: everything queued is shed, attributed.
  DrainQueueAsShed(shard_index, RejectCause::kQuarantined);
  DigestAdd(0xC0000000ull);
  DigestAdd(static_cast<uint64_t>(shard_index));
  DigestAdd(static_cast<uint64_t>(tick_));
}

void Daemon::EnqueueOrShed(int shard_index, const Request& request) {
  Shard& sh = *shards_[static_cast<size_t>(shard_index)];
  if (sh.health() == ShardHealth::kQuarantined) {
    Shed(shard_index, request, RejectCause::kQuarantined);
    return;
  }
  // daemon.queue.full simulates admission pressure without needing a
  // physically full ring — chaos runs exercise the shed path at any load.
  if (EALGAP_FAULT("daemon.queue.full") || !sh.queue().TryPush(request)) {
    Shed(shard_index, request, RejectCause::kOverload);
    return;
  }
  ++(request.kind == RequestKind::kPredict ? inq_predict_ : inq_observe_);
}

void Daemon::Tick(const std::vector<int>& predict_arrivals) {
  const int n = num_shards();

  // --- supervisor: restarts due this tick, then fault sites, in shard
  // index order from the single daemon thread (replayable) ---------------
  for (int s = 0; s < n; ++s) {
    Shard& sh = *shards_[static_cast<size_t>(s)];
    if (sh.health() == ShardHealth::kQuarantined &&
        sh.restart_at_tick() <= tick_) {
      if (sh.Restart().ok()) {
        DigestAdd(0xBE000000ull);
        DigestAdd(static_cast<uint64_t>(s));
      } else {
        // Restart failed (it can only fail on a cold re-seed from the
        // immutable dataset, so this is near-impossible) — stay fenced,
        // retry next tick.
        sh.BeginQuarantine(tick_, /*injected_crash=*/false);
      }
    }
    if (sh.health() != ShardHealth::kQuarantined &&
        EALGAP_FAULT("daemon.shard.crash")) {
      Quarantine(s, /*injected_crash=*/true);
    }
    const bool stalled = sh.health() != ShardHealth::kQuarantined &&
                         EALGAP_FAULT("daemon.shard.stall");
    stalled_[static_cast<size_t>(s)] = stalled ? 1 : 0;
  }

  // --- ingest: the feed Observe first, then this tick's Predict arrivals,
  // so every Predict admitted this tick sees the same stream position ----
  for (int s = 0; s < n; ++s) {
    Shard& sh = *shards_[static_cast<size_t>(s)];
    Request obs;
    obs.kind = RequestKind::kObserve;
    obs.id = next_request_id_++;
    obs.arrival_tick = tick_;
    obs.feed_step = sh.TakeFeedStep();
    ++stats_.observe_requests;
    EnqueueOrShed(s, obs);

    const int arrivals = s < static_cast<int>(predict_arrivals.size())
                             ? predict_arrivals[static_cast<size_t>(s)]
                             : 0;
    for (int a = 0; a < arrivals; ++a) {
      Request req;
      req.kind = RequestKind::kPredict;
      req.id = next_request_id_++;
      req.arrival_tick = tick_;
      req.deadline_tick =
          config_.deadline_ticks > 0 ? tick_ + config_.deadline_ticks : -1;
      ++stats_.predict_requests;
      EnqueueOrShed(s, req);
    }
  }

  // --- drain: pop up to batch_max per shard; observes apply inline (FIFO
  // with respect to the predicts behind them), predicts coalesce ---------
  active_.clear();
  for (int s = 0; s < n; ++s) {
    Shard& sh = *shards_[static_cast<size_t>(s)];
    pending_[static_cast<size_t>(s)].clear();
    if (sh.health() == ShardHealth::kQuarantined) continue;
    if (stalled_[static_cast<size_t>(s)]) {
      // Stalled: the queue sits undrained this tick; arrivals kept landing
      // on it above, which is exactly how a stall turns into overload.
      if (sh.NoteStalledTick()) Quarantine(s, /*injected_crash=*/false);
      continue;
    }
    sh.NoteDrainedTick();
    Request req;
    int popped = 0;
    while (popped < config_.batch_max && sh.queue().TryPop(&req)) {
      ++popped;
      --(req.kind == RequestKind::kPredict ? inq_predict_ : inq_observe_);
      if (req.kind == RequestKind::kObserve) {
        sh.ApplyObserve(req);
        DigestAdd(0xA0000000ull);
        DigestAdd(static_cast<uint64_t>(req.feed_step));
      } else {
        pending_[static_cast<size_t>(s)].push_back(req);
      }
    }
    if (!pending_[static_cast<size_t>(s)].empty()) active_.push_back(s);
  }

  // --- serve: one coalesced forward pass per active shard, fanned across
  // the pool. Per-shard work is independent => any thread count produces
  // identical answers (same contract PredictManyInto already keeps). -----
  const size_t na = active_.size();
  deadline_ms_.assign(na, 0.0);
  serve_ok_.assign(na, 1);
  serve_ms_.assign(na, 0.0);
  has_live_.assign(na, 0);
  for (size_t i = 0; i < na; ++i) {
    const int s = active_[i];
    int64_t min_remaining = -1;
    for (const Request& req : pending_[static_cast<size_t>(s)]) {
      if (req.deadline_tick >= 0 && req.deadline_tick < tick_) continue;
      has_live_[i] = 1;
      if (req.deadline_tick >= 0) {
        const int64_t remaining = req.deadline_tick - tick_;
        if (min_remaining < 0 || remaining < min_remaining) {
          min_remaining = remaining;
        }
      }
    }
    // The batch's tightest remaining budget, min'd with the per-attempt
    // cap. The model either answers inside the budget or the chain
    // degrades with cause kDeadline — a late answer never ships.
    double budget = config_.model_deadline_ms;
    if (min_remaining >= 0) {
      const double ticks_ms =
          (static_cast<double>(min_remaining) + 1.0) * config_.ms_per_tick;
      budget = budget > 0 ? std::min(budget, ticks_ms) : ticks_ms;
    }
    deadline_ms_[i] = budget;
  }
  ParallelFor(0, static_cast<int64_t>(na), 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      const size_t k = static_cast<size_t>(i);
      if (!has_live_[k]) continue;  // only expired pending: no model step
      Shard& sh = *shards_[static_cast<size_t>(active_[k])];
      const auto t0 = std::chrono::steady_clock::now();
      serve_ok_[k] = sh.ServePredictStep(deadline_ms_[k]) ? 1 : 0;
      serve_ms_[k] = WallMsSince(t0);
    }
  });

  // --- record + watchdog: single-threaded again, shard index order ------
  for (size_t i = 0; i < na; ++i) {
    const int s = active_[i];
    Shard& sh = *shards_[static_cast<size_t>(s)];
    std::vector<Request>& reqs = pending_[static_cast<size_t>(s)];
    if (has_live_[i] && !serve_ok_[i]) {
      // The chain itself errored (not a degraded answer — an error):
      // nobody gets an answer, everything pending is shed, shard fenced.
      for (const Request& req : reqs) Shed(s, req, RejectCause::kQuarantined);
      reqs.clear();
      Quarantine(s, /*injected_crash=*/false);
      continue;
    }
    if (has_live_[i]) DigestAddValues(sh.last_served().values);
    int64_t answered = 0;
    for (const Request& req : reqs) {
      const bool expired = req.deadline_tick >= 0 && req.deadline_tick < tick_;
      if (expired) {
        // Budget blown while queued: answered from matched-mean fallback,
        // never by a (late) model pass.
        ++stats_.expired_fallback;
        DigestAdd(0xE0000000ull);
        DigestAdd(static_cast<uint64_t>(req.id));
        DigestAddValues(sh.ExpiredFallback());
        continue;
      }
      const ServedPrediction& served = sh.last_served();
      if (served.source == FallbackLevel::kFullModel) {
        ++stats_.served_model;
      } else {
        ++stats_.served_degraded;
        ++stats_.degraded_by_cause[static_cast<int>(served.cause)];
      }
      ++answered;
      DigestAdd(0x5E000000ull | static_cast<uint64_t>(served.source));
      DigestAdd(static_cast<uint64_t>(served.cause));
      DigestAdd(static_cast<uint64_t>(req.id));
    }
    if (answered > 0) step_latency_ms_.push_back({serve_ms_[i], answered});
    reqs.clear();
    // The coalesced pass is ONE served step for the watchdog no matter how
    // many requests it answered. Quarantining here (after attribution)
    // fences the shard for future ticks; this tick's answers already went
    // out, which is what a real supervisor observes too.
    if (has_live_[i] && sh.NoteServedStep()) {
      Quarantine(s, /*injected_crash=*/false);
    }
  }

  // --- adapt: deferred test-time adaptation, single-threaded in shard
  // index order from the supervisor thread. Runs OUTSIDE the timed serve
  // fan-out, so a micro-fine-tune never eats a request's deadline budget;
  // every decision is driven by observed-step counters (virtual time), so
  // replays make identical adaptation decisions at any thread count. A
  // shard without an AdaptivePredictor no-ops and adds nothing to the
  // digest — adaptation off leaves the replay digest bit-identical. ------
  for (int s = 0; s < n; ++s) {
    Shard& sh = *shards_[static_cast<size_t>(s)];
    if (sh.health() == ShardHealth::kQuarantined) continue;
    Result<AdaptEvent> event = sh.MaybeAdapt();
    if (!event.ok()) {
      // Only an unrecoverable snapshot-restore failure lands here: the
      // shard's parameters can no longer be trusted — fence it and let the
      // restart path reload the last good checkpoint.
      Quarantine(s, /*injected_crash=*/false);
      continue;
    }
    if (event->outcome != AdaptOutcome::kNone) {
      DigestAdd(0xAD000000ull |
                (static_cast<uint64_t>(event->outcome) << 8) |
                (event->froze ? 2ull : 0ull) | (event->unfroze ? 1ull : 0ull));
      DigestAdd(static_cast<uint64_t>(s));
      DigestAdd(static_cast<uint64_t>(tick_));
    }
  }

  // --- checkpoint cadence ----------------------------------------------
  for (int s = 0; s < n; ++s) {
    Shard& sh = *shards_[static_cast<size_t>(s)];
    if (sh.health() == ShardHealth::kQuarantined) continue;
    sh.MaybeCheckpoint();
  }

  ++tick_;
  ++stats_.ticks;
}

SloReport Daemon::Run(LoadGen* gen, int64_t ticks) {
  std::vector<int> arrivals;
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t t = 0; t < ticks; ++t) {
    gen->ArrivalsAt(tick_, &arrivals);
    Tick(arrivals);
  }
  wall_seconds_ += WallMsSince(t0) / 1000.0;
  return Report();
}

SloReport Daemon::Report() const {
  SloReport out = stats_;

  // Everything the shards and their layers count survives restarts in the
  // shard totals; fold it in.
  for (const auto& shard : shards_) {
    const ShardTotals t = shard->Totals();
    out.observes_applied += t.observes_applied;
    out.observes_guard_rejected += t.guard.rejected_observations;
    out.adapt.Accumulate(t.adapt);
    out.crashes_injected += t.crashes;
    out.stall_ticks_injected += t.stall_ticks;
    out.watchdog_quarantines += t.quarantines;
    out.restarts += t.restarts;
    out.restarts_from_checkpoint += t.restarts_from_checkpoint;
    out.checkpoints_written += t.checkpoints_written;
    out.checkpoint_failures += t.checkpoint_failures;
  }

  // Queue occupancy is tracked independently (counted at push/pop on the
  // supervisor thread), NOT derived from the conservation identity — so
  // Unattributed*() is a real invariant check, not a tautology.
  out.queued_predict = inq_predict_;
  out.queued_observe = inq_observe_;

  if (!step_latency_ms_.empty()) {
    double sum = 0.0;
    int64_t requests = 0;
    for (const stats::WeightedValue& step : step_latency_ms_) {
      sum += step.value * static_cast<double>(step.weight);
      requests += step.weight;
    }
    out.mean_ms = sum / static_cast<double>(requests);
    out.p50_ms = stats::WeightedQuantile(step_latency_ms_, 0.50);
    out.p95_ms = stats::WeightedQuantile(step_latency_ms_, 0.95);
    out.p99_ms = stats::WeightedQuantile(step_latency_ms_, 0.99);
  }
  out.wall_seconds = wall_seconds_;
  const double answered = static_cast<double>(
      out.served_model + out.served_degraded + out.expired_fallback);
  out.throughput_rps = wall_seconds_ > 0 ? answered / wall_seconds_ : 0.0;
  return out;
}

}  // namespace serve
}  // namespace ealgap
