#ifndef EALGAP_SERVE_SHARD_H_
#define EALGAP_SERVE_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/neural.h"
#include "common/bounded_queue.h"
#include "common/result.h"
#include "data/dataset.h"
#include "serve/stack.h"

namespace ealgap {
namespace serve {

/// One unit of work flowing through a shard's bounded queue. Requests are
/// plain values (no heap payload) so the queue cells never allocate:
/// an Observe carries the feed step it reports and the daemon resolves
/// the actual counts from the shard's feed at service time.
enum class RequestKind : unsigned char { kObserve = 0, kPredict = 1 };

struct Request {
  RequestKind kind = RequestKind::kPredict;
  int64_t id = 0;            ///< globally unique, for attribution
  int64_t arrival_tick = 0;  ///< virtual tick the request arrived
  int64_t deadline_tick = -1;  ///< absolute tick budget; < 0 = none
  int64_t feed_step = 0;     ///< kObserve: stream step being reported
};

/// Why a request was shed instead of served. Every rejected request is
/// attributed to exactly one cause — the SLO report's conservation law
/// (served + shed == ingested) depends on it.
enum class RejectCause {
  kOverload = 0,    ///< bounded queue full: admission control shed it
  kQuarantined = 1, ///< shard is quarantined/restarting
  kExpired = 2,     ///< deadline passed while queued; answered by fallback
};
constexpr int kNumRejectCauses = 3;
const char* RejectCauseName(RejectCause cause);

/// Watchdog health of a shard, supervised by the daemon.
///  kServing     normal operation.
///  kProbation   restarted recently; must serve `probation_steps` healthy
///               model steps before it counts as recovered (hysteresis,
///               so a flapping shard cannot bounce serving<->quarantine
///               every tick).
///  kQuarantined fenced off: requests are shed, a restart is scheduled.
enum class ShardHealth { kServing = 0, kProbation = 1, kQuarantined = 2 };
const char* ShardHealthName(ShardHealth health);

/// Watchdog thresholds. All counters are step/tick-based (virtual time),
/// never wall-clock, so supervised runs replay deterministically.
struct WatchdogPolicy {
  /// Consecutive model failures (non-finite / error / deadline) before
  /// the shard is declared sick and quarantined.
  int max_consecutive_failures = 4;
  /// Consecutive degraded-served steps (any fallback source) tolerated
  /// before quarantine — catches a model that is "up" but useless.
  int max_degraded_steps = 32;
  /// Consecutive stalled ticks (queue not drained) before quarantine.
  int max_stalled_ticks = 4;
  /// Healthy full-model steps required to leave probation.
  int probation_steps = 3;
  /// Virtual ticks a quarantined shard stays down before its restart
  /// (simulated process respawn + checkpoint load time).
  int restart_ticks = 2;
};

/// The stack options (`guard`, `resilience`, `adapt`) apply to every
/// incarnation the shard builds. Daemons default the guard to impute with a
/// generous max_gap_steps: steps lost while a shard was quarantined come
/// back as a gap on the first post-restart observe, and the guard must
/// absorb it instead of rejecting the feed forever.
struct ShardConfig : StackOptions {
  std::string name = "shard";
  size_t queue_capacity = 128;
  /// Directory for this shard's CRC'd checkpoints (model + predictor
  /// state). Empty => restarts re-seed from the original dataset instead
  /// of loading from disk (in-memory restart; still deterministic).
  std::string state_dir;
  /// Predictor-state checkpoint cadence in applied observes. The initial
  /// checkpoint is always written at creation so a restart can never find
  /// nothing.
  int checkpoint_every_steps = 16;
  WatchdogPolicy watchdog;
};

/// Reloads the fitted model from the shard's model checkpoint at a
/// restart (the daemon tool passes core::LoadForecasterFromCheckpoint;
/// serve cannot link core). Only consulted when state_dir is set. When
/// absent, or when the reload fails, the restart keeps the in-memory model
/// object, so only the model-file load path goes unrehearsed. Either way
/// the restart builds a fresh stack (serve/stack.h) over the model.
using ModelReloader = std::function<Result<std::unique_ptr<NeuralForecaster>>(
    const std::string&)>;

/// Per-shard lifetime counters, accumulated ACROSS restarts. Each count
/// has one owner. The scalar fields are what the shard itself decides.
/// The three layer structs are the serving layers' own counters, folded
/// in whole from every incarnation (the live layers die with it).
struct ShardTotals {
  int64_t crashes = 0;            ///< injected daemon.shard.crash fires
  int64_t stall_ticks = 0;        ///< injected daemon.shard.stall ticks
  int64_t quarantines = 0;        ///< watchdog + crash fences
  int64_t restarts = 0;
  int64_t restarts_from_checkpoint = 0;  ///< vs cold re-seeds
  int64_t checkpoints_written = 0;
  int64_t checkpoint_failures = 0;
  int64_t observes_applied = 0;
  GuardStats guard;              ///< OnlinePredictor input guards
  DegradationState degradation;  ///< ResilientPredictor chain (counters)
  /// All-zero unless the shard serves through an AdaptivePredictor.
  AdaptStats adapt;
};

/// One serving shard: a serving Stack (serve/stack.h) over its own model,
/// fed through a bounded MPSC queue, supervised by the daemon's watchdog,
/// and restartable from its last CRC'd checkpoint. The shard owns its
/// dataset slice — it doubles as the replay feed (the synthetic sensor)
/// and as the cold-restart seed.
///
/// Thread contract: Enqueue() is safe from any thread (that is the
/// queue's job); everything else is called by the daemon loop — either
/// from the single supervisor thread, or (ServePredictStep only) from at
/// most one pool worker at a time during the cross-shard fan-out.
class Shard {
 public:
  /// `serve_begin` is the stream step serving starts at (usually the
  /// dataset's test_begin). Writes the initial checkpoint when state_dir
  /// is set. The dataset must outlive nothing — it is moved in.
  static Result<std::unique_ptr<Shard>> Create(
      data::SlidingWindowDataset dataset,
      std::unique_ptr<NeuralForecaster> model,
      int64_t serve_begin, ShardConfig config,
      ModelReloader reloader = nullptr);

  const std::string& name() const { return config_.name; }
  const ShardConfig& config() const { return config_; }
  ShardHealth health() const { return health_; }
  int64_t restart_at_tick() const { return restart_at_tick_; }
  BoundedQueue<Request>& queue() { return *queue_; }

  // --- feed (the synthetic sensor stream) ----------------------------------
  /// Returns the next stream step the feed reports, advancing the cursor.
  /// The feed advances regardless of shard health: a quarantined shard's
  /// sensor keeps measuring, which is what creates the post-restart gap.
  int64_t TakeFeedStep() { return next_feed_step_++; }
  /// Counts for stream step `step`, cycled over the dataset's serve range
  /// (long soaks outlive the recorded series). Returns a reference to
  /// member scratch.
  const std::vector<double>& FeedCounts(int64_t step);

  // --- serving -------------------------------------------------------------
  /// Applies one Observe through the guard chain. A guard rejection is
  /// counted by the guard (GuardStats::rejected_observations) and reported
  /// OK here: the feed is advancing, the rejection is attributed, the loop
  /// must not stop.
  void ApplyObserve(const Request& request);

  /// One coalesced model step: every pending Predict popped this tick is
  /// answered from this single forward pass. `deadline_ms` is the
  /// propagated remaining budget (<= 0 disables). The result lands in
  /// last_served(). Returns false only on an internal chain error (the
  /// daemon then quarantines the shard).
  bool ServePredictStep(double deadline_ms);
  const ServedPrediction& last_served() const { return last_served_; }

  /// Fallback-only answer for requests whose deadline already expired at
  /// dequeue: matched-mean (never touches the model, never blocks).
  const std::vector<double>& ExpiredFallback();

  // --- watchdog (driven by the daemon, single-threaded) --------------------
  /// Folds the last served step into the watchdog streaks (the chain
  /// counts the step itself). Returns true when the watchdog verdict is
  /// "quarantine this shard now".
  bool NoteServedStep();
  /// Counts a stalled tick; true when the stall streak trips the watchdog.
  bool NoteStalledTick();
  void NoteDrainedTick() { stalled_streak_ = 0; }

  /// Fences the shard and schedules its restart. The incarnation's
  /// counters are folded into totals at Restart(), not here.
  void BeginQuarantine(int64_t now_tick, bool injected_crash);

  /// Builds a fresh stack, restored from the last CRC'd checkpoint (or
  /// re-seeded from the dataset when there is none / no state_dir), and
  /// enters probation. Folds the dying incarnation's counters into totals.
  Status Restart();

  /// Writes the periodic predictor-state checkpoint when the cadence says
  /// so. Failures are counted, never fatal (the previous checkpoint
  /// survives — that is WriteFileAtomic's contract). When the shard serves
  /// through an AdaptivePredictor, committed adaptations also re-save the
  /// model checkpoint (so a quarantine-restart resumes the adapted
  /// weights) and the adapt state rides along on the same cadence.
  void MaybeCheckpoint();

  /// Runs at most one deferred adaptation attempt (no-op unless the shard
  /// adapts and is healthy). Called by the
  /// daemon's single-threaded supervisor phase, never during the serve
  /// fan-out.
  Result<AdaptEvent> MaybeAdapt();

  /// Lifetime totals with the live incarnation's layer counters folded in
  /// (a restart stores this fold as the new lifetime totals).
  ShardTotals Totals() const;

  /// The live incarnation's layers; a restart replaces them, so do not
  /// hold these across ticks.
  OnlinePredictor* predictor() { return stack_.online.get(); }
  /// Non-null iff config().adapt is set.
  AdaptivePredictor* adaptive() const { return stack_.adaptive.get(); }

 private:
  Shard() = default;

  std::string StatePath() const { return config_.state_dir + "/predictor.state"; }
  std::string ModelPath() const { return config_.state_dir + "/model.ckpt"; }
  std::string AdaptStatePath() const {
    return config_.state_dir + "/adapt.state";
  }

  ShardConfig config_;
  data::SlidingWindowDataset dataset_;
  std::unique_ptr<NeuralForecaster> model_;
  ModelReloader reloader_;
  int64_t serve_begin_ = 0;

  std::unique_ptr<BoundedQueue<Request>> queue_;
  Stack stack_;

  ShardHealth health_ = ShardHealth::kServing;
  int64_t restart_at_tick_ = -1;
  int consecutive_model_failures_ = 0;
  int degraded_streak_ = 0;
  int stalled_streak_ = 0;
  int probation_healthy_ = 0;

  int64_t next_feed_step_ = 0;
  int64_t observes_since_checkpoint_ = 0;
  /// Commits already persisted into ModelPath(); a difference at the next
  /// checkpoint cadence re-saves the model file.
  int64_t adapt_commits_checkpointed_ = 0;

  ServedPrediction last_served_;
  std::vector<double> feed_scratch_;
  std::vector<double> expired_scratch_;

  ShardTotals totals_;
};

}  // namespace serve
}  // namespace ealgap

#endif  // EALGAP_SERVE_SHARD_H_
