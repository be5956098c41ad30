// Shared pieces of the end-to-end benchmark driver: run options, seed
// derivation, sample statistics, the per-run result record, and the
// layer probe every workload runs in its traced pass.

#ifndef EALGAP_E2EBENCH_BENCH_H_
#define EALGAP_E2EBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "trace.h"

namespace ealgap {
class Forecaster;
}  // namespace ealgap

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsSince(Clock::time_point t0) {
  return MsBetween(t0, Clock::now()) / 1000.0;
}

/// Threads in the process pool for every workload. A constant, not a flag:
/// results are only comparable between commits at one pool size. One
/// thread: on a shared host, every parallel region that waits for a second
/// worker made the step tails follow the other tenants (README, Bounds).
constexpr int kPoolThreads = 1;

/// Set-up is repeated and its median reported, so that work moved into
/// set-up shows without one slow repetition deciding: at least 5 times,
/// and while under 2 s have been spent, up to 30 times.
bool KeepSettingUp(size_t reps_done, double spent_s);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span JSON path (traced runs)
  std::string state_dir;  ///< scratch directory for checkpoints
};

/// Every random input of a workload comes from the one workload seed:
/// stream `tag` names what the seed is for (series, load, training, ...).
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

enum SeedTag : uint64_t {
  kSeedSeries = 1,
  kSeedLoad = 2,
  kSeedTrain = 3,
  kSeedPartition = 4,
  kSeedProbe = 5,
};

double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);

/// The tail percentile reported beside a median: q (e.g. 0.99) when at
/// least ten samples lie beyond it, otherwise the highest quantile that
/// still leaves ten beyond. `used` receives the quantile actually taken.
double TailQuantile(const std::vector<double>& v, double q, double* used);

/// Process peak resident set size in MB (VmHWM), read at the end of the
/// measured phase so output checks that run afterwards do not count.
double PeakRssMb();

/// Bit-exact CRC32 over doubles, for the served-value digests.
uint32_t CrcDoubles(const double* values, size_t n, uint32_t crc);

/// One run's outcome: metrics by name, stamped facts, and checks. The
/// driver script picks the declared metrics out of it.
class RunResult {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
  /// A failed check counts one failed operation and marks the run wrong.
  void Check(const std::string& name, bool ok, const std::string& detail);
  void AddAttempted(int64_t n) { attempted_ += n; }

  /// Timing metric pair: `<base>_p50_<unit>` and `<base>_p99_<unit>` from
  /// the samples, with the sample count and the tail quantile in Info.
  /// With `block` > 0 the tail is the median, over the whole blocks of
  /// `block` consecutive samples, of each block's tail quantile, so a
  /// stretch of host interference that hits a minority of blocks does not
  /// decide it; the pooled tail goes to Info.
  void Timing(const std::string& base, const std::string& unit,
              const std::vector<double>& samples, size_t block = 0);

  bool correct() const { return checks_failed_ == 0; }
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::pair<std::string, std::string>> checks_;
  int64_t checks_failed_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Model geometry shared by the serving workloads (micro_serve's scale
/// fixtures): L = 5, M = 3, matched statistics over 3 same-slot days.
ealgap::data::DatasetOptions ServeDatasetOptions();

/// The layer probe of a traced run. It times, at the workload's served
/// shape, the public calls each paper stage and serving layer is made of:
/// OnlinePredictor Observe / PredictNextInto / SaveState, the
/// ResilientPredictor step, and standalone GlobalImpactModule,
/// ExtremeDegreeModule and stats::RowwisePdf instances run under no-grad
/// and an ArenaScope as the serve path runs them. The probe stack is its
/// own (a fresh predictor over `model`), so the measured workload's state
/// and digests are untouched. Reports the uniform per-layer metrics.
struct ProbeConfig {
  const ealgap::data::SlidingWindowDataset* dataset = nullptr;
  ealgap::Forecaster* model = nullptr;  ///< fitted, streaming-capable
  int64_t serve_begin = 0;  ///< first stream step the probe predicts
  int64_t hidden = 32;
  int64_t gru_hidden = 16;
  float scale = 1.f;        ///< model-space divisor for the probe inputs
  double seconds = 1.0;     ///< time budget of the probe's serve steps
  std::string state_path;   ///< SaveState target
};
/// Root-mean-square of the dataset's counts: the probe's stand-in for the
/// model's private input scale (values do not change the probe's cost).
float RmsScale(const ealgap::data::SlidingWindowDataset& dataset);

void RunLayerProbe(const ProbeConfig& config, uint64_t seed, Tracer* tracer,
                   RunResult* result);

/// Self time (span minus the part its children cover) of every span name
/// the tracer holds, as `self.<name>_us.p50`.
void ReportSelfTimes(const Tracer& tracer, RunResult* result);

}  // namespace e2e

#endif  // EALGAP_E2EBENCH_BENCH_H_
