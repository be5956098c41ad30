#ifndef EALGAP_CORE_EXPERIMENT_H_
#define EALGAP_CORE_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/forecaster.h"
#include "baselines/neural.h"
#include "core/journal.h"
#include "data/cleaning.h"
#include "data/dataset.h"
#include "data/dataset_configs.h"
#include "data/synthetic_city.h"
#include "stats/metrics.h"

namespace ealgap {
namespace core {

/// The full data pipeline output for one (dataset, period) experiment.
struct PreparedData {
  data::SyntheticCity city;
  data::CleaningReport cleaning;
  /// Stations surviving the cleaning stage, aligned with
  /// partition.station_region.
  std::vector<data::Station> stations;
  data::RegionPartition partition;
  data::SlidingWindowDataset dataset;
  data::StepRanges split;
};

/// Runs generate -> clean -> partition -> aggregate -> window/split.
/// `partition_override` replaces the config's partition options (used by
/// the clustering ablations); `count_kind` selects pick-ups (default) or
/// drop-offs (the arrivals view).
Result<PreparedData> PrepareData(
    const data::PeriodConfig& config,
    std::optional<data::PartitionOptions> partition_override = std::nullopt,
    data::CountKind count_kind = data::CountKind::kPickups);

/// The paper's scheme roster, in table order.
std::vector<std::string> PaperSchemes();

/// Builds a forecaster by scheme name ("ARIMA", "GRU", "LSTM", "RNN",
/// "ST-Norm", "ST-ResNet", "EVL", "CHAT", "EALGAP", plus extras "HA",
/// "EALGAP-G" (global only), "EALGAP-E" (extreme only),
/// "EALGAP-N" (normal distribution)).
Result<std::unique_ptr<Forecaster>> MakeForecaster(const std::string& scheme,
                                                   const PreparedData& data);

/// Reconstructs a fitted forecaster from a checkpoint written by
/// NeuralForecaster::SaveCheckpoint: peeks the `model` line of the header,
/// constructs the matching forecaster ("EALGAP", "GRU", "LSTM", "RNN",
/// "EVL", "ST-Norm"), and loads configuration plus parameters. Corrupted
/// or unknown-model files yield a Status error.
Result<std::unique_ptr<NeuralForecaster>> LoadForecasterFromCheckpoint(
    const std::string& path);

/// One table cell group: a scheme evaluated on the test range. A scheme
/// that failed (diverged past its rollback budget, hit an injected fault,
/// rejected its config) still occupies its row — `status` carries the
/// cause and `metrics` is all zeros — so table indexing by scheme position
/// stays valid and one bad cell never aborts a sweep.
struct SchemeResult {
  std::string scheme;
  Status status = Status::OK();
  stats::MetricReport metrics;
  double fit_seconds = 0.0;
  double train_step_ms = 0.0;   ///< 0 for non-neural schemes
  TrainStats train_stats;       ///< rollback/retry attribution (neural only)
};

struct PeriodResult {
  std::string label;  ///< "Normal" / "Hurricane" / ...
  std::vector<SchemeResult> rows;
};

struct ExperimentOptions {
  std::vector<std::string> schemes = PaperSchemes();
  TrainConfig train;
  uint64_t seed = 7;
  double data_scale = 1.0;
  bool verbose = false;
};

/// Trains and evaluates every scheme on one (dataset, period). Schemes are
/// isolated: a failing scheme yields a row with a non-OK status (and a log
/// line) while the remaining schemes still run. Only data preparation
/// failures — which doom every scheme equally — abort the period.
Result<PeriodResult> RunPeriod(const data::PeriodConfig& config,
                               const ExperimentOptions& options);

/// Fits one scheme on prepared data and evaluates it on the test range.
Result<SchemeResult> RunScheme(const std::string& scheme,
                               const PreparedData& data,
                               const TrainConfig& train);

/// A multi-(city, period) sweep with crash-safe progress journaling.
struct SweepOptions {
  std::vector<data::City> cities = data::AllCities();
  std::vector<data::Period> periods = data::AllPeriods();
  ExperimentOptions experiment;
  /// Journal file recording every finished cell; empty disables journaling
  /// (and with it, resume).
  std::string journal_path;
  /// Skip cells already present in the journal instead of starting over.
  bool resume = false;
  /// Directory for per-cell train-state checkpoints (see
  /// TrainConfig::checkpoint_path); empty disables them.
  std::string state_dir;
  /// TrainConfig::checkpoint_every for neural schemes when state_dir is set.
  int checkpoint_every = 0;
};

struct SweepResult {
  int64_t cells_run = 0;      ///< cells trained and evaluated this process
  int64_t cells_skipped = 0;  ///< cells satisfied from the journal (resume)
  int64_t cells_failed = 0;   ///< cells whose scheme failed (isolated)
  std::vector<JournalEntry> entries;  ///< final journal content, in order
};

/// Runs cities x periods x schemes. Each finished cell is journaled
/// atomically before the next begins, so an interrupted sweep restarts
/// with `resume` and re-runs only the missing cells. Scheme failures are
/// recorded as failed cells and do not abort the sweep; journal I/O
/// failures do (progress the journal cannot vouch for is not progress).
Result<SweepResult> RunSweep(const SweepOptions& options);

}  // namespace core
}  // namespace ealgap

#endif  // EALGAP_CORE_EXPERIMENT_H_
