#ifndef EALGAP_DATA_AGGREGATE_H_
#define EALGAP_DATA_AGGREGATE_H_

#include <vector>

#include "common/result.h"
#include "common/time_util.h"
#include "data/partition.h"
#include "data/trip.h"
#include "data/window.h"
#include "tensor/tensor.h"

namespace ealgap {
namespace data {

/// The region x time-step mobility matrix X plus its calendar, the form all
/// forecasters consume (paper Sec. IV-A: T = 24 steps/day).
struct MobilitySeries : StepCalendar {
  Tensor counts;  ///< (num_regions, total_steps) pick-up volumes
  int num_regions = 0;
  int num_days = 0;

  int64_t total_steps() const {
    return static_cast<int64_t>(num_days) * steps_per_day;
  }

  /// Value accessor.
  float At(int region, int64_t step) const;
};

/// Which trip endpoint a series counts: pick-ups (paper default) or
/// drop-offs (the "arrivals" view mentioned in the paper's introduction).
enum class CountKind { kPickups, kDropoffs };

/// Counts trip starts (or ends) into (region, hourly step) cells. Trips
/// outside [start_date, start_date + num_days) or at unknown stations are
/// ignored (and tallied in `dropped` when provided).
Result<MobilitySeries> AggregateTrips(const std::vector<TripRecord>& trips,
                                      const std::vector<Station>& stations,
                                      const RegionPartition& partition,
                                      const CivilDate& start_date,
                                      int num_days, size_t* dropped = nullptr,
                                      CountKind kind = CountKind::kPickups);

/// Sub-series holding regions [begin, end) of `series`, same calendar.
/// This is the serving daemon's shard-partitioning primitive: one city
/// series splits into per-shard slices that each get their own model and
/// predictor. The slice owns its counts (a copy), so shards never share
/// mutable state.
Result<MobilitySeries> SliceRegions(const MobilitySeries& series, int begin,
                                    int end);

}  // namespace data
}  // namespace ealgap

#endif  // EALGAP_DATA_AGGREGATE_H_
