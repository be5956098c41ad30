#include "data/aggregate.h"

#include <map>
#include <string>

#include "tensor/ops.h"

namespace ealgap {
namespace data {

float MobilitySeries::At(int region, int64_t step) const {
  return counts.data()[region * total_steps() + step];
}

Result<MobilitySeries> AggregateTrips(const std::vector<TripRecord>& trips,
                                      const std::vector<Station>& stations,
                                      const RegionPartition& partition,
                                      const CivilDate& start_date,
                                      int num_days, size_t* dropped,
                                      CountKind kind) {
  if (stations.size() != partition.station_region.size()) {
    return Status::InvalidArgument(
        "partition size does not match station count");
  }
  if (num_days <= 0) return Status::InvalidArgument("num_days must be > 0");

  std::map<int, int> station_to_region;
  for (size_t i = 0; i < stations.size(); ++i) {
    station_to_region[stations[i].id] = partition.station_region[i];
  }

  MobilitySeries series;
  series.num_regions = partition.num_regions;
  series.steps_per_day = 24;
  series.start_date = start_date;
  series.num_days = num_days;
  const int64_t steps = series.total_steps();
  series.counts = Tensor::Zeros({series.num_regions, steps});
  float* counts = series.counts.data();

  const int64_t epoch_start = DaysSinceEpoch(start_date) * 86400;
  const int64_t epoch_end = epoch_start + static_cast<int64_t>(num_days) * 86400;
  size_t local_dropped = 0;
  for (const TripRecord& t : trips) {
    const int64_t when =
        kind == CountKind::kPickups ? t.start_seconds : t.end_seconds;
    const int station =
        kind == CountKind::kPickups ? t.start_station : t.end_station;
    if (when < epoch_start || when >= epoch_end) {
      ++local_dropped;
      continue;
    }
    const auto it = station_to_region.find(station);
    if (it == station_to_region.end()) {
      ++local_dropped;
      continue;
    }
    const int64_t step = (when - epoch_start) / 3600;
    counts[it->second * steps + step] += 1.f;
  }
  if (dropped != nullptr) *dropped = local_dropped;
  return series;
}

Result<MobilitySeries> SliceRegions(const MobilitySeries& series, int begin,
                                    int end) {
  if (begin < 0 || end > series.num_regions || begin >= end) {
    return Status::InvalidArgument(
        "SliceRegions: bad region range [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") of " + std::to_string(series.num_regions));
  }
  MobilitySeries out;
  out.counts = ops::Slice(series.counts, 0, begin, end);
  out.num_regions = end - begin;
  out.steps_per_day = series.steps_per_day;
  out.start_date = series.start_date;
  out.num_days = series.num_days;
  return out;
}

}  // namespace data
}  // namespace ealgap
