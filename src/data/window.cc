#include "data/window.h"

#include <algorithm>

namespace ealgap {
namespace data {

CivilDate StepCalendar::DateOfStep(int64_t step) const {
  return AddDays(start_date, step / steps_per_day);
}

int StepCalendar::HourOfStep(int64_t step) const {
  const int64_t within_day = step % steps_per_day;
  return static_cast<int>(within_day * 24 / steps_per_day);
}

bool StepCalendar::IsWeekendStep(int64_t step) const {
  return IsWeekend(DateOfStep(step));
}

int64_t WindowGeometry::min_target_step() const {
  // The first window reaches back W steps before the target; the matched
  // statistics want norm_history prior same-type days (+2 days of slack to
  // bridge weekends).
  const int64_t norm_floor =
      static_cast<int64_t>(steps_per_day) * (options.norm_history + 2);
  return std::max(span(), norm_floor);
}

}  // namespace data
}  // namespace ealgap
