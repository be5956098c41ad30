#ifndef EALGAP_DATA_WINDOW_H_
#define EALGAP_DATA_WINDOW_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/time_util.h"
#include "tensor/tensor.h"

namespace ealgap {
namespace data {

// Window data (paper Sec. IV-A and Eq. 9), decided once: which steps a
// sample reads, which earlier steps are matched to a step, how the matched
// moments are summed and how a sample is assembled. SlidingWindowDataset
// (the whole series, region-major) and serve::OnlinePredictor (a ring of
// recent steps, step-major) both go through the code below, which is what
// keeps streaming predictions bit-identical to batch ones.

/// Step s falls on day s / steps_per_day after start_date.
struct StepCalendar {
  CivilDate start_date;
  int steps_per_day = 24;

  CivilDate DateOfStep(int64_t step) const;
  int HourOfStep(int64_t step) const;
  bool IsWeekendStep(int64_t step) const;

  /// Calls visit(back) for up to `limit` steps before `step` at the same
  /// time of day on the same day type (weekday/weekend), newest first: the
  /// matched records of Eq. 9 and of the historical-average baseline.
  template <typename Visit>
  void ForEachMatchedStep(int64_t step, int limit, Visit&& visit) const {
    const bool weekend = IsWeekendStep(step);
    int found = 0;
    for (int64_t back = step - steps_per_day; back >= 0 && found < limit;
         back -= steps_per_day) {
      if (IsWeekendStep(back) != weekend) continue;
      visit(back);
      ++found;
    }
  }

  /// Key in [0, 2 * steps_per_day) that two steps share exactly when
  /// ForEachMatchedStep would match them: time of day and day type.
  int MatchedSlot(int64_t step) const {
    return static_cast<int>(step % steps_per_day) * 2 +
           (IsWeekendStep(step) ? 1 : 0);
  }
};

struct DatasetOptions {
  /// L: length of the near-history window (paper Sec. IV-A).
  int history_length = 5;
  /// M: number of day-offset windows F_1..F_M.
  int num_windows = 3;
  /// How many previous same-time-of-day, same-day-type records enter the
  /// extreme-degree mean/std (paper Sec. V-B-1 uses "previous M records";
  /// kept as its own knob for the sensitivity study).
  int norm_history = 3;
};

/// The steps a sample reads, for one calendar and set of options.
struct WindowGeometry : StepCalendar {
  DatasetOptions options;

  /// W = T*(M-1) + L: the span of steps a sample reads before its target.
  int64_t span() const { return offset(0) + options.history_length; }
  /// T*(M-1-w): how far the step following window w (its Eq. 10 target)
  /// lies before the sample's target. The last window ends at the target.
  int64_t offset(int64_t w) const {
    return static_cast<int64_t>(steps_per_day) * (options.num_windows - 1 - w);
  }
  /// Smallest target step with full windows and meaningful matched
  /// statistics.
  int64_t min_target_step() const;
};

/// One training/evaluation sample for next-step prediction at target_step.
struct WindowSample {
  Tensor x;        ///< (N, L)    near history X[:, t-L+1 : t]
  Tensor f;        ///< (M, N, L) windows F_m = X[:, t-T(M-m)-L+1 : t-T(M-m)]
  Tensor f_mu;     ///< (M, N, L) same-time-period means aligned with f
  Tensor f_sigma;  ///< (M, N, L) same-time-period std devs aligned with f
  Tensor target;   ///< (N)       ground truth X[:, t+1]
  int64_t target_step = 0;  ///< index of t+1 in the series

  /// Per-window next-step supervision for Eq. (10): for each window m the
  /// GRU predicts the extreme degree at step t - T(M-m) + 1; these tensors
  /// carry X, mu, sigma at those M steps (the last row is the target step
  /// itself, whose X equals `target`).
  Tensor w_next;        ///< (M, N)
  Tensor w_next_mu;     ///< (M, N)
  Tensor w_next_sigma;  ///< (M, N)
};

/// Eq. 9's temporally-matched mean and standard deviation of n regions.
/// rows[0] is the step's own row and rows[1..count) its matched rows,
/// newest first; region r of row k is rows[k][r * stride]. Writes
/// mu[r * out_stride] and sigma[r * out_stride]. Sums run in double in row
/// order; the mean starts from the step's own value, not from 0.0, which
/// keeps an add off each region's dependent chain. Inline so the ring's
/// constant unit strides reach the loop.
inline void MatchedMoments(const float* const* rows, int count,
                           int64_t stride, int n, float* mu, float* sigma,
                           int64_t out_stride) {
  const double inv = 1.0 / static_cast<double>(count);
  for (int r = 0; r < n; ++r) {
    const int64_t at = r * stride;
    double m = rows[0][at];
    for (int k = 1; k < count; ++k) m += rows[k][at];
    m *= inv;
    double ss = 0.0;
    for (int k = 0; k < count; ++k) {
      const double d = rows[k][at] - m;
      ss += d * d;
    }
    mu[r * out_stride] = static_cast<float>(m);
    sigma[r * out_stride] = static_cast<float>(std::sqrt(ss * inv));
  }
}

/// One step of a step-row source: region r's count, matched mean and
/// matched std are x[r * stride], mu[r * stride] and sigma[r * stride].
struct StepRow {
  const float* x;
  const float* mu;
  const float* sigma;
};

/// Step-row source over (N, total_steps) tensors, the dataset's layout.
/// A source has row(s), stride() and end(), the first step it has no row
/// for; serve::OnlinePredictor's ring is the other source.
struct SeriesRows {
  const float* x;
  const float* mu;
  const float* sigma;
  int64_t total_steps;

  int64_t stride() const { return total_steps; }
  int64_t end() const { return total_steps; }
  StepRow row(int64_t s) const { return {x + s, mu + s, sigma + s}; }
};

/// dst[r * dst_stride] = src[r * src_stride] for the n regions of a row.
inline void CopyRegions(const float* src, int64_t src_stride, float* dst,
                        int64_t dst_stride, int n) {
  for (int r = 0; r < n; ++r) dst[r * dst_stride] = src[r * src_stride];
}

/// Assembles the sample predicting `target` for n regions from the step
/// rows of `rows`. Rows at or after rows.end() are unobserved and stay
/// zero: a stream has not seen its target yet. The tensors come from
/// Tensor::Zeros, so under an ArenaScope they land on the arena.
template <typename Rows>
WindowSample AssembleWindowSample(const Rows& rows, const WindowGeometry& g,
                                  int n, int64_t target) {
  const int64_t l = g.options.history_length;
  const int64_t m = g.options.num_windows;
  const int64_t stride = rows.stride();
  WindowSample sample;
  sample.target_step = target;
  sample.x = Tensor::Zeros({n, l});
  sample.f = Tensor::Zeros({m, n, l});
  sample.f_mu = Tensor::Zeros({m, n, l});
  sample.f_sigma = Tensor::Zeros({m, n, l});
  sample.target = Tensor::Zeros({n});
  sample.w_next = Tensor::Zeros({m, n});
  sample.w_next_mu = Tensor::Zeros({m, n});
  sample.w_next_sigma = Tensor::Zeros({m, n});

  // Every window is an (N, L) region-major block: the j-th step of a
  // block is column j. Regions go in groups so that, in the dataset's
  // region-major layout, the L steps of a window read cache lines the
  // previous step brought in; rows are resolved once per group and step.
  constexpr int kRegionGroup = 256;
  for (int r0 = 0; r0 < n; r0 += kRegionGroup) {
    const int group = std::min(kRegionGroup, n - r0);
    // Copies the group's regions of a row to dst, regions dst_stride apart.
    const auto copy = [&](const float* row, float* dst, int64_t dst_stride) {
      CopyRegions(row + r0 * stride, stride, dst + r0 * dst_stride, dst_stride,
                  group);
    };
    for (int64_t w = 0; w < m; ++w) {
      const int64_t next = target - g.offset(w);  // step following window w
      const int64_t block = w * n * l;
      for (int64_t j = 0; j < l; ++j) {
        const StepRow row = rows.row(next - l + j);
        copy(row.x, sample.f.data() + block + j, l);
        copy(row.mu, sample.f_mu.data() + block + j, l);
        copy(row.sigma, sample.f_sigma.data() + block + j, l);
      }
      if (next < rows.end()) {
        const StepRow row = rows.row(next);
        copy(row.x, sample.w_next.data() + w * n, 1);
        copy(row.mu, sample.w_next_mu.data() + w * n, 1);
        copy(row.sigma, sample.w_next_sigma.data() + w * n, 1);
      }
    }
  }
  // The last window ends at the target: it is x, and its next step is the
  // target row (zero while unobserved).
  std::copy_n(sample.f.data() + (m - 1) * n * l, n * l, sample.x.data());
  std::copy_n(sample.w_next.data() + (m - 1) * n, n, sample.target.data());
  return sample;
}

}  // namespace data
}  // namespace ealgap

#endif  // EALGAP_DATA_WINDOW_H_
