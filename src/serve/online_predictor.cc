#include "serve/online_predictor.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/record_io.h"
#include "common/thread_pool.h"

namespace ealgap {
namespace serve {

namespace {
constexpr char kStateKind[] = "serve-state";
// v3: a record file (common/record_io.h); the v2 text layout is not read.
constexpr uint32_t kStateVersion = 3;
}  // namespace

Result<RepairPolicy> ParseRepairPolicy(const std::string& name) {
  if (name == "reject") return RepairPolicy::kReject;
  if (name == "hold-last") return RepairPolicy::kHoldLast;
  if (name == "impute") return RepairPolicy::kImpute;
  return Status::InvalidArgument(
      "unknown repair policy '" + name +
      "' (expected reject, hold-last, or impute)");
}

const char* RepairPolicyName(RepairPolicy policy) {
  switch (policy) {
    case RepairPolicy::kReject: return "reject";
    case RepairPolicy::kHoldLast: return "hold-last";
    case RepairPolicy::kImpute: return "impute";
  }
  return "unknown";
}

void GuardStats::Accumulate(const GuardStats& other) {
  repaired_values += other.repaired_values;
  repaired_steps += other.repaired_steps;
  gap_steps_filled += other.gap_steps_filled;
  rejected_observations += other.rejected_observations;
  quarantine.resize(std::max(quarantine.size(), other.quarantine.size()), 0);
  for (size_t r = 0; r < other.quarantine.size(); ++r) {
    quarantine[r] += other.quarantine[r];
  }
}

struct OnlinePredictor::RingRows {
  const OnlinePredictor& p;

  static constexpr int64_t stride() { return 1; }
  int64_t end() const { return p.next_step_; }
  data::StepRow row(int64_t s) const {
    const int64_t base = p.RingIndex(s);
    return {p.ring_x_.data() + base, p.ring_mu_.data() + base,
            p.ring_sigma_.data() + base};
  }
};

void OnlinePredictor::InitSlotStorage() {
  const int64_t slots = 2 * static_cast<int64_t>(geometry_.steps_per_day);
  slot_data_.Reset(slots * geometry_.options.norm_history * num_regions_);
  slot_head_.assign(slots, 0);
  slot_count_.assign(slots, 0);
}

void OnlinePredictor::InitScratch() {
  const int n = num_regions_;
  scratch_x_.resize(n);
  scratch_mu_.resize(n);
  scratch_sigma_.resize(n);
  scratch_synth_.resize(n);
  slot_rows_.resize(geometry_.options.norm_history + 1);
  arena_ = std::make_unique<Arena>();
}

void OnlinePredictor::SlotPush(int slot, const float* row) {
  const int nh = geometry_.options.norm_history;
  const int idx = (slot_head_[slot] + slot_count_[slot]) % nh;
  float* dst = slot_data_.data() +
               (static_cast<int64_t>(slot) * nh + idx) * num_regions_;
  std::copy(row, row + num_regions_, dst);
  if (slot_count_[slot] < nh) {
    ++slot_count_[slot];
  } else {
    slot_head_[slot] = (slot_head_[slot] + 1) % nh;
  }
}

Result<OnlinePredictor> OnlinePredictor::Create(
    Forecaster* model, const data::SlidingWindowDataset& history,
    int64_t history_end) {
  if (model == nullptr) {
    return Status::InvalidArgument("OnlinePredictor needs a model");
  }
  if (!model->SupportsStreaming()) {
    return Status::InvalidArgument(model->name() +
                                   " does not support streaming prediction");
  }
  OnlinePredictor p;
  p.model_ = model;
  p.geometry_ = history.geometry();
  p.num_regions_ = history.series().num_regions;
  p.window_span_ = p.geometry_.span();
  const data::SeriesRows rows = history.step_rows();
  if (history_end < p.geometry_.min_target_step() ||
      history_end > rows.end()) {
    return Status::OutOfRange(
        "history_end must lie in [MinTargetStep, total_steps]");
  }
  p.next_step_ = history_end;
  const int n = p.num_regions_;
  p.ring_x_.Reset(p.window_span_ * n);
  p.ring_mu_.Reset(p.window_span_ * n);
  p.ring_sigma_.Reset(p.window_span_ * n);
  p.InitSlotStorage();
  p.InitScratch();
  p.window_sum_.assign(n, 0.0);
  p.guard_stats_.quarantine.assign(n, 0);

  float* x_row = p.scratch_x_.data();
  for (int64_t s = 0; s < history_end; ++s) {
    const data::StepRow row = rows.row(s);
    data::CopyRegions(row.x, rows.stride(), x_row, 1, n);
    if (s >= history_end - p.window_span_) {
      const int64_t base = p.RingIndex(s);
      std::copy(x_row, x_row + n, p.ring_x_.data() + base);
      data::CopyRegions(row.mu, rows.stride(), p.ring_mu_.data() + base, 1, n);
      data::CopyRegions(row.sigma, rows.stride(), p.ring_sigma_.data() + base,
                        1, n);
    }
    if (s >= history_end - p.geometry_.options.history_length) {
      for (int r = 0; r < n; ++r) p.window_sum_[r] += x_row[r];
    }
    p.SlotPush(p.geometry_.MatchedSlot(s), x_row);
  }
  return p;
}

float OnlinePredictor::HoldLastValue(int r) const {
  return ring_x_[RingIndex(next_step_ - 1) + r];
}

float OnlinePredictor::SlotMeanOrHold(int64_t s, int r) const {
  const int slot = geometry_.MatchedSlot(s);
  const int count = slot_count_[slot];
  if (count == 0) return HoldLastValue(r);
  // Oldest-first, matching the nested-vector implementation's slot order.
  double m = 0.0;
  for (int j = 0; j < count; ++j) m += SlotRowOldest(slot, j)[r];
  return static_cast<float>(m / static_cast<double>(count));
}

Status OnlinePredictor::GuardRow(const std::vector<double>& counts,
                                 std::vector<float>* x_row) {
  const int n = num_regions_;
  if (static_cast<int>(counts.size()) != n) {
    ++guard_stats_.rejected_observations;
    return Status::InvalidArgument(
        "expected one count per region (" + std::to_string(n) + "), got " +
        std::to_string(counts.size()));
  }
  x_row->resize(n);
  int repaired = 0;
  for (int r = 0; r < n; ++r) {
    const double v = counts[r];
    const float f = static_cast<float>(v);
    // A count is usable only if it is finite (in float too — a 1e300
    // double would overflow to inf and poison the matched statistics)
    // and non-negative.
    if (std::isfinite(v) && std::isfinite(f) && v >= 0.0) {
      (*x_row)[r] = f;
      continue;
    }
    switch (guard_policy_.on_bad_value) {
      case RepairPolicy::kReject:
        ++guard_stats_.rejected_observations;
        return Status::InvalidArgument(
            "invalid count " + std::to_string(v) + " for region " +
            std::to_string(r) + " at step " + std::to_string(next_step_));
      case RepairPolicy::kHoldLast:
        (*x_row)[r] = HoldLastValue(r);
        break;
      case RepairPolicy::kImpute:
        (*x_row)[r] = SlotMeanOrHold(next_step_, r);
        break;
    }
    ++repaired;
    ++guard_stats_.quarantine[r];
  }
  if (repaired > 0) {
    guard_stats_.repaired_values += repaired;
    ++guard_stats_.repaired_steps;
  }
  return Status::OK();
}

Status OnlinePredictor::ObserveRow(const std::vector<float>& x_row) {
  const int n = num_regions_;
  const int64_t s = next_step_;
  const int slot = geometry_.MatchedSlot(s);
  // The matched set is the step itself plus the newest norm_history
  // same-slot observations, newest first. Row ages are resolved once: a
  // SlotRowNewest costs a modulo and a 64-bit multiply.
  const int prior = slot_count_[slot];
  slot_rows_[0] = x_row.data();
  for (int k = 0; k < prior; ++k) slot_rows_[k + 1] = SlotRowNewest(slot, k);
  data::MatchedMoments(slot_rows_.data(), 1 + prior, 1, n, scratch_mu_.data(),
                       scratch_sigma_.data(), 1);

  // O(1) exponential-MLE refresh: slide the L-window sum before the ring
  // slot of step s-L is overwritten (they coincide when M == 1).
  const int64_t leaving = RingIndex(s - geometry_.options.history_length);
  for (int r = 0; r < n; ++r) {
    // Widen before subtracting: float arithmetic here would round each
    // slide and drift the sum off the exact value.
    window_sum_[r] += static_cast<double>(x_row[r]) -
                      static_cast<double>(ring_x_[leaving + r]);
  }

  const int64_t base = RingIndex(s);
  std::copy(x_row.begin(), x_row.end(), ring_x_.begin() + base);
  std::copy(scratch_mu_.begin(), scratch_mu_.end(), ring_mu_.begin() + base);
  std::copy(scratch_sigma_.begin(), scratch_sigma_.end(),
            ring_sigma_.begin() + base);

  SlotPush(slot, x_row.data());
  ++next_step_;
  return Status::OK();
}

Status OnlinePredictor::Observe(const std::vector<double>& counts) {
  EALGAP_RETURN_IF_ERROR(GuardRow(counts, &scratch_x_));
  return ObserveRow(scratch_x_);
}

Status OnlinePredictor::ObserveAt(int64_t step,
                                  const std::vector<double>& counts) {
  if (step < next_step_) {
    ++guard_stats_.rejected_observations;
    return Status::InvalidArgument(
        "stale observation for step " + std::to_string(step) +
        " (stream is at " + std::to_string(next_step_) + ")");
  }
  if (step > next_step_) {
    const int64_t gap = step - next_step_;
    if (guard_policy_.on_gap == RepairPolicy::kReject ||
        gap > guard_policy_.max_gap_steps) {
      ++guard_stats_.rejected_observations;
      return Status::FailedPrecondition(
          "stream gap of " + std::to_string(gap) + " steps before step " +
          std::to_string(step) +
          (gap > guard_policy_.max_gap_steps ? " exceeds max_gap_steps"
                                             : " (gap policy is reject)"));
    }
    // Synthesize the missing steps so the calendar-aligned state stays
    // consistent; every synthetic row is finite by construction.
    while (next_step_ < step) {
      const int n = num_regions_;
      for (int r = 0; r < n; ++r) {
        scratch_synth_[r] = guard_policy_.on_gap == RepairPolicy::kImpute
                                ? SlotMeanOrHold(next_step_, r)
                                : HoldLastValue(r);
      }
      EALGAP_RETURN_IF_ERROR(ObserveRow(scratch_synth_));
      ++guard_stats_.gap_steps_filled;
    }
  }
  return Observe(counts);
}

Status OnlinePredictor::PredictNextInto(std::vector<double>* out) {
  // Everything the forward pass allocates — the sample tensors here, the
  // activations and graph nodes inside the model — lands on this
  // predictor's arena and is rewound when the scope dies. `sample` is
  // declared after `scope` so its arena-backed tensors are released before
  // the rewind.
  ArenaScope scope(arena_.get());
  const data::WindowSample sample = data::AssembleWindowSample(
      RingRows{*this}, geometry_, num_regions_, next_step_);
  return model_->PredictSampleInto(sample, out);
}

Result<std::vector<double>> OnlinePredictor::PredictNext() {
  std::vector<double> out;
  EALGAP_RETURN_IF_ERROR(PredictNextInto(&out));
  return out;
}

void OnlinePredictor::PredictManyInto(
    const std::vector<OnlinePredictor*>& predictors,
    std::vector<Status>* statuses, std::vector<std::vector<double>>* outs) {
  const int64_t k = static_cast<int64_t>(predictors.size());
  statuses->resize(k);
  outs->resize(k);
  // Each slot is written by exactly one index, so the result cannot depend
  // on how the pool splits the range; the model's internal kernels detect
  // the nested region and run serially per request.
  ParallelFor(0, k, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      if (predictors[i] == nullptr) {
        (*statuses)[i] = Status::InvalidArgument("null predictor");
      } else {
        (*statuses)[i] = predictors[i]->PredictNextInto(&(*outs)[i]);
      }
    }
  });
}

std::vector<Result<std::vector<double>>> OnlinePredictor::PredictMany(
    const std::vector<OnlinePredictor*>& predictors) {
  std::vector<Status> statuses;
  std::vector<std::vector<double>> values;
  PredictManyInto(predictors, &statuses, &values);
  std::vector<Result<std::vector<double>>> out;
  out.reserve(predictors.size());
  for (size_t i = 0; i < predictors.size(); ++i) {
    if (statuses[i].ok()) {
      out.emplace_back(std::move(values[i]));
    } else {
      out.emplace_back(statuses[i]);
    }
  }
  return out;
}

void OnlinePredictor::MatchedMeanNextInto(std::vector<double>* out) const {
  out->resize(num_regions_);
  for (int r = 0; r < num_regions_; ++r) {
    (*out)[r] = std::max(0.0,
                         static_cast<double>(SlotMeanOrHold(next_step_, r)));
  }
}

void OnlinePredictor::RecentMeanNextInto(std::vector<double>* out) const {
  const double inv =
      1.0 / static_cast<double>(geometry_.options.history_length);
  out->resize(num_regions_);
  for (int r = 0; r < num_regions_; ++r) {
    (*out)[r] = std::max(0.0, window_sum_[r] * inv);
  }
}

void OnlinePredictor::LastObservedInto(std::vector<double>* out) const {
  out->resize(num_regions_);
  for (int r = 0; r < num_regions_; ++r) {
    (*out)[r] = std::max(0.0, static_cast<double>(HoldLastValue(r)));
  }
}

std::vector<double> OnlinePredictor::MatchedMeanNext() const {
  std::vector<double> out;
  MatchedMeanNextInto(&out);
  return out;
}

std::vector<double> OnlinePredictor::RecentMeanNext() const {
  std::vector<double> out;
  RecentMeanNextInto(&out);
  return out;
}

std::vector<double> OnlinePredictor::LastObserved() const {
  std::vector<double> out;
  LastObservedInto(&out);
  return out;
}

double OnlinePredictor::ExponentialRate(int region) const {
  EALGAP_CHECK_GE(region, 0);
  EALGAP_CHECK_LT(region, num_regions_);
  const double mean = std::max(
      window_sum_[region] /
          static_cast<double>(geometry_.options.history_length),
      1e-12);
  return 1.0 / mean;
}

Status OnlinePredictor::SaveState(const std::string& path) const {
  RecordWriter writer(kStateKind, kStateVersion);
  writer.Section("model").PutString(model_->name());
  writer.Section("geometry")
      .PutI64(num_regions_)
      .PutI64(geometry_.steps_per_day)
      .PutI64(geometry_.options.history_length)
      .PutI64(geometry_.options.num_windows)
      .PutI64(geometry_.options.norm_history);
  writer.Section("stream")
      .PutI64(geometry_.start_date.year)
      .PutI64(geometry_.start_date.month)
      .PutI64(geometry_.start_date.day)
      .PutI64(next_step_);
  // Ring and slot buffers go out in their in-memory layout: where step s
  // lives follows from next_step and the geometry, both saved above.
  writer.Section("ring")
      .PutF32s(ring_x_.data(), ring_x_.size())
      .PutF32s(ring_mu_.data(), ring_mu_.size())
      .PutF32s(ring_sigma_.data(), ring_sigma_.size());
  writer.Section("slots");
  for (size_t i = 0; i < slot_head_.size(); ++i) {
    writer.PutI64(slot_head_[i]).PutI64(slot_count_[i]);
  }
  writer.PutF32s(slot_data_.data(), slot_data_.size());
  writer.Section("window_sum").PutF64s(window_sum_.data(), window_sum_.size());
  return writer.Commit(path);
}

namespace {

/// A f32 array whose length the geometry fixes: the count is checked
/// against the bytes in the file and against `expected` before `dst` is
/// sized from it.
Status ReadGeometryBuffer(RecordSection& section, std::string_view field,
                          int64_t expected, AlignedBuffer<float>* dst) {
  uint64_t count = 0;
  EALGAP_RETURN_IF_ERROR(section.ReadCount(field, sizeof(float), &count));
  if (count != static_cast<uint64_t>(expected)) {
    return section.Error(field, "holds " + std::to_string(count) +
                                    " values but the geometry needs " +
                                    std::to_string(expected));
  }
  dst->Reset(static_cast<size_t>(count));
  return section.ReadF32Values(field, dst->data(), dst->size());
}

}  // namespace

Result<OnlinePredictor> OnlinePredictor::LoadState(const std::string& path,
                                                   Forecaster* model) {
  if (model == nullptr) {
    return Status::InvalidArgument("OnlinePredictor needs a model");
  }
  if (!model->SupportsStreaming()) {
    return Status::InvalidArgument(model->name() +
                                   " does not support streaming prediction");
  }
  EALGAP_ASSIGN_OR_RETURN(RecordReader reader,
                          RecordReader::Open(path, kStateKind, kStateVersion));
  EALGAP_ASSIGN_OR_RETURN(std::string model_name,
                          reader.StringSection("model"));
  if (model_name != model->name()) {
    return Status::InvalidArgument("state was captured for model " +
                                   model_name + " but this model is " +
                                   model->name());
  }
  OnlinePredictor p;
  p.model_ = model;
  int64_t n = 0, spd = 0, l = 0, m = 0, nh = 0;
  {
    // Each geometry field is range-checked by name: a zero or negative
    // count must die here, not as an OOB index when buffers are sized.
    EALGAP_ASSIGN_OR_RETURN(RecordSection section,
                            reader.Section("geometry"));
    EALGAP_RETURN_IF_ERROR(section.ReadI64In("num_regions", 1, 1 << 20, &n));
    EALGAP_RETURN_IF_ERROR(section.ReadI64In("steps_per_day", 1, 1440, &spd));
    EALGAP_RETURN_IF_ERROR(section.ReadI64In("history_length", 1, 4096, &l));
    EALGAP_RETURN_IF_ERROR(section.ReadI64In("num_windows", 1, 4096, &m));
    EALGAP_RETURN_IF_ERROR(section.ReadI64In("norm_history", 1, 4096, &nh));
    EALGAP_RETURN_IF_ERROR(section.Finish());
  }
  p.num_regions_ = static_cast<int>(n);
  p.geometry_.steps_per_day = static_cast<int>(spd);
  p.geometry_.options.history_length = static_cast<int>(l);
  p.geometry_.options.num_windows = static_cast<int>(m);
  p.geometry_.options.norm_history = static_cast<int>(nh);
  p.window_span_ = p.geometry_.span();
  {
    EALGAP_ASSIGN_OR_RETURN(RecordSection section, reader.Section("stream"));
    int64_t year = 0, month = 0, day = 0;
    EALGAP_RETURN_IF_ERROR(section.ReadI64In("year", 1, 9999, &year));
    EALGAP_RETURN_IF_ERROR(section.ReadI64In("month", 1, 12, &month));
    EALGAP_RETURN_IF_ERROR(section.ReadI64In("day", 1, 31, &day));
    p.geometry_.start_date = {static_cast<int>(year), static_cast<int>(month),
                              static_cast<int>(day)};
    EALGAP_RETURN_IF_ERROR(section.ReadI64("next_step", &p.next_step_));
    EALGAP_RETURN_IF_ERROR(section.Finish());
  }
  if (p.next_step_ < p.geometry_.min_target_step()) {
    return Status::InvalidArgument("serve state has too little history");
  }
  {
    EALGAP_ASSIGN_OR_RETURN(RecordSection section, reader.Section("ring"));
    const int64_t cells = p.window_span_ * n;
    EALGAP_RETURN_IF_ERROR(
        ReadGeometryBuffer(section, "ring_x", cells, &p.ring_x_));
    EALGAP_RETURN_IF_ERROR(
        ReadGeometryBuffer(section, "ring_mu", cells, &p.ring_mu_));
    EALGAP_RETURN_IF_ERROR(
        ReadGeometryBuffer(section, "ring_sigma", cells, &p.ring_sigma_));
    EALGAP_RETURN_IF_ERROR(section.Finish());
  }
  {
    EALGAP_ASSIGN_OR_RETURN(RecordSection section, reader.Section("slots"));
    const int64_t slots = 2 * spd;
    p.slot_head_.assign(slots, 0);
    p.slot_count_.assign(slots, 0);
    for (int64_t i = 0; i < slots; ++i) {
      int64_t head = 0, count = 0;
      EALGAP_RETURN_IF_ERROR(section.ReadI64In("head", 0, nh - 1, &head));
      EALGAP_RETURN_IF_ERROR(section.ReadI64In("count", 0, nh, &count));
      p.slot_head_[i] = static_cast<int>(head);
      p.slot_count_[i] = static_cast<int>(count);
    }
    EALGAP_RETURN_IF_ERROR(
        ReadGeometryBuffer(section, "rows", slots * nh * n, &p.slot_data_));
    EALGAP_RETURN_IF_ERROR(section.Finish());
  }
  {
    EALGAP_ASSIGN_OR_RETURN(RecordSection section,
                            reader.Section("window_sum"));
    EALGAP_RETURN_IF_ERROR(section.ReadF64s("sums", &p.window_sum_));
    if (static_cast<int64_t>(p.window_sum_.size()) != n) {
      return section.Error("sums", "holds " +
                                       std::to_string(p.window_sum_.size()) +
                                       " values but the geometry has " +
                                       std::to_string(n) + " regions");
    }
    EALGAP_RETURN_IF_ERROR(section.Finish());
  }
  p.guard_stats_.quarantine.assign(n, 0);
  p.InitScratch();
  return p;
}

}  // namespace serve
}  // namespace ealgap
