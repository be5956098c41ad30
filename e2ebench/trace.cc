#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace e2e {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
  open_.reserve(16);
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const char* name) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), -1, parent, run_});
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close innermost first (ScopedSpan is the only caller).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
  }
  return out;
}

std::vector<double> Tracer::SelfUs(const std::string& name) const {
  // Children of each span, as intervals.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0 || name != s.name) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the child intervals, clipped to the parent.
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) /
                  1000.0);
  }
  return out;
}

std::vector<std::string> Tracer::Names() const {
  std::vector<std::string> out;
  for (const Span& s : spans_) {
    if (std::find(out.begin(), out.end(), s.name) == out.end()) {
      out.push_back(s.name);
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path, const std::string& workload,
                       uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": "
                 "%.3f, \"parent\": %d, \"run\": %lld}",
                 i == 0 ? "" : ",", s.name, s.start_ns / 1000.0,
                 s.end_ns / 1000.0, s.parent, static_cast<long long>(s.run));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
