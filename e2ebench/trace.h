// In-memory span recorder for the traced benchmark run. Spans are taken
// in the benchmark's own code around calls into each layer's public
// functions; nothing inside the library is instrumented.

#ifndef EALGAP_E2EBENCH_TRACE_H_
#define EALGAP_E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

class Tracer {
 public:
  struct Span {
    const char* name;  ///< static string
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;    ///< index of the enclosing span, -1 for a root
    int64_t run;       ///< request / step id the span belongs to
  };

  Tracer();

  /// Opens a span under the innermost open span. Returns its index.
  int Begin(const char* name);
  void End(int index);
  /// Id stamped on spans opened from now on (one per step or request).
  void SetRun(int64_t run) { run_ = run; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (microseconds) of every closed span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Self times (microseconds): each span's duration minus the part of
  /// its interval that its child spans cover.
  std::vector<double> SelfUs(const std::string& name) const;
  /// Names in first-seen order.
  std::vector<std::string> Names() const;

  /// Writes {"workload", "seed", "spans": [{name, start_us, end_us,
  /// parent, run}]} to `path`. Returns false on I/O failure.
  bool WriteJson(const std::string& path, const std::string& workload,
                 uint64_t seed) const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  ///< stack of open span indices
  int64_t run_ = 0;
};

/// RAII span; a null tracer records nothing and costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace e2e

#endif  // EALGAP_E2EBENCH_TRACE_H_
