// Shared plumbing of the perfbench binary: clock, sample statistics, the
// metric record it prints, and the span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Library threads every workload runs with (the 4-vCPU host's nproc).
inline constexpr int kThreads = 4;

/// Seconds on the monotonic clock.
inline double now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (copied, so callers keep their sample order).
double median(std::vector<double> v);

/// Linear-interpolated quantile q in [0, 1].
double quantile(std::vector<double> v, double q);

/// One printed metric.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// In-memory span log of the traced run: one span per operation, library
/// call, verification and per-layer probe sample. Recording is a no-op
/// while disabled, so the untraced run pays one branch per boundary.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double t0, t1;
    int id, parent;
    std::int64_t op;  // operation index, -1 outside the workload loop
  };

  void set_enabled(bool on) { enabled_ = on; }

  int begin(const char* name, std::int64_t op);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Mean self time per span of each name, in microseconds: a span's
  /// duration minus the part its direct children cover.
  std::map<std::string, double> mean_self_us() const;

  /// Chrome trace (a bare JSON array of complete events).
  void write_chrome(std::ostream& os) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

SpanLog& spans();

/// RAII span in the process-wide log.
class Scope {
 public:
  explicit Scope(const char* name, std::int64_t op = -1) : id_(spans().begin(name, op)) {}
  ~Scope() { spans().end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

/// Times `fn` `samples` times after one untimed warm call; each sample
/// repeats `fn` enough times to last at least `min_sample_s`. Returns the
/// per-call seconds of every sample; each sample is a span.
template <class Fn>
std::vector<double> time_samples(int samples, double min_sample_s, Fn&& fn) {
  double t0 = now();
  fn();
  const double once = now() - t0;
  const int reps = once >= min_sample_s ? 1 : static_cast<int>(min_sample_s / (once + 1e-9)) + 1;
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(samples));
  for (int s = 0; s < samples; ++s) {
    Scope span("sample");
    t0 = now();
    for (int r = 0; r < reps; ++r) fn();
    out.push_back((now() - t0) / reps);
  }
  return out;
}

}  // namespace perfbench
