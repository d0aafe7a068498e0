// Measurement harness of the end-to-end benchmark: clocks, the percentile
// rule, open-loop due times, span recording and self time, seeded input
// generation, and the result line. Depends on nothing in mlfs, so its
// arithmetic is unit-tested on its own (harness_test.cc).
#ifndef MLFS_PERFBENCH_HARNESS_H_
#define MLFS_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();

/// Sleeps until NowNs() >= deadline_ns, spinning for the last 200 µs so a
/// slow wake-up from an idle CPU does not make the caller late.
void SleepUntilNs(int64_t deadline_ns);

// --- Percentiles ------------------------------------------------------------

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value at
/// 0-based rank ceil(p/100 * n) - 1, clamped to [0, n-1].
double PercentileSorted(const std::vector<double>& sorted, double p);

/// Samples strictly above the nearest-rank rank of percentile `p` among n.
size_t SamplesBeyond(size_t n, double p);

/// The highest of `candidates` (ascending percentiles) with at least
/// `min_beyond` samples beyond its rank among n samples; 0 when none
/// qualifies (the median is then the only supported statistic).
double HighestSupportedPercentile(size_t n,
                                  const std::vector<double>& candidates,
                                  size_t min_beyond = 10);

/// Median of an unsorted sample (nearest-rank p50); 0 for an empty one.
double Median(std::vector<double> values);

// --- Open loop --------------------------------------------------------------

/// Due time of request i in an open loop that starts at t0_ns and issues
/// `rate_per_s` requests per second.
int64_t DueTimeNs(int64_t t0_ns, uint64_t i, double rate_per_s);

/// Latency of a request timed from its due time, so a stall that delays
/// later requests counts against them too. Never negative.
int64_t LatencyFromDueNs(int64_t due_ns, int64_t done_ns);

// --- Spans ------------------------------------------------------------------

/// One traced interval: a call the benchmark made into a layer.
struct Span {
  const char* name = "";  // Static string "layer.call".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // Index into the same thread's buffer, or -1.
  uint64_t request = 0;
  int thread = 0;
};

/// Self time of an interval [start, end): its duration minus the part of
/// it covered by the union of `children` intervals (clipped to it).
int64_t SelfTimeNs(int64_t start_ns, int64_t end_ns,
                   std::vector<std::pair<int64_t, int64_t>> children);

/// In-memory span recorder. Each thread appends to its own buffer (no
/// locking on the hot path after the first span); spans stay in memory
/// until WriteJsonLines() writes them out. Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its handle (or -1 when
  /// disabled). Spans nest: the innermost open span is the parent.
  int64_t Begin(const char* name, uint64_t request);
  void End(int64_t handle);

  /// Every recorded span, all threads (parents stay buffer-relative, so
  /// spans carry their thread index).
  std::vector<Span> Spans() const;

  /// Per-name self time in ns summed over all spans; "" keys the total
  /// duration of root spans (the base of self-time shares). Spans under a
  /// root named `skip_root` (e.g. set-up) are left out.
  std::map<std::string, int64_t> SelfTimeByName(
      const std::string& skip_root = "") const;

  /// Durations (ns) of every span named `name`.
  std::vector<double> DurationsNs(const std::string& name) const;

  /// Per request id, the summed duration (ns) of its spans named `name`.
  std::vector<double> PerRequestSumsNs(const std::string& name) const;

  /// Writes spans as JSON lines to `path`; false on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Buffer {
    int thread = 0;
    std::vector<Span> spans;
    std::vector<int64_t> open;  // Stack of open span indices.
  };
  Buffer* LocalBuffer();

  bool enabled_;
  uint64_t id_;  // Unique per tracer; keys the thread-local buffer slot.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer), handle_(tracer.enabled()
                                     ? tracer.Begin(name, request)
                                     : -1) {}
  ~ScopedSpan() {
    if (handle_ >= 0) tracer_.End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int64_t handle_;
};

// --- Inputs -----------------------------------------------------------------

/// SplitMix64: the benchmark's own seeded generator.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n) by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// --- Result -----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run prints as its last line.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records one operation (a request, build, batch or final output
  /// check); a failed or mismatched one clears `correct`.
  void Check(bool ok) { Count(1, ok ? 0 : 1); }
  void Count(uint64_t ops, uint64_t failures) {
    attempted += ops;
    failed += failures;
    if (failures > 0) correct = false;
  }
  std::string ToJson() const;
};

/// Peak resident set size of this process in MiB (getrusage maxrss).
double PeakRssMb();

}  // namespace perfbench

#endif  // MLFS_PERFBENCH_HARNESS_H_
