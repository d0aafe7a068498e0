#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sstream>
#include <thread>

#include <sys/resource.h>

namespace perfbench {

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void SleepUntilNs(int64_t deadline_ns) {
  constexpr int64_t kSpinNs = 200000;
  for (;;) {
    const int64_t left = deadline_ns - NowNs();
    if (left <= 0) return;
    if (left > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
    } else {
      std::this_thread::yield();
    }
  }
}

namespace {

/// 0-based nearest rank of percentile p among n > 0 samples. p * n is
/// formed before dividing, and a tolerance absorbs the rounding of
/// non-integral p (99.9), so that p99 of 1000 samples is rank 989 exactly.
size_t NearestRank(size_t n, double p) {
  const double rank =
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9) - 1;
  return static_cast<size_t>(
      std::clamp(rank, 0.0, static_cast<double>(n - 1)));
}

}  // namespace

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[NearestRank(sorted.size(), p)];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - NearestRank(n, p);
}

double HighestSupportedPercentile(size_t n,
                                  const std::vector<double>& candidates,
                                  size_t min_beyond) {
  double best = 0;
  for (double p : candidates) {
    if (SamplesBeyond(n, p) >= min_beyond) best = std::max(best, p);
  }
  return best;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, 50);
}

int64_t DueTimeNs(int64_t t0_ns, uint64_t i, double rate_per_s) {
  return t0_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                      rate_per_s);
}

int64_t LatencyFromDueNs(int64_t due_ns, int64_t done_ns) {
  return std::max<int64_t>(0, done_ns - due_ns);
}

int64_t SelfTimeNs(int64_t start_ns, int64_t end_ns,
                   std::vector<std::pair<int64_t, int64_t>> children) {
  if (end_ns <= start_ns) return 0;
  for (auto& [lo, hi] : children) {
    lo = std::max(lo, start_ns);
    hi = std::min(hi, end_ns);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t run_lo = 0, run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : children) {
    if (hi <= lo) continue;
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return (end_ns - start_ns) - covered;
}

namespace {

/// The calling thread's buffer in the tracer it last recorded into. Keyed
/// by tracer id, not address, so a tracer created where a destroyed one
/// lived never inherits that tracer's freed buffer.
struct LocalSlot {
  uint64_t owner = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot tls_slot;
std::atomic<uint64_t> next_tracer_id{1};

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), id_(next_tracer_id.fetch_add(1)) {}

Tracer::Buffer* Tracer::LocalBuffer() {
  if (tls_slot.owner != id_) {
    std::lock_guard lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<int>(buffers_.size() - 1);
    buffers_.back()->spans.reserve(1 << 16);
    tls_slot.owner = id_;
    tls_slot.buffer = buffers_.back().get();
  }
  return static_cast<Buffer*>(tls_slot.buffer);
}

int64_t Tracer::Begin(const char* name, uint64_t request) {
  Buffer* buf = LocalBuffer();
  Span span;
  span.name = name;
  span.thread = buf->thread;
  if (!buf->open.empty()) {
    span.parent = buf->open.back();
    if (request == 0) request = buf->spans[span.parent].request;
  }
  span.request = request;
  const int64_t handle = static_cast<int64_t>(buf->spans.size());
  buf->open.push_back(handle);
  span.start_ns = NowNs();
  buf->spans.push_back(span);
  return handle;
}

void Tracer::End(int64_t handle) {
  const int64_t now = NowNs();
  Buffer* buf = static_cast<Buffer*>(tls_slot.buffer);
  buf->spans[handle].end_ns = now;
  if (!buf->open.empty() && buf->open.back() == handle) buf->open.pop_back();
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard lock(mu_);
  std::vector<Span> out;
  for (const auto& buf : buffers_) {
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  }
  return out;
}

std::map<std::string, int64_t> Tracer::SelfTimeByName(
    const std::string& skip_root) const {
  std::lock_guard lock(mu_);
  std::map<std::string, int64_t> out;
  for (const auto& buf : buffers_) {
    const std::vector<Span>& spans = buf->spans;
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    // Parents precede children in a buffer, so roots resolve in one pass.
    std::vector<int64_t> root(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      root[i] = s.parent < 0 ? static_cast<int64_t>(i) : root[s.parent];
      if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (!skip_root.empty() && skip_root == spans[root[i]].name) continue;
      out[s.name] += SelfTimeNs(s.start_ns, s.end_ns, std::move(children[i]));
      if (s.parent < 0) out[""] += s.end_ns - s.start_ns;
    }
  }
  return out;
}

std::vector<double> Tracer::DurationsNs(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans) {
      if (name == s.name) out.push_back(static_cast<double>(s.end_ns -
                                                            s.start_ns));
    }
  }
  return out;
}

std::vector<double> Tracer::PerRequestSumsNs(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::map<uint64_t, double> sums;
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans) {
      if (name == s.name) {
        sums[s.request] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
  }
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& [request, ns] : sums) out.push_back(ns);
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%" PRId64
                   ",\"end_ns\":%" PRId64 ",\"parent\":%" PRId64
                   ",\"request\":%" PRIu64 ",\"thread\":%d}\n",
                   s.name, s.start_ns, s.end_ns, s.parent, s.request,
                   s.thread);
    }
  }
  return std::fclose(f) == 0;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Unit();
  const size_t r = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(r, cdf_.size() - 1);
}

std::string Result::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics) {
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double PeakRssMb() {
  rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace perfbench
