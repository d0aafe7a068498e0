// The three workloads of the end-to-end benchmark and what they share: the
// 6-column source table, the feature definitions, the oracle that computes
// each feature's expected value from the generated event, the open- and
// closed-loop load generators, and the stats snapshots that per-layer
// ratios come from.
#ifndef MLFS_PERFBENCH_WORKLOADS_H_
#define MLFS_PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/feature_store.h"
#include "harness.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (spill and tier files).
  std::string work_dir;
};

/// Threads a workload may run at once (std::thread::hardware_concurrency,
/// at least 1).
unsigned Nproc();

Result RunServe(const RunOptions& options, Tracer& tracer);
Result RunTrain(const RunOptions& options, Tracer& tracer);
Result RunIngest(const RunOptions& options, Tracer& tracer);

// --- Source table and features ---------------------------------------------

/// One generated source event. a, b and c are chosen so every feature
/// expression evaluates exactly in floating point (a in 1/8 steps, c in
/// 1/4 steps, small magnitudes), which lets the oracle demand equality.
struct Event {
  int64_t entity = 0;
  mlfs::Timestamp ts = 0;
  double a = 0;
  int64_t b = 0;
  double c = 0;
  uint8_t tag = 0;  // Index into kTags.
};

inline constexpr const char* kTags[] = {"gold", "silver", "bronze", "iron"};
inline constexpr const char* kSourceTable = "events";
inline constexpr int kNumMaterialized = 3;
/// Names of the three materialized features, then the computed one.
inline constexpr const char* kFeatureNames[] = {"f_lin", "f_mod", "f_len",
                                                "f_pred"};

Event RandomEvent(Rng& rng, int64_t entity, mlfs::Timestamp ts);

/// "e" + zero-padded id: the STRING entity key of entity `id`.
std::string EntityKey(int64_t id);

/// {entity, event_time, a, b, c, tag}; entity is STRING or INT64.
mlfs::SchemaPtr SourceSchema(bool string_keys);
mlfs::Row EventRow(const mlfs::SchemaPtr& schema, const Event& event,
                   bool string_keys);

/// Definition of feature `i` (kFeatureNames order) over kSourceTable.
mlfs::FeatureDefinition FeatureDef(int i);

/// The value feature `i` must have for `event`, computed here from the
/// generated inputs (not by the library).
mlfs::Value OracleValue(int i, const Event& event);

/// Creates the source table (optionally with a spill budget) and publishes
/// the three materialized features.
void CreateSourceAndFeatures(mlfs::FeatureStore& store, bool string_keys,
                             size_t memory_budget_bytes = 0,
                             const std::string& spill_dir = "");

/// Aborts the run with a message on stderr when `status` is not OK (set-up
/// failures are not measurable outcomes).
void CheckOk(const mlfs::Status& status, const char* what);

// --- Stats ------------------------------------------------------------------

/// Offline storage counters summed over every table of the store.
mlfs::OfflineStorageStats OfflineTotals(mlfs::FeatureStore& store);

/// Sets every per-layer metric derived from storage counters (offline
/// bytes per row, sealed and spilled segments, spilled MiB, online bytes
/// per cell) from the store's current state.
void SetStorageLayerMetrics(mlfs::FeatureStore& store, Result& result);

/// Sets the per-layer self-time shares (`<layer>.self_share`) of the
/// measured phases from the tracer's spans (set-up spans excluded).
void SetSelfTimeShares(const Tracer& tracer, Result& result);

// --- Load generators --------------------------------------------------------

struct LoopStats {
  uint64_t issued = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  /// Per-request latency (µs); from the due time in an open loop.
  std::vector<double> latency_us;
  /// Open loop only: how long after its due time each request started (µs).
  std::vector<double> late_us;
};

/// Closed loop: `clients` threads each call fn(client, iteration) back to
/// back until `duration_ns` has passed; fn returns false on failure.
template <class Fn>
LoopStats RunClosedLoop(unsigned clients, int64_t duration_ns, Fn&& fn) {
  std::vector<LoopStats> per(clients);
  const int64_t t0 = NowNs();
  const int64_t stop = t0 + duration_ns;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopStats& s = per[c];
      for (uint64_t it = 0; NowNs() < stop; ++it) {
        const int64_t start = NowNs();
        const bool ok = fn(c, it);
        s.latency_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
        ++s.issued;
        if (!ok) ++s.failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopStats out;
  out.elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (LoopStats& s : per) {
    out.issued += s.issued;
    out.failed += s.failed;
    out.latency_us.insert(out.latency_us.end(), s.latency_us.begin(),
                          s.latency_us.end());
  }
  return out;
}

/// Open loop at `rate_per_s` for `duration_ns`: request i is due at
/// DueTimeNs(t0, i, rate). `threads` issuers share the schedule round-robin
/// (thread w issues requests w, w + threads, ...), each sleeping until its
/// next request is due and serving it itself, so no hand-off between
/// threads sits on the timed path; one issuer runs on the calling thread.
/// fn(i) returns false on failure. Latency is timed from the due time, and
/// late_us records how long after its due time each request started.
/// Issuing stops early once `keep_going` (when given) reads false.
template <class Fn>
LoopStats RunOpenLoop(double rate_per_s, unsigned threads,
                      int64_t duration_ns, Fn&& fn,
                      const std::atomic<bool>* keep_going = nullptr) {
  const int64_t t0 = NowNs();
  const uint64_t total = static_cast<uint64_t>(
      rate_per_s * static_cast<double>(duration_ns) / 1e9);
  threads = std::max(1u, threads);
  std::vector<LoopStats> per(threads);
  auto issue = [&](unsigned w) {
    LoopStats& s = per[w];
    for (uint64_t i = w; i < total; i += threads) {
      if (keep_going != nullptr &&
          !keep_going->load(std::memory_order_acquire)) {
        break;
      }
      const int64_t due = DueTimeNs(t0, i, rate_per_s);
      SleepUntilNs(due);
      s.late_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
      const bool ok = fn(i);
      s.latency_us.push_back(
          static_cast<double>(LatencyFromDueNs(due, NowNs())) / 1e3);
      ++s.issued;
      if (!ok) ++s.failed;
    }
  };
  std::vector<std::thread> pool;
  for (unsigned w = 1; w < threads; ++w) pool.emplace_back(issue, w);
  issue(0);
  for (std::thread& t : pool) t.join();
  LoopStats out;
  out.elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (LoopStats& s : per) {
    out.issued += s.issued;
    out.failed += s.failed;
    out.latency_us.insert(out.latency_us.end(), s.latency_us.begin(),
                          s.latency_us.end());
    out.late_us.insert(out.late_us.end(), s.late_us.begin(), s.late_us.end());
  }
  return out;
}

/// Records an open loop's tail as serving.get_tail_us (p99, or the highest
/// percentile with ten samples beyond it) and the p99 of how late requests
/// were issued.
void SetOpenLoopTail(const LoopStats& loop, Result& result);

}  // namespace perfbench

#endif  // MLFS_PERFBENCH_WORKLOADS_H_
