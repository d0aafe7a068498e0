// `ingest`: writes alongside reads.
//
// 50k STRING-keyed entities; the source table's memory budget is below its
// sealed size, so maintenance spills segments. One 1-hour tumbling stream
// pipeline computes count, sum and mean of `a`; the same three
// materialized features and one computed feature as `serve` are published
// (the computed one is deprecated right after publishing, which keeps the
// orchestrator from ever materializing it, so it stays served by
// request-time evaluation). A writer replays a fixed number of
// time-ordered days (set from --seconds), two events per entity per day,
// in batches of 5k: FeatureStore::Ingest then
// StreamPipeline::IngestBatch; at each day boundary it calls
// OfflineTable::RunMaintenance and then RunMaterialization. One reader
// thread runs an open loop of GetFeaturesBatch for the four tabular
// features, taking logical "now" from an atomic the writer publishes
// (SimClock is not thread-safe).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include "expr/evaluator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mlfs::Row;
using mlfs::Timestamp;
using mlfs::Value;

constexpr int64_t kEntities = 50000;
constexpr int kEventsPerEntityPerDay = 2;
constexpr size_t kBatchEvents = 5000;
constexpr size_t kMemoryBudgetBytes = size_t{4} << 20;
constexpr int kSetups = 5;
/// Replayed days per run: ceil(seconds x kDesignEventsPerSecond / events
/// per day), so a run does a fixed amount of work (about --seconds of it
/// on a 4-core x86 host) whatever the program's speed.
constexpr double kDesignEventsPerSecond = 35000;
constexpr double kReaderRate = 400;  // Requests (batches of 64) per second.
constexpr size_t kReadBatch = 64;
constexpr size_t kPoolBatches = 1024;
constexpr size_t kSampledEntities = 2048;
constexpr const char* kPipeline = "stream_1h";

/// One day's events, time-ordered; the last one closes the day so the
/// clock advances a full day between refreshes.
std::vector<Event> DayEvents(uint64_t seed, int day) {
  Rng rng(seed * 0x1D6E57 + static_cast<uint64_t>(day) * 7919 + 5);
  std::vector<Event> events;
  events.reserve(size_t{kEntities} * kEventsPerEntityPerDay);
  const uint64_t span =
      static_cast<uint64_t>(mlfs::Days(1) - mlfs::Minutes(1));
  for (int64_t e = 0; e < kEntities; ++e) {
    for (int k = 0; k < kEventsPerEntityPerDay; ++k) {
      const Timestamp offset =
          e == 0 && k == 0 ? static_cast<Timestamp>(span)
                           : static_cast<Timestamp>(rng.Below(span));
      events.push_back(RandomEvent(rng, e, mlfs::Days(day) + offset));
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    return x.ts != y.ts ? x.ts < y.ts : x.entity < y.entity;
  });
  return events;
}

/// What the oracle tracks across replayed days.
struct Expected {
  std::vector<Event> last;  // Per entity: its latest event so far.
  std::set<std::pair<int64_t, Timestamp>> windows;  // (entity, hour start).
  Timestamp max_ts = mlfs::kMinTimestamp;
  uint64_t events = 0;

  void Add(const std::vector<Event>& day) {
    for (const Event& e : day) {
      last[e.entity] = e;
      windows.emplace(e.entity, e.ts - e.ts % mlfs::Hours(1));
      max_ts = std::max(max_ts, e.ts);
    }
    events += day.size();
  }
  /// Tumbling windows whose end the watermark (max event time) has passed.
  uint64_t FinalizedWindows() const {
    uint64_t n = 0;
    for (const auto& [entity, start] : windows) {
      if (start + mlfs::Hours(1) <= max_ts) ++n;
    }
    return n;
  }
};

struct Store {
  std::unique_ptr<mlfs::FeatureStore> store;
  mlfs::OfflineTable* source = nullptr;
  mlfs::StreamPipeline* pipeline = nullptr;
};

Store CreateStore(const RunOptions& options, int setup_index) {
  Store s;
  s.store = std::make_unique<mlfs::FeatureStore>();
  mlfs::FeatureStore& store = *s.store;
  CreateSourceAndFeatures(
      store, true, kMemoryBudgetBytes,
      options.work_dir + "/spill" + std::to_string(setup_index));
  CheckOk(store.PublishFeature(FeatureDef(kNumMaterialized)).status(),
          "publish computed feature");
  CheckOk(store.registry().Deprecate(kFeatureNames[kNumMaterialized]),
          "deprecate computed feature");
  auto source = store.offline().GetTable(kSourceTable);
  CheckOk(source.status(), "source table");
  s.source = *source;
  mlfs::StreamPipelineOptions pipe;
  pipe.name = kPipeline;
  pipe.event_schema = SourceSchema(true);
  pipe.entity_column = "entity";
  pipe.time_column = "event_time";
  pipe.window.width = mlfs::Hours(1);
  pipe.window.slide = mlfs::Hours(1);
  pipe.aggs = {{"events_1h", mlfs::AggregateFn::kCount, ""},
               {"a_sum_1h", mlfs::AggregateFn::kSum, "a"},
               {"a_mean_1h", mlfs::AggregateFn::kMean, "a"}};
  auto pipeline = store.CreateStreamPipeline(pipe);
  CheckOk(pipeline.status(), "stream pipeline");
  s.pipeline = *pipeline;
  return s;
}

/// Time one replayed day spent in library calls, in s: Ingest, and the
/// refresh, and all of the writer's calls together.
struct DayTimes {
  double ingest_s = 0, refresh_s = 0, busy_s = 0;
};

/// Replays one day through the write path and publishes logical now after
/// each Ingest. With `probe_expr` set (traced days), an
/// EvalLatestPerEntityAsOf probe follows the day boundary.
DayTimes ReplayDay(Store& s, const std::vector<Event>& events,
                   std::atomic<Timestamp>& now, Tracer& tracer,
                   const mlfs::CompiledExpr* probe_expr) {
  DayTimes t;
  mlfs::FeatureStore& store = *s.store;
  const mlfs::SchemaPtr schema = SourceSchema(true);
  std::vector<Row> batch;
  batch.reserve(kBatchEvents);
  for (size_t off = 0; off < events.size(); off += kBatchEvents) {
    batch.clear();
    const size_t end = std::min(events.size(), off + kBatchEvents);
    for (size_t i = off; i < end; ++i) {
      batch.push_back(EventRow(schema, events[i], true));
    }
    ScopedSpan root(tracer, "bench.write_batch");
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "core.ingest");
      CheckOk(store.Ingest(kSourceTable, batch), "ingest");
    }
    const int64_t t1 = NowNs();
    t.ingest_s += static_cast<double>(t1 - t0) / 1e9;
    now.store(store.clock().now(), std::memory_order_release);
    {
      ScopedSpan span(tracer, "streaming.ingest_batch");
      CheckOk(s.pipeline->IngestBatch(batch), "stream ingest");
    }
    t.busy_s += static_cast<double>(NowNs() - t0) / 1e9;
  }
  ScopedSpan root(tracer, "bench.day_boundary");
  const int64_t m0 = NowNs();
  {
    ScopedSpan span(tracer, "storage.maintenance");
    CheckOk(s.source->RunMaintenance(), "maintenance");
  }
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, "registry.refresh");
    auto refreshed = store.RunMaterialization();
    CheckOk(refreshed.status(), "materialization");
    if (*refreshed != kNumMaterialized) {
      CheckOk(mlfs::Status::Internal("a feature was not due"), "refresh");
    }
  }
  t.refresh_s = static_cast<double>(NowNs() - t0) / 1e9;
  t.busy_s += static_cast<double>(NowNs() - m0) / 1e9;
  if (probe_expr != nullptr) {
    ScopedSpan span(tracer, "storage.eval_latest");
    CheckOk(s.source->EvalLatestPerEntityAsOf(store.clock().now(), *probe_expr)
                .status(),
            "eval latest probe");
  }
  return t;
}

std::vector<std::string> ReaderFeatures() {
  return {kFeatureNames[0], kFeatureNames[1], kFeatureNames[2],
          kFeatureNames[3]};
}

std::vector<std::vector<Value>> ReaderBatches(uint64_t seed) {
  Rng rng(seed * 0x2545F491 + 3);
  std::vector<uint32_t> perm(kEntities);
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
  for (size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.Below(i + 1)]);
  }
  const Zipf zipf(kEntities, 1.1);
  std::vector<std::vector<Value>> batches(kPoolBatches);
  for (auto& batch : batches) {
    for (size_t k = 0; k < kReadBatch; ++k) {
      batch.push_back(Value::String(EntityKey(perm[zipf.Sample(rng)])));
    }
  }
  return batches;
}

/// Final checks: sampled entities serve their last event's values, the
/// pipeline emitted exactly the generator's finalized windows and dropped
/// nothing as late.
void CheckFinalState(Store& s, const Expected& expected, Result& result) {
  std::vector<Value> keys;
  std::vector<int64_t> ids;
  const int64_t stride = kEntities / static_cast<int64_t>(kSampledEntities);
  for (int64_t e = 0; e < kEntities; e += stride) {
    ids.push_back(e);
    keys.push_back(Value::String(EntityKey(e)));
  }
  const auto results = s.store->server().GetFeaturesBatch(
      keys, ReaderFeatures(), s.store->clock().now());
  for (size_t k = 0; k < ids.size(); ++k) {
    bool ok = results[k].ok() && results[k]->missing == 0 &&
              results[k]->values.size() == 4;
    for (int f = 0; ok && f < 4; ++f) {
      ok = results[k]->values[f] == OracleValue(f, expected.last[ids[k]]);
    }
    result.Check(ok);
  }
  result.Check(s.pipeline->rows_emitted() == expected.FinalizedWindows());
  result.Check(s.pipeline->events_ingested() == expected.events);
  result.Check(s.pipeline->dropped_late() == 0);
}

}  // namespace

Result RunIngest(const RunOptions& options, Tracer& tracer) {
  Result result;
  const std::vector<std::vector<Value>> pool = ReaderBatches(options.seed);
  const std::vector<Event> day0 = DayEvents(options.seed, 0);
  Tracer quiet(false);

  // Set-up: store, tables, features and pipeline, then day 0 through the
  // same write path, so readers start against a populated store.
  Store s;
  std::atomic<Timestamp> now{0};
  std::vector<double> setup_s, setup_ingest_s, setup_refresh_s;
  for (int i = 0; i < kSetups; ++i) {
    s = Store();  // Frees the previous store before building the next.
    const int64_t t0 = NowNs();
    s = CreateStore(options, i);
    const DayTimes t = ReplayDay(s, day0, now, quiet, nullptr);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_ingest_s.push_back(t.ingest_s);
    setup_refresh_s.push_back(t.refresh_s);
  }
  Expected expected;
  expected.last.resize(kEntities);
  expected.Add(day0);

  auto probe_expr = mlfs::CompiledExpr::Compile(FeatureDef(0).expression,
                                                SourceSchema(true));
  CheckOk(probe_expr.status(), "compile probe");
  const mlfs::OnlineStoreStats o0 = s.store->online().stats();
  const mlfs::FeatureServerStats s0 = s.store->server().stats();
  const uint64_t emitted0 = s.pipeline->rows_emitted();

  // Traced runs replay at least four days (see the writer below).
  const int days = std::max(
      options.trace ? 4 : 2,
      static_cast<int>(std::ceil(options.seconds * kDesignEventsPerSecond /
                                 (kEntities * kEventsPerEntityPerDay))));
  std::vector<std::vector<Event>> replay;
  for (int day = 1; day <= days; ++day) {
    replay.push_back(DayEvents(options.seed, day));
  }

  // Reader: open loop on its own thread until the writer finishes.
  std::atomic<bool> writing{true};
  LoopStats reader;
  const std::vector<std::string> features = ReaderFeatures();
  std::thread reader_thread([&] {
    // Generous horizon; the loop stops once the writer is done.
    const int64_t horizon_ns = int64_t{3600} * 1000000000;
    reader = RunOpenLoop(kReaderRate, 1, horizon_ns, [&](uint64_t i) {
      ScopedSpan root(tracer, "bench.request", i + 1);
      std::vector<mlfs::StatusOr<mlfs::FeatureVector>> results;
      {
        ScopedSpan span(tracer, "serving.get_features_batch");
        results = s.store->server().GetFeaturesBatch(
            pool[i % kPoolBatches], features,
            now.load(std::memory_order_acquire));
      }
      for (const auto& r : results) {
        if (!r.ok() || r->missing != 0 || r->degraded != 0) return false;
      }
      return true;
    }, &writing);
  });

  // Writer. Throughput counts the time spent in library calls, not in
  // building the event rows. Traced runs trace days in an
  // untraced-traced-traced-untraced pattern, so the ratio of the two rates
  // estimates the tracing overhead without the store's growth favouring
  // either side.
  double events_by_arm[2] = {0, 0}, busy_by_arm[2] = {0, 0};
  uint64_t writer_ops = 0;  // Batches written plus day boundaries.
  for (int day = 1; day <= days; ++day) {
    const bool traced_day = options.trace && (day % 4 == 2 || day % 4 == 3);
    const std::vector<Event>& events = replay[day - 1];
    const DayTimes t = ReplayDay(s, events, now, traced_day ? tracer : quiet,
                                 traced_day ? &*probe_expr : nullptr);
    busy_by_arm[traced_day] += t.busy_s;
    events_by_arm[traced_day] += static_cast<double>(events.size());
    writer_ops += (events.size() + kBatchEvents - 1) / kBatchEvents + 1;
    expected.Add(events);
  }
  const double writer_s = busy_by_arm[0] + busy_by_arm[1];
  writing.store(false, std::memory_order_release);
  reader_thread.join();

  result.Count(reader.issued, reader.failed);
  result.Count(writer_ops, 0);  // A failed write aborts the run instead.
  CheckFinalState(s, expected, result);

  const double replayed = static_cast<double>(expected.events) -
                          static_cast<double>(day0.size());
  if (!options.trace) {
    result.Set("setup_s", Median(setup_s), "s");
    result.Set("throughput_per_s", replayed / writer_s, "1/s");
    result.Set("latency_p50_us", Median(reader.latency_us), "us");
    result.Set("rss_mb", PeakRssMb(), "MiB");
    return result;
  }

  const mlfs::OnlineStoreStats o1 = s.store->online().stats();
  const mlfs::FeatureServerStats s1 = s.store->server().stats();
  result.Set("core.ingest_ms", Median(tracer.DurationsNs("core.ingest")) / 1e6,
             "ms");
  result.Set("streaming.ingest_batch_ms",
             Median(tracer.DurationsNs("streaming.ingest_batch")) / 1e6, "ms");
  result.Set("storage.maintenance_ms",
             Median(tracer.DurationsNs("storage.maintenance")) / 1e6, "ms");
  result.Set("registry.refresh_ms",
             Median(tracer.DurationsNs("registry.refresh")) / 1e6, "ms");
  result.Set("storage.eval_latest_ms",
             Median(tracer.DurationsNs("storage.eval_latest")) / 1e6, "ms");
  // Set-up replays day 0 untraced; its calls are timed by the same clock.
  result.Set("core.setup_ingest_s", Median(setup_ingest_s), "s");
  result.Set("registry.setup_refresh_s", Median(setup_refresh_s), "s");
  result.Set("serving.get_batch_us",
             Median(tracer.DurationsNs("serving.get_features_batch")) / 1e3,
             "us");
  // Base: events replayed after set-up (every online Put, mirror and
  // materializer and pipeline, over the events that caused them).
  result.Set("storage.online_puts_per_event",
             static_cast<double>(o1.puts - o0.puts) / replayed, "count");
  // Base: events replayed after set-up.
  result.Set("streaming.rows_per_event",
             static_cast<double>(s.pipeline->rows_emitted() - emitted0) /
                 replayed,
             "count");
  // Base: online Gets issued by the reader's requests.
  result.Set("storage.online_hit_frac",
             static_cast<double>(o1.hits - o0.hits) /
                 static_cast<double>(std::max<uint64_t>(1, o1.gets - o0.gets)),
             "frac");
  // Base: requested cells (entities x features) of the reader.
  result.Set("serving.degraded_frac",
             static_cast<double>(s1.degraded_features - s0.degraded_features) /
                 std::max(1.0, static_cast<double>(reader.issued) *
                                   kReadBatch * features.size()),
             "frac");
  result.Set("trace.overhead_frac",
             (events_by_arm[0] / busy_by_arm[0]) /
                     (events_by_arm[1] / busy_by_arm[1]) -
                 1.0,
             "frac");
  SetOpenLoopTail(reader, result);
  SetStorageLayerMetrics(*s.store, result);
  SetSelfTimeShares(tracer, result);
  return result;
}

}  // namespace perfbench
