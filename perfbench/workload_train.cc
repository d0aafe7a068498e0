// `train`: leakage-free training-set generation, one client in a closed
// loop.
//
// 50k INT64-keyed entities over 7 simulated days. Each day is one Ingest
// of one event per entity followed by one RunMaterialization of the three
// features, which leaves sealed multi-segment feature logs. Each iteration
// calls BuildTrainingSet for a 500k-row label spine and the three features
// with JoinOptions::max_threads = min(2, nproc). Offline half of the dual
// datastore only: no online reads, no server, no embedding.

#include <algorithm>
#include <memory>

#include "registry/materializer.h"
#include "serving/point_in_time.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mlfs::Row;
using mlfs::Timestamp;
using mlfs::Value;

constexpr int64_t kEntities = 50000;
constexpr int kDays = 7;
constexpr size_t kSpineRows = 500000;
constexpr int kSetups = 3;
constexpr size_t kSampledRows = 512;

struct Inputs {
  /// events[d * kEntities + e]: entity e's event on day d.
  std::vector<Event> events;
  std::vector<Row> spine;
  /// Per spine row: the matching day (0..kDays-1), or -1 when the entity
  /// has no history at the spine timestamp.
  std::vector<int> spine_day;
  uint64_t missing_cells = 0;
};

Inputs Generate(uint64_t seed) {
  Inputs in;
  Rng rng(seed * 0x7A11 + 23);
  in.events.reserve(size_t{kDays} * kEntities);
  for (int d = 0; d < kDays; ++d) {
    for (int64_t e = 0; e < kEntities; ++e) {
      // Entity 0's event closes each day, so the clock advances by a full
      // day between refreshes and every feature is due again.
      const Timestamp offset =
          e == 0 ? mlfs::Days(1) - mlfs::Hours(1)
                 : static_cast<Timestamp>(rng.Below(static_cast<uint64_t>(
                       mlfs::Days(1) - mlfs::Hours(1))));
      in.events.push_back(RandomEvent(rng, e, mlfs::Days(d) + offset));
    }
  }
  auto spine_schema = mlfs::Schema::Create(
      {{"entity", mlfs::FeatureType::kInt64, false},
       {"ts", mlfs::FeatureType::kTimestamp, false},
       {"label", mlfs::FeatureType::kInt64, false}});
  CheckOk(spine_schema.status(), "spine schema");
  in.spine.reserve(kSpineRows);
  in.spine_day.reserve(kSpineRows);
  for (size_t i = 0; i < kSpineRows; ++i) {
    const int64_t e = static_cast<int64_t>(rng.Below(kEntities));
    const Timestamp ts = static_cast<Timestamp>(
        rng.Below(static_cast<uint64_t>(mlfs::Days(kDays))));
    in.spine.push_back(Row::CreateUnsafe(
        *spine_schema, {Value::Int64(e), Value::Time(ts),
                        Value::Int64(static_cast<int64_t>(rng.Below(2)))}));
    int day = -1;
    for (int d = kDays - 1; d >= 0; --d) {
      if (in.events[size_t(d) * kEntities + e].ts <= ts) {
        day = d;
        break;
      }
    }
    in.spine_day.push_back(day);
    if (day < 0) in.missing_cells += kNumMaterialized;
  }
  return in;
}

struct Setup {
  std::unique_ptr<mlfs::FeatureStore> store;
  double total_s = 0;
};

/// Set-up time counts the store's work only: each day's rows are built
/// from the generated events outside the timed calls (and freed after the
/// day, so inputs do not hold a second copy of the source table).
Setup BuildStore(const Inputs& in, Tracer& tracer) {
  ScopedSpan root(tracer, "bench.setup");
  Setup out;
  int64_t busy_ns = 0;
  int64_t t0 = NowNs();
  out.store = std::make_unique<mlfs::FeatureStore>();
  mlfs::FeatureStore& store = *out.store;
  CreateSourceAndFeatures(store, false);
  busy_ns += NowNs() - t0;
  const mlfs::SchemaPtr schema = SourceSchema(false);
  for (int d = 0; d < kDays; ++d) {
    std::vector<Row> rows;
    rows.reserve(kEntities);
    for (int64_t e = 0; e < kEntities; ++e) {
      rows.push_back(
          EventRow(schema, in.events[size_t(d) * kEntities + e], false));
    }
    t0 = NowNs();
    {
      ScopedSpan span(tracer, "core.setup_ingest");
      CheckOk(store.Ingest(kSourceTable, rows), "ingest");
    }
    {
      ScopedSpan span(tracer, "registry.setup_refresh");
      auto refreshed = store.RunMaterialization();
      CheckOk(refreshed.status(), "materialization");
      if (*refreshed != kNumMaterialized) {
        CheckOk(mlfs::Status::Internal("a feature was not due"), "refresh");
      }
    }
    busy_ns += NowNs() - t0;
  }
  out.total_s = static_cast<double>(busy_ns) / 1e9;
  return out;
}

std::vector<std::string> Features() {
  return {kFeatureNames[0], kFeatureNames[1], kFeatureNames[2]};
}

/// Row count, missing-cell count and a strided sample of rows must match
/// the oracle.
bool Matches(const Inputs& in, const mlfs::TrainingSet& set) {
  if (set.rows.size() != kSpineRows) return false;
  if (set.missing_cells != in.missing_cells) return false;
  const size_t stride = kSpineRows / kSampledRows;
  for (size_t i = 0; i < kSpineRows; i += stride) {
    const Row& row = set.rows[i];
    if (row.num_values() != 3 + kNumMaterialized) return false;
    for (int c = 0; c < 3; ++c) {
      if (!(row.value(c) == in.spine[i].value(c))) return false;
    }
    const int day = in.spine_day[i];
    const int64_t e = in.spine[i].value(0).int64_value();
    for (int f = 0; f < kNumMaterialized; ++f) {
      const Value want =
          day < 0 ? Value::Null()
                  : OracleValue(f, in.events[size_t(day) * kEntities + e]);
      if (!(row.value(3 + f) == want)) return false;
    }
  }
  return true;
}

struct Builds {
  std::vector<double> latency_us;
  uint64_t rows = 0;
  uint64_t missing_cells = 0;  // Reported by the last build.
  double busy_s = 0;
};

/// Builds training sets back to back until `duration_ns` has passed (at
/// least one); each build is checked after its timed call.
Builds RunBuilds(const Inputs& in, mlfs::FeatureStore& store,
                 uint32_t threads, int64_t duration_ns, const char* span_name,
                 Tracer& tracer, Result& result, uint64_t request_base) {
  Builds out;
  const std::vector<std::string> features = Features();
  mlfs::JoinOptions join;
  join.max_threads = threads;
  const int64_t stop = NowNs() + duration_ns;
  for (uint64_t i = 0; i == 0 || NowNs() < stop; ++i) {
    const int64_t t0 = NowNs();
    mlfs::StatusOr<mlfs::TrainingSet> set = mlfs::Status::Internal("not run");
    {
      ScopedSpan root(tracer, "bench.build", request_base + i + 1);
      ScopedSpan span(tracer, span_name);
      set = store.BuildTrainingSet(in.spine, "entity", "ts", features, 0,
                                   join);
    }
    const int64_t t1 = NowNs();
    result.Check(set.ok() && Matches(in, *set));
    out.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    out.busy_s += static_cast<double>(t1 - t0) / 1e9;
    out.rows += set.ok() ? set->rows.size() : 0;
    out.missing_cells = set.ok() ? set->missing_cells : 0;
  }
  return out;
}

/// Replays the join's inner steps: SpineIndex::Build, then one AsOfBatch
/// per feature log over the spine's sorted requests.
void RunProbes(const Inputs& in, mlfs::FeatureStore& store, int rounds,
               Tracer& tracer, Result& result) {
  for (int r = 0; r < rounds; ++r) {
    ScopedSpan root(tracer, "bench.probe", (uint64_t{1} << 62) + r);
    mlfs::StatusOr<mlfs::SpineIndex> index =
        mlfs::Status::Internal("not built");
    {
      ScopedSpan span(tracer, "serving.spine_build");
      index = mlfs::SpineIndex::Build(in.spine, "entity", "ts");
    }
    CheckOk(index.status(), "spine index");
    std::vector<mlfs::AsOfRequest> requests;
    requests.reserve(index->sorted_rows().size());
    for (uint32_t row : index->sorted_rows()) {
      requests.push_back({index->keys()[row], index->times()[row]});
    }
    bool ok = true;
    for (int f = 0; f < kNumMaterialized; ++f) {
      auto table = store.offline().GetTable(
          mlfs::Materializer::LogTableName(kFeatureNames[f]));
      CheckOk(table.status(), "log table");
      const mlfs::SchemaPtr& schema = (*table)->options().schema;
      const int value_idx = schema->FieldIndex("value");
      auto projected = mlfs::Schema::Create({schema->field(value_idx)});
      CheckOk(projected.status(), "projection");
      mlfs::AsOfReadOptions read;
      const int columns[] = {value_idx};
      read.columns = columns;
      read.projected_schema = *projected;
      std::vector<uint64_t> misses;
      read.miss_bitmap = &misses;
      std::vector<Row> results(requests.size());
      ScopedSpan span(tracer, "storage.asof_batch");
      ok = ok && (*table)->AsOfBatch(requests, results, read).ok();
    }
    result.Check(ok);
  }
}

double SumS(const Tracer& tracer, const char* name) {
  double ns = 0;
  for (double d : tracer.DurationsNs(name)) ns += d;
  return ns / 1e9;
}

}  // namespace

Result RunTrain(const RunOptions& options, Tracer& tracer) {
  Result result;
  const Inputs in = Generate(options.seed);
  Setup setup;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    setup = Setup();  // Frees the previous store before building the next.
    setup = BuildStore(in, tracer);
    setup_s.push_back(setup.total_s);
  }
  mlfs::FeatureStore& store = *setup.store;
  // Two join threads leave half the host's cores idle, which keeps the
  // build time steady when other processes load the machine.
  const uint32_t threads = std::min(2u, Nproc());
  const int64_t total_ns = int64_t{options.seconds} * 1000000000;
  Tracer quiet(false);
  // One untimed build first: page-faults in the logs' sealed segments and
  // the allocator's arenas, which every later build finds warm.
  RunBuilds(in, store, threads, 0, "serving.join", quiet, result, 0);

  if (!options.trace) {
    const Builds builds = RunBuilds(in, store, threads, total_ns,
                                    "serving.join", tracer, result, 0);
    result.Set("setup_s", Median(setup_s), "s");
    result.Set("throughput_per_s",
               static_cast<double>(builds.rows) / builds.busy_s, "1/s");
    result.Set("latency_p50_us", Median(builds.latency_us), "us");
    result.Set("rss_mb", PeakRssMb(), "MiB");
    return result;
  }

  const Builds untraced = RunBuilds(in, store, threads, total_ns / 4,
                                    "serving.join", quiet, result, 0);
  const Builds traced = RunBuilds(in, store, threads, total_ns / 4,
                                  "serving.join", tracer, result, 1 << 20);
  RunBuilds(in, store, 1, 0, "serving.join_1t", tracer, result, 2 << 20);
  RunProbes(in, store, 2, tracer, result);

  const double join_ms = Median(tracer.DurationsNs("serving.join")) / 1e6;
  const double join_1t_ms =
      Median(tracer.DurationsNs("serving.join_1t")) / 1e6;
  const double spine_ms =
      Median(tracer.DurationsNs("serving.spine_build")) / 1e6;
  const double asof_ms =
      Median(tracer.PerRequestSumsNs("storage.asof_batch")) / 1e6;
  result.Set("serving.join_ms", join_ms, "ms");
  result.Set("serving.join_1t_ms", join_1t_ms, "ms");
  result.Set("serving.spine_build_ms", spine_ms, "ms");
  result.Set("storage.asof_batch_ms", asof_ms, "ms");
  // Estimate on one thread, where the probes' serial times add up: the
  // join minus spine canonicalize/sort and the AsOfBatch calls.
  result.Set("serving.join_assembly_ms", join_1t_ms - spine_ms - asof_ms,
             "ms");
  // Base: the 1-thread build over the max_threads build.
  result.Set("serving.join_speedup", join_1t_ms / join_ms, "x");
  // Base: joined cells (spine rows x features).
  result.Set("serving.join_missing_frac",
             static_cast<double>(traced.missing_cells) /
                 static_cast<double>(kSpineRows * kNumMaterialized),
             "frac");
  result.Set("trace.overhead_frac",
             (static_cast<double>(untraced.rows) / untraced.busy_s) /
                     (static_cast<double>(traced.rows) / traced.busy_s) -
                 1.0,
             "frac");
  // Per set-up: all 14 days' calls, averaged over the set-ups.
  result.Set("core.setup_ingest_s", SumS(tracer, "core.setup_ingest") / kSetups,
             "s");
  result.Set("registry.setup_refresh_s",
             SumS(tracer, "registry.setup_refresh") / kSetups, "s");
  SetStorageLayerMetrics(store, result);
  SetSelfTimeShares(tracer, result);
  return result;
}

}  // namespace perfbench
