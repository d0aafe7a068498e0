// E15 — Batch-at-a-time columnar write path.
//
// Claim: the offline and online writers cost less per row when they work a
// batch at a time: sealing a head is one row-major pass into per-column
// builders, compaction merges sealed segments column to column without a
// Row round-trip, and OnlineStore::PutBatch resolves the view once and
// takes each shard lock once per batch.
//
// Reproduces, on the `ingest` workload's source schema (STRING entity,
// TIMESTAMP, DOUBLE a, INT64 b, DOUBLE c, STRING tag):
//   BM_SealHead                   Segment::Encode + open of an 8192-row head
//   BM_SealHeadReference          the same through the row-at-a-time oracle
//                                 encoder (the pre-builder seal)
//   BM_CompactPartition           Segment::Merge of 12 sealed segments into 1
//                                 (spilled:0 resident, spilled:1 mapped)
//   BM_CompactPartitionViaRows    the pre-builder compaction: decode every
//                                 row, then the row-at-a-time encoder
//   BM_OnlinePutBatch             PutBatch of batch:1 / 64 / 5000 rows into a
//                                 16-shard store holding 50k entities
//
// Medians are committed as bench/BENCH_write_path.json:
//   ./bench_write_path --benchmark_repetitions=5
//       --benchmark_report_aggregates_only=true --benchmark_format=json

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "storage/online_store.h"
#include "storage/segment.h"
#include "support/reference_segment.h"

namespace mlfs {
namespace {

constexpr size_t kHeadRows = 8192;
constexpr size_t kCompactSegments = 12;
constexpr int64_t kEntities = 50000;
constexpr const char* kTags[] = {"gold", "silver", "bronze", "none"};

SchemaPtr SourceSchema() {
  return Schema::Create({{"entity", FeatureType::kString, false},
                         {"event_time", FeatureType::kTimestamp, false},
                         {"a", FeatureType::kDouble, true},
                         {"b", FeatureType::kInt64, true},
                         {"c", FeatureType::kDouble, true},
                         {"tag", FeatureType::kString, true}})
      .value();
}

std::string EntityKey(int64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "e%07lld", static_cast<long long>(id));
  return buf;
}

// One head's worth of time-ordered events in [start, start + 1h).
std::vector<Row> HeadRows(const SchemaPtr& schema, Rng& rng, Timestamp start) {
  std::vector<Timestamp> times(kHeadRows);
  for (Timestamp& t : times) {
    t = start + static_cast<Timestamp>(rng.Uniform(Hours(1)));
  }
  std::sort(times.begin(), times.end());
  std::vector<Row> rows;
  rows.reserve(kHeadRows);
  for (Timestamp t : times) {
    rows.push_back(Row::CreateUnsafe(
        schema,
        {Value::String(EntityKey(static_cast<int64_t>(rng.Uniform(kEntities)))),
         Value::Time(t),
         Value::Double(static_cast<double>(rng.UniformInt(-8000, 8000)) / 8.0),
         Value::Int64(static_cast<int64_t>(rng.Uniform(1000))),
         Value::Double(static_cast<double>(rng.UniformInt(-4000, 4000)) / 4.0),
         Value::String(kTags[rng.Uniform(4)])}));
  }
  return rows;
}

struct Fixture {
  SchemaPtr schema = SourceSchema();
  std::vector<Row> head;
  std::vector<SegmentPtr> resident;
  std::vector<SegmentPtr> spilled;
  std::string spill_dir;

  Fixture() {
    Rng rng(15);
    head = HeadRows(schema, rng, 0);
    spill_dir = (std::filesystem::temp_directory_path() /
                 ("mlfs_bench_write_path_" + std::to_string(::getpid())))
                    .string();
    std::filesystem::create_directories(spill_dir);
    for (size_t s = 0; s < kCompactSegments; ++s) {
      const std::vector<Row> rows =
          HeadRows(schema, rng, Hours(static_cast<int64_t>(s)));
      SegmentPtr seg =
          Segment::FromBytes(Segment::Encode(schema, 0, 0, 1, rows).value())
              .value();
      resident.push_back(seg);
      spilled.push_back(Segment::SpillToFile(
                            *seg, spill_dir + "/" + std::to_string(s) + ".seg",
                            /*remove_file_on_destroy=*/true)
                            .value());
    }
  }
  ~Fixture() {
    resident.clear();
    spilled.clear();
    std::error_code ec;
    std::filesystem::remove_all(spill_dir, ec);
  }
};

Fixture& GetFixture() {
  static Fixture fixture;  // Destroyed at exit, which removes the spill files.
  return fixture;
}

void BM_SealHead(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    auto seg = Segment::FromBytes(
        Segment::Encode(f.schema, 0, 0, 1, f.head).value());
    MLFS_CHECK(seg.ok());
    benchmark::DoNotOptimize(seg);
  }
  state.SetItemsProcessed(state.iterations() * kHeadRows);
}
BENCHMARK(BM_SealHead)->Unit(benchmark::kMicrosecond);

void BM_SealHeadReference(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    auto seg = Segment::FromBytes(
        ReferenceSegmentEncode(f.schema, 0, 0, 1, f.head).value());
    MLFS_CHECK(seg.ok());
    benchmark::DoNotOptimize(seg);
  }
  state.SetItemsProcessed(state.iterations() * kHeadRows);
}
BENCHMARK(BM_SealHeadReference)->Unit(benchmark::kMicrosecond);

void BM_CompactPartition(benchmark::State& state) {
  Fixture& f = GetFixture();
  const std::vector<SegmentPtr>& inputs =
      state.range(0) != 0 ? f.spilled : f.resident;
  for (auto _ : state) {
    auto merged = Segment::FromBytes(
        Segment::Merge(f.schema, 0, 0, 1, inputs).value());
    MLFS_CHECK(merged.ok());
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * kCompactSegments * kHeadRows);
}
BENCHMARK(BM_CompactPartition)
    ->ArgName("spilled")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_CompactPartitionViaRows(benchmark::State& state) {
  Fixture& f = GetFixture();
  const std::vector<SegmentPtr>& inputs =
      state.range(0) != 0 ? f.spilled : f.resident;
  const std::vector<int> all = {0, 1, 2, 3, 4, 5};
  for (auto _ : state) {
    std::vector<Row> rows;
    rows.reserve(kCompactSegments * kHeadRows);
    std::vector<Value> values;
    for (const SegmentPtr& seg : inputs) {
      for (size_t r = 0; r < seg->num_rows(); ++r) {
        values.clear();
        seg->AppendProjected(r, all, &values);
        rows.push_back(Row::CreateUnsafe(f.schema, values));
      }
    }
    auto merged = Segment::FromBytes(
        ReferenceSegmentEncode(f.schema, 0, 0, 1, rows).value());
    MLFS_CHECK(merged.ok());
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * kCompactSegments * kHeadRows);
}
BENCHMARK(BM_CompactPartitionViaRows)
    ->ArgName("spilled")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_OnlinePutBatch(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  Fixture& f = GetFixture();
  OnlineStore store;
  MLFS_CHECK(store.CreateView("source", f.schema).ok());
  // Every entity resident, as in `ingest`'s source mirror after day 0.
  Rng rng(51);
  std::vector<OnlinePut> rows;
  for (int64_t e = 0; e < kEntities; ++e) {
    const Row& row = f.head[static_cast<size_t>(e) % f.head.size()];
    Row keyed = row;
    keyed.set_value(0, Value::String(EntityKey(e)));
    rows.push_back(OnlinePut{keyed.value(0), keyed, 0, 0});
  }
  {
    std::vector<OnlinePut> load = rows;
    MLFS_CHECK(store.PutBatch("source", load).ok());
  }
  rng.Shuffle(&rows);
  std::vector<OnlinePut> batch;
  batch.reserve(batch_size);
  size_t next = 0;
  Timestamp et = 1;
  for (auto _ : state) {
    batch.clear();
    for (size_t i = 0; i < batch_size; ++i) {
      const OnlinePut& src = rows[next];
      next = next + 1 == rows.size() ? 0 : next + 1;
      batch.push_back(OnlinePut{src.entity_key, src.row, et, et});
    }
    ++et;
    MLFS_CHECK(store.PutBatch("source", batch).ok());
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_OnlinePutBatch)
    ->ArgName("batch")
    ->Arg(1)
    ->Arg(64)
    ->Arg(5000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace mlfs

BENCHMARK_MAIN();
