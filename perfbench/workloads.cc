#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "registry/feature_def.h"

namespace perfbench {

using mlfs::FeatureType;
using mlfs::Value;

unsigned Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

Event RandomEvent(Rng& rng, int64_t entity, mlfs::Timestamp ts) {
  Event e;
  e.entity = entity;
  e.ts = ts;
  e.a = static_cast<double>(static_cast<int64_t>(rng.Below(16001)) - 8000) /
        8.0;
  e.b = static_cast<int64_t>(rng.Below(1000));
  e.c = static_cast<double>(static_cast<int64_t>(rng.Below(8001)) - 4000) /
        4.0;
  e.tag = static_cast<uint8_t>(rng.Below(4));
  return e;
}

std::string EntityKey(int64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "e%07lld", static_cast<long long>(id));
  return buf;
}

mlfs::SchemaPtr SourceSchema(bool string_keys) {
  auto schema = mlfs::Schema::Create(
      {{"entity", string_keys ? FeatureType::kString : FeatureType::kInt64,
        false},
       {"event_time", FeatureType::kTimestamp, false},
       {"a", FeatureType::kDouble, true},
       {"b", FeatureType::kInt64, true},
       {"c", FeatureType::kDouble, true},
       {"tag", FeatureType::kString, true}});
  CheckOk(schema.status(), "source schema");
  return *schema;
}

mlfs::Row EventRow(const mlfs::SchemaPtr& schema, const Event& event,
                   bool string_keys) {
  return mlfs::Row::CreateUnsafe(
      schema, {string_keys ? Value::String(EntityKey(event.entity))
                           : Value::Int64(event.entity),
               Value::Time(event.ts), Value::Double(event.a),
               Value::Int64(event.b), Value::Double(event.c),
               Value::String(kTags[event.tag])});
}

mlfs::FeatureDefinition FeatureDef(int i) {
  static constexpr const char* kExpressions[] = {
      "a * 2.0 + b",
      "b % 7",
      "len(tag) * 10 + b",
      // Never materialized: the server evaluates it per request in the
      // bytecode VM over the source mirror view, string predicate included.
      "if(tag == 'gold', a + c, a - c)",
  };
  mlfs::FeatureDefinition def;
  def.name = kFeatureNames[i];
  def.entity = "entity";
  def.source_table = kSourceTable;
  def.expression = kExpressions[i];
  def.cadence = mlfs::Hours(1);
  return def;
}

Value OracleValue(int i, const Event& e) {
  switch (i) {
    case 0:
      return Value::Double(e.a * 2.0 + static_cast<double>(e.b));
    case 1:
      return Value::Int64(e.b % 7);
    case 2:
      return Value::Int64(
          static_cast<int64_t>(std::string(kTags[e.tag]).size()) * 10 + e.b);
    default:
      return Value::Double(e.tag == 0 ? e.a + e.c : e.a - e.c);
  }
}

void CheckOk(const mlfs::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(2);
}

void CreateSourceAndFeatures(mlfs::FeatureStore& store, bool string_keys,
                             size_t memory_budget_bytes,
                             const std::string& spill_dir) {
  mlfs::OfflineTableOptions options;
  options.name = kSourceTable;
  options.schema = SourceSchema(string_keys);
  options.entity_column = "entity";
  options.time_column = "event_time";
  options.memory_budget_bytes = memory_budget_bytes;
  options.spill_dir = spill_dir;
  CheckOk(store.CreateSourceTable(options), "create source table");
  for (int i = 0; i < kNumMaterialized; ++i) {
    CheckOk(store.PublishFeature(FeatureDef(i)).status(), "publish feature");
  }
}

mlfs::OfflineStorageStats OfflineTotals(mlfs::FeatureStore& store) {
  mlfs::OfflineStorageStats total;
  mlfs::OfflineStore& offline = store.offline();
  for (const std::string& name : offline.TableNames()) {
    auto table = offline.GetTable(name);
    if (!table.ok()) continue;
    const mlfs::OfflineStorageStats s = (*table)->storage_stats();
    total.head_rows += s.head_rows;
    total.sealed_rows += s.sealed_rows;
    total.sealed_segments += s.sealed_segments;
    total.spilled_segments += s.spilled_segments;
    total.resident_segment_bytes += s.resident_segment_bytes;
    total.spilled_bytes += s.spilled_bytes;
  }
  return total;
}

void SetStorageLayerMetrics(mlfs::FeatureStore& store, Result& result) {
  const mlfs::OfflineStorageStats off = OfflineTotals(store);
  // Base: sealed rows of every offline table (head rows are uncounted
  // bytes).
  result.Set("storage.offline_bytes_per_row",
             off.sealed_rows == 0
                 ? 0.0
                 : static_cast<double>(off.resident_segment_bytes +
                                       off.spilled_bytes) /
                       static_cast<double>(off.sealed_rows),
             "B/row");
  result.Set("storage.sealed_segments",
             static_cast<double>(off.sealed_segments), "count");
  result.Set("storage.spilled_segments",
             static_cast<double>(off.spilled_segments), "count");
  const mlfs::EmbeddingStoreTierStats tiers =
      store.embeddings().TierStats();
  result.Set("io.spilled_mb",
             static_cast<double>(off.spilled_bytes + tiers.tier.packed_bytes) /
                 (1024.0 * 1024.0),
             "MiB");
  const mlfs::OnlineStoreStats online = store.online().stats();
  // Base: live online cells (every view, source mirror included).
  result.Set("storage.online_bytes_per_cell",
             online.num_cells == 0
                 ? 0.0
                 : static_cast<double>(online.approx_bytes) /
                       static_cast<double>(online.num_cells),
             "B/cell");
}

void SetSelfTimeShares(const Tracer& tracer, Result& result) {
  static constexpr const char* kLayers[] = {
      "core", "serving", "storage", "expr", "registry", "embedding",
      "streaming"};
  const std::map<std::string, int64_t> self =
      tracer.SelfTimeByName("bench.setup");
  auto total_it = self.find("");
  const double total =
      total_it == self.end() ? 0.0 : static_cast<double>(total_it->second);
  for (const char* layer : kLayers) {
    const std::string prefix = std::string(layer) + ".";
    int64_t ns = 0;
    for (const auto& [name, t] : self) {
      if (name.rfind(prefix, 0) == 0) ns += t;
    }
    // Base: summed duration of the traced root spans.
    result.Set(prefix + "self_share",
               total > 0 ? static_cast<double>(ns) / total : 0.0, "frac");
  }
}

void SetOpenLoopTail(const LoopStats& loop, Result& result) {
  std::vector<double> lat = loop.latency_us;
  std::sort(lat.begin(), lat.end());
  const double pct = HighestSupportedPercentile(lat.size(), {50, 90, 95, 99});
  result.Set("serving.get_tail_us",
             PercentileSorted(lat, pct == 0 ? 50 : pct), "us");
  std::vector<double> late = loop.late_us;
  std::sort(late.begin(), late.end());
  result.Set("harness.generator_late_p99_us", PercentileSorted(late, 99),
             "us");
}

}  // namespace perfbench
