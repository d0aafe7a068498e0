#include "serving/feature_server.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>

#include "common/failpoint.h"
#include "expr/bytecode.h"
#include "expr/parser.h"
#include "registry/registry.h"

namespace mlfs {
namespace {

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Errors worth retrying: the store (or an injected fault standing in for a
/// flaky backend) failed to answer, as opposed to answering "no such value".
bool IsTransient(const Status& s) {
  switch (s.code()) {
    case StatusCode::kInternal:
    case StatusCode::kResourceExhausted:
    case StatusCode::kCorruption:
      return true;
    default:
      return false;
  }
}

/// Stable per-thread stripe assignment: threads round-robin onto stripes at
/// first use, so steady-state recording from a fixed reader pool is
/// contention-free.
size_t ThreadStripeSeed() {
  static std::atomic<size_t> next{0};
  thread_local const size_t seed =
      next.fetch_add(1, std::memory_order_relaxed);
  return seed;
}

// Every served feature fills one column of the same shape: per entity,
// the value or the status that explains its absence (`cells`), and the
// event time behind the value (`event_times`, kMaxTimestamp if none). A
// batch keeps its columns back to back, entity i of column j at j * n + i;
// each Fill*Column appends its column's n cells.

/// Reads each row's `value` and `event_time` cells. Their indices come
/// once from the first row found: PutBatch forces every row of a view to
/// the view's schema. Returns FailedPrecondition for a view that is not a
/// feature view; every entity with a cell then fails with it.
Status FillViewColumn(const std::string& view, std::vector<StatusOr<Row>> rows,
                      std::vector<StatusOr<Value>>* cells,
                      Timestamp* event_times) {
  Status hit_error;
  int value_idx = -1, time_idx = -1;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].ok()) {
      cells->emplace_back(rows[i].status());
      continue;
    }
    if (value_idx < 0 && hit_error.ok()) {
      const Schema& schema = *rows[i]->schema();
      value_idx = schema.FieldIndex("value");
      time_idx = schema.FieldIndex("event_time");
      if (value_idx < 0 || time_idx < 0) {
        hit_error = Status::FailedPrecondition(
            "view '" + view + "' is not a materialized feature view");
      }
    }
    if (!hit_error.ok()) {
      cells->emplace_back(Value::Null());
      continue;
    }
    cells->emplace_back(rows[i]->value(value_idx));
    event_times[i] = rows[i]->value(time_idx).time_value();
  }
  return hit_error;
}

/// Copies each found vector out of `table` at once: a tiered table's row
/// pointers only last until this thread's next tiered read.
void FillEmbeddingColumn(const EmbeddingTable& table,
                         const std::vector<Value>& entity_keys,
                         const std::vector<std::string>& string_keys,
                         std::vector<StatusOr<Value>>* cells,
                         Timestamp* event_times) {
  const std::vector<const float*> found = table.MultiGet(string_keys);
  for (size_t i = 0; i < found.size(); ++i) {
    if (found[i] == nullptr) {
      cells->emplace_back(Status::NotFound("no embedding for entity " +
                                           entity_keys[i].ToString()));
      continue;
    }
    cells->emplace_back(Value::Embedding(
        std::vector<float>(found[i], found[i] + table.dim())));
    event_times[i] = table.metadata().created_at;
  }
}

/// Evaluates `rows` into the cells at `index`. A failing batch splits at
/// its first failing row (`err_row`): the rows before it evaluate again on
/// their own, it takes the error, and the rest continue. So each entity
/// gets what a row-at-a-time evaluation gives it. A failure tied to no row
/// goes to every row of the batch.
void EvalSplit(const Program& program, std::span<const Row* const> rows,
               std::span<const size_t> index, ExprScratch* scratch,
               std::span<StatusOr<Value>> cells) {
  while (!rows.empty()) {
    const ColumnVector* res = nullptr;
    size_t err_row = rows.size();
    Status s = program.EvalBatch(RowPtrBatchSource(program.schema(), rows),
                                 scratch, &res, &err_row);
    if (s.ok()) {
      for (size_t k = 0; k < rows.size(); ++k) {
        cells[index[k]] = res->GetValue(k);
      }
      return;
    }
    if (err_row >= rows.size()) {
      for (size_t k = 0; k < rows.size(); ++k) cells[index[k]] = s;
      return;
    }
    EvalSplit(program, rows.first(err_row), index.first(err_row), scratch,
              cells);
    cells[index[err_row]] = std::move(s);
    rows = rows.subspan(err_row + 1);
    index = index.subspan(err_row + 1);
  }
}

/// Evaluates `program` over each entity's latest source row in `mirror`;
/// an entity with no row takes the mirror read's status.
void FillComputedColumn(const Program& program, int time_idx,
                        const std::vector<StatusOr<Row>>& mirror,
                        std::vector<StatusOr<Value>>* cells,
                        Timestamp* event_times) {
  const size_t begin = cells->size();
  std::vector<const Row*> rows;
  std::vector<size_t> index;
  rows.reserve(mirror.size());
  index.reserve(mirror.size());
  for (size_t i = 0; i < mirror.size(); ++i) {
    if (!mirror[i].ok()) {
      cells->emplace_back(mirror[i].status());
      continue;
    }
    cells->emplace_back(Value::Null());  // Evaluated below.
    rows.push_back(&*mirror[i]);
    index.push_back(i);
    if (time_idx >= 0) {
      event_times[i] = mirror[i]->value(time_idx).time_value();
    }
  }
  ExprScratch scratch;
  EvalSplit(program, rows, index, &scratch,
            std::span(*cells).subspan(begin));
}

}  // namespace

FeatureServer::FeatureServer(const OnlineStore* store,
                             FeatureServerOptions options,
                             const EmbeddingStore* embeddings,
                             const LineageGraph* lineage,
                             const FeatureRegistry* registry)
    : store_(store),
      embeddings_(embeddings),
      lineage_(lineage),
      registry_(registry),
      options_(options),
      metrics_(kMetricsStripes) {}

FeatureServer::ResolvedFeature FeatureServer::ResolveFeature(
    const std::string& feature) const {
  ResolvedFeature out;
  // With neither an embedding store nor a registry every name is a view.
  const bool view = (embeddings_ == nullptr && registry_ == nullptr) ||
                    store_->HasView(feature);
  StatusOr<EmbeddingTablePtr> table = Status::NotFound("");
  StatusOr<RegisteredFeature> reg = Status::NotFound("");
  if (!view && embeddings_ != nullptr &&
      (table = embeddings_->Resolve(feature)).ok()) {
    out.kind = ResolvedFeature::Kind::kEmbedding;
    out.table = std::move(*table);
  } else if (!view && registry_ != nullptr &&
             (reg = registry_->Get(feature)).ok()) {
    out.kind = ResolvedFeature::Kind::kComputed;
    out.program = CompiledProgramFor(*reg);
    if (out.program != nullptr) {
      out.time_idx = out.program->schema()->FieldIndex(reg->source_time_column);
    }
    out.source_table = reg->def.source_table;
  }
  if (lineage_ == nullptr) return out;
  const ArtifactId artifact =
      out.kind == ResolvedFeature::Kind::kEmbedding
          ? EmbeddingArtifact(out.table->metadata().name,
                              out.table->metadata().version)
      : out.kind == ResolvedFeature::Kind::kComputed
          ? FeatureArtifact(reg->def.name, reg->version)
          : ViewArtifact(feature);
  if (std::optional<StalenessInfo> info = lineage_->StalenessOf(artifact)) {
    out.stale_note = feature + ": " + info->ToString();
  }
  return out;
}

std::vector<StatusOr<Row>> FeatureServer::FetchRows(
    const std::string& view, const std::vector<Value>& entity_keys,
    Timestamp now) const {
  std::vector<StatusOr<Row>> rows = store_->MultiGet(view, entity_keys, now);
  const uint32_t max_attempts = std::max<uint32_t>(1, options_.max_attempts);
  uint64_t retries = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (uint32_t attempt = 1; attempt < max_attempts && !rows[i].ok() &&
                               IsTransient(rows[i].status());
         ++attempt) {
      if (options_.initial_backoff_micros > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            options_.initial_backoff_micros << (attempt - 1)));
      }
      ++retries;
      rows[i] = store_->Get(view, entity_keys[i], now);
    }
  }
  if (retries) retries_.fetch_add(retries, std::memory_order_relaxed);
  return rows;
}

std::shared_ptr<const Program> FeatureServer::CompiledProgramFor(
    const RegisteredFeature& reg) const {
  const std::string key = reg.VersionedName();
  {
    std::lock_guard lock(compile_mu_);
    auto it = compile_cache_.find(key);
    if (it != compile_cache_.end()) return it->second;
  }
  // The mirror view carries the source table's full schema; until the
  // first ingest creates it there is nothing to evaluate against (every
  // entity would miss anyway), so failure is not cached.
  StatusOr<SchemaPtr> schema =
      store_->ViewSchema(SourceMirrorViewName(reg.def.source_table));
  if (!schema.ok()) return nullptr;
  StatusOr<ExprPtr> expr = ParseExpr(reg.def.expression);
  if (!expr.ok()) return nullptr;
  StatusOr<std::shared_ptr<const Program>> program =
      Program::Lower(**expr, *schema);
  if (!program.ok()) return nullptr;
  std::lock_guard lock(compile_mu_);
  return compile_cache_.emplace(key, std::move(*program)).first->second;
}

void FeatureServer::RecordLatency(double micros,
                                  uint64_t num_requests) const {
  MetricsStripe& stripe = metrics_[ThreadStripeSeed() % kMetricsStripes];
  std::lock_guard lock(stripe.mu);
  for (uint64_t i = 0; i < num_requests; ++i) stripe.latency_us.Record(micros);
  stripe.requests += num_requests;
}

StatusOr<FeatureVector> FeatureServer::GetFeatures(
    const Value& entity_key, const std::vector<std::string>& features,
    Timestamp now) const {
  return std::move(GetFeaturesBatch({entity_key}, features, now).front());
}

std::vector<StatusOr<FeatureVector>> FeatureServer::GetFeaturesBatch(
    const std::vector<Value>& entity_keys,
    const std::vector<std::string>& features, Timestamp now) const {
  const double start = NowMicros();
  const size_t n = entity_keys.size();
  std::vector<StatusOr<FeatureVector>> out;
  if (n == 0) return out;

  // Fetch: resolve each feature once and fill its column.
  const size_t num_features = features.size();
  std::vector<StatusOr<Value>> cells;
  cells.reserve(num_features * n);
  std::vector<Timestamp> event_times(num_features * n, kMaxTimestamp);
  std::vector<Status> hit_errors(num_features);
  std::vector<std::string> stale;  // Shared by every entity in the batch.
  std::vector<std::string> string_keys;  // Embedding lookups; built once.
  // Mirror-view rows per source table, shared by its computed features.
  std::vector<std::pair<std::string, std::vector<StatusOr<Row>>>> mirrors;
  for (size_t j = 0; j < num_features; ++j) {
    ResolvedFeature feature = ResolveFeature(features[j]);
    if (!feature.stale_note.empty()) {
      stale.push_back(std::move(feature.stale_note));
    }
    Timestamp* times = event_times.data() + j * n;
    switch (feature.kind) {
      case ResolvedFeature::Kind::kView:
        hit_errors[j] = FillViewColumn(
            features[j], FetchRows(features[j], entity_keys, now), &cells,
            times);
        break;
      case ResolvedFeature::Kind::kEmbedding:
        if (string_keys.empty()) {
          // Non-string keys keep "", which no table key matches (embedding
          // keys are non-empty by construction): a plain miss.
          string_keys.resize(n);
          for (size_t i = 0; i < n; ++i) {
            if (entity_keys[i].type() == FeatureType::kString) {
              string_keys[i] = entity_keys[i].string_value();
            }
          }
        }
        FillEmbeddingColumn(*feature.table, entity_keys, string_keys, &cells,
                            times);
        break;
      case ResolvedFeature::Kind::kComputed: {
        if (feature.program == nullptr) {
          cells.insert(cells.end(), n,
                       Status::NotFound("no source rows ingested for '" +
                                        feature.source_table + "'"));
          break;
        }
        const std::string mirror = SourceMirrorViewName(feature.source_table);
        auto it = std::find_if(
            mirrors.begin(), mirrors.end(),
            [&](const auto& m) { return m.first == mirror; });
        if (it == mirrors.end()) {
          mirrors.emplace_back(mirror, FetchRows(mirror, entity_keys, now));
          it = mirrors.end() - 1;
        }
        FillComputedColumn(*feature.program, feature.time_idx, it->second,
                           &cells, times);
        break;
      }
    }
    MLFS_DCHECK(cells.size() == (j + 1) * n);
  }

  // Assemble one FeatureVector per entity. Entities fail independently:
  // kError fails only the entity whose feature is unavailable.
  out.reserve(n);
  const bool any_failpoint = FailpointRegistry::Instance().AnyArmed();
  uint64_t degraded_features = 0, degraded_responses = 0;
  for (size_t i = 0; i < n; ++i) {
    if (any_failpoint) {
      // Per-request failpoint, one evaluation per entity.
      Status injected =
          FailpointRegistry::Instance().Evaluate("feature_server.get");
      if (!injected.ok()) {
        out.push_back(std::move(injected));
        continue;
      }
    }
    FeatureVector fv;
    fv.names = features;
    fv.values.reserve(num_features);
    fv.stale = stale;
    Status entity_error;
    for (size_t j = 0; j < num_features; ++j) {
      StatusOr<Value>& cell = cells[j * n + i];
      if (cell.ok()) {
        if (!hit_errors[j].ok()) {
          entity_error = hit_errors[j];
          break;
        }
        fv.values.push_back(std::move(*cell));
        fv.oldest_event_time =
            std::min(fv.oldest_event_time, event_times[j * n + i]);
        continue;
      }
      const Status cause = cell.status();
      if (options_.missing_policy == MissingFeaturePolicy::kError) {
        entity_error = Status::NotFound("feature '" + features[j] +
                                        "' unavailable: " + cause.message());
        break;
      }
      fv.values.push_back(Value::Null());
      ++fv.missing;
      if (IsTransient(cause)) ++fv.degraded;
    }
    if (!entity_error.ok()) {
      out.push_back(std::move(entity_error));
      continue;
    }
    if (fv.degraded > 0) {
      degraded_features += fv.degraded;
      ++degraded_responses;
    }
    out.push_back(std::move(fv));
  }
  if (degraded_features > 0) {
    degraded_features_.fetch_add(degraded_features, std::memory_order_relaxed);
    degraded_responses_.fetch_add(degraded_responses,
                                  std::memory_order_relaxed);
  }
  // Each entity counts as one request at the batch's amortized latency.
  RecordLatency((NowMicros() - start) / static_cast<double>(n), n);
  return out;
}

Histogram FeatureServer::latency_histogram() const {
  Histogram merged;
  for (const MetricsStripe& stripe : metrics_) {
    std::lock_guard lock(stripe.mu);
    merged.Merge(stripe.latency_us);
  }
  return merged;
}

FeatureServerStats FeatureServer::stats() const {
  FeatureServerStats s;
  s.requests = requests();
  s.retries = retries_.load(std::memory_order_relaxed);
  s.degraded_features = degraded_features_.load(std::memory_order_relaxed);
  s.degraded_responses = degraded_responses_.load(std::memory_order_relaxed);
  if (embeddings_ != nullptr) s.embedding_tiers = embeddings_->TierStats();
  return s;
}

uint64_t FeatureServer::requests() const {
  uint64_t total = 0;
  for (const MetricsStripe& stripe : metrics_) {
    std::lock_guard lock(stripe.mu);
    total += stripe.requests;
  }
  return total;
}

}  // namespace mlfs
