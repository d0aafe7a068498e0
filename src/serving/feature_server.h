#ifndef MLFS_SERVING_FEATURE_SERVER_H_
#define MLFS_SERVING_FEATURE_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/row.h"
#include "common/status.h"
#include "embedding/embedding_store.h"
#include "lineage/lineage_graph.h"
#include "registry/feature_def.h"
#include "storage/online_store.h"

namespace mlfs {

class FeatureRegistry;  // registry/registry.h
class Program;          // expr/bytecode.h

/// What Get does when a requested feature has no live online value.
enum class MissingFeaturePolicy : uint8_t {
  kNull,   // Fill with NULL (model handles imputation).
  kError,  // Fail the whole request.
};

struct FeatureServerOptions {
  MissingFeaturePolicy missing_policy = MissingFeaturePolicy::kNull;
  /// Store reads per feature before giving up on a *transient* error
  /// (Internal / ResourceExhausted / Corruption): 1 means no retries.
  /// Non-transient errors (NotFound, InvalidArgument, ...) never retry.
  uint32_t max_attempts = 1;
  /// Real-time backoff before retry k: initial_backoff_micros << (k-1).
  /// 0 disables sleeping (retries stay back-to-back; keep 0 in unit tests).
  uint64_t initial_backoff_micros = 0;
};

/// Traffic and resilience counters for one FeatureServer.
struct FeatureServerStats {
  uint64_t requests = 0;
  /// Store reads re-issued after a transient error.
  uint64_t retries = 0;
  /// Features NULL-filled because retries were exhausted (kNull policy).
  uint64_t degraded_features = 0;
  /// Responses containing at least one degraded feature.
  uint64_t degraded_responses = 0;
  /// Aggregate tier I/O counters for the attached embedding store (all
  /// zero when the server has no embedding store) — the operator-facing
  /// view of cold-path behavior behind serving.
  EmbeddingStoreTierStats embedding_tiers;
};

/// An assembled feature vector for one entity.
struct FeatureVector {
  std::vector<std::string> names;
  std::vector<Value> values;
  /// Event time of the oldest contributing feature (staleness signal);
  /// kMaxTimestamp when every feature was missing.
  Timestamp oldest_event_time = kMaxTimestamp;
  uint64_t missing = 0;
  /// Subset of `missing` that was NULL-filled after exhausting retries on
  /// a transient store error (graceful degradation), rather than a miss.
  uint64_t degraded = 0;
  /// Staleness annotations, one "<feature>: <why>" entry per requested
  /// feature whose serving artifact (online view, embedding version or
  /// feature version) is marked stale in the lineage graph. Empty =
  /// everything served fresh.
  std::vector<std::string> stale;
};

/// Low-latency online feature serving: assembles per-entity feature
/// vectors ("features need to be continuously provided to deployed
/// models", paper §2.2.2). GetFeaturesBatch is the one serving path;
/// GetFeatures is a batch of one. A batch runs in two steps.
///
/// Fetch. Each requested feature is resolved once per batch, in this
/// order of precedence:
///  1. An online view produced by the materializer (schema {entity,
///     event_time, value}): one shard-grouped OnlineStore::MultiGet.
///  2. A registered embedding (bare name or "name@vK"), when constructed
///     with an EmbeddingStore: one EmbeddingTable::MultiGet, so embedding
///     features (§3.1.2) are served without being copied into the online
///     store first. Entity keys must be strings; other key types miss.
///  3. A registered feature, when constructed with a FeatureRegistry: its
///     published definition is evaluated at request time over each
///     entity's latest raw source row, read from the table's mirror view
///     (written by FeatureStore::Ingest; see SourceMirrorViewName) with
///     one MultiGet per source table per batch and one vectorized
///     EvalBatch. Programs are compiled once per definition version.
///     NULL/error semantics match offline materialization exactly (the
///     same compiled program evaluates both sides), and a NULL result is
///     a value, not a miss.
/// Any other name is read as an online view and misses. Every kind fills
/// a column of the same shape: per entity, the value or the status that
/// explains its absence, and the event time behind the value (an
/// embedding's is its table's created_at).
///
/// Assemble. One loop builds each entity's FeatureVector from the columns
/// with one missing-feature rule: kNull fills NULL, kError fails only that
/// entity. A view that is not a feature view fails, under both policies,
/// the entities it has a cell for.
///
/// Transient store errors (as injected by failpoints, or surfaced by a
/// future disk/remote backend) are retried per (entity, feature) cell up
/// to options.max_attempts with exponential backoff; when retries are
/// exhausted the server degrades gracefully per MissingFeaturePolicy
/// (kNull fills NULL so the model can impute). stats() exposes
/// retry/degradation counters for alerting. A feature whose serving
/// artifact (view, embedding version or feature version) is marked stale
/// in the lineage graph is still served, with a staleness annotation.
///
/// Thread-safe. Latency of every request is recorded (wall-clock
/// microseconds) in latency_histogram() — the one place MLFS uses real
/// time, because serving latency is a measurement, not simulation state.
/// Metrics are striped across per-thread-affine histogram shards merged
/// on read, so latency recording never serializes concurrent requests.
class FeatureServer {
 public:
  /// `embeddings` (optional, not owned) enables direct embedding-feature
  /// hydration for feature names that resolve in it. `lineage` (optional,
  /// not owned) enables per-response staleness annotations: a feature
  /// whose view/embedding artifact is marked stale in the graph is still
  /// served, but the response says so (FeatureVector::stale). `registry`
  /// (optional, not owned) enables serving-time evaluation of registered
  /// features that have no materialized online view.
  explicit FeatureServer(const OnlineStore* store,
                         FeatureServerOptions options = {},
                         const EmbeddingStore* embeddings = nullptr,
                         const LineageGraph* lineage = nullptr,
                         const FeatureRegistry* registry = nullptr);

  FeatureServer(const FeatureServer&) = delete;
  FeatureServer& operator=(const FeatureServer&) = delete;

  /// Fetches `features` for `entity_key` at logical time `now`: entry 0 of
  /// a one-entity GetFeaturesBatch.
  StatusOr<FeatureVector> GetFeatures(const Value& entity_key,
                                      const std::vector<std::string>& features,
                                      Timestamp now) const;

  /// Batched variant; entry i is entity_keys[i]'s result. Entries fail
  /// independently (under kError a missing feature fails only that
  /// entity's entry; a non-feature view fails every entry it has a cell
  /// for with FailedPrecondition). Each entity counts as one request and
  /// records one latency sample (the batch's amortized per-entity
  /// latency).
  std::vector<StatusOr<FeatureVector>> GetFeaturesBatch(
      const std::vector<Value>& entity_keys,
      const std::vector<std::string>& features, Timestamp now) const;

  /// Merged copy of the striped request-latency histograms (microseconds).
  Histogram latency_histogram() const;

  FeatureServerStats stats() const;

  /// Entities served so far. Every GetFeaturesBatch entry counts as one
  /// request whether it succeeded or failed, so a GetFeatures call (a batch
  /// of one) counts once even when it returns an error.
  uint64_t requests() const;

 private:
  /// One stripe of the request metrics; requests pick a stripe by thread
  /// affinity so concurrent recordings hit disjoint locks. Padded to a
  /// cache line to avoid false sharing between stripes.
  struct alignas(64) MetricsStripe {
    mutable std::mutex mu;
    Histogram latency_us;
    uint64_t requests = 0;
  };
  static constexpr size_t kMetricsStripes = 8;

  void RecordLatency(double micros, uint64_t num_requests) const;

  /// How one requested feature is served, decided once per batch.
  struct ResolvedFeature {
    enum class Kind : uint8_t { kView, kEmbedding, kComputed };
    Kind kind = Kind::kView;
    /// kEmbedding: the resolved table version.
    EmbeddingTablePtr table;
    /// kComputed: the definition's source table, and its program compiled
    /// against the table's mirror view. The program is null until the
    /// mirror view exists (no ingest yet); then every entity misses.
    std::string source_table;
    std::shared_ptr<const Program> program;
    /// kComputed: the source time column's index in the program's schema.
    int time_idx = -1;
    /// "<feature>: <why>" when the serving artifact is marked stale.
    std::string stale_note;
  };

  /// Resolves `feature` by the precedence rule: online view, then
  /// embedding, then registered computed feature, then (missing) view.
  ResolvedFeature ResolveFeature(const std::string& feature) const;

  /// OnlineStore::MultiGet of `view`, with each cell that failed
  /// transiently re-read up to options_.max_attempts attempts in all,
  /// sleeping initial_backoff_micros << (attempt - 1) before each; every
  /// re-read counts in retries_.
  std::vector<StatusOr<Row>> FetchRows(const std::string& view,
                                       const std::vector<Value>& entity_keys,
                                       Timestamp now) const;

  /// Cached (compiling on first use) program for `reg`, keyed "name@vN".
  std::shared_ptr<const Program> CompiledProgramFor(
      const RegisteredFeature& reg) const;

  const OnlineStore* store_;            // Not owned.
  const EmbeddingStore* embeddings_;    // Not owned; may be null.
  const LineageGraph* lineage_;         // Not owned; may be null.
  const FeatureRegistry* registry_;     // Not owned; may be null.
  FeatureServerOptions options_;
  /// Compiled programs for served computed features, keyed "name@vN".
  mutable std::mutex compile_mu_;
  mutable std::unordered_map<std::string, std::shared_ptr<const Program>>
      compile_cache_;
  mutable std::vector<MetricsStripe> metrics_;
  mutable std::atomic<uint64_t> retries_{0};
  mutable std::atomic<uint64_t> degraded_features_{0};
  mutable std::atomic<uint64_t> degraded_responses_{0};
};

}  // namespace mlfs

#endif  // MLFS_SERVING_FEATURE_SERVER_H_
