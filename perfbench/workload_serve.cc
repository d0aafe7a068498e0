// `serve`: read-only online serving through FeatureServer::GetFeaturesBatch.
//
// 50k STRING-keyed entities, one event each in the 6-column source table.
// Three features are materialized into online views; a fourth is published
// after the only materialization run, so the server computes it per request
// in the bytecode VM over the source mirror view. A 64-d embedding is
// registered under a tiering budget of 25% of its float32 size, so the hot
// arena holds a quarter of the blocks and Zipf traffic promotes the rest.
// Requests are batches of 64 Zipf(1.1) keys asking for all five features.
// Phase 1 is a closed loop (get rate); phase 2 an open loop at a fixed rate
// (latency from each request's due time). No offline reads.

#include <algorithm>
#include <cmath>
#include <memory>

#include "embedding/embedding_table.h"
#include "expr/column_batch.h"
#include "expr/evaluator.h"
#include "registry/feature_def.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mlfs::FeatureVector;
using mlfs::StatusOr;
using mlfs::Value;

constexpr size_t kEntities = 50000;
constexpr size_t kDim = 64;
constexpr size_t kBatch = 64;
constexpr size_t kPoolBatches = 4096;
constexpr int kSetups = 5;
constexpr unsigned kClients = 2;
constexpr unsigned kIssuers = 2;
constexpr double kOpenRate = 400;  // Requests (batches) per second.
/// Every kCheckEvery-th request of a client (or of the open loop) is kept
/// and checked after the phase, up to kMaxChecked of them, so the memory
/// the samples take does not grow with the request rate.
constexpr uint64_t kCheckEvery = 32;
constexpr uint64_t kMaxChecked = 128;
constexpr int64_t kWarmupNs = 1000000000;
constexpr const char* kEmbedding = "emb";

struct Inputs {
  std::vector<Event> events;  // Index = entity id.
  std::vector<std::string> keys;
  std::vector<float> vectors;  // kEntities x kDim.
  std::vector<float> step;     // Per-dimension 8-bit quantization step.
  std::vector<mlfs::Row> rows;
  std::vector<std::vector<Value>> batches;
  std::vector<std::vector<uint32_t>> batch_ids;
};

Inputs Generate(uint64_t seed) {
  Inputs in;
  Rng rng(seed * 0x51ED27 + 11);
  const mlfs::SchemaPtr schema = SourceSchema(true);
  in.events.reserve(kEntities);
  in.rows.reserve(kEntities);
  in.keys.reserve(kEntities);
  for (size_t e = 0; e < kEntities; ++e) {
    const mlfs::Timestamp ts =
        mlfs::Hours(1) + static_cast<mlfs::Timestamp>(rng.Below(
                             static_cast<uint64_t>(mlfs::Days(1))));
    in.events.push_back(RandomEvent(rng, static_cast<int64_t>(e), ts));
    in.rows.push_back(EventRow(schema, in.events.back(), true));
    in.keys.push_back(EntityKey(static_cast<int64_t>(e)));
  }
  in.vectors.resize(kEntities * kDim);
  for (float& v : in.vectors) v = static_cast<float>(rng.Unit() * 2.0 - 1.0);
  std::vector<float> lo(kDim, INFINITY), hi(kDim, -INFINITY);
  for (size_t e = 0; e < kEntities; ++e) {
    for (size_t d = 0; d < kDim; ++d) {
      lo[d] = std::min(lo[d], in.vectors[e * kDim + d]);
      hi[d] = std::max(hi[d], in.vectors[e * kDim + d]);
    }
  }
  in.step.resize(kDim);
  for (size_t d = 0; d < kDim; ++d) in.step[d] = (hi[d] - lo[d]) / 255.0f;
  // Zipf ranks map to a seeded permutation of entities, so hot keys are
  // spread over every tier block and online shard.
  std::vector<uint32_t> perm(kEntities);
  for (size_t i = 0; i < kEntities; ++i) perm[i] = static_cast<uint32_t>(i);
  for (size_t i = kEntities - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.Below(i + 1)]);
  }
  const Zipf zipf(kEntities, 1.1);
  in.batches.resize(kPoolBatches);
  in.batch_ids.resize(kPoolBatches);
  for (size_t b = 0; b < kPoolBatches; ++b) {
    for (size_t k = 0; k < kBatch; ++k) {
      const uint32_t id = perm[zipf.Sample(rng)];
      in.batch_ids[b].push_back(id);
      in.batches[b].push_back(Value::String(in.keys[id]));
    }
  }
  return in;
}

struct Setup {
  std::unique_ptr<mlfs::FeatureStore> store;
  double total_s = 0;
};

Setup BuildStore(const Inputs& in, const RunOptions& options,
                 Tracer& tracer) {
  ScopedSpan root(tracer, "bench.setup");
  Setup out;
  const int64_t t0 = NowNs();
  mlfs::FeatureStoreOptions store_options;
  store_options.embedding_tiering.memory_budget_bytes =
      kEntities * kDim * sizeof(float) / 4;
  store_options.embedding_tiering.spill_dir = options.work_dir + "/emb";
  out.store = std::make_unique<mlfs::FeatureStore>(store_options);
  mlfs::FeatureStore& store = *out.store;
  CreateSourceAndFeatures(store, true);
  {
    ScopedSpan span(tracer, "core.setup_ingest");
    CheckOk(store.Ingest(kSourceTable, in.rows), "ingest");
  }
  {
    ScopedSpan span(tracer, "registry.setup_refresh");
    StatusOr<int> refreshed = store.RunMaterialization();
    CheckOk(refreshed.status(), "materialization");
    if (*refreshed != kNumMaterialized) {
      CheckOk(mlfs::Status::Internal("unexpected refresh count"), "refresh");
    }
  }
  // Published after the only refresh: served by request-time evaluation.
  CheckOk(store.PublishFeature(FeatureDef(kNumMaterialized)).status(),
          "publish computed feature");
  {
    ScopedSpan span(tracer, "embedding.register");
    mlfs::EmbeddingTableMetadata metadata;
    metadata.name = kEmbedding;
    auto table = mlfs::EmbeddingTable::Create(metadata, in.keys, in.vectors,
                                              kDim);
    CheckOk(table.status(), "embedding table");
    CheckOk(store.RegisterEmbedding(*table).status(), "register embedding");
  }
  out.total_s = static_cast<double>(NowNs() - t0) / 1e9;
  return out;
}

std::vector<std::string> RequestedFeatures() {
  return {kFeatureNames[0], kFeatureNames[1], kFeatureNames[2],
          kFeatureNames[3], kEmbedding};
}

/// A response kept for checking after the timed phase.
struct Sampled {
  uint32_t batch = 0;
  std::vector<StatusOr<FeatureVector>> results;
};

/// Exact match for tabular features; embeddings within one quantization
/// step per dimension.
bool Matches(const Inputs& in, const Sampled& s) {
  const std::vector<uint32_t>& ids = in.batch_ids[s.batch];
  if (s.results.size() != ids.size()) return false;
  for (size_t k = 0; k < ids.size(); ++k) {
    if (!s.results[k].ok()) return false;
    const FeatureVector& fv = *s.results[k];
    if (fv.values.size() != 5 || fv.missing != 0) return false;
    const Event& e = in.events[ids[k]];
    for (int f = 0; f < 4; ++f) {
      if (!(fv.values[f] == OracleValue(f, e))) return false;
    }
    const Value& emb = fv.values[4];
    if (emb.type() != mlfs::FeatureType::kEmbedding) return false;
    const std::vector<float>& got = emb.embedding_value();
    if (got.size() != kDim) return false;
    const float* want = in.vectors.data() + size_t{ids[k]} * kDim;
    for (size_t d = 0; d < kDim; ++d) {
      if (std::fabs(got[d] - want[d]) > in.step[d] * 1.0001f + 1e-6f) {
        return false;
      }
    }
  }
  return true;
}

bool AllOk(const std::vector<StatusOr<FeatureVector>>& results) {
  for (const auto& r : results) {
    if (!r.ok() || r->missing != 0 || r->degraded != 0) return false;
  }
  return true;
}

bool Checked(uint64_t i) {
  return i % kCheckEvery == 0 && i / kCheckEvery < kMaxChecked;
}

struct Phase {
  LoopStats loop;
  std::vector<Sampled> sampled;
};

/// Closed loop of kClients clients for `duration_ns`.
Phase ClosedLoop(const Inputs& in, mlfs::FeatureStore& store,
                 mlfs::Timestamp now, int64_t duration_ns, Tracer& tracer,
                 uint64_t request_base) {
  const unsigned clients = std::min(kClients, Nproc());
  const std::vector<std::string> features = RequestedFeatures();
  std::vector<std::vector<Sampled>> kept(clients);
  Phase out;
  out.loop = RunClosedLoop(clients, duration_ns, [&](unsigned c, uint64_t it) {
    const uint32_t b = static_cast<uint32_t>(
        (c * (kPoolBatches / 2) + it) % kPoolBatches);
    ScopedSpan root(tracer, "bench.request",
                    request_base + (uint64_t{c} << 32) + it + 1);
    std::vector<StatusOr<FeatureVector>> results;
    {
      ScopedSpan span(tracer, "serving.get_features_batch");
      results = store.server().GetFeaturesBatch(in.batches[b], features, now);
    }
    const bool ok = AllOk(results);
    if (Checked(it)) kept[c].push_back({b, std::move(results)});
    return ok;
  });
  for (auto& k : kept) {
    for (auto& s : k) out.sampled.push_back(std::move(s));
  }
  return out;
}

/// Open loop at kOpenRate with kIssuers issuing threads for `duration_ns`.
Phase OpenLoop(const Inputs& in, mlfs::FeatureStore& store,
               mlfs::Timestamp now, int64_t duration_ns, Tracer& tracer,
               uint64_t request_base) {
  const unsigned issuers = std::min(kIssuers, Nproc());
  const std::vector<std::string> features = RequestedFeatures();
  std::mutex kept_mu;
  Phase out;
  out.loop = RunOpenLoop(kOpenRate, issuers, duration_ns, [&](uint64_t i) {
    const uint32_t b = static_cast<uint32_t>(i % kPoolBatches);
    ScopedSpan root(tracer, "bench.request", request_base + i + 1);
    std::vector<StatusOr<FeatureVector>> results;
    {
      ScopedSpan span(tracer, "serving.get_features_batch");
      results = store.server().GetFeaturesBatch(in.batches[b], features, now);
    }
    const bool ok = AllOk(results);
    if (Checked(i)) {
      std::lock_guard lock(kept_mu);
      out.sampled.push_back({b, std::move(results)});
    }
    return ok;
  });
  return out;
}

void CountPhase(const Inputs& in, const Phase& phase, Result& result) {
  result.Count(phase.loop.issued, phase.loop.failed);
  uint64_t mismatched = 0;
  for (const Sampled& s : phase.sampled) {
    if (!Matches(in, s)) ++mismatched;
  }
  result.Count(0, mismatched);
}

/// Replays the first `limit` pool batches into the inner entry points the
/// server calls: one OnlineStore::MultiGet per view (three features plus
/// the source mirror), CompiledExpr::EvalBatch over the mirror rows, and
/// EmbeddingTable::MultiGet.
void RunProbes(const Inputs& in, mlfs::FeatureStore& store,
               mlfs::Timestamp now, int64_t duration_ns, Tracer& tracer,
               Result& result) {
  const std::string mirror = mlfs::SourceMirrorViewName(kSourceTable);
  auto schema = store.online().ViewSchema(mirror);
  CheckOk(schema.status(), "mirror schema");
  auto compiled = mlfs::CompiledExpr::Compile(
      FeatureDef(kNumMaterialized).expression, *schema);
  CheckOk(compiled.status(), "compile computed feature");
  auto table = store.embeddings().GetLatest(kEmbedding);
  CheckOk(table.status(), "embedding lookup");
  mlfs::ExprScratch scratch;
  const int64_t stop = NowNs() + duration_ns;
  uint64_t failures = 0, probes = 0;
  for (uint32_t b = 0; b < kPoolBatches && NowNs() < stop; ++b) {
    ScopedSpan root(tracer, "bench.probe", (uint64_t{1} << 62) + b);
    for (int f = 0; f < kNumMaterialized; ++f) {
      ScopedSpan span(tracer, "storage.online_multiget");
      auto rows = store.online().MultiGet(kFeatureNames[f], in.batches[b], now);
      for (const auto& r : rows) failures += r.ok() ? 0 : 1;
    }
    std::vector<StatusOr<mlfs::Row>> mirror_rows;
    {
      ScopedSpan span(tracer, "storage.online_multiget");
      mirror_rows = store.online().MultiGet(mirror, in.batches[b], now);
    }
    std::vector<mlfs::Row> found;
    found.reserve(mirror_rows.size());
    for (auto& r : mirror_rows) {
      if (r.ok()) found.push_back(*std::move(r));
    }
    {
      ScopedSpan span(tracer, "expr.eval_batch");
      mlfs::RowBatchSource src(*schema, found);
      const mlfs::ColumnVector* out = nullptr;
      failures += compiled->EvalBatch(src, &scratch, &out).ok() ? 0 : 1;
    }
    std::vector<std::string> keys;
    keys.reserve(kBatch);
    for (uint32_t id : in.batch_ids[b]) keys.push_back(in.keys[id]);
    {
      ScopedSpan span(tracer, "embedding.multiget");
      const std::vector<const float*> vecs = (*table)->MultiGet(keys);
      for (const float* v : vecs) failures += v == nullptr ? 1 : 0;
    }
    ++probes;
  }
  result.Count(probes, failures > 0 ? 1 : 0);
  const double multiget_us =
      Median(tracer.PerRequestSumsNs("storage.online_multiget")) / 1e3;
  const double eval_us = Median(tracer.DurationsNs("expr.eval_batch")) / 1e3;
  const double emb_us = Median(tracer.DurationsNs("embedding.multiget")) / 1e3;
  const double batch_us =
      Median(tracer.DurationsNs("serving.get_features_batch")) / 1e3;
  result.Set("storage.online_multiget_us", multiget_us, "us");
  result.Set("expr.eval_batch_us", eval_us, "us");
  result.Set("embedding.multiget_us", emb_us, "us");
  result.Set("serving.get_batch_us", batch_us, "us");
  // Estimate: the request median minus the probe medians of its parts.
  result.Set("serving.self_us", batch_us - multiget_us - eval_us - emb_us,
             "us");
}

}  // namespace

Result RunServe(const RunOptions& options, Tracer& tracer) {
  Result result;
  const Inputs in = Generate(options.seed);
  Setup setup;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    setup = Setup();  // Frees the previous store before building the next.
    setup = BuildStore(in, options, tracer);
    setup_s.push_back(setup.total_s);
  }
  mlfs::FeatureStore& store = *setup.store;
  const mlfs::Timestamp now = store.clock().now();
  const int64_t total_ns = int64_t{options.seconds} * 1000000000;
  // Untimed warm-up: fills the embedding hot arena with the Zipf head and
  // compiles the computed feature's program.
  Tracer quiet(false);
  ClosedLoop(in, store, now, kWarmupNs, quiet, 0);

  if (!options.trace) {
    const Phase closed =
        ClosedLoop(in, store, now, total_ns * 3 / 5, tracer, 0);
    const Phase open =
        OpenLoop(in, store, now, total_ns * 2 / 5, tracer, uint64_t{1} << 48);
    CountPhase(in, closed, result);
    CountPhase(in, open, result);
    result.Set("setup_s", Median(setup_s), "s");
    result.Set("throughput_per_s",
               static_cast<double>(closed.loop.issued) / closed.loop.elapsed_s,
               "1/s");
    result.Set("latency_p50_us", Median(open.loop.latency_us), "us");
    result.Set("rss_mb", PeakRssMb(), "MiB");
    return result;
  }

  // Traced run: an untraced closed loop, the same loop traced (the ratio
  // is the tracing overhead), a traced open loop, then probes.
  const Phase untraced = ClosedLoop(in, store, now, total_ns / 4, quiet, 0);
  const mlfs::FeatureServerStats s0 = store.server().stats();
  const mlfs::OnlineStoreStats o0 = store.online().stats();
  const Phase closed =
      ClosedLoop(in, store, now, total_ns / 4, tracer, uint64_t{1} << 40);
  const Phase open =
      OpenLoop(in, store, now, total_ns / 4, tracer, uint64_t{1} << 48);
  const mlfs::FeatureServerStats s1 = store.server().stats();
  const mlfs::OnlineStoreStats o1 = store.online().stats();
  CountPhase(in, untraced, result);
  CountPhase(in, closed, result);
  CountPhase(in, open, result);
  RunProbes(in, store, now, total_ns / 4, tracer, result);

  const double requests =
      static_cast<double>(closed.loop.issued + open.loop.issued);
  const double untraced_rps =
      static_cast<double>(untraced.loop.issued) / untraced.loop.elapsed_s;
  const double traced_rps =
      static_cast<double>(closed.loop.issued) / closed.loop.elapsed_s;
  result.Set("trace.overhead_frac", untraced_rps / traced_rps - 1.0, "frac");
  // Base: online Gets issued by the server during the traced phases.
  result.Set("storage.online_hit_frac",
             static_cast<double>(o1.hits - o0.hits) /
                 static_cast<double>(std::max<uint64_t>(1, o1.gets - o0.gets)),
             "frac");
  const auto& t0 = s0.embedding_tiers.tier;
  const auto& t1 = s1.embedding_tiers.tier;
  const uint64_t hot = t1.hot_hits - t0.hot_hits;
  const uint64_t cold = t1.cold_misses - t0.cold_misses;
  // Base: embedding rows looked up in the tier.
  result.Set("embedding.hot_hit_frac",
             static_cast<double>(hot) /
                 static_cast<double>(std::max<uint64_t>(1, hot + cold)),
             "frac");
  // Base: traced GetFeaturesBatch requests.
  result.Set("embedding.promotions_per_request",
             static_cast<double>(t1.promotions - t0.promotions) / requests,
             "count");
  // Base: requested cells (entities x features) in the traced phases.
  result.Set("serving.degraded_frac",
             static_cast<double>(s1.degraded_features - s0.degraded_features) /
                 (requests * kBatch * 5),
             "frac");
  result.Set("core.setup_ingest_s",
             Median(tracer.DurationsNs("core.setup_ingest")) / 1e9, "s");
  result.Set("registry.setup_refresh_s",
             Median(tracer.DurationsNs("registry.setup_refresh")) / 1e9, "s");
  result.Set("embedding.register_s",
             Median(tracer.DurationsNs("embedding.register")) / 1e9, "s");
  SetOpenLoopTail(open.loop, result);
  SetStorageLayerMetrics(store, result);
  SetSelfTimeShares(tracer, result);
  return result;
}

}  // namespace perfbench
