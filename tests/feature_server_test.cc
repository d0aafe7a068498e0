#include "serving/feature_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <tuple>
#include <unistd.h>

#include "common/failpoint.h"
#include "core/feature_store.h"
#include "embedding/embedding_store.h"

namespace mlfs {
namespace {

class FeatureServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    view_schema_ = Schema::Create({{"entity", FeatureType::kInt64, false},
                                   {"event_time", FeatureType::kTimestamp,
                                    false},
                                   {"value", FeatureType::kDouble, true}})
                       .value();
    ASSERT_TRUE(store_.CreateView("f1", view_schema_).ok());
    ASSERT_TRUE(store_.CreateView("f2", view_schema_).ok());
    Put("f1", 1, Hours(1), 0.5);
    Put("f2", 1, Hours(2), 0.7);
    Put("f1", 2, Hours(3), 0.9);
  }

  void Put(const std::string& view, int64_t entity, Timestamp et, double v) {
    Row row = Row::Create(view_schema_,
                          {Value::Int64(entity), Value::Time(et),
                           Value::Double(v)})
                  .value();
    ASSERT_TRUE(store_.Put(view, Value::Int64(entity), row, et, et).ok());
  }

  OnlineStore store_;
  SchemaPtr view_schema_;
};

TEST_F(FeatureServerTest, AssemblesVectorInOrder) {
  FeatureServer server(&store_);
  auto fv = server.GetFeatures(Value::Int64(1), {"f2", "f1"}, Hours(4));
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_EQ(fv->names, (std::vector<std::string>{"f2", "f1"}));
  EXPECT_EQ(fv->values[0], Value::Double(0.7));
  EXPECT_EQ(fv->values[1], Value::Double(0.5));
  EXPECT_EQ(fv->oldest_event_time, Hours(1));
  EXPECT_EQ(fv->missing, 0u);
  EXPECT_EQ(server.requests(), 1u);
}

TEST_F(FeatureServerTest, NullPolicyFillsMissing) {
  FeatureServer server(&store_);
  auto fv = server.GetFeatures(Value::Int64(2), {"f1", "f2"}, Hours(4));
  ASSERT_TRUE(fv.ok());
  EXPECT_EQ(fv->values[0], Value::Double(0.9));
  EXPECT_TRUE(fv->values[1].is_null());
  EXPECT_EQ(fv->missing, 1u);
}

TEST_F(FeatureServerTest, ErrorPolicyFailsRequest) {
  FeatureServerOptions options;
  options.missing_policy = MissingFeaturePolicy::kError;
  FeatureServer server(&store_, options);
  auto fv = server.GetFeatures(Value::Int64(2), {"f1", "f2"}, Hours(4));
  EXPECT_TRUE(fv.status().IsNotFound());
}

TEST_F(FeatureServerTest, RejectsNonFeatureViews) {
  auto raw_schema =
      Schema::Create({{"x", FeatureType::kInt64, true}}).value();
  ASSERT_TRUE(store_.CreateView("raw", raw_schema).ok());
  Row row = Row::Create(raw_schema, {Value::Int64(5)}).value();
  ASSERT_TRUE(store_.Put("raw", Value::Int64(1), row, 0, 0).ok());
  FeatureServer server(&store_);
  EXPECT_TRUE(server.GetFeatures(Value::Int64(1), {"raw"}, Hours(1))
                  .status().IsFailedPrecondition());
}

TEST_F(FeatureServerTest, ErrorPolicyFailsOnMissingView) {
  FeatureServerOptions options;
  options.missing_policy = MissingFeaturePolicy::kError;
  FeatureServer server(&store_, options);
  // "no_such_view" was never created: under kError the whole request fails.
  auto fv = server.GetFeatures(Value::Int64(1), {"f1", "no_such_view"},
                               Hours(4));
  EXPECT_TRUE(fv.status().IsNotFound());
  EXPECT_EQ(server.stats().degraded_features, 0u);
}

TEST_F(FeatureServerTest, TtlExpiredCellCountsExpiredAndFillsNull) {
  Row row = Row::Create(view_schema_,
                        {Value::Int64(9), Value::Time(Hours(1)),
                         Value::Double(0.1)})
                .value();
  // TTL of 1h starting at write time 1h: expired from 2h onward.
  ASSERT_TRUE(store_.Put("f1", Value::Int64(9), row, Hours(1), Hours(1),
                         Hours(1)).ok());
  FeatureServer server(&store_);
  auto fv = server.GetFeatures(Value::Int64(9), {"f1"}, Hours(3));
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_TRUE(fv->values[0].is_null());
  EXPECT_EQ(fv->missing, 1u);
  EXPECT_EQ(fv->degraded, 0u);  // An expired cell is a miss, not a fault.
  EXPECT_EQ(store_.stats().expired, 1u);
  EXPECT_EQ(fv->oldest_event_time, kMaxTimestamp);
}

class FeatureServerFailpointTest : public FeatureServerTest {
 protected:
  void SetUp() override {
    FeatureServerTest::SetUp();
    FailpointRegistry::Instance().DisarmAll();
    FailpointRegistry::Instance().Reseed(7);
  }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

// Acceptance scenario: with the online store failing every read, the server
// retries each feature max_attempts times, then degrades the response to
// NULLs under kNull — the request still succeeds and the counters show it.
TEST_F(FeatureServerFailpointTest, RetriesThenDegradesToNullVector) {
  FeatureServerOptions options;
  options.max_attempts = 3;
  FeatureServer server(&store_, options);
  FailpointConfig config;
  config.status = Status::Internal("injected store outage");
  ScopedFailpoint fp("online_store.get", config);  // p=1.0: every read fails.

  auto fv = server.GetFeatures(Value::Int64(1), {"f1", "f2"}, Hours(4));
  ASSERT_TRUE(fv.ok()) << fv.status();
  ASSERT_EQ(fv->values.size(), 2u);
  EXPECT_TRUE(fv->values[0].is_null());
  EXPECT_TRUE(fv->values[1].is_null());
  EXPECT_EQ(fv->missing, 2u);
  EXPECT_EQ(fv->degraded, 2u);

  auto stats = server.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.retries, 4u);  // 2 features x (3 attempts - 1).
  EXPECT_EQ(stats.degraded_features, 2u);
  EXPECT_EQ(stats.degraded_responses, 1u);
  EXPECT_EQ(fp.stats().fires, 6u);  // 2 features x 3 attempts.
}

TEST_F(FeatureServerFailpointTest, RecoversWithinRetryBudget) {
  FeatureServerOptions options;
  options.max_attempts = 3;
  FeatureServer server(&store_, options);
  FailpointConfig config;
  config.status = Status::ResourceExhausted("transient overload");
  config.max_fires = 2;  // First two reads fail, then the store heals.
  ScopedFailpoint fp("online_store.get", config);

  auto fv = server.GetFeatures(Value::Int64(1), {"f1"}, Hours(4));
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_EQ(fv->values[0], Value::Double(0.5));
  EXPECT_EQ(fv->missing, 0u);
  auto stats = server.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.degraded_features, 0u);
  EXPECT_EQ(stats.degraded_responses, 0u);
}

TEST_F(FeatureServerFailpointTest, ErrorPolicyPropagatesAfterExhaustion) {
  FeatureServerOptions options;
  options.missing_policy = MissingFeaturePolicy::kError;
  options.max_attempts = 2;
  FeatureServer server(&store_, options);
  FailpointConfig config;
  config.status = Status::Internal("injected store outage");
  ScopedFailpoint fp("online_store.get", config);

  auto fv = server.GetFeatures(Value::Int64(1), {"f1"}, Hours(4));
  EXPECT_TRUE(fv.status().IsNotFound());
  EXPECT_EQ(server.stats().retries, 1u);
}

TEST_F(FeatureServerFailpointTest, NonTransientErrorsAreNotRetried) {
  FeatureServerOptions options;
  options.max_attempts = 5;
  FeatureServer server(&store_, options);
  // A plain miss (NotFound) must not burn the retry budget.
  auto fv = server.GetFeatures(Value::Int64(999), {"f1"}, Hours(4));
  ASSERT_TRUE(fv.ok());
  EXPECT_TRUE(fv->values[0].is_null());
  EXPECT_EQ(fv->missing, 1u);
  EXPECT_EQ(fv->degraded, 0u);
  EXPECT_EQ(server.stats().retries, 0u);
}

// Batched path under a transient outage that heals after two reads: the
// per-(entity, feature)-cell retry budget recovers every value.
TEST_F(FeatureServerFailpointTest, BatchRetriesTransientCellsWithinBudget) {
  FeatureServerOptions options;
  options.max_attempts = 3;
  FeatureServer server(&store_, options);
  FailpointConfig config;
  config.status = Status::ResourceExhausted("transient overload");
  config.max_fires = 2;  // First two store reads fail, then it heals.
  ScopedFailpoint fp("online_store.get", config);

  auto batch = server.GetFeaturesBatch(
      {Value::Int64(1), Value::Int64(2)}, {"f1"}, Hours(4));
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].ok()) << batch[0].status();
  ASSERT_TRUE(batch[1].ok()) << batch[1].status();
  EXPECT_EQ(batch[0]->values[0], Value::Double(0.5));
  EXPECT_EQ(batch[1]->values[0], Value::Double(0.9));
  EXPECT_EQ(batch[0]->missing + batch[1]->missing, 0u);
  auto stats = server.stats();
  EXPECT_EQ(stats.retries, 2u);  // One per faulted cell.
  EXPECT_EQ(stats.degraded_features, 0u);
}

// Batched path with the store hard-down: every cell exhausts its retries
// and degrades to NULL under kNull; per-entity degradation is counted.
TEST_F(FeatureServerFailpointTest, BatchDegradesToNullAfterExhaustion) {
  FeatureServerOptions options;
  options.max_attempts = 2;
  FeatureServer server(&store_, options);
  FailpointConfig config;
  config.status = Status::Internal("injected store outage");
  ScopedFailpoint fp("online_store.get", config);  // p=1.0.

  auto batch = server.GetFeaturesBatch(
      {Value::Int64(1), Value::Int64(2)}, {"f1", "f2"}, Hours(4));
  ASSERT_EQ(batch.size(), 2u);
  for (const auto& entry : batch) {
    ASSERT_TRUE(entry.ok()) << entry.status();
    EXPECT_TRUE(entry->values[0].is_null());
    EXPECT_TRUE(entry->values[1].is_null());
    EXPECT_EQ(entry->missing, 2u);
    EXPECT_EQ(entry->degraded, 2u);
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.retries, 4u);  // 2 entities x 2 features x 1 retry.
  EXPECT_EQ(stats.degraded_features, 4u);
  EXPECT_EQ(stats.degraded_responses, 2u);
  // 4 cell evaluations inside the two MultiGets + 4 individual retry Gets.
  EXPECT_EQ(fp.stats().fires, 8u);
}

TEST_F(FeatureServerTest, BatchPreservesOrderAndRecordsLatency) {
  FeatureServer server(&store_);
  auto batch = server.GetFeaturesBatch(
      {Value::Int64(1), Value::Int64(2)}, {"f1"}, Hours(4));
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].ok());
  ASSERT_TRUE(batch[1].ok());
  EXPECT_EQ(batch[0]->values[0], Value::Double(0.5));
  EXPECT_EQ(batch[1]->values[0], Value::Double(0.9));
  // Each entity counts as one request and one latency sample.
  EXPECT_EQ(server.requests(), 2u);
  EXPECT_EQ(server.latency_histogram().count(), 2u);
  EXPECT_GT(server.latency_histogram().mean(), 0.0);
}

TEST_F(FeatureServerTest, BatchMatchesPerEntityGetFeatures) {
  FeatureServer server(&store_);
  std::vector<Value> keys = {Value::Int64(2), Value::Int64(1),
                             Value::Int64(777), Value::Int64(1)};
  std::vector<std::string> features = {"f2", "f1"};
  auto batch = server.GetFeaturesBatch(keys, features, Hours(4));
  ASSERT_EQ(batch.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto single = server.GetFeatures(keys[i], features, Hours(4));
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(batch[i].ok()) << batch[i].status();
    EXPECT_EQ(batch[i]->names, single->names);
    EXPECT_EQ(batch[i]->values, single->values);
    EXPECT_EQ(batch[i]->oldest_event_time, single->oldest_event_time);
    EXPECT_EQ(batch[i]->missing, single->missing);
  }
}

TEST_F(FeatureServerTest, BatchErrorPolicyFailsOnlyTheMissingEntity) {
  FeatureServerOptions options;
  options.missing_policy = MissingFeaturePolicy::kError;
  FeatureServer server(&store_, options);
  // Entity 1 has f1 and f2; entity 2 has only f1: under kError, only
  // entity 2's entry fails — its batch-mates are unaffected.
  auto batch = server.GetFeaturesBatch(
      {Value::Int64(1), Value::Int64(2)}, {"f1", "f2"}, Hours(4));
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].ok()) << batch[0].status();
  EXPECT_EQ(batch[0]->values[0], Value::Double(0.5));
  EXPECT_EQ(batch[0]->values[1], Value::Double(0.7));
  EXPECT_TRUE(batch[1].status().IsNotFound());
}

TEST_F(FeatureServerTest, BatchRejectsNonFeatureViewsPerEntity) {
  auto raw_schema =
      Schema::Create({{"x", FeatureType::kInt64, true}}).value();
  ASSERT_TRUE(store_.CreateView("raw", raw_schema).ok());
  Row row = Row::Create(raw_schema, {Value::Int64(5)}).value();
  ASSERT_TRUE(store_.Put("raw", Value::Int64(1), row, 0, 0).ok());
  FeatureServer server(&store_);
  auto batch = server.GetFeaturesBatch(
      {Value::Int64(1), Value::Int64(1)}, {"raw"}, Hours(1));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].status().IsFailedPrecondition());
  EXPECT_TRUE(batch[1].status().IsFailedPrecondition());
}

// The per-request failpoint fails only the entities it fires on. With the
// store hard-down too, the entities that do get served degrade, the failed
// one is not counted as degraded, and every entity counts as a request,
// including a failed single-key call.
TEST_F(FeatureServerFailpointTest, ServerFailpointFailsOnlyItsEntity) {
  FeatureServer server(&store_);
  FailpointConfig outage;
  outage.status = Status::Internal("injected store outage");
  ScopedFailpoint store_fp("online_store.get", outage);
  FailpointConfig injected;
  injected.status = Status::FailedPrecondition("injected serving fault");
  injected.max_fires = 1;
  {
    ScopedFailpoint fp("feature_server.get", injected);
    auto batch = server.GetFeaturesBatch(
        {Value::Int64(1), Value::Int64(2), Value::Int64(1)}, {"f1", "f2"},
        Hours(4));
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(batch[0].status().message(), "injected serving fault");
    for (size_t i = 1; i < batch.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << batch[i].status();
      EXPECT_EQ(batch[i]->degraded, 2u);
    }
    EXPECT_EQ(fp.stats().fires, 1u);
  }
  EXPECT_EQ(server.requests(), 3u);
  FeatureServerStats stats = server.stats();
  EXPECT_EQ(stats.degraded_features, 4u);
  EXPECT_EQ(stats.degraded_responses, 2u);

  ScopedFailpoint fp("feature_server.get", injected);
  auto single = server.GetFeatures(Value::Int64(1), {"f1"}, Hours(4));
  EXPECT_EQ(single.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(single.status().message(), "injected serving fault");
  EXPECT_EQ(server.requests(), 4u);
  EXPECT_EQ(server.stats().degraded_responses, 2u);
}

TEST_F(FeatureServerTest, EmptyBatchIsEmpty) {
  FeatureServer server(&store_);
  EXPECT_TRUE(server.GetFeaturesBatch({}, {"f1"}, Hours(4)).empty());
  EXPECT_EQ(server.requests(), 0u);
}

/// Embedding-feature hydration: a requested feature that is not an online
/// view but resolves in the EmbeddingStore is served straight from the
/// embedding table.
class FeatureServerEmbeddingTest : public FeatureServerTest {
 protected:
  void SetUp() override {
    FeatureServerTest::SetUp();
    EmbeddingTableMetadata metadata;
    metadata.name = "user_emb";
    auto table = EmbeddingTable::Create(metadata, {"u1", "u2"},
                                        {1, 2, 3, 4, 5, 6}, 3)
                     .value();
    ASSERT_TRUE(embeddings_.Register(table, Hours(5)).ok());
  }

  EmbeddingStore embeddings_;
};

TEST_F(FeatureServerEmbeddingTest, HydratesUnmaterializedEmbedding) {
  FeatureServer server(&store_, {}, &embeddings_);
  auto fv = server.GetFeatures(Value::String("u2"), {"user_emb"}, Hours(6));
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_EQ(fv->values[0].type(), FeatureType::kEmbedding);
  EXPECT_EQ(fv->values[0].embedding_value(), (std::vector<float>{4, 5, 6}));
  EXPECT_EQ(fv->missing, 0u);
  // Embedding freshness is its registration time.
  EXPECT_EQ(fv->oldest_event_time, Hours(5));
  // Versioned references hydrate too.
  auto pinned =
      server.GetFeatures(Value::String("u1"), {"user_emb@v1"}, Hours(6));
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  EXPECT_EQ(pinned->values[0].embedding_value(),
            (std::vector<float>{1, 2, 3}));
}

TEST_F(FeatureServerEmbeddingTest, MissingEntityFollowsPolicy) {
  FeatureServer null_server(&store_, {}, &embeddings_);
  auto fv = null_server.GetFeatures(Value::String("ghost"), {"user_emb"},
                                    Hours(6));
  ASSERT_TRUE(fv.ok());
  EXPECT_TRUE(fv->values[0].is_null());
  EXPECT_EQ(fv->missing, 1u);
  EXPECT_EQ(fv->degraded, 0u);  // A missing embedding key is not a fault.
  // Non-string entity keys cannot match an embedding key: also a miss.
  auto non_string =
      null_server.GetFeatures(Value::Int64(1), {"user_emb"}, Hours(6));
  ASSERT_TRUE(non_string.ok());
  EXPECT_TRUE(non_string->values[0].is_null());

  FeatureServerOptions options;
  options.missing_policy = MissingFeaturePolicy::kError;
  FeatureServer error_server(&store_, options, &embeddings_);
  EXPECT_TRUE(error_server.GetFeatures(Value::String("ghost"), {"user_emb"},
                                       Hours(6))
                  .status().IsNotFound());
}

TEST_F(FeatureServerEmbeddingTest, OnlineViewTakesPrecedence) {
  // Materialize a view with the same name as the embedding: the online
  // value must win, keeping pre-hydration behavior.
  ASSERT_TRUE(store_.CreateView("user_emb", view_schema_).ok());
  Put("user_emb", 7, Hours(1), 0.25);
  FeatureServer server(&store_, {}, &embeddings_);
  auto fv = server.GetFeatures(Value::Int64(7), {"user_emb"}, Hours(4));
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_EQ(fv->values[0], Value::Double(0.25));
}

TEST_F(FeatureServerEmbeddingTest, BatchMatchesPerEntityHydration) {
  FeatureServer server(&store_, {}, &embeddings_);
  std::vector<Value> entities = {Value::String("u1"), Value::String("ghost"),
                                 Value::String("u2"), Value::Int64(1)};
  auto batch = server.GetFeaturesBatch(entities, {"user_emb"}, Hours(6));
  ASSERT_EQ(batch.size(), entities.size());
  for (size_t i = 0; i < entities.size(); ++i) {
    auto single = server.GetFeatures(entities[i], {"user_emb"}, Hours(6));
    ASSERT_TRUE(batch[i].ok());
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batch[i]->values, single->values) << i;
    EXPECT_EQ(batch[i]->missing, single->missing) << i;
    EXPECT_EQ(batch[i]->oldest_event_time, single->oldest_event_time) << i;
  }
  // Mixed embedding + tabular columns in one batch request.
  auto mixed = server.GetFeaturesBatch({Value::Int64(1)}, {"f1", "user_emb"},
                                       Hours(6));
  ASSERT_TRUE(mixed[0].ok()) << mixed[0].status();
  EXPECT_EQ(mixed[0]->values[0], Value::Double(0.5));
  EXPECT_TRUE(mixed[0]->values[1].is_null());  // Int64 key, string-keyed emb.
}

TEST_F(FeatureServerEmbeddingTest, BatchErrorPolicyFailsOnlyMissingEntity) {
  FeatureServerOptions options;
  options.missing_policy = MissingFeaturePolicy::kError;
  FeatureServer server(&store_, options, &embeddings_);
  auto batch = server.GetFeaturesBatch(
      {Value::String("u1"), Value::String("ghost")}, {"user_emb"}, Hours(6));
  ASSERT_TRUE(batch[0].ok()) << batch[0].status();
  EXPECT_TRUE(batch[1].status().IsNotFound());
}

/// One request that mixes every kind of served feature — an online view, a
/// computed feature and two tiered embeddings — must give each feature
/// exactly what a request for that feature alone gives. The hot budget is
/// too small for any block, so both embeddings serve every row cold: the
/// second embedding's lookup reuses the tier's decode buffer that the
/// first one's row pointers point into.
class FeatureServerMixedKindTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mlfs_mixed_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    FeatureStoreOptions options;
    options.embedding_tiering.memory_budget_bytes = 1;
    options.embedding_tiering.block_rows = 4;
    options.embedding_tiering.spill_dir = dir_;
    store_ = std::make_unique<FeatureStore>(options);

    SchemaPtr source = Schema::Create(
                           {{"user", FeatureType::kString, false},
                            {"event_time", FeatureType::kTimestamp, false},
                            {"n", FeatureType::kInt64, true}})
                           .value();
    OfflineTableOptions table;
    table.name = "clicks";
    table.schema = source;
    table.entity_column = "user";
    table.time_column = "event_time";
    ASSERT_TRUE(store_->CreateSourceTable(table).ok());
    std::vector<Row> rows;
    // "u3" has no source row; "u2"'s n is NULL, so its value is NULL.
    for (const auto& [user, hours, n] :
         std::vector<std::tuple<std::string, int, Value>>{
             {"u0", 2, Value::Int64(5)},
             {"u1", 4, Value::Int64(-3)},
             {"u2", 3, Value::Null()},
             {"u4", 1, Value::Int64(8)}}) {
      rows.push_back(Row::Create(source, {Value::String(user),
                                          Value::Time(Hours(hours)),
                                          std::move(n)})
                         .value());
    }
    ASSERT_TRUE(store_->Ingest("clicks", rows).ok());
    ASSERT_TRUE(store_->PublishFeature(Def("clicks_x2", "n * 2")).ok());

    SchemaPtr view = Schema::Create(
                         {{"entity", FeatureType::kString, false},
                          {"event_time", FeatureType::kTimestamp, false},
                          {"value", FeatureType::kDouble, true}})
                         .value();
    ASSERT_TRUE(store_->online().CreateView("score", view).ok());
    for (const auto& [user, minutes] :
         std::vector<std::pair<std::string, int>>{
             {"u0", 30}, {"u2", 300}, {"u3", 90}}) {
      Row row = Row::Create(view, {Value::String(user),
                                   Value::Time(Minutes(minutes)),
                                   Value::Double(minutes / 7.0)})
                    .value();
      ASSERT_TRUE(store_->online()
                      .Put("score", Value::String(user), row,
                           Minutes(minutes), Minutes(minutes))
                      .ok());
    }

    // emb_a misses "u1", emb_b misses "u0"; both miss "ghost".
    ASSERT_TRUE(store_->RegisterEmbedding(Table("emb_a", {"u0", "u2", "u3",
                                                          "u4", "x5", "x6"},
                                                1.0f))
                    .ok());
    ASSERT_TRUE(store_->RegisterEmbedding(Table("emb_b", {"u1", "u2", "u3",
                                                          "u4", "y5", "y6"},
                                                -2.0f))
                    .ok());
    ASSERT_TRUE(store_->embeddings().GetLatest("emb_a").value()->tiered());
    ASSERT_TRUE(store_->embeddings().GetLatest("emb_b").value()->tiered());
    // A registered feature named like an embedding: the embedding wins.
    ASSERT_TRUE(store_->PublishFeature(Def("emb_a", "n + 1")).ok());
    // Stale notes from two kinds.
    ASSERT_TRUE(store_->DeprecateFeature("clicks_x2").ok());
    ASSERT_TRUE(store_->DeprecateEmbedding("emb_b").ok());
  }

  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  static FeatureDefinition Def(const std::string& name,
                               const std::string& expression) {
    FeatureDefinition def;
    def.name = name;
    def.entity = "user";
    def.source_table = "clicks";
    def.expression = expression;
    return def;
  }

  static EmbeddingTablePtr Table(const std::string& name,
                                 const std::vector<std::string>& keys,
                                 float scale) {
    const size_t dim = 5;
    std::vector<float> data(keys.size() * dim);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = scale * static_cast<float>(i * i % 17) / 3.0f;
    }
    EmbeddingTableMetadata metadata;
    metadata.name = name;
    return EmbeddingTable::Create(metadata, keys, data, dim).value();
  }

  FeatureServer Server(MissingFeaturePolicy policy) {
    FeatureServerOptions options;
    options.missing_policy = policy;
    return FeatureServer(&store_->online(), options, &store_->embeddings(),
                         &store_->lineage(), &store_->registry());
  }

  std::string dir_;
  std::unique_ptr<FeatureStore> store_;
};

TEST_F(FeatureServerMixedKindTest, EveryKindMatchesItsSingleKindRequest) {
  const std::vector<Value> keys = {
      Value::String("u0"), Value::String("u1"), Value::String("u2"),
      Value::String("u3"), Value::String("u4"), Value::String("ghost")};
  const std::vector<std::string> features = {"emb_a", "score", "clicks_x2",
                                             "emb_b"};
  const Timestamp now = store_->clock().now();
  for (MissingFeaturePolicy policy :
       {MissingFeaturePolicy::kNull, MissingFeaturePolicy::kError}) {
    FeatureServer server = Server(policy);
    auto mixed = server.GetFeaturesBatch(keys, features, now);
    ASSERT_EQ(mixed.size(), keys.size());
    std::vector<std::vector<StatusOr<FeatureVector>>> single;
    for (const std::string& f : features) {
      single.push_back(server.GetFeaturesBatch(keys, {f}, now));
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      SCOPED_TRACE(keys[i].ToString());
      // The first failing feature, in request order, decides the status.
      Status first_error;
      for (size_t j = 0; j < features.size() && first_error.ok(); ++j) {
        if (!single[j][i].ok()) first_error = single[j][i].status();
      }
      if (!first_error.ok()) {
        ASSERT_EQ(policy, MissingFeaturePolicy::kError);
        EXPECT_EQ(mixed[i].status(), first_error);
        continue;
      }
      ASSERT_TRUE(mixed[i].ok()) << mixed[i].status();
      EXPECT_EQ(mixed[i]->names, features);
      ASSERT_EQ(mixed[i]->values.size(), features.size());
      Timestamp oldest = kMaxTimestamp;
      uint64_t missing = 0, degraded = 0;
      std::vector<std::string> stale;
      for (size_t j = 0; j < features.size(); ++j) {
        const FeatureVector& one = *single[j][i];
        EXPECT_EQ(mixed[i]->values[j], one.values[0]) << features[j];
        oldest = std::min(oldest, one.oldest_event_time);
        missing += one.missing;
        degraded += one.degraded;
        stale.insert(stale.end(), one.stale.begin(), one.stale.end());
      }
      EXPECT_EQ(mixed[i]->oldest_event_time, oldest);
      EXPECT_EQ(mixed[i]->missing, missing);
      EXPECT_EQ(mixed[i]->degraded, degraded);
      EXPECT_EQ(mixed[i]->stale, stale);
    }
    if (policy == MissingFeaturePolicy::kNull) {
      // The entity that misses in every kind is all NULL.
      ASSERT_TRUE(mixed.back().ok());
      EXPECT_EQ(mixed.back()->missing, features.size());
      EXPECT_EQ(mixed.back()->oldest_event_time, kMaxTimestamp);
      EXPECT_EQ(mixed.back()->stale.size(), 2u);
    } else {
      EXPECT_TRUE(mixed.back().status().IsNotFound());
    }
  }

  // Precedence: "emb_a" serves the embedding, exactly as a server that
  // knows no registered features serves it.
  FeatureServer embeddings_only(&store_->online(), {}, &store_->embeddings());
  auto want = embeddings_only.GetFeaturesBatch(keys, {"emb_a"}, now);
  auto got = Server(MissingFeaturePolicy::kNull)
                 .GetFeaturesBatch(keys, features, now);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(want[i].ok());
    ASSERT_TRUE(got[i].ok());
    EXPECT_EQ(got[i]->values[0], want[i]->values[0]) << i;
  }
  ASSERT_EQ(got[0]->values[0].type(), FeatureType::kEmbedding);
  EXPECT_TRUE(got[1]->values[0].is_null());  // emb_a has no "u1".
  EmbeddingStoreTierStats tiers = store_->embeddings().TierStats();
  EXPECT_EQ(tiers.tier.hot_hits, 0u);
  EXPECT_GT(tiers.tier.cold_misses, 0u);

  // A view that is not a feature view fails, under both policies, only
  // the entities it has a cell for; the others see a plain miss.
  SchemaPtr raw = Schema::Create({{"x", FeatureType::kInt64, true}}).value();
  ASSERT_TRUE(store_->online().CreateView("raw", raw).ok());
  ASSERT_TRUE(store_->online()
                  .Put("raw", Value::String("u3"),
                       Row::Create(raw, {Value::Int64(1)}).value(), 0, 0)
                  .ok());
  const std::vector<Value> raw_keys = {Value::String("u0"),
                                       Value::String("u3"),
                                       Value::String("u4")};
  auto lenient = Server(MissingFeaturePolicy::kNull)
                     .GetFeaturesBatch(raw_keys, {"emb_a", "raw"}, now);
  auto strict = Server(MissingFeaturePolicy::kError)
                    .GetFeaturesBatch(raw_keys, {"emb_a", "raw"}, now);
  EXPECT_TRUE(lenient[1].status().IsFailedPrecondition());
  EXPECT_TRUE(strict[1].status().IsFailedPrecondition());
  for (size_t i : {0, 2}) {
    ASSERT_TRUE(lenient[i].ok()) << lenient[i].status();
    EXPECT_EQ(lenient[i]->missing, 1u);
    EXPECT_TRUE(strict[i].status().IsNotFound());
  }
}

}  // namespace
}  // namespace mlfs
