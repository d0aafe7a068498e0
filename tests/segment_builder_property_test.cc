// Segment encoder differential suite: over random schemas covering all six
// column encodings, the one-pass row feeder (Segment::Encode) and the
// column-to-column segment feeder (Segment::Merge, compaction's merge)
// must both produce bytes identical to the row-at-a-time oracle encoder in
// tests/support — with nulls in every position, dictionaries shared across
// and distinct between segments, and resident as well as spilled inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/segment.h"
#include "support/reference_segment.h"

namespace mlfs {
namespace {

constexpr FeatureType kPayloadTypes[] = {
    FeatureType::kNull,   FeatureType::kBool,      FeatureType::kInt64,
    FeatureType::kDouble, FeatureType::kString,    FeatureType::kTimestamp,
    FeatureType::kEmbedding};

struct RandomTable {
  SchemaPtr schema;
  int entity_idx = 0;
  int time_idx = 1;
  std::vector<double> null_prob;  // Per column.
};

// Entity and time columns at random positions among 1-7 payload columns
// of random types; each nullable payload column is never, sometimes or
// always null.
RandomTable MakeTable(Rng& rng) {
  RandomTable t;
  std::vector<FieldSpec> fields;
  const size_t payload = 1 + rng.Uniform(7);
  for (size_t i = 0; i < payload; ++i) {
    const FeatureType type = kPayloadTypes[rng.Uniform(7)];
    fields.push_back({"c" + std::to_string(i), type, true});
  }
  const FeatureType key_type =
      rng.Bernoulli(0.5) ? FeatureType::kString : FeatureType::kInt64;
  t.entity_idx = static_cast<int>(rng.Uniform(fields.size() + 1));
  fields.insert(fields.begin() + t.entity_idx, {"key", key_type, false});
  t.time_idx = static_cast<int>(rng.Uniform(fields.size() + 1));
  fields.insert(fields.begin() + t.time_idx,
                {"event_time", FeatureType::kTimestamp, false});
  if (t.entity_idx >= t.time_idx) ++t.entity_idx;
  t.schema = Schema::Create(std::move(fields)).value();
  constexpr double kNullProbs[] = {0.0, 0.0, 0.3, 0.9, 1.0};
  for (size_t c = 0; c < t.schema->num_fields(); ++c) {
    const FieldSpec& f = t.schema->field(c);
    t.null_prob.push_back(f.type == FeatureType::kNull ? 1.0
                          : f.nullable                 ? kNullProbs[rng.Uniform(5)]
                                                       : 0.0);
  }
  return t;
}

// `pool` picks the string vocabulary: rows drawing from the same pool share
// dictionary entries, rows from different pools mostly do not.
std::string RandomString(Rng& rng, int pool) {
  switch (rng.Uniform(4)) {
    case 0:
      return "";
    case 1:
      return "p" + std::to_string(pool) + "_" + std::to_string(rng.Uniform(6));
    case 2:  // Longer than the small-string buffer.
      return "a_much_longer_dictionary_value_" + std::to_string(pool) + "_" +
             std::to_string(rng.Uniform(40));
    default:
      return std::string(1 + rng.Uniform(3), static_cast<char>('x' + pool % 3));
  }
}

Value RandomCell(Rng& rng, FeatureType type, int pool) {
  switch (type) {
    case FeatureType::kNull:
      return Value::Null();
    case FeatureType::kBool:
      return Value::Bool(rng.Bernoulli(0.5));
    case FeatureType::kInt64: {
      constexpr int64_t kEdges[] = {std::numeric_limits<int64_t>::min(),
                                    std::numeric_limits<int64_t>::max(), -1,
                                    0};
      return Value::Int64(rng.Bernoulli(0.1) ? kEdges[rng.Uniform(4)]
                                             : rng.UniformInt(-1000, 1000));
    }
    case FeatureType::kDouble: {
      const double kEdges[] = {-0.0, std::numeric_limits<double>::infinity(),
                               std::nan(""), 1e300};
      return Value::Double(rng.Bernoulli(0.1) ? kEdges[rng.Uniform(4)]
                                              : rng.Gaussian());
    }
    case FeatureType::kString:
      return Value::String(RandomString(rng, pool));
    case FeatureType::kTimestamp:
      return Value::Time(rng.UniformInt(-Days(3), Days(3)));
    case FeatureType::kEmbedding: {
      std::vector<float> v(rng.Uniform(5));
      for (float& f : v) f = static_cast<float>(rng.Gaussian());
      return Value::Embedding(std::move(v));
    }
  }
  return Value::Null();
}

std::vector<Row> RandomRows(Rng& rng, const RandomTable& t, size_t n,
                            int pool) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    std::vector<Value> values;
    for (size_t c = 0; c < t.schema->num_fields(); ++c) {
      const FieldSpec& f = t.schema->field(c);
      if (static_cast<int>(c) == t.entity_idx) {
        values.push_back(f.type == FeatureType::kString
                             ? Value::String("e" + std::to_string(
                                                       rng.Uniform(9)))
                             : Value::Int64(rng.UniformInt(-5, 5)));
      } else if (rng.Bernoulli(t.null_prob[c])) {
        values.push_back(Value::Null());
      } else {
        values.push_back(RandomCell(rng, f.type, pool));
      }
    }
    rows.push_back(Row::Create(t.schema, std::move(values)).value());
  }
  return rows;
}

std::string Oracle(const RandomTable& t, std::span<const Row> rows) {
  auto blob = ReferenceSegmentEncode(t.schema, 7, t.entity_idx, t.time_idx,
                                     rows);
  EXPECT_TRUE(blob.ok()) << blob.status();
  return blob.ok() ? *blob : std::string();
}

TEST(SegmentBuilderPropertyTest, OnePassEncodeMatchesOracle) {
  for (uint64_t trial = 0; trial < 300; ++trial) {
    Rng rng(0x5e6b + trial * 131);
    const RandomTable t = MakeTable(rng);
    const std::vector<Row> rows =
        RandomRows(rng, t, 1 + rng.Uniform(trial % 3 == 0 ? 700 : 40),
                   static_cast<int>(trial % 4));
    auto blob = Segment::Encode(t.schema, 7, t.entity_idx, t.time_idx, rows);
    ASSERT_TRUE(blob.ok()) << blob.status();
    ASSERT_EQ(*blob, Oracle(t, rows))
        << "trial " << trial << " schema " << t.schema->ToString();
  }
}

TEST(SegmentBuilderPropertyTest, MergeMatchesOracleOverDecodedRows) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "mlfs_segment_merge_prop";
  std::filesystem::create_directories(dir);
  for (uint64_t trial = 0; trial < 200; ++trial) {
    Rng rng(0x3e96e + trial * 733);
    const RandomTable t = MakeTable(rng);
    // Shared vocabulary across segments, or one vocabulary per segment.
    const bool shared_dict = rng.Bernoulli(0.5);
    const size_t num_segments = 2 + rng.Uniform(5);
    std::vector<Row> all;
    std::vector<SegmentPtr> segments;
    for (size_t s = 0; s < num_segments; ++s) {
      // Odd sizes put segment boundaries mid-byte in the null bitmaps.
      const std::vector<Row> rows =
          RandomRows(rng, t, 1 + rng.Uniform(s % 2 == 0 ? 37 : 300),
                     shared_dict ? 0 : static_cast<int>(s));
      auto blob = Segment::Encode(t.schema, 7, t.entity_idx, t.time_idx, rows);
      ASSERT_TRUE(blob.ok()) << blob.status();
      auto seg = Segment::FromBytes(*blob);
      ASSERT_TRUE(seg.ok()) << seg.status();
      SegmentPtr input = *seg;
      if (rng.Bernoulli(0.4)) {
        auto spilled = Segment::SpillToFile(
            *input,
            (dir / ("t" + std::to_string(trial) + "_" + std::to_string(s) +
                    ".seg"))
                .string(),
            /*remove_file_on_destroy=*/true);
        ASSERT_TRUE(spilled.ok()) << spilled.status();
        input = *spilled;
        ASSERT_TRUE(input->spilled());
      }
      segments.push_back(input);
      all.insert(all.end(), rows.begin(), rows.end());
    }
    auto merged =
        Segment::Merge(t.schema, 7, t.entity_idx, t.time_idx, segments);
    ASSERT_TRUE(merged.ok()) << merged.status();
    ASSERT_EQ(*merged, Oracle(t, all))
        << "trial " << trial << " schema " << t.schema->ToString();
    // A merge of merges is the same segment again.
    auto reopened = Segment::FromBytes(*merged);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    std::vector<SegmentPtr> halves = {segments.front(), *reopened};
    std::vector<Row> twice(all.begin(), all.begin() + segments.front()->num_rows());
    twice.insert(twice.end(), all.begin(), all.end());
    auto again = Segment::Merge(t.schema, 7, t.entity_idx, t.time_idx, halves);
    ASSERT_TRUE(again.ok()) << again.status();
    ASSERT_EQ(*again, Oracle(t, twice)) << "trial " << trial;
  }
  std::filesystem::remove_all(dir);
}

TEST(SegmentBuilderPropertyTest, FeedersRejectWhatTheOracleRejects) {
  const SchemaPtr schema =
      Schema::Create({{"key", FeatureType::kString, false},
                      {"event_time", FeatureType::kTimestamp, false},
                      {"v_null", FeatureType::kNull, true}})
          .value();
  const SchemaPtr other =
      Schema::Create({{"key", FeatureType::kString, false},
                      {"event_time", FeatureType::kTimestamp, false},
                      {"v", FeatureType::kInt64, true}})
          .value();
  const Row good = Row::CreateUnsafe(
      schema, {Value::String("a"), Value::Time(5), Value::Null()});
  const std::vector<std::vector<Row>> bad_inputs = {
      {},
      {good, Row::CreateUnsafe(other, {Value::String("a"), Value::Time(1),
                                       Value::Int64(1)})},
      {good, Row::CreateUnsafe(schema, {Value::String("a"), Value::Null(),
                                        Value::Null()})},
      {good, Row::CreateUnsafe(schema, {Value::String("a"), Value::Time(1),
                                        Value::Int64(3)})},
  };
  for (const std::vector<Row>& rows : bad_inputs) {
    EXPECT_FALSE(ReferenceSegmentEncode(schema, 0, 0, 1, rows).ok());
    EXPECT_FALSE(Segment::Encode(schema, 0, 0, 1, rows).ok());
  }
  // Merge: no input, and inputs from another schema or partition.
  const std::vector<Row> rows = {good};
  const SegmentPtr seg =
      Segment::FromBytes(Segment::Encode(schema, 0, 0, 1, rows).value())
          .value();
  const SegmentPtr other_pid =
      Segment::FromBytes(Segment::Encode(schema, 1, 0, 1, rows).value())
          .value();
  const std::vector<Row> other_rows = {Row::CreateUnsafe(
      other, {Value::String("a"), Value::Time(1), Value::Int64(1)})};
  const SegmentPtr other_schema =
      Segment::FromBytes(Segment::Encode(other, 0, 0, 1, other_rows).value())
          .value();
  EXPECT_FALSE(Segment::Merge(schema, 0, 0, 1, {}).ok());
  const std::vector<SegmentPtr> mixed_pid = {seg, other_pid};
  EXPECT_FALSE(Segment::Merge(schema, 0, 0, 1, mixed_pid).ok());
  const std::vector<SegmentPtr> mixed_schema = {seg, other_schema};
  EXPECT_FALSE(Segment::Merge(schema, 0, 0, 1, mixed_schema).ok());
  const std::vector<SegmentPtr> same = {seg, seg};
  EXPECT_TRUE(Segment::Merge(schema, 0, 0, 1, same).ok());
}

}  // namespace
}  // namespace mlfs
