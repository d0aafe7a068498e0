// Windowed-aggregation differential suite: over random event streams fed
// in random-size batches, WindowedAggregator::ProcessEvents (chunked,
// vector-at-a-time inputs, finalization at chunk ends) must match the
// row-at-a-time oracle in tests/support event for event: the same
// finalized results, late drops, watermark, open states and returned
// status. Streams cover tumbling and hopping windows, lateness drops,
// NULL and non-numeric inputs, and every kind of failing event, including
// failures at chunk positions 1023 and 1024 and in the second aggregation.
#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "streaming/window.h"
#include "support/reference_window.h"

namespace mlfs {
namespace {

// What a generated event is made to do wrong, if anything.
enum class Fault {
  kNone,
  kForeignSchema,  // "event schema mismatch"
  kNullTime,       // "event time is null"
  kNullKey,        // EntityKeyToString's error
  kClampInput,     // clamp(fare, lo, 100.0) with lo > 100
  kAtInput,        // at(v, k) with k out of range
  kBothInputs,     // both of the above on one event
};

SchemaPtr EventSchema(FeatureType key_type) {
  return Schema::Create({{"user", key_type, true},
                         {"ts", FeatureType::kTimestamp, true},
                         {"fare", FeatureType::kDouble, true},
                         {"name", FeatureType::kString, true},
                         {"lo", FeatureType::kInt64, true},
                         {"v", FeatureType::kEmbedding, true},
                         {"k", FeatureType::kInt64, true}})
      .value();
}

SchemaPtr ForeignSchema() {
  return Schema::Create({{"user", FeatureType::kInt64, true},
                         {"ts", FeatureType::kTimestamp, true}})
      .value();
}

// Aggregations whose inputs fail on demand ("clamp_mean" when lo > 100,
// "at_max" when k is outside [0, 2)), next to counts, NULL-typed and
// non-numeric inputs.
std::vector<WindowAggSpec> AllAggs() {
  return {{"events", AggregateFn::kCount, ""},
          {"clamp_mean", AggregateFn::kMean, "clamp(fare, lo, 100.0)"},
          {"at_max", AggregateFn::kMax, "at(v, k)"},
          {"fare_sum", AggregateFn::kSum, "fare"},
          {"fare_var", AggregateFn::kVariance, "fare * 2 + lo"},
          {"lo_min", AggregateFn::kMin, "lo"},
          {"fare_p50", AggregateFn::kP50, "fare"},
          {"names", AggregateFn::kCount, "name"},
          {"distinct_names", AggregateFn::kCountDistinct, "name"},
          {"null_sum", AggregateFn::kSum, "null"},
          {"fare_sd", AggregateFn::kStddev, "if(lo > 50, fare, null)"}};
}

class EventGen {
 public:
  /// `late_prob`: share of events pulled back in time, some far enough
  /// to fall behind the watermark.
  EventGen(Rng& rng, SchemaPtr schema, Timestamp start, double late_prob)
      : rng_(rng),
        schema_(std::move(schema)),
        cursor_(start),
        late_prob_(late_prob) {}

  Row Make(Fault fault) {
    if (fault == Fault::kForeignSchema) {
      return Row::Create(ForeignSchema(),
                         {Value::Int64(1), Value::Time(cursor_)})
          .value();
    }
    cursor_ += Seconds(static_cast<int64_t>(rng_.Uniform(240)));
    Timestamp t = cursor_;
    if (rng_.Bernoulli(late_prob_)) {
      t -= Minutes(static_cast<int64_t>(rng_.Uniform(150)));
    }
    const int64_t entity = static_cast<int64_t>(rng_.Uniform(12));
    Value key = schema_->field(0).type == FeatureType::kInt64
                    ? Value::Int64(entity - 4)
                    : Value::String("e" + std::to_string(entity));
    int64_t lo = rng_.UniformInt(-10, 100);
    int64_t k = static_cast<int64_t>(rng_.Uniform(2));
    if (fault == Fault::kClampInput || fault == Fault::kBothInputs) {
      lo = rng_.UniformInt(101, 200);
    }
    if (fault == Fault::kAtInput || fault == Fault::kBothInputs) {
      k = rng_.Bernoulli(0.5) ? -1 : rng_.UniformInt(2, 9);
    }
    const bool fail_at =
        fault == Fault::kAtInput || fault == Fault::kBothInputs;
    std::vector<Value> values = {
        fault == Fault::kNullKey ? Value::Null() : std::move(key),
        fault == Fault::kNullTime ? Value::Null() : Value::Time(t),
        rng_.Bernoulli(0.15) ? Value::Null()
                             : Value::Double(rng_.UniformInt(-40, 400) / 4.0),
        rng_.Bernoulli(0.2) ? Value::Null()
                            : Value::String("n" + std::to_string(
                                                      rng_.Uniform(5))),
        rng_.Bernoulli(0.1) && fault != Fault::kClampInput &&
                fault != Fault::kBothInputs
            ? Value::Null()
            : Value::Int64(lo),
        rng_.Bernoulli(0.1) && !fail_at
            ? Value::Null()
            : Value::Embedding({static_cast<float>(rng_.Uniform(9)),
                                static_cast<float>(rng_.Uniform(9))}),
        Value::Int64(k)};
    return Row::Create(schema_, std::move(values)).value();
  }

  Fault RandomFault(double rate) {
    if (!rng_.Bernoulli(rate)) return Fault::kNone;
    return static_cast<Fault>(1 + rng_.Uniform(6));
  }

 private:
  Rng& rng_;
  SchemaPtr schema_;
  Timestamp cursor_;
  double late_prob_;
};

void ExpectSameResults(const std::vector<WindowResult>& got,
                       const std::vector<WindowResult>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].entity_key, want[i].entity_key) << where << " #" << i;
    EXPECT_EQ(got[i].window_start, want[i].window_start) << where << " #" << i;
    EXPECT_EQ(got[i].window_end, want[i].window_end) << where << " #" << i;
    ASSERT_EQ(got[i].values.size(), want[i].values.size()) << where;
    for (size_t a = 0; a < got[i].values.size(); ++a) {
      EXPECT_EQ(got[i].values[a], want[i].values[a])
          << where << " result #" << i << " agg " << a << ": "
          << got[i].values[a].ToString() << " vs "
          << want[i].values[a].ToString();
    }
  }
}

struct Pair {
  std::unique_ptr<WindowedAggregator> batch;
  ReferenceWindow oracle;
  size_t results = 0;  // Finalized results compared so far.
};

Pair MakePair(const SchemaPtr& schema, WindowSpec window,
              const std::vector<WindowAggSpec>& aggs, Timestamp lateness) {
  auto batch = WindowedAggregator::Create(schema, "user", "ts", window, aggs,
                                          lateness);
  EXPECT_TRUE(batch.ok()) << batch.status();
  auto oracle =
      ReferenceWindow::Create(schema, "user", "ts", window, aggs, lateness);
  EXPECT_TRUE(oracle.ok()) << oracle.status();
  return Pair{std::move(batch).value(), std::move(oracle).value()};
}

// Feeds `events` to the batch path in one call and to the oracle one event
// at a time until its first failure, then compares everything observable.
// Returns the oracle's status; `*consumed` is the number of events it took
// (through the failing one), so the caller can resume after it.
Status FeedAndCompare(Pair& pair, const std::vector<Row>& events,
                      const std::string& where, size_t* consumed) {
  const Status got = events.size() == 1
                         ? pair.batch->ProcessEvent(events[0])
                         : pair.batch->ProcessEvents(events);
  Status want;
  *consumed = 0;
  while (*consumed < events.size() && want.ok()) {
    want = pair.oracle.ProcessEvent(events[(*consumed)++]);
  }
  EXPECT_EQ(got.code(), want.code()) << where << ": " << got << " vs " << want;
  EXPECT_EQ(got.message(), want.message()) << where;
  EXPECT_EQ(pair.batch->watermark(), pair.oracle.watermark()) << where;
  EXPECT_EQ(pair.batch->dropped_late(), pair.oracle.dropped_late()) << where;
  EXPECT_EQ(pair.batch->open_states(), pair.oracle.open_states()) << where;
  const std::vector<WindowResult> results = pair.oracle.PollResults();
  pair.results += results.size();
  ExpectSameResults(pair.batch->PollResults(), results, where);
  return want;
}

TEST(WindowPropertyTest, ProcessEventsMatchesRowOracle) {
  constexpr WindowSpec kWindows[] = {{Hours(1), Hours(1)},
                                     {Minutes(30), Minutes(30)},
                                     {Hours(1), Minutes(15)},
                                     {Hours(2), Minutes(40)}};
  constexpr Timestamp kLateness[] = {0, Minutes(10), Hours(1)};
  constexpr size_t kBatchSizes[] = {1, 1, 2, 7, 64, 300, 1023, 1024, 1025,
                                    2500};
  Rng rng(20261020);
  size_t failures = 0, late = 0, results = 0;
  for (int c = 0; c < 40; ++c) {
    const std::string where_case = "case " + std::to_string(c);
    const WindowSpec window = kWindows[rng.Uniform(4)];
    const Timestamp lateness = kLateness[rng.Uniform(3)];
    const SchemaPtr schema = EventSchema(
        rng.Bernoulli(0.5) ? FeatureType::kInt64 : FeatureType::kString);
    // A random non-empty subset of the aggregations, in random order.
    std::vector<WindowAggSpec> aggs;
    for (const WindowAggSpec& spec : AllAggs()) {
      if (rng.Bernoulli(0.6)) {
        aggs.insert(aggs.begin() + static_cast<std::ptrdiff_t>(
                                       rng.Uniform(aggs.size() + 1)),
                    spec);
      }
    }
    if (aggs.empty()) aggs.push_back(AllAggs()[1]);
    Pair pair = MakePair(schema, window, aggs, lateness);
    if (testing::Test::HasFailure()) return;
    EventGen gen(rng, schema,
                 Hours(static_cast<int64_t>(rng.Uniform(6))) - Hours(3), 0.1);
    const double fault_rate = rng.Bernoulli(0.5) ? 0.002 : 0.02;
    for (int b = 0; b < 12; ++b) {
      const size_t n = kBatchSizes[rng.Uniform(std::size(kBatchSizes))];
      std::vector<Row> batch;
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(gen.Make(gen.RandomFault(fault_rate)));
      }
      size_t offset = 0;
      while (offset < batch.size()) {
        std::vector<Row> rest(batch.begin() + offset, batch.end());
        const std::string where = where_case + " batch " + std::to_string(b) +
                                  " offset " + std::to_string(offset);
        size_t consumed = 0;
        if (!FeedAndCompare(pair, rest, where, &consumed).ok()) ++failures;
        if (testing::Test::HasFailure()) return;
        offset += consumed;
      }
    }
    late += pair.oracle.dropped_late();
    pair.batch->AdvanceWatermarkTo(kMaxTimestamp);
    pair.oracle.AdvanceWatermarkTo(kMaxTimestamp);
    std::vector<WindowResult> tail = pair.oracle.PollResults();
    results += pair.results + tail.size();
    ExpectSameResults(pair.batch->PollResults(), tail, where_case + " end");
    EXPECT_EQ(pair.batch->open_states(), 0u);
  }
  // The streams really exercised what they claim to.
  EXPECT_GT(failures, 40u);
  EXPECT_GT(late, 100u);
  EXPECT_GT(results, 1000u);
}

// Failures at fixed chunk positions: the last event of the first chunk
// (1023), the first of the second (1024), and positions where the second
// aggregation fails alone or together with the first (the lower one's
// status wins).
TEST(WindowPropertyTest, FailuresAtChunkBoundariesAndInLaterAggregations) {
  struct Case {
    size_t pos;
    Fault fault;
  };
  constexpr Case kCases[] = {
      {1023, Fault::kClampInput}, {1024, Fault::kClampInput},
      {1023, Fault::kAtInput},    {1024, Fault::kNullTime},
      {1023, Fault::kNullKey},    {1024, Fault::kForeignSchema},
      {0, Fault::kAtInput},       {1500, Fault::kBothInputs},
      {2047, Fault::kBothInputs}, {700, Fault::kAtInput}};
  const std::vector<WindowAggSpec> aggs = {
      {"clamp_mean", AggregateFn::kMean, "clamp(fare, lo, 100.0)"},
      {"at_max", AggregateFn::kMax, "at(v, k)"},
      {"events", AggregateFn::kCount, ""}};
  Rng rng(1024);
  for (const WindowSpec window :
       {WindowSpec{Hours(1), Hours(1)}, WindowSpec{Hours(1), Minutes(20)}}) {
    for (const Case& c : kCases) {
      const std::string where = "pos " + std::to_string(c.pos) + " fault " +
                                std::to_string(static_cast<int>(c.fault)) +
                                " slide " + std::to_string(window.slide);
      const SchemaPtr schema = EventSchema(FeatureType::kInt64);
      Pair pair = MakePair(schema, window, aggs, Minutes(10));
      EventGen gen(rng, schema, 0, /*late_prob=*/0.0);
      std::vector<Row> events;
      for (size_t i = 0; i < 2600; ++i) {
        events.push_back(gen.Make(i == c.pos ? c.fault : Fault::kNone));
      }
      size_t consumed = 0;
      EXPECT_FALSE(FeedAndCompare(pair, events, where, &consumed).ok());
      EXPECT_EQ(consumed, c.pos + 1) << where;
      // Resume after the failing event: the rest applies cleanly.
      std::vector<Row> rest(
          events.begin() + static_cast<std::ptrdiff_t>(consumed), events.end());
      EXPECT_TRUE(
          FeedAndCompare(pair, rest, where + " resumed", &consumed).ok());
      if (testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace mlfs
