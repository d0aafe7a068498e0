#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "core/feature_store.h"
#include "embedding/ann.h"
#include "embedding/compress.h"
#include "embedding/embedding_table.h"
#include "embedding/tier.h"

namespace mlfs {
namespace {

bool BitEqual(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

std::vector<float> GaussianData(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(n * dim);
  for (float& x : data) x = static_cast<float>(rng.Gaussian());
  return data;
}

std::vector<std::string> Keys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back("k" + std::to_string(i));
  return keys;
}

class TieredEmbeddingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mlfs_tier_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  EmbeddingTierOptions TierOptions(size_t budget_bytes, int bits = 8,
                                   size_t block_rows = 64) {
    EmbeddingTierOptions options;
    options.memory_budget_bytes = budget_bytes;
    options.bits = bits;
    options.block_rows = block_rows;
    options.dir = dir_;
    return options;
  }

  EmbeddingTablePtr ResidentTable(const std::string& name, size_t n,
                                  size_t dim, uint64_t seed = 1) {
    EmbeddingTableMetadata metadata;
    metadata.name = name;
    return EmbeddingTable::Create(metadata, Keys(n),
                                  GaussianData(n, dim, seed), dim)
        .value();
  }

  std::string dir_;
};

TEST_F(TieredEmbeddingTest, HotRowsExactColdRowsMatchPackedCodec) {
  const size_t n = 640, dim = 8, block_rows = 64;
  auto source = ResidentTable("emb", n, dim);
  // Budget for exactly 5 of the 10 blocks.
  const size_t budget = 5 * block_rows * dim * sizeof(float);
  auto tiered =
      EmbeddingTable::CreateTiered(*source, TierOptions(budget, 8, block_rows))
          .value();
  ASSERT_TRUE(tiered->tiered());
  EXPECT_FALSE(source->tiered());
  EXPECT_EQ(tiered->tier()->stats().hot_blocks, 5u);
  EXPECT_EQ(tiered->tier()->stats().total_blocks, 10u);
  EXPECT_GT(tiered->tier()->stats().packed_bytes, 0u);

  // What the cold tier must serve: exactly the packed codec round trip.
  PackedCodes packed =
      PackUniform(source->raw().data(), n, dim, 8).value();
  PackedDecodeTables tables = MakeDecodeTables(8, packed.lo, packed.hi);
  std::vector<float> dequantized(n * dim);
  DequantizeRange(ViewOf(packed, tables), 0, n, dequantized.data());

  std::vector<float> got(dim);
  for (size_t i = 0; i < n; ++i) {
    tiered->CopyRow(i, got.data());
    if (i < 5 * block_rows) {
      EXPECT_TRUE(BitEqual(got.data(), source->row(i), dim))
          << "hot row " << i << " must be byte-identical";
    } else {
      EXPECT_TRUE(BitEqual(got.data(), dequantized.data() + i * dim, dim))
          << "cold row " << i << " must serve the packed codec's floats";
    }
  }
}

TEST_F(TieredEmbeddingTest, AllHotTableKeepsExactGetContracts) {
  const size_t n = 200, dim = 6;
  auto source = ResidentTable("emb", n, dim);
  // block_rows divides n so the budget covers every block exactly — a
  // partial trailing block would stay cold and rotate the seeds out.
  auto tiered = EmbeddingTable::CreateTiered(
                    *source, TierOptions(n * dim * sizeof(float), 8, 50))
                    .value();
  ASSERT_EQ(tiered->tier()->stats().hot_blocks,
            tiered->tier()->stats().total_blocks);
  for (size_t i = 0; i < n; ++i) {
    const float* got = tiered->Get(tiered->key(i)).value();
    EXPECT_TRUE(BitEqual(got, source->row(i), dim)) << i;
  }
  EXPECT_TRUE(tiered->Get("nope").status().IsNotFound());
  EXPECT_EQ(tiered->GetVector("k3").value(), source->GetVector("k3").value());

  auto rows = tiered->MultiGet({"k7", "missing", "k0", "k7"});
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[1], nullptr);
  EXPECT_TRUE(BitEqual(rows[0], source->row(7), dim));
  EXPECT_TRUE(BitEqual(rows[2], source->row(0), dim));
  EXPECT_EQ(rows[3], rows[0]);
  EXPECT_TRUE(tiered->MultiGet({}).empty());
}

/// Keys "k<begin>" .. "k<end - 1>".
std::vector<std::string> KeyRange(size_t begin, size_t end) {
  std::vector<std::string> keys;
  for (size_t i = begin; i < end; ++i) keys.push_back("k" + std::to_string(i));
  return keys;
}

/// The packed codec's dequantization of every row: what a cold row serves.
std::vector<float> Dequantized(const EmbeddingTable& source, int bits) {
  const size_t n = source.size(), dim = source.dim();
  PackedCodes packed = PackUniform(source.raw().data(), n, dim, bits).value();
  PackedDecodeTables tables = MakeDecodeTables(bits, packed.lo, packed.hi);
  std::vector<float> out(n * dim);
  DequantizeRange(ViewOf(packed, tables), 0, n, out.data());
  return out;
}

/// Gets `key` `times` times, asserting every read succeeds.
void GetTimes(const EmbeddingTable& table, const std::string& key,
              size_t times) {
  for (size_t i = 0; i < times; ++i) ASSERT_TRUE(table.Get(key).ok()) << key;
}

TEST_F(TieredEmbeddingTest, PromotionAndDemotionCounters) {
  // 4 blocks of 64 rows: a cold block is bought by its 64th cold read.
  const size_t n = 256, dim = 4, block_rows = 64;
  auto source = ResidentTable("emb", n, dim);
  auto tiered = EmbeddingTable::CreateTiered(
                    *source,
                    TierOptions(block_rows * dim * sizeof(float), 8,
                                block_rows))
                    .value();
  const EmbeddingTier* tier = tiered->tier();
  EXPECT_EQ(tier->stats().hot_blocks, 1u);
  EXPECT_EQ(tier->stats().hot_limit_blocks, 1u);
  const std::vector<float> dequantized = Dequantized(*source, 8);

  // Hot hit in the seeded block 0.
  ASSERT_TRUE(tiered->Get("k0").ok());
  EmbeddingTierStats stats = tier->stats();
  EXPECT_EQ(stats.hot_hits, 1u);
  EXPECT_EQ(stats.cold_misses, 0u);

  // 63 cold reads of block 2 are row-served and leave the seed alone.
  for (size_t row = 128; row < 191; ++row) {
    const float* got = tiered->Get("k" + std::to_string(row)).value();
    EXPECT_TRUE(BitEqual(got, dequantized.data() + row * dim, dim)) << row;
  }
  stats = tier->stats();
  EXPECT_EQ(stats.cold_misses, 63u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(stats.demotions, 0u);
  EXPECT_EQ(stats.hot_blocks, 1u);
  EXPECT_EQ(stats.hot_hits, 1u);

  // The 64th buys block 2: promote it, demote block 0 (budget 1).
  const float* bought = tiered->Get("k191").value();
  EXPECT_TRUE(BitEqual(bought, dequantized.data() + 191 * dim, dim));
  stats = tier->stats();
  EXPECT_EQ(stats.cold_misses, 64u);
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.demotions, 1u);
  EXPECT_EQ(stats.hot_blocks, 1u);

  // Same block again: now a hot hit, serving the same dequantized bytes.
  const float* hot = tiered->Get("k130").value();
  EXPECT_EQ(tier->stats().hot_hits, 2u);
  EXPECT_TRUE(BitEqual(hot, dequantized.data() + 130 * dim, dim));

  // Demoted row serves dequantized values from here on.
  std::vector<float> got(dim);
  tiered->CopyRow(0, got.data());
  EXPECT_TRUE(BitEqual(got.data(), dequantized.data(), dim));

  // Repeated reads of one row count like distinct rows: block 0 is
  // bought by its 64th cold read, not its 63rd (demoting block 2).
  GetTimes(*tiered, "k5", 63);
  stats = tier->stats();
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.demotions, 1u);
  GetTimes(*tiered, "k5", 1);
  stats = tier->stats();
  EXPECT_EQ(stats.promotions, 2u);
  EXPECT_EQ(stats.demotions, 2u);
  EXPECT_EQ(stats.cold_misses, 128u);

  // The count restarts after a demotion: block 2's 64 reads were spent
  // on its promotion, so now that it is cold again it needs 64 more.
  GetTimes(*tiered, "k150", 63);
  EXPECT_EQ(tier->stats().promotions, 2u);
  GetTimes(*tiered, "k150", 1);
  stats = tier->stats();
  EXPECT_EQ(stats.promotions, 3u);
  EXPECT_EQ(stats.demotions, 3u);
  EXPECT_EQ(stats.cold_misses, 192u);
  EXPECT_EQ(stats.hot_hits, 2u);

  // With room in the arena a purchase demotes nothing.
  tier->SetHotLimit(2);
  GetTimes(*tiered, "k200", 64);
  stats = tier->stats();
  EXPECT_EQ(stats.promotions, 4u);
  EXPECT_EQ(stats.demotions, 3u);
  EXPECT_EQ(stats.hot_blocks, 2u);
  EXPECT_EQ(stats.cold_misses, 256u);
}

TEST_F(TieredEmbeddingTest, BatchPromotionCountsBlocksNotRows) {
  const size_t n = 256, dim = 4, block_rows = 64;
  auto source = ResidentTable("emb", n, dim);
  auto tiered = EmbeddingTable::CreateTiered(
                    *source,
                    TierOptions(2 * block_rows * dim * sizeof(float), 8,
                                block_rows))
                    .value();
  const EmbeddingTier* tier = tiered->tier();
  const std::vector<float> dequantized = Dequantized(*source, 8);

  // 10 rows from cold block 3 plus 3 rows from hot block 0, one batch:
  // the cold rows are row-served, nothing is promoted or demoted.
  std::vector<std::string> batch = KeyRange(192, 202);
  for (const std::string& key : KeyRange(0, 3)) batch.push_back(key);
  auto rows = tiered->MultiGet(batch);
  for (const float* row : rows) ASSERT_NE(row, nullptr);
  EmbeddingTierStats stats = tier->stats();
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(stats.demotions, 0u);
  EXPECT_EQ(stats.cold_misses, 10u);
  EXPECT_EQ(stats.hot_hits, 3u);
  EXPECT_EQ(stats.hot_blocks, 2u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(BitEqual(rows[i], dequantized.data() + (192 + i) * dim, dim));
  }
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(BitEqual(rows[10 + i], source->row(i), dim));
  }

  // 53 more reads of block 3 bring its count to 63: still cold.
  rows = tiered->MultiGet(KeyRange(202, 255));
  stats = tier->stats();
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(stats.cold_misses, 63u);

  // The next batch touching block 3 buys it — one promotion however many
  // of the batch's rows the block serves. Under a 2-block budget that
  // demotes the stale seed (block 1: block 0 is touched by this batch).
  batch = KeyRange(250, 256);
  batch.push_back("k1");
  rows = tiered->MultiGet(batch);
  stats = tier->stats();
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.demotions, 1u);
  EXPECT_EQ(stats.hot_blocks, 2u);
  EXPECT_EQ(stats.cold_misses, 69u);
  EXPECT_EQ(stats.hot_hits, 4u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(BitEqual(rows[i], dequantized.data() + (250 + i) * dim, dim));
  }
  EXPECT_TRUE(BitEqual(rows[6], source->row(1), dim));
  // Block 3 now serves hot.
  rows = tiered->MultiGet({"k192", "k255"});
  EXPECT_EQ(tier->stats().hot_hits, 6u);
  EXPECT_TRUE(BitEqual(rows[0], dequantized.data() + 192 * dim, dim));

  // One batch carrying block_rows reads of a cold block promotes it at
  // once (block 1: 32 rows, twice), while 63 reads do not (block 2).
  // Duplicate rows count as reads and share one pointer, whether served
  // from the promoted block or decoded on their own.
  batch = KeyRange(64, 96);
  for (const std::string& key : KeyRange(64, 96)) batch.push_back(key);
  for (const std::string& key : KeyRange(128, 160)) batch.push_back(key);
  for (const std::string& key : KeyRange(128, 159)) batch.push_back(key);
  rows = tiered->MultiGet(batch);
  stats = tier->stats();
  EXPECT_EQ(stats.promotions, 2u);
  EXPECT_EQ(stats.demotions, 2u);
  EXPECT_EQ(stats.cold_misses, 196u);
  for (size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(rows[i], rows[32 + i]) << "duplicates share one pointer";
  }
  for (size_t i = 0; i < 31; ++i) {
    EXPECT_EQ(rows[64 + i], rows[96 + i]) << "duplicates share one pointer";
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    const size_t row = std::stoul(batch[i].substr(1));
    EXPECT_TRUE(BitEqual(rows[i], dequantized.data() + row * dim, dim)) << i;
  }

  // Block 1 serves hot now; the next read of block 2 buys it and demotes
  // block 3, the least recently used.
  rows = tiered->MultiGet({"k64", "k191"});
  stats = tier->stats();
  EXPECT_EQ(stats.hot_hits, 7u);
  EXPECT_EQ(stats.cold_misses, 197u);
  EXPECT_EQ(stats.promotions, 3u);
  EXPECT_EQ(stats.demotions, 3u);
  EXPECT_EQ(stats.hot_blocks, 2u);
  EXPECT_TRUE(BitEqual(rows[1], dequantized.data() + 191 * dim, dim));
}

TEST_F(TieredEmbeddingTest, RowServedColdRowsMatchCopyRowAndCodec) {
  // Odd dim and a 5-bit packing, so rows straddle byte boundaries. A zero
  // hot budget never promotes: every read below is decoded on its own.
  const size_t n = 300, dim = 7, block_rows = 64;
  const int bits = 5;
  auto source = ResidentTable("emb", n, dim, 3);
  auto tiered =
      EmbeddingTable::CreateTiered(*source, TierOptions(0, bits, block_rows))
          .value();
  const std::vector<float> dequantized = Dequantized(*source, bits);
  std::vector<float> copied(dim);
  for (size_t i = 0; i < n; ++i) {
    tiered->CopyRow(i, copied.data());
    const float* got = tiered->Get(tiered->key(i)).value();
    EXPECT_TRUE(BitEqual(got, copied.data(), dim)) << i;
    EXPECT_TRUE(BitEqual(got, dequantized.data() + i * dim, dim)) << i;
  }
  // Batched: unsorted rows spanning every block, duplicates and a miss.
  std::vector<std::string> batch;
  std::vector<size_t> batch_rows;
  Rng rng(11);
  for (int i = 0; i < 150; ++i) {
    batch_rows.push_back(rng.Uniform(n));
    batch.push_back(tiered->key(batch_rows.back()));
  }
  batch.push_back("missing");
  auto rows = tiered->MultiGet(batch);
  ASSERT_EQ(rows.size(), batch.size());
  EXPECT_EQ(rows.back(), nullptr);
  for (size_t i = 0; i < batch_rows.size(); ++i) {
    ASSERT_NE(rows[i], nullptr);
    tiered->CopyRow(batch_rows[i], copied.data());
    EXPECT_TRUE(BitEqual(rows[i], copied.data(), dim)) << i;
    EXPECT_TRUE(
        BitEqual(rows[i], dequantized.data() + batch_rows[i] * dim, dim))
        << i;
  }
  EmbeddingTierStats stats = tiered->tier()->stats();
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(stats.hot_blocks, 0u);
  EXPECT_EQ(stats.cold_misses, n + batch_rows.size());
}

TEST_F(TieredEmbeddingTest, HugeBlockRowsStaysRowServed) {
  // block_rows = 2^63: the admission test must not wrap (it subtracts
  // from block_rows rather than adding to the count), so thousands of
  // reads stay row-served even with room in the arena.
  const size_t n = 40, dim = 4;
  auto source = ResidentTable("emb", n, dim);
  auto tiered = EmbeddingTable::CreateTiered(
                    *source, TierOptions(0, 8, size_t{1} << 63))
                    .value();
  ASSERT_EQ(tiered->tier()->num_blocks(), 1u);
  tiered->tier()->SetHotLimit(1);
  ASSERT_EQ(tiered->tier()->hot_limit_blocks(), 1u);
  const std::vector<float> dequantized = Dequantized(*source, 8);
  std::vector<std::string> batch;
  for (int copy = 0; copy < 50; ++copy) {
    for (const std::string& key : KeyRange(0, n)) batch.push_back(key);
  }
  for (int round = 0; round < 3; ++round) {
    auto rows = tiered->MultiGet(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(
          BitEqual(rows[i], dequantized.data() + (i % n) * dim, dim));
    }
    const float* got = tiered->Get("k7").value();
    EXPECT_TRUE(BitEqual(got, dequantized.data() + 7 * dim, dim));
  }
  EXPECT_EQ(tiered->tier()->stats().promotions, 0u);
}

TEST_F(TieredEmbeddingTest, LoadFailpointLeavesAdmissionCounterAlone) {
  const size_t n = 256, dim = 4, block_rows = 64;
  auto source = ResidentTable("emb", n, dim);
  auto tiered = EmbeddingTable::CreateTiered(
                    *source,
                    TierOptions(block_rows * dim * sizeof(float), 8,
                                block_rows))
                    .value();
  const EmbeddingTier* tier = tiered->tier();
  {
    FailpointConfig config;
    config.status = Status::ResourceExhausted("cold load down");
    ScopedFailpoint fp("embedding.tier.load", config);
    // Far more faulted reads than block 2's price (64): none are charged.
    for (size_t i = 0; i < 200; ++i) {
      auto got = tiered->Get("k130");
      EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
    }
    auto rows = tiered->MultiGet(KeyRange(128, 192));
    for (const float* row : rows) EXPECT_EQ(row, nullptr);
    EmbeddingTierStats stats = tier->stats();
    EXPECT_EQ(stats.promotions, 0u);
    EXPECT_EQ(stats.load_faults, 201u);
    EXPECT_EQ(stats.hot_blocks, 1u);
  }
  // Disarmed: block 2 still has its whole price to pay.
  GetTimes(*tiered, "k130", 63);
  EXPECT_EQ(tier->stats().promotions, 0u);
  GetTimes(*tiered, "k130", 1);
  EXPECT_EQ(tier->stats().promotions, 1u);
}

TEST_F(TieredEmbeddingTest, ScansRefreshButNeverPromote) {
  const size_t n = 256, dim = 4, block_rows = 64;
  auto source = ResidentTable("emb", n, dim);
  auto tiered = EmbeddingTable::CreateTiered(
                    *source,
                    TierOptions(block_rows * dim * sizeof(float), 8,
                                block_rows))
                    .value();
  std::vector<float> scanned(n * dim, 0.0f);
  ASSERT_TRUE(tiered->tier()
                  ->ScanBlocks([&](size_t row0, size_t nrows,
                                   const float* rows) {
                    std::memcpy(scanned.data() + row0 * dim, rows,
                                nrows * dim * sizeof(float));
                  })
                  .ok());
  EmbeddingTierStats stats = tiered->tier()->stats();
  EXPECT_EQ(stats.scans, 1u);
  EXPECT_EQ(stats.scan_cold_blocks, 3u);
  EXPECT_EQ(stats.hot_blocks, 1u);  // A scan must not grow the hot set.
  EXPECT_EQ(stats.promotions, 0u);
  // The scan saw exactly what CopyRow serves.
  std::vector<float> expect(dim);
  for (size_t i = 0; i < n; ++i) {
    tiered->CopyRow(i, expect.data());
    EXPECT_TRUE(BitEqual(scanned.data() + i * dim, expect.data(), dim)) << i;
  }
}

TEST_F(TieredEmbeddingTest, CreateRejectsOverflowingDim) {
  // keys.size() * dim wraps size_t to exactly vectors.size(): the old
  // multiply-based check accepted this and served wild pointers.
  EmbeddingTableMetadata metadata;
  metadata.name = "overflow";
  const size_t huge = (size_t{1} << 63) + 1;
  auto table = EmbeddingTable::Create(metadata, {"a", "b"}, {1.0f, 2.0f},
                                      huge);
  EXPECT_FALSE(table.ok());
}

TEST_F(TieredEmbeddingTest, SpillFailpointDegradesToResident) {
  EmbeddingTierPolicy policy;
  policy.memory_budget_bytes = 1024;  // Forces tiering of any real table.
  policy.spill_dir = dir_;
  policy.block_rows = 64;
  EmbeddingStore store(nullptr, policy);
  auto table = ResidentTable("emb", 512, 8);
  {
    ScopedFailpoint fp("embedding.tier.spill", FailpointConfig{});
    ASSERT_TRUE(store.Register(table, Hours(1)).ok());
    EmbeddingStoreTierStats stats = store.TierStats();
    EXPECT_GE(stats.spill_errors, 1u);
    EXPECT_EQ(stats.tiered_tables, 0u);
    EXPECT_EQ(stats.resident_tables, 1u);
    // Degraded, not dropped: lookups serve the exact data.
    auto got = store.GetLatest("emb").value();
    EXPECT_FALSE(got->tiered());
    EXPECT_TRUE(BitEqual(got->Get("k0").value(), table->row(0), 8));
  }
  // The next registration retries the spill and succeeds.
  ASSERT_TRUE(store.Register(table, Hours(2)).ok());
  EmbeddingStoreTierStats stats = store.TierStats();
  EXPECT_GE(stats.tiered_tables, 1u);
}

TEST_F(TieredEmbeddingTest, LoadFailpointDegradesReads) {
  const size_t n = 256, dim = 4, block_rows = 64;
  auto source = ResidentTable("emb", n, dim);
  auto tiered = EmbeddingTable::CreateTiered(
                    *source,
                    TierOptions(block_rows * dim * sizeof(float), 8,
                                block_rows))
                    .value();
  {
    ScopedFailpoint fp("embedding.tier.load", FailpointConfig{});
    // Hot rows still serve.
    EXPECT_TRUE(tiered->Get("k0").ok());
    // Cold point reads surface the injected fault.
    EXPECT_EQ(tiered->Get("k200").status().code(), StatusCode::kInternal);
    // Batched reads degrade the cold rows to misses, hot rows survive.
    auto rows = tiered->MultiGet({"k0", "k200", "k1"});
    EXPECT_NE(rows[0], nullptr);
    EXPECT_EQ(rows[1], nullptr);
    EXPECT_NE(rows[2], nullptr);
    // Scans propagate the fault.
    EXPECT_FALSE(
        tiered->tier()
            ->ScanBlocks([](size_t, size_t, const float*) {})
            .ok());
    EXPECT_GE(tiered->tier()->stats().load_faults, 3u);
  }
  // Disarmed: the cold row loads fine.
  EXPECT_TRUE(tiered->Get("k200").ok());
}

TEST_F(TieredEmbeddingTest, SupersededVersionsGoFullyCold) {
  const size_t n = 256, dim = 8;
  EmbeddingTierPolicy policy;
  policy.memory_budget_bytes = n * dim * sizeof(float);  // Fits one table.
  policy.spill_dir = dir_;
  policy.block_rows = 64;
  EmbeddingStore store(nullptr, policy);
  ASSERT_TRUE(store.Register(ResidentTable("emb", n, dim, 1), Hours(1)).ok());
  // v1 fits the whole budget: stays resident.
  EXPECT_FALSE(store.GetVersion("emb", 1).value()->tiered());

  ASSERT_TRUE(store.Register(ResidentTable("emb", n, dim, 2), Hours(2)).ok());
  // v1 is superseded: fully cold (tiered, no hot arena); v2 takes the
  // budget and stays resident.
  auto v1 = store.GetVersion("emb", 1).value();
  ASSERT_TRUE(v1->tiered());
  EXPECT_EQ(v1->tier()->hot_limit_blocks(), 0u);
  EXPECT_EQ(v1->tier()->stats().hot_blocks, 0u);
  EXPECT_FALSE(store.GetVersion("emb", 2).value()->tiered());

  // The cold version still serves (dequantized) and quality checks on it
  // still run.
  EXPECT_TRUE(v1->Get("k0").ok());
  EmbeddingStoreTierStats stats = store.TierStats();
  EXPECT_EQ(stats.tiered_tables, 1u);
  EXPECT_EQ(stats.resident_tables, 1u);
}

TEST_F(TieredEmbeddingTest, SupersededBitsDemoteHistoryToCoarserPacking) {
  const size_t n = 256, dim = 8;
  EmbeddingTierPolicy policy;
  policy.memory_budget_bytes = n * dim * sizeof(float);  // Fits one table.
  policy.spill_dir = dir_;
  policy.block_rows = 64;
  policy.bits = 8;
  policy.superseded_bits = 4;  // History packs twice as tight.
  EmbeddingStore store(nullptr, policy);
  ASSERT_TRUE(store.Register(ResidentTable("emb", n, dim, 1), Hours(1)).ok());
  ASSERT_TRUE(store.Register(ResidentTable("emb", n, dim, 2), Hours(2)).ok());

  // v1 was resident when superseded: demoted straight to 4-bit codes.
  auto v1 = store.GetVersion("emb", 1).value();
  ASSERT_TRUE(v1->tiered());
  EXPECT_EQ(v1->tier()->bits(), 4);
  EXPECT_EQ(v1->tier()->hot_limit_blocks(), 0u);
  EXPECT_FALSE(store.GetVersion("emb", 2).value()->tiered());
  // Coarser codes still serve every row.
  for (size_t i = 0; i < n; i += 17) {
    EXPECT_TRUE(v1->Get("k" + std::to_string(i)).ok());
  }

  // v2 becomes history in turn; v1, already tiered, keeps its packing
  // (no second quantization pass).
  ASSERT_TRUE(store.Register(ResidentTable("emb", n, dim, 3), Hours(3)).ok());
  EXPECT_EQ(store.GetVersion("emb", 2).value()->tier()->bits(), 4);
  EXPECT_EQ(store.GetVersion("emb", 1).value()->tier()->bits(), 4);
}

TEST_F(TieredEmbeddingTest, TieredBruteMatchesResidentBruteBitwise) {
  const size_t n = 500, dim = 12, block_rows = 64;
  auto source = ResidentTable("emb", n, dim);
  const size_t budget = 3 * block_rows * dim * sizeof(float);  // 3/8 hot.
  auto tiered =
      EmbeddingTable::CreateTiered(*source, TierOptions(budget, 8, block_rows))
          .value();
  // The reference: a resident brute-force index over the *served* values.
  auto served = tiered->Materialize().value();
  auto queries = GaussianData(40, dim, 99);

  for (Metric metric : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    auto brute = MakeBruteForceIndex(metric);
    ASSERT_TRUE(brute->Build(served->raw().data(), n, dim).ok());
    auto scan = MakeTieredBruteForceIndex(tiered, metric);
    ASSERT_TRUE(scan->Build(nullptr, 0, 0).ok());

    auto want = brute->Search(queries.data(), 10).value();
    auto got = scan->Search(queries.data(), 10).value();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << static_cast<int>(metric);
      EXPECT_EQ(got[i].distance, want[i].distance) << static_cast<int>(metric);
    }

    ThreadPool pool(3);
    auto want_batch = brute->BatchSearch(queries.data(), 40, 5, &pool).value();
    auto got_batch = scan->BatchSearch(queries.data(), 40, 5, &pool).value();
    ASSERT_EQ(got_batch.size(), want_batch.size());
    for (size_t q = 0; q < want_batch.size(); ++q) {
      ASSERT_EQ(got_batch[q].size(), want_batch[q].size());
      for (size_t i = 0; i < want_batch[q].size(); ++i) {
        EXPECT_EQ(got_batch[q][i].id, want_batch[q][i].id);
        EXPECT_EQ(got_batch[q][i].distance, want_batch[q][i].distance);
      }
    }
    // Searching must not have grown the hot set (scan resistance).
    EXPECT_EQ(tiered->tier()->stats().hot_blocks, 3u);
  }
}

/// Clustered data so nearest-neighbor sets are robust to the (documented)
/// quantization error on cold rows: intra-cluster distances ~1e-2,
/// inter-cluster ~10.
EmbeddingTablePtr ClusteredTable(const std::string& name, size_t clusters,
                                 size_t per_cluster, size_t dim,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data;
  std::vector<std::string> keys;
  for (size_t c = 0; c < clusters; ++c) {
    std::vector<float> center(dim);
    for (auto& x : center) x = static_cast<float>(rng.Gaussian(0.0, 10.0));
    for (size_t p = 0; p < per_cluster; ++p) {
      keys.push_back("c" + std::to_string(c) + "_" + std::to_string(p));
      for (size_t j = 0; j < dim; ++j) {
        data.push_back(center[j] +
                       static_cast<float>(rng.Gaussian(0.0, 0.01)));
      }
    }
  }
  EmbeddingTableMetadata metadata;
  metadata.name = name;
  return EmbeddingTable::Create(metadata, keys, data, dim).value();
}

TEST_F(TieredEmbeddingTest, FeatureStoreDifferentialAllHotVsHalfCold) {
  const size_t clusters = 25, per_cluster = 8, dim = 8;
  const size_t n = clusters * per_cluster;
  auto table = ClusteredTable("emb", clusters, per_cluster, dim, 5);

  FeatureStoreOptions all_hot;
  all_hot.ann_index = "brute";
  FeatureStore resident_store(all_hot);
  ASSERT_TRUE(resident_store.RegisterEmbedding(table).ok());

  FeatureStoreOptions half_cold = all_hot;
  half_cold.embedding_tiering.memory_budget_bytes =
      n * dim * sizeof(float) / 2;
  half_cold.embedding_tiering.bits = 16;
  half_cold.embedding_tiering.block_rows = 16;
  half_cold.embedding_tiering.spill_dir = dir_;
  FeatureStore tiered_store(half_cold);
  ASSERT_TRUE(tiered_store.RegisterEmbedding(table).ok());
  ASSERT_TRUE(
      tiered_store.embeddings().GetLatest("emb").value()->tiered());

  // Point lookups agree modulo quantization error on cold rows.
  for (size_t i = 0; i < n; ++i) {
    const std::string& key = table->key(i);
    auto want = resident_store.GetEmbedding("emb", key).value();
    auto got = tiered_store.GetEmbedding("emb", key).value();
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_NEAR(got[j], want[j], 2e-3) << key << " j=" << j;
    }
  }

  // Batched neighbor queries agree modulo quantization error: exact 3-NN
  // sets inside a tight cluster are tie-sensitive, but with inter-cluster
  // distances ~1000x the intra-cluster spread both stores must place every
  // neighbor in the query's own cluster.
  std::vector<std::string> refs;
  for (size_t i = 0; i < n; i += 7) refs.push_back(table->key(i));
  auto want = resident_store.NearestEntitiesBatch("emb", refs, 3);
  auto got = tiered_store.NearestEntitiesBatch("emb", refs, 3);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    ASSERT_TRUE(want[i].ok());
    ASSERT_TRUE(got[i].ok()) << got[i].status();
    ASSERT_EQ(got[i]->size(), want[i]->size());
    const std::string cluster = refs[i].substr(0, refs[i].find('_') + 1);
    for (const auto& [key, dist] : *want[i]) {
      EXPECT_EQ(key.substr(0, cluster.size()), cluster) << refs[i];
    }
    for (const auto& [key, dist] : *got[i]) {
      EXPECT_EQ(key.substr(0, cluster.size()), cluster) << refs[i];
    }
  }

  // The tiered store really is out-of-core and counting.
  EmbeddingStoreTierStats stats = tiered_store.embeddings().TierStats();
  EXPECT_EQ(stats.tiered_tables, 1u);
  EXPECT_GE(stats.tier.scans, 1u);  // ANN searches streamed the tier.

  // Embedding hydration through the batched serving path survives
  // tiering: pointers are copied out of the tier before assembly.
  std::vector<Value> entities = {Value::String(table->key(0)),
                                 Value::String(table->key(n - 1)),
                                 Value::String("missing")};
  auto servings =
      tiered_store.server().GetFeaturesBatch(entities, {"emb"}, Hours(1));
  ASSERT_EQ(servings.size(), 3u);
  ASSERT_TRUE(servings[0].ok());
  ASSERT_TRUE(servings[1].ok());
  const std::vector<float>& v0 = servings[0]->values[0].embedding_value();
  auto expect0 = tiered_store.GetEmbedding("emb", table->key(0)).value();
  EXPECT_EQ(v0, expect0);

  // The serving layer surfaces the tier I/O counters: an operator
  // reading server stats sees the cold path behind requests.
  FeatureServerStats server_stats = tiered_store.server().stats();
  EXPECT_EQ(server_stats.embedding_tiers.tiered_tables, 1u);
  EXPECT_GE(server_stats.embedding_tiers.tier.scans, stats.tier.scans);
}

TEST_F(TieredEmbeddingTest, CheckpointRestoreServesByteIdentical) {
  const size_t n = 300, dim = 8;
  auto table = ClusteredTable("emb", 30, 10, dim, 17);

  FeatureStoreOptions options;
  options.ann_index = "brute";
  options.embedding_tiering.memory_budget_bytes = n * dim * sizeof(float) / 2;
  options.embedding_tiering.bits = 8;
  options.embedding_tiering.block_rows = 32;
  options.embedding_tiering.spill_dir = dir_ + "/spill_a";
  FeatureStore store(options);
  ASSERT_TRUE(store.RegisterEmbedding(table).ok());

  // Promote an extra block so the snapshot's hot set differs from the
  // seed layout (restore must reproduce the *current* hot set): one batch
  // reading the last row block_rows times buys its block and demotes a
  // seed.
  const std::vector<std::string> promote(32, table->key(n - 1));
  auto tier_table = store.embeddings().GetLatest("emb").value();
  ASSERT_TRUE(tier_table->tiered());
  for (const float* row : tier_table->MultiGet(promote)) {
    ASSERT_NE(row, nullptr);
  }
  ASSERT_EQ(tier_table->tier()->stats().promotions, 1u);
  ASSERT_EQ(tier_table->tier()->stats().demotions, 1u);

  std::vector<std::vector<float>> before;
  for (size_t i = 0; i < n; ++i) {
    before.push_back(store.GetEmbedding("emb", table->key(i)).value());
  }
  std::vector<std::string> refs;
  for (size_t i = 0; i < n; i += 11) refs.push_back(table->key(i));
  auto neighbors_before = store.NearestEntitiesBatch("emb", refs, 4);

  const std::string ckpt = dir_ + "/ckpt";
  ASSERT_TRUE(store.Checkpoint(ckpt).ok());

  FeatureStoreOptions restore_options = options;
  restore_options.embedding_tiering.spill_dir = dir_ + "/spill_b";
  FeatureStore restored(restore_options);
  ASSERT_TRUE(restored.RestoreCheckpoint(ckpt).ok());
  auto restored_table = restored.embeddings().GetLatest("emb").value();
  ASSERT_TRUE(restored_table->tiered());

  for (size_t i = 0; i < n; ++i) {
    auto got = restored.GetEmbedding("emb", table->key(i)).value();
    ASSERT_EQ(got.size(), before[i].size());
    EXPECT_TRUE(BitEqual(got.data(), before[i].data(), dim))
        << "row " << i << " changed across checkpoint restore";
  }
  auto neighbors_after = restored.NearestEntitiesBatch("emb", refs, 4);
  ASSERT_EQ(neighbors_after.size(), neighbors_before.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    ASSERT_TRUE(neighbors_before[i].ok());
    ASSERT_TRUE(neighbors_after[i].ok());
    ASSERT_EQ(neighbors_after[i]->size(), neighbors_before[i]->size());
    for (size_t j = 0; j < neighbors_before[i]->size(); ++j) {
      EXPECT_EQ((*neighbors_after[i])[j].first,
                (*neighbors_before[i])[j].first);
      EXPECT_EQ((*neighbors_after[i])[j].second,
                (*neighbors_before[i])[j].second);
    }
  }
}

TEST_F(TieredEmbeddingTest, RestoreFallsBackToResidentWhenSpillFails) {
  const size_t n = 256, dim = 8;
  auto table = ResidentTable("emb", n, dim);
  FeatureStoreOptions options;
  options.embedding_tiering.memory_budget_bytes = n * dim * sizeof(float) / 2;
  options.embedding_tiering.block_rows = 32;
  options.embedding_tiering.spill_dir = dir_ + "/spill";
  FeatureStore store(options);
  ASSERT_TRUE(store.RegisterEmbedding(table).ok());
  // Warm-up pass: rotate every seed-exact block out of the hot arena so
  // serving reaches its steady state (all rows at dequantized values)
  // before we capture the reference — reads themselves promote/demote.
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.GetEmbedding("emb", table->key(i)).ok());
  }
  std::vector<std::vector<float>> before;
  for (size_t i = 0; i < n; ++i) {
    before.push_back(store.GetEmbedding("emb", table->key(i)).value());
  }
  const std::string ckpt = dir_ + "/ckpt";
  ASSERT_TRUE(store.Checkpoint(ckpt).ok());

  FeatureStore restored(options);
  {
    // The tier file cannot be rebuilt: restore must degrade to an
    // equivalent resident table, not fail or corrupt.
    ScopedFailpoint fp("embedding.tier.spill", FailpointConfig{});
    ASSERT_TRUE(restored.RestoreCheckpoint(ckpt).ok());
  }
  auto got_table = restored.embeddings().GetLatest("emb").value();
  EXPECT_FALSE(got_table->tiered());
  EXPECT_GE(restored.embeddings().TierStats().restore_fallbacks, 1u);
  for (size_t i = 0; i < n; ++i) {
    auto got = restored.GetEmbedding("emb", table->key(i)).value();
    EXPECT_TRUE(BitEqual(got.data(), before[i].data(), dim)) << i;
  }
}

TEST_F(TieredEmbeddingTest, DriftPatchAlignNedAcceptTieredTables) {
  // The whole-matrix consumers materialize tiered inputs instead of
  // tripping the resident-only row()/raw() accessors.
  const size_t n = 128, dim = 8;
  auto v1 = ResidentTable("emb", n, dim, 1);
  auto tiered = EmbeddingTable::CreateTiered(
                    *v1, TierOptions(n * dim * 2, 8, 32))  // Mostly cold.
                    .value();
  auto report = CheckEmbeddingDrift(*tiered, *tiered, 4, 64, {});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->null_or_nan_cells, 0u);

  auto quantized = QuantizeUniform(*tiered, 8);
  ASSERT_TRUE(quantized.ok());
  EXPECT_FALSE((*quantized)->tiered());
  EXPECT_EQ((*quantized)->size(), n);
}

}  // namespace
}  // namespace mlfs
