// Embedding-tier concurrency soak (CTest label: stress; run under TSan).
//
// Hammers one tiered table from every access path at once: point-Get
// threads churning the hot set (promotion racing demotion), MultiGet
// threads issuing batches that straddle hot and cold blocks, scan threads
// streaming the whole tier (brute-force ANN's access pattern), a thread
// flapping the hot limit (the store's budget rebalancing), and a
// fault-injection thread arming/disarming the cold-load failpoint. A
// second soak holds row-decoded cold pointers across whole-block
// promotions and budget flaps. Asserts the invariants the
// single-threaded suite pins: every served row is bitwise one of the two
// legal values (exact or dequantized), pointers stay valid until the
// thread's next lookup, and the counters are coherent.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "embedding/compress.h"
#include "embedding/embedding_table.h"
#include "embedding/tier.h"

namespace mlfs {
namespace {

constexpr size_t kRows = 64 * 24;  // 24 blocks of 64.
constexpr size_t kDim = 16;
constexpr size_t kBlockRows = 64;
constexpr int kBits = 8;
constexpr int kGetters = 3;
constexpr int kBatchers = 2;
constexpr int kScanners = 2;
constexpr int kOpsPerThread = 400;

TEST(TieredEmbeddingStressTest, PromotionDemotionScansAndFaultsRace) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "mlfs_tier_stress")
          .string();
  std::filesystem::create_directories(dir);

  Rng rng(7);
  std::vector<float> data(kRows * kDim);
  for (float& x : data) x = static_cast<float>(rng.Gaussian());
  std::vector<std::string> keys;
  for (size_t i = 0; i < kRows; ++i) keys.push_back("k" + std::to_string(i));

  EmbeddingTableMetadata metadata;
  metadata.name = "stress";
  auto source =
      EmbeddingTable::Create(metadata, keys, data, kDim).value();

  EmbeddingTierOptions options;
  options.memory_budget_bytes = 4 * kBlockRows * kDim * sizeof(float);
  options.bits = kBits;
  options.block_rows = kBlockRows;
  options.dir = dir;
  auto table = EmbeddingTable::CreateTiered(*source, options).value();

  // The two legal servings of any row: the exact source floats (hot seed)
  // or the packed codec's dequantization (cold or ever-demoted).
  PackedCodes packed = PackUniform(data.data(), kRows, kDim, kBits).value();
  PackedDecodeTables tables = MakeDecodeTables(kBits, packed.lo, packed.hi);
  std::vector<float> dequantized(kRows * kDim);
  DequantizeRange(ViewOf(packed, tables), 0, kRows, dequantized.data());
  auto legal = [&](size_t row, const float* got) {
    return std::memcmp(got, data.data() + row * kDim,
                       kDim * sizeof(float)) == 0 ||
           std::memcmp(got, dequantized.data() + row * kDim,
                       kDim * sizeof(float)) == 0;
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> faulted{0};
  std::atomic<uint64_t> illegal{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kGetters; ++t) {
    threads.emplace_back([&, t] {
      Rng local(100 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const size_t row = local.Uniform(kRows);
        auto got = table->Get("k" + std::to_string(row));
        if (!got.ok()) {  // Injected cold-load fault.
          faulted.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // The pointer must stay valid (and legal) until this thread's
        // next lookup, even while other threads demote the block.
        if (!legal(row, *got)) illegal.fetch_add(1);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int t = 0; t < kBatchers; ++t) {
    threads.emplace_back([&, t] {
      Rng local(200 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        std::vector<std::string> batch;
        std::vector<size_t> rows;
        for (int i = 0; i < 12; ++i) {
          rows.push_back(local.Uniform(kRows));
          batch.push_back("k" + std::to_string(rows.back()));
        }
        batch.push_back("missing");
        auto ptrs = table->MultiGet(batch);
        ASSERT_EQ(ptrs.size(), batch.size());
        ASSERT_EQ(ptrs.back(), nullptr);
        for (size_t i = 0; i < rows.size(); ++i) {
          if (ptrs[i] == nullptr) {  // Fault-degraded cold slot.
            faulted.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (!legal(rows[i], ptrs[i])) illegal.fetch_add(1);
          served.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int t = 0; t < kScanners; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        size_t seen = 0;
        Status status = table->tier()->ScanBlocks(
            [&](size_t row0, size_t nrows, const float* rows) {
              seen += nrows;
              for (size_t r = 0; r < nrows; ++r) {
                if (!legal(row0 + r, rows + r * kDim)) illegal.fetch_add(1);
              }
            });
        if (status.ok()) {
          ASSERT_EQ(seen, kRows);
        }
      }
    });
  }
  // Budget rebalancing races everything (the store does this on every
  // registration).
  threads.emplace_back([&] {
    Rng local(301);
    while (!stop.load(std::memory_order_relaxed)) {
      table->tier()->SetHotLimit(local.Uniform(6));
      std::this_thread::yield();
    }
  });
  // Fault injection flaps underneath the readers.
  threads.emplace_back([&] {
    for (int i = 0; i < 40 && !stop.load(std::memory_order_relaxed); ++i) {
      FailpointConfig config;
      config.probability = 0.3;
      {
        ScopedFailpoint fp("embedding.tier.load", config);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int t = 0; t < kGetters + kBatchers; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = kGetters + kBatchers; t < threads.size(); ++t) {
    threads[t].join();
  }
  FailpointRegistry::Instance().DisarmAll();

  EXPECT_EQ(illegal.load(), 0u)
      << "a row was served that is neither exact nor dequantized";
  EXPECT_GT(served.load(), 0u);

  // Counters are coherent after the dust settles.
  EmbeddingTierStats stats = table->tier()->stats();
  EXPECT_EQ(stats.total_blocks, kRows / kBlockRows);
  EXPECT_LE(stats.hot_blocks, stats.total_blocks);
  EXPECT_LE(stats.hot_blocks, 6u);  // Last SetHotLimit was < 6.
  EXPECT_EQ(stats.resident_bytes,
            stats.hot_blocks * kBlockRows * kDim * sizeof(float));
  EXPECT_GE(stats.hot_hits + stats.cold_misses, served.load());
  EXPECT_GE(stats.demotions + stats.hot_blocks, stats.promotions)
      << "every promoted block is either still hot or was demoted";
  if (faulted.load() > 0) {
    EXPECT_GT(stats.load_faults, 0u);
  }

  // And the tier still serves correct data single-threaded.
  std::vector<float> out(kDim);
  for (size_t row : {size_t{0}, kRows / 2, kRows - 1}) {
    table->CopyRow(row, out.data());
    EXPECT_TRUE(legal(row, out.data())) << row;
  }
  std::filesystem::remove_all(dir);
}

TEST(TieredEmbeddingStressTest, RowServedPointersSurvivePromotionChurn) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "mlfs_tier_rows_stress")
          .string();
  std::filesystem::create_directories(dir);

  Rng rng(17);
  std::vector<float> data(kRows * kDim);
  for (float& x : data) x = static_cast<float>(rng.Gaussian());
  std::vector<std::string> keys;
  for (size_t i = 0; i < kRows; ++i) keys.push_back("k" + std::to_string(i));

  EmbeddingTableMetadata metadata;
  metadata.name = "rows_stress";
  auto source = EmbeddingTable::Create(metadata, keys, data, kDim).value();

  EmbeddingTierOptions options;
  options.memory_budget_bytes = 4 * kBlockRows * kDim * sizeof(float);
  options.bits = kBits;
  options.block_rows = kBlockRows;
  options.dir = dir;
  auto table = EmbeddingTable::CreateTiered(*source, options).value();

  PackedCodes packed = PackUniform(data.data(), kRows, kDim, kBits).value();
  PackedDecodeTables tables = MakeDecodeTables(kBits, packed.lo, packed.hi);
  std::vector<float> dequantized(kRows * kDim);
  DequantizeRange(ViewOf(packed, tables), 0, kRows, dequantized.data());
  auto legal = [&](size_t row, const float* got) {
    return std::memcmp(got, data.data() + row * kDim,
                       kDim * sizeof(float)) == 0 ||
           std::memcmp(got, dequantized.data() + row * kDim,
                       kDim * sizeof(float)) == 0;
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checked{0};
  std::atomic<uint64_t> illegal{0};
  std::atomic<uint64_t> moved{0};

  std::vector<std::thread> threads;
  // Readers: small batches spread over every block, so most rows are
  // decoded on their own. Each pointer is checked when served and again
  // after yielding to the promoters and the flapper: it must still hold
  // the same legal bytes until this thread's next lookup.
  constexpr int kReaders = 3;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Rng local(400 + t);
      std::vector<float> copy(kDim);
      for (int op = 0; op < kOpsPerThread; ++op) {
        std::vector<std::string> batch;
        std::vector<size_t> rows;
        for (int i = 0; i < 8; ++i) {
          rows.push_back(local.Uniform(kRows));
          batch.push_back(keys[rows.back()]);
        }
        batch.push_back(batch.front());  // A duplicate slot.
        rows.push_back(rows.front());
        auto ptrs = table->MultiGet(batch);
        ASSERT_EQ(ptrs.size(), batch.size());
        std::vector<float> snapshot(rows.size() * kDim);
        for (size_t i = 0; i < rows.size(); ++i) {
          ASSERT_NE(ptrs[i], nullptr);
          if (!legal(rows[i], ptrs[i])) illegal.fetch_add(1);
          std::memcpy(snapshot.data() + i * kDim, ptrs[i],
                      kDim * sizeof(float));
        }
        for (int y = 0; y < 4; ++y) std::this_thread::yield();
        for (size_t i = 0; i < rows.size(); ++i) {
          if (std::memcmp(ptrs[i], snapshot.data() + i * kDim,
                          kDim * sizeof(float)) != 0) {
            moved.fetch_add(1);
          }
        }
        checked.fetch_add(rows.size(), std::memory_order_relaxed);

        const size_t row = local.Uniform(kRows);
        const float* got = table->Get(keys[row]).value();
        std::memcpy(copy.data(), got, kDim * sizeof(float));
        if (!legal(row, got)) illegal.fetch_add(1);
        std::this_thread::yield();
        if (std::memcmp(got, copy.data(), kDim * sizeof(float)) != 0) {
          moved.fetch_add(1);
        }
      }
    });
  }
  // Promoters: whole-block batches pay for their block in one call, so
  // every call promotes (capacity permitting) and demotes another block.
  constexpr int kPromoters = 2;
  for (int t = 0; t < kPromoters; ++t) {
    threads.emplace_back([&, t] {
      Rng local(500 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t b = local.Uniform(kRows / kBlockRows);
        std::vector<std::string> batch(keys.begin() + b * kBlockRows,
                                       keys.begin() + (b + 1) * kBlockRows);
        auto ptrs = table->MultiGet(batch);
        for (size_t i = 0; i < ptrs.size(); ++i) {
          if (ptrs[i] == nullptr || !legal(b * kBlockRows + i, ptrs[i])) {
            illegal.fetch_add(1);
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    Rng local(601);
    while (!stop.load(std::memory_order_relaxed)) {
      table->tier()->SetHotLimit(local.Uniform(6));
      std::this_thread::yield();
    }
  });

  for (int t = 0; t < kReaders; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = kReaders; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(illegal.load(), 0u)
      << "a row was served that is neither exact nor dequantized";
  EXPECT_EQ(moved.load(), 0u)
      << "a served row changed before the reader's next lookup";
  EXPECT_GT(checked.load(), 0u);
  const EmbeddingTierStats stats = table->tier()->stats();
  EXPECT_GT(stats.promotions, 0u);
  EXPECT_GT(stats.demotions, 0u);
  EXPECT_GE(stats.demotions + stats.hot_blocks, stats.promotions);
  EXPECT_EQ(stats.resident_bytes,
            stats.hot_blocks * kBlockRows * kDim * sizeof(float));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mlfs
