#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "io/block_cache.h"
#include "io/block_file.h"

namespace mlfs {
namespace {

constexpr uint32_t kMagic = 0x54534554;  // "TEST"
constexpr uint32_t kVersion = 3;

class IoBlockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mlfs_io_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

// --- BlockFile -----------------------------------------------------------

TEST_F(IoBlockTest, SealRoundTripsThroughFromBytes) {
  const std::string body = "the quick brown fox";
  std::string blob = BlockFile::Seal(kMagic, kVersion, body);
  EXPECT_EQ(blob.size(),
            BlockFile::kPreludeBytes + body.size() + BlockFile::kTrailerBytes);
  auto file = BlockFile::FromBytes(kMagic, kVersion, blob, "test blob");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ((*file)->body(), body);
  EXPECT_EQ((*file)->data(), std::string_view(blob));
  EXPECT_FALSE((*file)->mapped());
}

TEST_F(IoBlockTest, EveryTruncationIsCorruptionNeverUB) {
  std::string blob = BlockFile::Seal(kMagic, kVersion, "truncation sweep body");
  for (size_t len = 0; len < blob.size(); ++len) {
    auto file =
        BlockFile::FromBytes(kMagic, kVersion, blob.substr(0, len), "trunc");
    ASSERT_FALSE(file.ok()) << "prefix of " << len << " bytes must not parse";
    EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
  }
}

TEST_F(IoBlockTest, EverySingleBitFlipIsDetected) {
  std::string blob = BlockFile::Seal(kMagic, kVersion, "bit flip sweep body");
  for (size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = blob;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto file = BlockFile::FromBytes(kMagic, kVersion, corrupt, "flip");
      ASSERT_FALSE(file.ok())
          << "flip of bit " << bit << " in byte " << byte << " undetected";
      EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST_F(IoBlockTest, WrongMagicAndVersionAreRejected) {
  std::string blob = BlockFile::Seal(kMagic, kVersion, "body");
  EXPECT_FALSE(BlockFile::FromBytes(kMagic + 1, kVersion, blob, "m").ok());
  EXPECT_FALSE(BlockFile::FromBytes(kMagic, kVersion + 1, blob, "v").ok());
}

TEST_F(IoBlockTest, SpillWritesValidatesAndRemovesOnDestroy) {
  const std::string body(4096, 'x');
  const std::string path = dir_ + "/spill.blk";
  {
    auto file = BlockFile::Spill(kMagic, kVersion,
                                 BlockFile::Seal(kMagic, kVersion, body), path,
                                 /*remove_file_on_destroy=*/true, "scratch");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    EXPECT_TRUE((*file)->mapped());
    EXPECT_EQ((*file)->path(), path);
    EXPECT_EQ((*file)->body(), body);
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path)) << "scratch file must be removed";
}

TEST_F(IoBlockTest, SpillKeepsCheckpointFilesOnDestroy) {
  const std::string path = dir_ + "/keep.blk";
  {
    auto file = BlockFile::Spill(kMagic, kVersion,
                                 BlockFile::Seal(kMagic, kVersion, "keep me"),
                                 path, /*remove_file_on_destroy=*/false, "ck");
    ASSERT_TRUE(file.ok());
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  auto reopened = BlockFile::Map(kMagic, kVersion, path,
                                 /*remove_file_on_destroy=*/false, "ck");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->body(), "keep me");
}

TEST_F(IoBlockTest, MapOfCorruptFileFailsAndSpillCleansUp) {
  const std::string path = dir_ + "/bad.blk";
  std::string blob = BlockFile::Seal(kMagic, kVersion, "soon corrupt");
  blob[BlockFile::kPreludeBytes] ^= 0x40;  // Flip a body bit pre-spill.
  auto file = BlockFile::Spill(kMagic, kVersion, blob, path, true, "bad");
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(std::filesystem::exists(path))
      << "failed spill must not leave a file behind";
  EXPECT_EQ(BlockFile::Map(kMagic, kVersion, dir_ + "/absent.blk", false, "x")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(IoBlockTest, IoLoadFailpointDegradesMapCleanly) {
  const std::string path = dir_ + "/fp.blk";
  ASSERT_TRUE(BlockFile::Spill(kMagic, kVersion,
                               BlockFile::Seal(kMagic, kVersion, "fp body"),
                               path, /*remove_file_on_destroy=*/false, "fp")
                  .ok());
  {
    ScopedFailpoint fp("io.load",
                       {.status = Status::Internal("injected io fault")});
    auto file = BlockFile::Map(kMagic, kVersion, path, false, "fp");
    ASSERT_FALSE(file.ok());
    EXPECT_EQ(file.status().code(), StatusCode::kInternal);
  }
  // Disarmed: the same open succeeds — the fault injected no lasting state.
  EXPECT_TRUE(BlockFile::Map(kMagic, kVersion, path, false, "fp").ok());
}

// --- BlockCache ----------------------------------------------------------

BlockCache::Payload MakePayload(int tag) {
  return std::make_shared<const int>(tag);
}

int Tag(const BlockCache::Payload& p) {
  return *static_cast<const int*>(p.get());
}

TEST_F(IoBlockTest, CacheEvictsMinStampFirst) {
  BlockCache cache(/*num_blocks=*/4, /*capacity=*/2);
  cache.Insert(0, MakePayload(0), 100, cache.BeginBatch());
  cache.Insert(1, MakePayload(1), 100, cache.BeginBatch());
  EXPECT_EQ(cache.resident(), 2u);
  // Block 0 holds the oldest stamp: inserting 2 evicts it.
  cache.Insert(2, MakePayload(2), 100, cache.BeginBatch());
  EXPECT_EQ(cache.Peek(0), nullptr);
  EXPECT_NE(cache.Peek(1), nullptr);
  EXPECT_NE(cache.Peek(2), nullptr);
  // Touching 1 refreshes it; the next insert evicts 2 instead.
  cache.Touch(1, cache.BeginBatch());
  cache.Insert(3, MakePayload(3), 100, cache.BeginBatch());
  EXPECT_NE(cache.Peek(1), nullptr);
  EXPECT_EQ(cache.Peek(2), nullptr);
  const BlockCacheStats stats = cache.stats();
  EXPECT_EQ(stats.promotions, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.resident_blocks, 2u);
  EXPECT_EQ(stats.resident_bytes, 200u);
}

TEST_F(IoBlockTest, PinnedPayloadSurvivesEviction) {
  BlockCache cache(/*num_blocks=*/3, /*capacity=*/1);
  cache.Insert(0, MakePayload(7), 10, cache.BeginBatch());
  auto& pins = BlockCache::ThreadPins();
  pins.clear();
  BlockCache::Payload p = cache.Touch(0, cache.BeginBatch());
  ASSERT_NE(p, nullptr);
  pins.push_back(p);
  const int* interior = static_cast<const int*>(p.get());
  p.reset();  // Only the pin set holds it now.
  // Evict block 0 by inserting another block into the 1-slot cache.
  cache.Insert(1, MakePayload(8), 10, cache.BeginBatch());
  ASSERT_EQ(cache.Peek(0), nullptr);
  // The evicted payload is still owned by the pin set: reading through the
  // interior pointer is valid (ASan would flag a use-after-free here).
  EXPECT_EQ(*interior, 7);
  pins.clear();
}

TEST_F(IoBlockTest, CapacityFlapEvictsAndRefills) {
  BlockCache cache(/*num_blocks=*/8, /*capacity=*/8);
  for (size_t b = 0; b < 8; ++b) {
    cache.Insert(b, MakePayload(static_cast<int>(b)), 1, cache.BeginBatch());
  }
  EXPECT_EQ(cache.resident(), 8u);
  // Shrink: the 5 lowest-stamp blocks (0..4) demote immediately.
  cache.SetCapacity(3);
  EXPECT_EQ(cache.resident(), 3u);
  for (size_t b = 0; b < 5; ++b) EXPECT_EQ(cache.Peek(b), nullptr);
  for (size_t b = 5; b < 8; ++b) {
    ASSERT_NE(cache.Peek(b), nullptr);
    EXPECT_EQ(Tag(cache.Peek(b)), static_cast<int>(b));
  }
  // Zero: everything demotes, and inserts become no-ops.
  cache.SetCapacity(0);
  EXPECT_EQ(cache.resident(), 0u);
  EXPECT_FALSE(cache.Insert(0, MakePayload(0), 1, cache.BeginBatch()));
  EXPECT_EQ(cache.resident(), 0u);
  // Grow again: future inserts fill the new room.
  cache.SetCapacity(6);
  for (size_t b = 0; b < 8; ++b) {
    cache.Insert(b, MakePayload(static_cast<int>(b)), 1, cache.BeginBatch());
  }
  EXPECT_EQ(cache.resident(), 6u);
  EXPECT_EQ(cache.stats().capacity_blocks, 6u);
  // Capacity above the block universe clamps.
  cache.SetCapacity(100);
  EXPECT_EQ(cache.capacity(), 8u);
}

TEST_F(IoBlockTest, SeedingDoesNotCountPromotions) {
  BlockCache cache(4, 4);
  cache.Insert(0, MakePayload(0), 1, cache.BeginBatch(),
               /*count_promotion=*/false);
  cache.Insert(1, MakePayload(1), 1, cache.BeginBatch());
  EXPECT_EQ(cache.stats().promotions, 1u);
  // Re-inserting a resident block is not a promotion either.
  EXPECT_FALSE(cache.Insert(1, MakePayload(9), 1, cache.BeginBatch()));
  EXPECT_EQ(cache.stats().promotions, 1u);
  EXPECT_EQ(Tag(cache.Peek(1)), 1) << "resident payload must not be replaced";
}

TEST_F(IoBlockTest, ResidentSnapshotListsBlocksInOrder) {
  BlockCache cache(5, 3);
  cache.Insert(4, MakePayload(4), 1, cache.BeginBatch());
  cache.Insert(1, MakePayload(1), 1, cache.BeginBatch());
  auto snapshot = cache.ResidentSnapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, 1u);
  EXPECT_EQ(snapshot[1].first, 4u);
  EXPECT_EQ(Tag(snapshot[0].second), 1);
  EXPECT_EQ(Tag(snapshot[1].second), 4);
}

}  // namespace
}  // namespace mlfs
