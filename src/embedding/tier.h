#ifndef MLFS_EMBEDDING_TIER_H_
#define MLFS_EMBEDDING_TIER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "embedding/compress.h"
#include "io/block_cache.h"
#include "io/block_file.h"

namespace mlfs {

/// Configuration of one table's cold tier.
struct EmbeddingTierOptions {
  /// Budget for the hot float32 arena (the only RAM the tier manages; the
  /// packed file is memory-mapped and the key index stays resident either
  /// way). 0 means no hot blocks: every read dequantizes.
  size_t memory_budget_bytes = 0;
  /// Bits per dimension in the packed cold tier (1..16).
  int bits = 8;
  /// Rows per block — the promotion/demotion unit. A cold block is
  /// promoted by the read that brings its cold-row reads to block_rows
  /// (see EmbeddingTier).
  size_t block_rows = 256;
  /// Directory the packed tier file is written into (required).
  std::string dir;
  /// Stem of the tier file name (a unique suffix is always appended).
  std::string file_stem = "tier";
  /// Tier files are scratch by default: deleted when the tier is
  /// destroyed. Snapshots embed the packed codes, not the file path.
  bool remove_file_on_destroy = true;
};

/// Monotonic tier counters plus a point-in-time occupancy snapshot.
struct EmbeddingTierStats {
  uint64_t hot_hits = 0;      // Rows served from the hot arena.
  uint64_t cold_misses = 0;   // Rows whose block was not hot.
  uint64_t promotions = 0;    // Cold blocks admitted into the hot arena.
  uint64_t demotions = 0;     // Hot blocks evicted back to codes-only.
  uint64_t scans = 0;         // ScanBlocks passes (ANN scans).
  uint64_t scan_cold_blocks = 0;  // Blocks dequantized into scan scratch.
  uint64_t load_faults = 0;   // Injected embedding.tier.load failures.
  size_t hot_blocks = 0;
  size_t total_blocks = 0;
  size_t hot_limit_blocks = 0;
  size_t resident_bytes = 0;  // Hot arena bytes right now.
  size_t packed_bytes = 0;    // Size of the mmap'd tier file.
};

/// The out-of-core half of a tiered EmbeddingTable (MLKV-style): every row
/// lives scalar-quantized in a checksummed, memory-mapped file; a bounded
/// set of "hot" blocks additionally holds float32 rows in RAM. Reads are
/// served from the hot arena when possible; a cold row is dequantized on
/// its own from the mapped codes. Admission is ski rental: promoting a
/// block costs block_rows row decodes, so a block is promoted only once
/// its cold-row reads since it last became resident have paid for it —
/// by the read (or the batch) that brings their count to block_rows.
/// One-off rows therefore never evict hot blocks.
/// All rows a MultiGet batch touches in one block count as a single LRU
/// access, so one burst cannot monopolize the clock, and full scans
/// (ScanBlocks) refresh hot stamps without growing the hot set
/// (scan-resistant — a brute-force ANN pass must not evict the
/// point-lookup working set).
///
/// Storage plumbing is the shared io/ subsystem: the packed file is a
/// BlockFile ("MLET" magic in the common envelope, spilled with the
/// WriteFileAtomic + mmap-reopen discipline and fully validated at open),
/// the hot arena is a BlockCache (batch-granular scan-resistant LRU with
/// the shared thread-local pin set). This file owns the quantization codec,
/// the row-addressing geometry and the admission rule.
///
///   body: u32 bits, u64 n, u64 dim, u64 block_rows,
///         float lo[dim], float hi[dim], codes[n * row_bytes]
///
/// Pointer lifetime: pointers handed out by GetRow/MultiGetRows stay
/// valid until the *calling thread's* next GetRow/MultiGetRows on any
/// tier (the BlockCache thread-local pin set keeps the backing blocks,
/// and the per-call buffer of row-decoded cold rows, alive across
/// concurrent demotion); copy before issuing another read. Hot demotion
/// therefore never invalidates a pointer another thread just obtained.
///
/// Failpoints: "embedding.tier.spill" fires before the tier file is
/// written (Build/Restore fail cleanly); "embedding.tier.load" fires when
/// a read needs cold rows or a scan starts (GetRow/ScanBlocks propagate
/// the injected status; MultiGetRows degrades the cold rows to misses;
/// neither charges the faulted reads toward admission);
/// "io.load" (in BlockFile::Map) fires underneath.
///
/// Thread-safe; the cache carries its own lock, dequantization runs
/// outside it.
class EmbeddingTier {
 public:
  /// Packs `data` (n x dim row-major float32), writes + maps the tier
  /// file, and seeds the hot arena with the first blocks that fit the
  /// budget, holding *exact* copies of `data` (a never-demoted row serves
  /// byte-identical floats; only demoted/cold rows pay quantization
  /// error).
  static StatusOr<std::unique_ptr<EmbeddingTier>> Build(
      const float* data, size_t n, size_t dim, EmbeddingTierOptions options);

  /// Rebuilds a tier from snapshot parts: the packed codes and the hot
  /// blocks (block id -> exact float rows) captured by HotBlocksSnapshot.
  static StatusOr<std::unique_ptr<EmbeddingTier>> Restore(
      PackedCodes packed,
      std::vector<std::pair<uint32_t, std::vector<float>>> hot_blocks,
      EmbeddingTierOptions options);

  ~EmbeddingTier();
  EmbeddingTier(const EmbeddingTier&) = delete;
  EmbeddingTier& operator=(const EmbeddingTier&) = delete;

  /// Row pointer (hot arena, the block this read promoted, or the row
  /// decoded on its own); see the pointer lifetime contract above.
  StatusOr<const float*> GetRow(size_t row) const;

  /// Batched lookup: out[i] points at rows[i]'s vector, or is null when
  /// rows[i] is out of range or its cold load was fault-injected. Each
  /// distinct block counts one LRU access regardless of how many batch
  /// rows it serves; each cold slot counts one read toward its block's
  /// admission.
  void MultiGetRows(std::span<const int64_t> rows,
                    std::vector<const float*>* out) const;

  /// Copies one row into `out` (dim floats) without promoting or pinning.
  void CopyRow(size_t row, float* out) const;

  /// Streams every row block-wise in ascending row order:
  /// fn(row0, nrows, rows) where `rows` is nrows x dim floats — the hot
  /// arena directly, or a per-call scratch for dequantized cold blocks.
  /// Refreshes hot stamps, never promotes.
  Status ScanBlocks(
      const std::function<void(size_t row0, size_t nrows, const float* rows)>&
          fn) const;

  size_t n() const { return n_; }
  size_t dim() const { return dim_; }
  int bits() const { return bits_; }
  size_t block_rows() const { return block_rows_; }
  size_t row_bytes() const { return row_bytes_; }
  size_t num_blocks() const { return blocks_count_; }
  size_t hot_limit_blocks() const { return cache_->capacity(); }
  const std::vector<float>& lo() const { return lo_f_; }
  const std::vector<float>& hi() const { return hi_f_; }
  /// The packed code section (n * row_bytes bytes, mmap-backed).
  const uint8_t* codes() const { return codes_; }
  const std::string& path() const { return file_->path(); }

  /// Adjusts the hot arena capacity in blocks (cache policy, not data):
  /// shrinking demotes excess blocks immediately; growing lets future
  /// promotions fill the new room. The store uses this to take the arena
  /// away from superseded versions without rewriting tier files.
  void SetHotLimit(size_t blocks) const;

  EmbeddingTierStats stats() const;

  /// Current hot blocks as (block id, exact float rows) pairs — the
  /// mutable half of a snapshot (the immutable half is codes()/lo()/hi()).
  std::vector<std::pair<uint32_t, std::vector<float>>> HotBlocksSnapshot()
      const;

 private:
  using BlockData = std::shared_ptr<const std::vector<float>>;

  EmbeddingTier() = default;

  /// Encodes the packed matrix into the shared envelope, spills it via
  /// BlockFile (atomic write + mmap reopen), and wires up the cache.
  Status WriteAndMap(const PackedCodes& packed, const EmbeddingTierOptions&
                     options);
  /// Validates the mapped body and wires up codes_/lo/hi/steps.
  Status ParseBody();

  /// Borrowed codec view over the mapped code section.
  PackedCodesView MapView() const;

  size_t BlockRow0(size_t b) const { return b * block_rows_; }
  size_t BlockRows(size_t b) const {
    return std::min(block_rows_, n_ - BlockRow0(b));
  }
  size_t BlockBytes(size_t b) const {
    return BlockRows(b) * dim_ * sizeof(float);
  }
  /// Dequantizes block `b` into a fresh buffer (no locks needed: the
  /// mapped codes are immutable).
  std::vector<float> LoadBlock(size_t b) const;
  /// Charges `reads` cold-row reads to block `b` (the admission rule).
  /// Once its count reaches block_rows, this loads the block, offers it
  /// to the cache (which refuses it at zero capacity), resets the count
  /// and returns the payload to serve from; otherwise null.
  /// Callers evaluate the load failpoint first, so a faulted read is not
  /// charged.
  BlockCache::Payload AdmitColdReads(size_t b, size_t reads,
                                     uint64_t stamp) const;
  /// LoadBlock as a cache payload (what a promotion materializes).
  BlockCache::Payload LoadBlockPayload(size_t b) const {
    return std::make_shared<const std::vector<float>>(LoadBlock(b));
  }
  static const float* BlockFloats(const BlockCache::Payload& p) {
    return static_cast<const std::vector<float>*>(p.get())->data();
  }

  // Codec geometry (immutable after open).
  int bits_ = 0;
  size_t n_ = 0;
  size_t dim_ = 0;
  size_t block_rows_ = 0;
  size_t row_bytes_ = 0;
  size_t blocks_count_ = 0;
  std::vector<float> lo_f_, hi_f_;
  PackedDecodeTables tables_;
  const uint8_t* codes_ = nullptr;

  BlockFilePtr file_;  // The mapped tier file.
  std::unique_ptr<BlockCache> cache_;
  // Cold-row reads per block since it last became resident (admission
  // rent); reset when the block is bought.
  std::unique_ptr<std::atomic<size_t>[]> cold_reads_;

  // Tier-specific counters (the cache keeps its own).
  mutable std::atomic<uint64_t> scans_{0};
  mutable std::atomic<uint64_t> scan_cold_blocks_{0};
  mutable std::atomic<uint64_t> load_faults_{0};
};

}  // namespace mlfs

#endif  // MLFS_EMBEDDING_TIER_H_
