#include "embedding/tier.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <unordered_set>

#include "common/failpoint.h"

namespace mlfs {
namespace {

constexpr uint32_t kTierMagic = 0x4d4c4554;  // "MLET"
constexpr uint32_t kTierVersion = 1;
constexpr size_t kTierBodyFixedBytes = 28;  // bits + n + dim + block_rows.

inline void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}
inline void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}
inline void AppendFloat(std::string* out, float v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}
inline uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
inline float LoadFloat(const uint8_t* p) {
  float v;
  std::memcpy(&v, p, 4);
  return v;
}

std::atomic<uint64_t> g_tier_file_counter{0};

}  // namespace

StatusOr<std::unique_ptr<EmbeddingTier>> EmbeddingTier::Build(
    const float* data, size_t n, size_t dim, EmbeddingTierOptions options) {
  if (data == nullptr || n == 0 || dim == 0) {
    return Status::InvalidArgument("cannot build a tier over an empty matrix");
  }
  MLFS_ASSIGN_OR_RETURN(PackedCodes packed,
                        PackUniform(data, n, dim, options.bits));
  std::unique_ptr<EmbeddingTier> tier(new EmbeddingTier());
  MLFS_RETURN_IF_ERROR(tier->WriteAndMap(packed, options));
  // Seed the hot arena with the leading blocks that fit the budget,
  // holding the *exact* source floats (not a dequantized round trip): a
  // row that is never demoted serves byte-identical data. Seeding is
  // placement, not promotion, so it leaves the promotion counter alone.
  const size_t seed =
      std::min(tier->cache_->capacity(), tier->blocks_count_);
  for (size_t b = 0; b < seed; ++b) {
    const size_t row0 = tier->BlockRow0(b);
    const size_t nrows = tier->BlockRows(b);
    tier->cache_->Insert(b,
                         std::make_shared<const std::vector<float>>(
                             data + row0 * dim, data + (row0 + nrows) * dim),
                         tier->BlockBytes(b), tier->cache_->BeginBatch(),
                         /*count_promotion=*/false);
  }
  return tier;
}

StatusOr<std::unique_ptr<EmbeddingTier>> EmbeddingTier::Restore(
    PackedCodes packed,
    std::vector<std::pair<uint32_t, std::vector<float>>> hot_blocks,
    EmbeddingTierOptions options) {
  if (packed.bits < 1 || packed.bits > 16 || packed.n == 0 ||
      packed.dim == 0 ||
      packed.row_bytes !=
          (packed.dim * static_cast<size_t>(packed.bits) + 7) / 8 ||
      packed.lo.size() != packed.dim || packed.hi.size() != packed.dim ||
      packed.codes.size() != packed.n * packed.row_bytes) {
    return Status::Corruption("embedding tier snapshot: bad packed shape");
  }
  options.bits = packed.bits;
  std::unique_ptr<EmbeddingTier> tier(new EmbeddingTier());
  MLFS_RETURN_IF_ERROR(tier->WriteAndMap(packed, options));
  // Seed in snapshot order: later blocks carry newer stamps, so a restore
  // under a smaller budget keeps the same blocks a full seed + demotion
  // pass would.
  std::unordered_set<uint32_t> seen;
  for (auto& [b, rows] : hot_blocks) {
    if (b >= tier->blocks_count_ ||
        rows.size() != tier->BlockRows(b) * tier->dim_ ||
        !seen.insert(b).second) {
      return Status::Corruption("embedding tier snapshot: bad hot block");
    }
    tier->cache_->Insert(
        b, std::make_shared<const std::vector<float>>(std::move(rows)),
        tier->BlockBytes(b), tier->cache_->BeginBatch(),
        /*count_promotion=*/false);
  }
  return tier;
}

EmbeddingTier::~EmbeddingTier() = default;

Status EmbeddingTier::WriteAndMap(const PackedCodes& packed,
                                  const EmbeddingTierOptions& options) {
  MLFS_FAILPOINT("embedding.tier.spill");
  if (options.dir.empty()) {
    return Status::InvalidArgument("embedding tier: dir is required");
  }
  if (options.block_rows == 0) {
    return Status::InvalidArgument("embedding tier: block_rows must be > 0");
  }

  std::string body;
  body.reserve(kTierBodyFixedBytes + 8 * packed.dim + packed.codes.size());
  AppendU32(&body, static_cast<uint32_t>(packed.bits));
  AppendU64(&body, packed.n);
  AppendU64(&body, packed.dim);
  AppendU64(&body, options.block_rows);
  for (float v : packed.lo) AppendFloat(&body, v);
  for (float v : packed.hi) AppendFloat(&body, v);
  body.append(reinterpret_cast<const char*>(packed.codes.data()),
              packed.codes.size());

  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  const uint64_t id =
      g_tier_file_counter.fetch_add(1, std::memory_order_relaxed);
  std::string path = options.dir + "/" + options.file_stem + "_" +
                     std::to_string(id) + ".emt";
  MLFS_ASSIGN_OR_RETURN(
      file_, BlockFile::Spill(kTierMagic, kTierVersion,
                              BlockFile::Seal(kTierMagic, kTierVersion, body),
                              std::move(path), options.remove_file_on_destroy,
                              "tier file"));
  MLFS_RETURN_IF_ERROR(ParseBody());

  const size_t block_bytes = block_rows_ * dim_ * sizeof(float);
  const size_t hot_limit =
      std::min(block_bytes == 0 ? size_t{0}
                                : options.memory_budget_bytes / block_bytes,
               blocks_count_);
  cache_ = std::make_unique<BlockCache>(blocks_count_, hot_limit);
  cold_reads_ = std::make_unique<std::atomic<size_t>[]>(blocks_count_);
  return Status::OK();
}

Status EmbeddingTier::ParseBody() {
  // Envelope (magic, version, length, checksum) validated by BlockFile;
  // this parses the tier-specific body shape.
  const std::string_view body_view = file_->body();
  const uint8_t* body = reinterpret_cast<const uint8_t*>(body_view.data());
  if (body_view.size() < kTierBodyFixedBytes) {
    return Status::Corruption("tier file truncated");
  }
  const uint32_t bits = LoadU32(body);
  const uint64_t n = LoadU64(body + 4);
  const uint64_t dim = LoadU64(body + 12);
  const uint64_t block_rows = LoadU64(body + 20);
  if (bits < 1 || bits > 16 || n == 0 || dim == 0 || dim > (1u << 24) ||
      block_rows == 0) {
    return Status::Corruption("tier file bad shape");
  }
  bits_ = static_cast<int>(bits);
  n_ = n;
  dim_ = dim;
  block_rows_ = block_rows;
  row_bytes_ = (dim_ * static_cast<size_t>(bits_) + 7) / 8;
  blocks_count_ = (n_ + block_rows_ - 1) / block_rows_;
  if (body_view.size() < kTierBodyFixedBytes + 8 * dim_) {
    return Status::Corruption("tier file range table truncated");
  }
  const size_t codes_len = body_view.size() - kTierBodyFixedBytes - 8 * dim_;
  if (codes_len / row_bytes_ != n_ || codes_len % row_bytes_ != 0) {
    return Status::Corruption("tier file code section length mismatch");
  }
  lo_f_.resize(dim_);
  hi_f_.resize(dim_);
  const uint8_t* ranges = body + kTierBodyFixedBytes;
  for (size_t j = 0; j < dim_; ++j) {
    lo_f_[j] = LoadFloat(ranges + 4 * j);
    hi_f_[j] = LoadFloat(ranges + 4 * (dim_ + j));
    if (!std::isfinite(lo_f_[j]) || !std::isfinite(hi_f_[j]) ||
        lo_f_[j] > hi_f_[j]) {
      return Status::Corruption("tier file non-finite or inverted range");
    }
  }
  codes_ = ranges + 8 * dim_;
  tables_ = MakeDecodeTables(bits_, lo_f_, hi_f_);
  return Status::OK();
}

PackedCodesView EmbeddingTier::MapView() const {
  PackedCodesView view;
  view.bits = bits_;
  view.n = n_;
  view.dim = dim_;
  view.row_bytes = row_bytes_;
  view.lo = tables_.lo.data();
  view.step = tables_.step.data();
  view.codes = codes_;
  return view;
}

std::vector<float> EmbeddingTier::LoadBlock(size_t b) const {
  const size_t row0 = BlockRow0(b);
  const size_t nrows = BlockRows(b);
  std::vector<float> rows(nrows * dim_);
  DequantizeRange(MapView(), row0, nrows, rows.data());
  return rows;
}

BlockCache::Payload EmbeddingTier::AdmitColdReads(size_t b, size_t reads,
                                                  uint64_t stamp) const {
  // Ski rental. A cold read rents: it decodes only its own row. Buying
  // promotes the block: it decodes all block_rows rows. So a block rents
  // for block_rows - 1 reads, and the read (or batch) that brings its
  // count to block_rows buys. A call that lands while another buys may
  // buy too (the cache keeps one copy); the count restarts from zero
  // once a buy is done. The test subtracts instead of adding, so no
  // block_rows can make it wrap.
  std::atomic<size_t>& rent = cold_reads_[b];
  const size_t paid = rent.fetch_add(reads, std::memory_order_relaxed);
  if (paid < block_rows_ && reads < block_rows_ - paid) return nullptr;
  BlockCache::Payload block = LoadBlockPayload(b);
  cache_->Insert(b, block, BlockBytes(b), stamp);
  rent.store(0, std::memory_order_relaxed);
  return block;
}

StatusOr<const float*> EmbeddingTier::GetRow(size_t row) const {
  if (row >= n_) {
    return Status::OutOfRange("embedding tier row out of range");
  }
  auto& pins = BlockCache::ThreadPins();
  pins.clear();
  const size_t b = row / block_rows_;
  const size_t offset = (row - BlockRow0(b)) * dim_;
  const uint64_t stamp = cache_->BeginBatch();
  BlockCache::Payload block = cache_->Touch(b, stamp);
  if (block != nullptr) {
    cache_->CountAccess(1, 0);
  } else {
    cache_->CountAccess(0, 1);
    if (FailpointRegistry::Instance().AnyArmed()) {
      Status s = FailpointRegistry::Instance().Evaluate("embedding.tier.load");
      if (!s.ok()) {
        load_faults_.fetch_add(1, std::memory_order_relaxed);
        return s;
      }
    }
    block = AdmitColdReads(b, 1, stamp);
  }
  if (block != nullptr) {
    const float* ptr = BlockFloats(block) + offset;
    pins.push_back(std::move(block));
    return ptr;
  }
  auto decoded = std::make_shared<std::vector<float>>(dim_);
  DequantizeRange(MapView(), row, 1, decoded->data());
  const float* ptr = decoded->data();
  pins.push_back(std::move(decoded));
  return ptr;
}

void EmbeddingTier::MultiGetRows(std::span<const int64_t> rows,
                                 std::vector<const float*>* out) const {
  out->assign(rows.size(), nullptr);
  auto& pins = BlockCache::ThreadPins();
  pins.clear();

  // Valid slots sorted by row: each block's slots form one run, and
  // duplicate rows sit next to each other.
  std::vector<size_t> order;
  order.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= 0 && static_cast<size_t>(rows[i]) < n_) order.push_back(i);
  }
  if (order.empty()) return;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return rows[a] < rows[b]; });
  auto block_of = [&](size_t k) {
    return static_cast<size_t>(rows[order[k]]) / block_rows_;
  };
  auto serve_run = [&](size_t begin, size_t end, const float* block,
                       size_t b) {
    for (size_t k = begin; k < end; ++k) {
      const size_t r = static_cast<size_t>(rows[order[k]]);
      (*out)[order[k]] = block + (r - BlockRow0(b)) * dim_;
    }
  };

  // One stamp for the whole batch: a block counts one LRU access no
  // matter how many batch rows it serves.
  const uint64_t stamp = cache_->BeginBatch();
  struct ColdRun {
    size_t begin, end, b;
  };
  std::vector<ColdRun> cold;
  uint64_t row_hits = 0, row_misses = 0;
  for (size_t begin = 0, end; begin < order.size(); begin = end) {
    const size_t b = block_of(begin);
    end = begin + 1;
    while (end < order.size() && block_of(end) == b) ++end;
    BlockCache::Payload block = cache_->Touch(b, stamp);
    if (block == nullptr) {
      row_misses += end - begin;
      cold.push_back({begin, end, b});
      continue;
    }
    row_hits += end - begin;
    serve_run(begin, end, BlockFloats(block), b);
    pins.push_back(std::move(block));
  }
  cache_->CountAccess(row_hits, row_misses);
  if (cold.empty()) return;
  if (FailpointRegistry::Instance().AnyArmed()) {
    Status s = FailpointRegistry::Instance().Evaluate("embedding.tier.load");
    if (!s.ok()) {
      load_faults_.fetch_add(1, std::memory_order_relaxed);
      return;  // Cold slots degrade to misses (stay null).
    }
  }

  // Runs whose reads pay for their block are served from the promoted
  // block; the rest decode row by row into one per-call buffer (sized
  // per slot; duplicate rows decode once and leave their room unused).
  size_t decode_slots = 0;
  size_t kept = 0;
  for (const ColdRun& run : cold) {
    BlockCache::Payload block =
        AdmitColdReads(run.b, run.end - run.begin, stamp);
    if (block == nullptr) {
      decode_slots += run.end - run.begin;
      cold[kept++] = run;
      continue;
    }
    serve_run(run.begin, run.end, BlockFloats(block), run.b);
    pins.push_back(std::move(block));
  }
  cold.resize(kept);
  if (cold.empty()) return;
  auto decoded = std::make_shared<std::vector<float>>(decode_slots * dim_);
  const PackedCodesView view = MapView();
  float* next = decoded->data();
  const float* last = nullptr;
  for (const ColdRun& run : cold) {
    for (size_t k = run.begin; k < run.end; ++k) {
      if (k == run.begin || rows[order[k]] != rows[order[k - 1]]) {
        DequantizeRange(view, static_cast<size_t>(rows[order[k]]), 1, next);
        last = next;
        next += dim_;
      }
      (*out)[order[k]] = last;
    }
  }
  pins.push_back(std::move(decoded));
}

void EmbeddingTier::CopyRow(size_t row, float* out) const {
  MLFS_DCHECK(row < n_);
  const size_t b = row / block_rows_;
  BlockCache::Payload local = cache_->Peek(b);
  if (local != nullptr) {
    std::memcpy(out, BlockFloats(local) + (row - BlockRow0(b)) * dim_,
                dim_ * sizeof(float));
  } else {
    DequantizeRange(MapView(), row, 1, out);
  }
}

Status EmbeddingTier::ScanBlocks(
    const std::function<void(size_t row0, size_t nrows, const float* rows)>&
        fn) const {
  if (FailpointRegistry::Instance().AnyArmed()) {
    Status s = FailpointRegistry::Instance().Evaluate("embedding.tier.load");
    if (!s.ok()) {
      load_faults_.fetch_add(1, std::memory_order_relaxed);
      return s;
    }
  }
  scans_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t stamp = cache_->BeginBatch();
  std::vector<float> scratch;
  for (size_t b = 0; b < blocks_count_; ++b) {
    const size_t row0 = BlockRow0(b);
    const size_t nrows = BlockRows(b);
    // Refresh so a scan keeps the hot set warm, but never promote: a
    // full ANN pass must not flush the point-lookup working set.
    BlockCache::Payload local = cache_->Touch(b, stamp);
    if (local != nullptr) {
      fn(row0, nrows, BlockFloats(local));
      continue;
    }
    scan_cold_blocks_.fetch_add(1, std::memory_order_relaxed);
    scratch.resize(nrows * dim_);
    DequantizeRange(MapView(), row0, nrows, scratch.data());
    fn(row0, nrows, scratch.data());
  }
  return Status::OK();
}

void EmbeddingTier::SetHotLimit(size_t blocks) const {
  cache_->SetCapacity(blocks);
}

EmbeddingTierStats EmbeddingTier::stats() const {
  const BlockCacheStats cs = cache_->stats();
  EmbeddingTierStats s;
  s.hot_hits = cs.hits;
  s.cold_misses = cs.misses;
  s.promotions = cs.promotions;
  s.demotions = cs.evictions;
  s.scans = scans_.load(std::memory_order_relaxed);
  s.scan_cold_blocks = scan_cold_blocks_.load(std::memory_order_relaxed);
  s.load_faults = load_faults_.load(std::memory_order_relaxed);
  s.hot_blocks = cs.resident_blocks;
  s.total_blocks = cs.num_blocks;
  s.hot_limit_blocks = cs.capacity_blocks;
  s.resident_bytes = cs.resident_bytes;
  s.packed_bytes = file_->size();
  return s;
}

std::vector<std::pair<uint32_t, std::vector<float>>>
EmbeddingTier::HotBlocksSnapshot() const {
  std::vector<std::pair<uint32_t, std::vector<float>>> hot;
  for (auto& [b, payload] : cache_->ResidentSnapshot()) {
    hot.emplace_back(b,
                     *static_cast<const std::vector<float>*>(payload.get()));
  }
  return hot;
}

}  // namespace mlfs
