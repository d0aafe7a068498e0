#include "storage/segment.h"

#include <algorithm>
#include <cstring>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/serde.h"
#include "expr/column_batch.h"

namespace mlfs {
namespace {

constexpr uint32_t kSegmentMagic = 0x47534c4d;  // "MLSG"
constexpr uint32_t kSegmentVersion = 1;

// Raw little-endian-host loads/stores. The column buffers use memcpy'd host
// integers (like FastHash64) rather than the serde byte-by-byte codec: the
// sections are accessed in place through the file mapping, so load cost is
// what matters. Segments are scratch + checkpoint artifacts for one host,
// not a cross-architecture interchange format.
uint64_t LoadU64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

uint32_t LoadU32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void AppendU32(std::string* buf, uint32_t v) {
  buf->append(reinterpret_cast<const char*>(&v), 4);
}

void AppendVarint(std::string* buf, uint64_t v) {
  while (v >= 0x80) {
    buf->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf->push_back(static_cast<char>(v));
}

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t u) {
  return static_cast<int64_t>((u >> 1) ^ (0 - (u & 1)));
}

// Reads one varint from [p, end); advances *p. False on overrun/overlong.
bool ReadVarint(const unsigned char** p, const unsigned char* end,
                uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (*p < end && shift < 64) {
    unsigned char byte = **p;
    ++*p;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

ColumnEncoding EncodingFor(FeatureType type) {
  switch (type) {
    case FeatureType::kNull:
      return ColumnEncoding::kNullOnly;
    case FeatureType::kBool:
      return ColumnEncoding::kBool;
    case FeatureType::kInt64:
      return ColumnEncoding::kRaw64;
    case FeatureType::kDouble:
      return ColumnEncoding::kRaw64;
    case FeatureType::kString:
      return ColumnEncoding::kDictionary;
    case FeatureType::kTimestamp:
      return ColumnEncoding::kDeltaTimestamp;
    case FeatureType::kEmbedding:
      return ColumnEncoding::kFloatList;
  }
  return ColumnEncoding::kNullOnly;
}

}  // namespace

/// The one segment encoder. Two feeders fill it in row order — AddRow
/// from head rows, AddSegment from whole sealed segments — into per-column
/// pieces (null bitmap, fixed-width cells, varint deltas, dictionary codes
/// plus a flat interned dictionary, float fences plus floats), and Finish
/// lays the pieces out in the segment format. Whatever the feeder, the
/// bytes are those of encoding the decoded rows: null cells hold zero
/// bits, code 0, an unchanged fence or the previous timestamp, and
/// dictionaries list strings in first-appearance order.
class Segment::Builder {
 public:
  Builder(const SchemaPtr& schema, size_t num_rows)
      : schema_(schema), num_rows_(num_rows), cols_(schema->num_fields()) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      ColumnBuilder& b = cols_[c];
      b.type = schema->field(c).type;
      b.enc = EncodingFor(b.type);
      b.nulls.assign((num_rows + 7) / 8, 0);
      switch (b.enc) {
        case ColumnEncoding::kNullOnly:
          break;
        case ColumnEncoding::kRaw64:
          b.words.reserve(num_rows);
          break;
        case ColumnEncoding::kBool:
          b.bytes.reserve(num_rows);
          break;
        case ColumnEncoding::kDeltaTimestamp:
          b.varints.reserve(num_rows * 3);
          break;
        case ColumnEncoding::kDictionary:
          b.codes.reserve(num_rows);
          break;
        case ColumnEncoding::kFloatList:
          b.words.reserve(num_rows + 1);
          b.words.push_back(0);  // Fences start at zero.
          break;
      }
    }
  }

  /// Row feeder: appends one conforming row.
  Status AddRow(const Row& row, int time_idx) {
    // A head's rows usually share one schema object: the fields are
    // compared once per distinct object, not once per row.
    if (row.schema().get() != verified_schema_) {
      if (row.schema() == nullptr || !(*row.schema() == *schema_)) {
        return Status::InvalidArgument("segment rows have mixed schemas");
      }
      verified_schema_ = row.schema().get();
    }
    const std::vector<Value>& values = row.values();
    const Value& tv = values[time_idx];
    if (tv.is_null()) {
      return Status::InvalidArgument("segment row has null event time");
    }
    min_ts_ = std::min(min_ts_, tv.time_value());
    max_ts_ = std::max(max_ts_, tv.time_value());
    const size_t r = row_++;
    for (size_t c = 0; c < cols_.size(); ++c) {
      ColumnBuilder& b = cols_[c];
      const Value& v = values[c];
      if (v.is_null()) {
        b.PutNull(r);
        continue;
      }
      if (v.type() != b.type) {
        return Status::InvalidArgument(
            b.enc == ColumnEncoding::kNullOnly
                ? "non-null value in a NULL-typed column"
                : "segment cell does not match its column type");
      }
      switch (b.enc) {
        case ColumnEncoding::kNullOnly:
          break;  // Unreachable: a kNull value is null.
        case ColumnEncoding::kRaw64: {
          uint64_t bits;
          if (b.type == FeatureType::kInt64) {
            bits = static_cast<uint64_t>(v.int64_value());
          } else {
            const double d = v.double_value();
            std::memcpy(&bits, &d, 8);
          }
          b.words.push_back(bits);
          break;
        }
        case ColumnEncoding::kBool:
          b.bytes.push_back(v.bool_value() ? 1 : 0);
          break;
        case ColumnEncoding::kDeltaTimestamp:
          b.PutTime(v.time_value());
          break;
        case ColumnEncoding::kDictionary:
          b.codes.push_back(b.dict.Intern(v.string_value()));
          break;
        case ColumnEncoding::kFloatList: {
          const std::vector<float>& e = v.embedding_value();
          b.floats.append(reinterpret_cast<const char*>(e.data()),
                          e.size() * sizeof(float));
          b.words.push_back(b.words.back() + e.size());
          break;
        }
      }
    }
    return Status::OK();
  }

  /// Segment feeder: appends every row of a sealed segment (resident or
  /// spilled) column to column, without building a Row.
  Status AddSegment(const Segment& seg) {
    if (!(*seg.schema_ == *schema_)) {
      return Status::InvalidArgument("merged segments have mixed schemas");
    }
    const size_t m = seg.num_rows_;
    const size_t base = row_;
    const Column& tcol = seg.cols_[seg.time_idx_];
    if (tcol.nulls != nullptr) {
      for (size_t r = 0; r < m; ++r) {
        if (seg.NullBit(tcol, r)) {
          return Status::InvalidArgument("segment row has null event time");
        }
      }
    }
    min_ts_ = std::min(min_ts_, seg.min_ts_);
    max_ts_ = std::max(max_ts_, seg.max_ts_);
    for (size_t c = 0; c < cols_.size(); ++c) {
      ColumnBuilder& b = cols_[c];
      const Column& in = seg.cols_[c];
      const bool has_nulls =
          in.nulls != nullptr && OrBits(in.nulls, m, base, &b.nulls);
      b.has_nulls |= has_nulls;
      auto is_null = [&](size_t r) { return has_nulls && seg.NullBit(in, r); };
      switch (b.enc) {
        case ColumnEncoding::kNullOnly:
          break;  // Parse guarantees every bit is set.
        case ColumnEncoding::kRaw64: {
          const size_t at = b.words.size();
          b.words.resize(at + m);
          std::memcpy(b.words.data() + at, in.data, 8 * m);
          if (has_nulls) {
            for (size_t r = 0; r < m; ++r) {
              if (seg.NullBit(in, r)) b.words[at + r] = 0;
            }
          }
          break;
        }
        case ColumnEncoding::kBool: {
          const size_t at = b.bytes.size();
          b.bytes.insert(b.bytes.end(), in.data, in.data + m);
          if (has_nulls) {
            for (size_t r = 0; r < m; ++r) {
              if (seg.NullBit(in, r)) b.bytes[at + r] = 0;
            }
          }
          break;
        }
        case ColumnEncoding::kDeltaTimestamp: {
          // Re-delta from the resident decoded stream; a null cell repeats
          // the previous value of the merged stream, not of its source.
          const std::vector<Timestamp>& ts = seg.delta_cols_[c];
          for (size_t r = 0; r < m; ++r) {
            b.PutTime(is_null(r) ? b.prev : ts[r]);
          }
          break;
        }
        case ColumnEncoding::kDictionary: {
          // Source codes are remapped on first sight, so the merged
          // dictionary keeps first-appearance order over the merged rows.
          constexpr uint32_t kUnmapped = UINT32_MAX;
          remap_.assign(in.dict_count, kUnmapped);
          for (size_t r = 0; r < m; ++r) {
            if (is_null(r)) {
              b.codes.push_back(0);
              continue;
            }
            const uint32_t code = LoadU32(in.codes + 4 * r);
            uint32_t& to = remap_[code];
            if (to == kUnmapped) {
              const uint32_t beg = LoadU32(in.dict_offsets + 4 * code);
              const uint32_t end = LoadU32(in.dict_offsets + 4 * (code + 1));
              to = b.dict.Intern(std::string_view(
                  reinterpret_cast<const char*>(in.dict_blob) + beg,
                  end - beg));
            }
            b.codes.push_back(to);
          }
          break;
        }
        case ColumnEncoding::kFloatList: {
          const uint64_t fence_base = b.words.back();
          if (!has_nulls) {
            // Rebase the fences; the float blob is already contiguous.
            for (size_t r = 1; r <= m; ++r) {
              b.words.push_back(fence_base + LoadU64(in.fences + 8 * r));
            }
            b.floats.append(reinterpret_cast<const char*>(in.floats),
                            4 * LoadU64(in.fences + 8 * m));
            break;
          }
          for (size_t r = 0; r < m; ++r) {
            uint64_t fence = b.words.back();
            if (!seg.NullBit(in, r)) {
              const uint64_t beg = LoadU64(in.fences + 8 * r);
              const uint64_t end = LoadU64(in.fences + 8 * r + 8);
              b.floats.append(
                  reinterpret_cast<const char*>(in.floats + 4 * beg),
                  4 * (end - beg));
              fence += end - beg;
            }
            b.words.push_back(fence);
          }
          break;
        }
      }
    }
    row_ += m;
    return Status::OK();
  }

  /// Lays the columns out behind the header and seals the envelope.
  StatusOr<std::string> Finish(int64_t partition_id, int entity_idx,
                               int time_idx) {
    MLFS_DCHECK(row_ == num_rows_);
    const size_t ncols = cols_.size();
    std::vector<std::vector<std::string_view>> pieces(ncols);
    std::vector<std::string> dict_fixed(ncols);  // Count, codes, offsets.
    for (size_t c = 0; c < ncols; ++c) {
      ColumnBuilder& b = cols_[c];
      std::vector<std::string_view>& p = pieces[c];
      static constexpr char kHasNulls[2] = {0, 1};
      p.push_back(std::string_view(&kHasNulls[b.has_nulls ? 1 : 0], 1));
      if (b.has_nulls) p.push_back(Bytes(b.nulls.data(), b.nulls.size()));
      switch (b.enc) {
        case ColumnEncoding::kNullOnly:
          break;
        case ColumnEncoding::kRaw64:
          p.push_back(Bytes(b.words.data(), 8 * b.words.size()));
          break;
        case ColumnEncoding::kFloatList:
          p.push_back(Bytes(b.words.data(), 8 * b.words.size()));
          p.push_back(b.floats);
          break;
        case ColumnEncoding::kBool:
          p.push_back(Bytes(b.bytes.data(), b.bytes.size()));
          break;
        case ColumnEncoding::kDeltaTimestamp:
          p.push_back(b.varints);
          break;
        case ColumnEncoding::kDictionary: {
          if (b.dict.overflow()) {
            return Status::InvalidArgument("dictionary blob exceeds 4 GiB");
          }
          std::string& fixed = dict_fixed[c];
          const std::vector<uint32_t>& offsets = b.dict.offsets();
          AppendU32(&fixed, static_cast<uint32_t>(offsets.size() - 1));
          p.push_back(fixed);
          p.push_back(Bytes(b.codes.data(), 4 * b.codes.size()));
          p.push_back(Bytes(offsets.data(), 4 * offsets.size()));
          p.push_back(b.dict.blob());
          break;
        }
      }
    }
    Encoder header;
    header.PutFixed64(static_cast<uint64_t>(partition_id));
    header.PutVarint64(static_cast<uint64_t>(entity_idx));
    header.PutVarint64(static_cast<uint64_t>(time_idx));
    header.PutSchema(*schema_);
    header.PutVarint64(num_rows_);
    header.PutFixed64(static_cast<uint64_t>(min_ts_));
    header.PutFixed64(static_cast<uint64_t>(max_ts_));
    header.PutVarint64(ncols);
    size_t total = 0;
    for (size_t c = 0; c < ncols; ++c) {
      // A column's checksum is FNV-1a over its section; chaining the hash
      // through the pieces equals hashing them concatenated.
      uint64_t hash = HashBytes("");
      size_t len = 0;
      for (std::string_view piece : pieces[c]) {
        hash = Fnv1a64(piece.data(), piece.size(), hash);
        len += piece.size();
      }
      header.PutU8(static_cast<uint8_t>(cols_[c].enc));
      header.PutFixed64(hash);
      header.PutVarint64(len);
      total += len;
    }
    std::string body = header.Release();
    body.reserve(body.size() + total);
    for (const std::vector<std::string_view>& p : pieces) {
      for (std::string_view piece : p) body.append(piece);
    }
    // The envelope trailer is Fnv1a64(body), the same checksum the
    // pre-BlockFile format wrote, so the blob bytes are unchanged.
    return BlockFile::Seal(kSegmentMagic, kSegmentVersion, body);
  }

 private:
  /// Interns strings into one flat blob in first-appearance order, behind
  /// an open-addressing table of codes (no node or string per entry).
  class Dictionary {
   public:
    Dictionary() : offsets_{0} {}

    uint32_t Intern(std::string_view s) {
      if (slots_.empty() || 2 * (hashes_.size() + 1) > slots_.size()) {
        Grow();
      }
      const uint64_t h = FastHash64(s.data(), s.size());
      const size_t mask = slots_.size() - 1;
      for (size_t i = h & mask;; i = (i + 1) & mask) {
        const uint32_t slot = slots_[i];
        if (slot == 0) {
          const uint32_t code = static_cast<uint32_t>(hashes_.size());
          slots_[i] = code + 1;
          hashes_.push_back(h);
          if (s.size() > UINT32_MAX - blob_.size()) overflow_ = true;
          blob_.append(s);
          offsets_.push_back(static_cast<uint32_t>(blob_.size()));
          return code;
        }
        const uint32_t code = slot - 1;
        if (hashes_[code] == h && Get(code) == s) return code;
      }
    }

    const std::string& blob() const { return blob_; }
    const std::vector<uint32_t>& offsets() const { return offsets_; }
    bool overflow() const { return overflow_; }

   private:
    std::string_view Get(uint32_t code) const {
      return std::string_view(blob_).substr(
          offsets_[code], offsets_[code + 1] - offsets_[code]);
    }

    void Grow() {
      const size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
      slots_.assign(cap, 0);
      const size_t mask = cap - 1;
      for (uint32_t code = 0; code < hashes_.size(); ++code) {
        size_t i = hashes_[code] & mask;
        while (slots_[i] != 0) i = (i + 1) & mask;
        slots_[i] = code + 1;
      }
    }

    std::string blob_;
    std::vector<uint32_t> offsets_;  // Code fences into blob_.
    std::vector<uint64_t> hashes_;   // Per code.
    std::vector<uint32_t> slots_;    // code + 1; 0 is empty.
    bool overflow_ = false;
  };

  struct ColumnBuilder {
    FeatureType type = FeatureType::kNull;
    ColumnEncoding enc = ColumnEncoding::kNullOnly;
    bool has_nulls = false;
    std::vector<uint8_t> nulls;   // Bitmap over every row.
    std::vector<uint64_t> words;  // kRaw64 bits, or kFloatList fences.
    std::vector<uint8_t> bytes;   // kBool.
    std::string varints;          // kDeltaTimestamp zigzag deltas.
    Timestamp prev = 0;           // kDeltaTimestamp previous value.
    std::vector<uint32_t> codes;  // kDictionary.
    Dictionary dict;              // kDictionary.
    std::string floats;           // kFloatList.

    void PutTime(Timestamp t) {
      AppendVarint(&varints, ZigzagEncode(t - prev));
      prev = t;
    }

    void PutNull(size_t r) {
      has_nulls = true;
      nulls[r >> 3] |= static_cast<uint8_t>(1u << (r & 7));
      switch (enc) {
        case ColumnEncoding::kNullOnly:
          break;
        case ColumnEncoding::kRaw64:
          words.push_back(0);
          break;
        case ColumnEncoding::kBool:
          bytes.push_back(0);
          break;
        case ColumnEncoding::kDeltaTimestamp:
          PutTime(prev);
          break;
        case ColumnEncoding::kDictionary:
          codes.push_back(0);
          break;
        case ColumnEncoding::kFloatList:
          words.push_back(words.back());
          break;
      }
    }
  };

  static std::string_view Bytes(const void* p, size_t n) {
    return std::string_view(static_cast<const char*>(p), n);
  }

  /// ORs the first `nbits` bits of `src` into `dst` starting at bit `at`,
  /// a byte at a time; returns whether any of them was set.
  static bool OrBits(const unsigned char* src, size_t nbits, size_t at,
                     std::vector<uint8_t>* dst) {
    const size_t shift = at & 7;
    uint8_t* out = dst->data() + (at >> 3);
    unsigned any = 0;
    for (size_t j = 0; j < (nbits + 7) / 8; ++j) {
      unsigned byte = src[j];
      if (j == nbits / 8) byte &= (1u << (nbits & 7)) - 1;  // Tail bits.
      any |= byte;
      out[j] |= static_cast<uint8_t>(byte << shift);
      if (shift != 0 && (byte >> (8 - shift)) != 0) {
        out[j + 1] |= static_cast<uint8_t>(byte >> (8 - shift));
      }
    }
    return any != 0;
  }

  SchemaPtr schema_;
  const Schema* verified_schema_ = schema_.get();  // Last equal row schema.
  size_t num_rows_;
  size_t row_ = 0;
  Timestamp min_ts_ = kMaxTimestamp;
  Timestamp max_ts_ = kMinTimestamp;
  std::vector<ColumnBuilder> cols_;
  std::vector<uint32_t> remap_;  // AddSegment's dictionary code remap.
};

namespace {

/// Shared argument checks of both feeders.
Status CheckEncodeArgs(const SchemaPtr& schema, int entity_idx, int time_idx,
                       size_t num_rows) {
  if (schema == nullptr) {
    return Status::InvalidArgument("segment needs a schema");
  }
  if (num_rows == 0) {
    return Status::InvalidArgument("cannot seal an empty segment");
  }
  const size_t ncols = schema->num_fields();
  if (entity_idx < 0 || static_cast<size_t>(entity_idx) >= ncols ||
      time_idx < 0 || static_cast<size_t>(time_idx) >= ncols) {
    return Status::InvalidArgument("segment entity/time index out of range");
  }
  if (schema->field(time_idx).type != FeatureType::kTimestamp) {
    return Status::InvalidArgument("segment time column is not a timestamp");
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::string> Segment::Encode(const SchemaPtr& schema,
                                      int64_t partition_id, int entity_idx,
                                      int time_idx,
                                      std::span<const Row> rows) {
  MLFS_RETURN_IF_ERROR(
      CheckEncodeArgs(schema, entity_idx, time_idx, rows.size()));
  Builder builder(schema, rows.size());
  for (const Row& row : rows) {
    MLFS_RETURN_IF_ERROR(builder.AddRow(row, time_idx));
  }
  return builder.Finish(partition_id, entity_idx, time_idx);
}

StatusOr<std::string> Segment::Merge(
    const SchemaPtr& schema, int64_t partition_id, int entity_idx,
    int time_idx, std::span<const std::shared_ptr<const Segment>> segments) {
  size_t total = 0;
  for (const auto& seg : segments) total += seg->num_rows();
  MLFS_RETURN_IF_ERROR(CheckEncodeArgs(schema, entity_idx, time_idx, total));
  Builder builder(schema, total);
  for (const auto& seg : segments) {
    if (seg->partition_id() != partition_id ||
        seg->entity_idx() != entity_idx || seg->time_idx() != time_idx) {
      return Status::InvalidArgument(
          "merged segments differ in partition or key/time columns");
    }
    MLFS_RETURN_IF_ERROR(builder.AddSegment(*seg));
  }
  return builder.Finish(partition_id, entity_idx, time_idx);
}

Status Segment::Parse() {
  // The envelope (magic, version, length, body checksum) was validated by
  // the BlockFile factory; everything here is body-internal structure.
  const std::string_view body = file_->body();
  Decoder dec(body);
  MLFS_ASSIGN_OR_RETURN(uint64_t pid_bits, dec.GetFixed64());
  partition_id_ = static_cast<int64_t>(pid_bits);
  MLFS_ASSIGN_OR_RETURN(uint64_t eidx, dec.GetVarint64());
  MLFS_ASSIGN_OR_RETURN(uint64_t tidx, dec.GetVarint64());
  MLFS_ASSIGN_OR_RETURN(schema_, dec.GetSchema());
  MLFS_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarint64());
  MLFS_ASSIGN_OR_RETURN(uint64_t min_bits, dec.GetFixed64());
  MLFS_ASSIGN_OR_RETURN(uint64_t max_bits, dec.GetFixed64());
  min_ts_ = static_cast<Timestamp>(min_bits);
  max_ts_ = static_cast<Timestamp>(max_bits);
  MLFS_ASSIGN_OR_RETURN(uint64_t ncols, dec.GetVarint64());
  if (n == 0) return Status::Corruption("segment: zero rows");
  if (ncols != schema_->num_fields()) {
    return Status::Corruption("segment: column count does not match schema");
  }
  if (eidx >= ncols || tidx >= ncols) {
    return Status::Corruption("segment: entity/time index out of range");
  }
  entity_idx_ = static_cast<int>(eidx);
  time_idx_ = static_cast<int>(tidx);
  const FieldSpec& efield = schema_->field(entity_idx_);
  if (efield.type != FeatureType::kInt64 &&
      efield.type != FeatureType::kString) {
    return Status::Corruption("segment: entity column is not INT64/STRING");
  }
  if (schema_->field(time_idx_).type != FeatureType::kTimestamp) {
    return Status::Corruption("segment: time column is not TIMESTAMP");
  }
  num_rows_ = n;

  struct ColMeta {
    ColumnEncoding enc;
    uint64_t hash;
    uint64_t len;
  };
  std::vector<ColMeta> metas;
  metas.reserve(ncols);
  uint64_t cols_total = 0;
  for (size_t c = 0; c < ncols; ++c) {
    MLFS_ASSIGN_OR_RETURN(uint8_t enc_byte, dec.GetU8());
    if (enc_byte > static_cast<uint8_t>(ColumnEncoding::kFloatList)) {
      return Status::Corruption("segment: unknown column encoding");
    }
    MLFS_ASSIGN_OR_RETURN(uint64_t hash, dec.GetFixed64());
    MLFS_ASSIGN_OR_RETURN(uint64_t len, dec.GetVarint64());
    metas.push_back({static_cast<ColumnEncoding>(enc_byte), hash, len});
    cols_total += len;
  }
  if (dec.remaining() != cols_total) {
    return Status::Corruption("segment: column sections do not fill the body");
  }

  const unsigned char* cursor =
      reinterpret_cast<const unsigned char*>(body.data()) +
      (body.size() - dec.remaining());
  cols_.resize(ncols);
  delta_cols_.assign(ncols, {});
  const size_t bitmap_bytes = (n + 7) / 8;
  for (size_t c = 0; c < ncols; ++c) {
    const ColMeta& meta = metas[c];
    if (meta.enc != EncodingFor(schema_->field(c).type)) {
      return Status::Corruption(
          "segment: column encoding does not match schema type");
    }
    const unsigned char* buf = cursor;
    cursor += meta.len;
    if (HashBytes(std::string_view(reinterpret_cast<const char*>(buf),
                                   meta.len)) != meta.hash) {
      return Status::Corruption("segment: column " + std::to_string(c) +
                                " checksum mismatch");
    }
    Column& col = cols_[c];
    col.enc = meta.enc;
    if (meta.len < 1) {
      return Status::Corruption("segment: column section truncated");
    }
    const bool has_nulls = buf[0] != 0;
    size_t pos = 1;
    if (has_nulls) {
      if (meta.len < pos + bitmap_bytes) {
        return Status::Corruption("segment: null bitmap truncated");
      }
      col.nulls = buf + pos;
      pos += bitmap_bytes;
    }
    col.data = buf + pos;
    col.data_len = meta.len - pos;
    const auto data_end = col.data + col.data_len;
    switch (col.enc) {
      case ColumnEncoding::kNullOnly:
        if (col.data_len != 0) {
          return Status::Corruption("segment: NULL column carries data");
        }
        if (!has_nulls) {
          return Status::Corruption("segment: NULL column without null bits");
        }
        for (size_t r = 0; r < n; ++r) {
          if (!NullBit(col, r)) {
            return Status::Corruption(
                "segment: NULL column has a non-null row");
          }
        }
        break;
      case ColumnEncoding::kRaw64:
        if (col.data_len != 8 * n) {
          return Status::Corruption("segment: raw64 column has wrong size");
        }
        break;
      case ColumnEncoding::kBool:
        if (col.data_len != n) {
          return Status::Corruption("segment: bool column has wrong size");
        }
        for (size_t r = 0; r < n; ++r) {
          if (col.data[r] > 1) {
            return Status::Corruption("segment: bool column byte not 0/1");
          }
        }
        break;
      case ColumnEncoding::kDeltaTimestamp: {
        std::vector<Timestamp>& decoded = delta_cols_[c];
        decoded.reserve(n);
        const unsigned char* p = col.data;
        Timestamp prev = 0;
        for (size_t r = 0; r < n; ++r) {
          uint64_t u;
          if (!ReadVarint(&p, data_end, &u)) {
            return Status::Corruption("segment: timestamp stream truncated");
          }
          prev += ZigzagDecode(u);
          decoded.push_back(prev);
        }
        if (p != data_end) {
          return Status::Corruption(
              "segment: timestamp stream has trailing bytes");
        }
        break;
      }
      case ColumnEncoding::kDictionary: {
        if (col.data_len < 4) {
          return Status::Corruption("segment: dictionary header truncated");
        }
        col.dict_count = LoadU32(col.data);
        const uint64_t fixed =
            4 + 4 * static_cast<uint64_t>(n) +
            4 * (static_cast<uint64_t>(col.dict_count) + 1);
        if (col.data_len < fixed) {
          return Status::Corruption("segment: dictionary sections truncated");
        }
        col.codes = col.data + 4;
        col.dict_offsets = col.codes + 4 * n;
        col.dict_blob = col.dict_offsets + 4 * (col.dict_count + 1);
        const uint64_t blob_len = col.data_len - fixed;
        if (LoadU32(col.dict_offsets) != 0) {
          return Status::Corruption(
              "segment: dictionary offsets do not start at 0");
        }
        for (uint32_t d = 0; d < col.dict_count; ++d) {
          if (LoadU32(col.dict_offsets + 4 * d) >
              LoadU32(col.dict_offsets + 4 * (d + 1))) {
            return Status::Corruption(
                "segment: dictionary offsets not monotonic");
          }
        }
        if (LoadU32(col.dict_offsets + 4 * col.dict_count) != blob_len) {
          return Status::Corruption(
              "segment: dictionary blob length mismatch");
        }
        for (size_t r = 0; r < n; ++r) {
          if (NullBit(col, r)) continue;
          if (LoadU32(col.codes + 4 * r) >= col.dict_count) {
            return Status::Corruption(
                "segment: dictionary code out of range");
          }
        }
        break;
      }
      case ColumnEncoding::kFloatList: {
        const uint64_t fences_len = 8 * (static_cast<uint64_t>(n) + 1);
        if (col.data_len < fences_len) {
          return Status::Corruption("segment: float fences truncated");
        }
        col.fences = col.data;
        col.floats = col.data + fences_len;
        const uint64_t floats_len = col.data_len - fences_len;
        if (floats_len % 4 != 0) {
          return Status::Corruption("segment: float blob misaligned");
        }
        if (LoadU64(col.fences) != 0) {
          return Status::Corruption("segment: float fences not zero-based");
        }
        for (size_t r = 0; r < n; ++r) {
          if (LoadU64(col.fences + 8 * r) > LoadU64(col.fences + 8 * r + 8)) {
            return Status::Corruption("segment: float fences not monotonic");
          }
        }
        if (LoadU64(col.fences + 8 * n) != floats_len / 4) {
          return Status::Corruption("segment: float blob length mismatch");
        }
        break;
      }
    }
  }

  // The time column must be delta-encoded (verified above via EncodingFor)
  // and its decoded stream must agree with the header's min/max.
  const std::vector<Timestamp>& ts = delta_cols_[time_idx_];
  Timestamp lo = kMaxTimestamp;
  Timestamp hi = kMinTimestamp;
  for (Timestamp t : ts) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  if (lo != min_ts_ || hi != max_ts_) {
    return Status::Corruption("segment: min/max event time mismatch");
  }
  return Status::OK();
}

StatusOr<std::shared_ptr<const Segment>> Segment::FromBlockFile(
    BlockFilePtr file) {
  std::shared_ptr<Segment> seg(new Segment());
  seg->file_ = std::move(file);
  seg->data_ = seg->file_->data();
  MLFS_RETURN_IF_ERROR(seg->Parse());
  return std::shared_ptr<const Segment>(std::move(seg));
}

StatusOr<std::shared_ptr<const Segment>> Segment::FromBytes(
    std::string bytes) {
  MLFS_ASSIGN_OR_RETURN(BlockFilePtr file,
                        BlockFile::FromBytes(kSegmentMagic, kSegmentVersion,
                                             std::move(bytes), "segment"));
  return FromBlockFile(std::move(file));
}

StatusOr<std::shared_ptr<const Segment>> Segment::FromFile(
    std::string path, bool remove_file_on_destroy) {
  MLFS_FAILPOINT("segment.open");
  MLFS_ASSIGN_OR_RETURN(
      BlockFilePtr file,
      BlockFile::Map(kSegmentMagic, kSegmentVersion, std::move(path),
                     remove_file_on_destroy, "segment"));
  return FromBlockFile(std::move(file));
}

StatusOr<std::shared_ptr<const Segment>> Segment::SpillToFile(
    const Segment& seg, std::string path, bool remove_file_on_destroy) {
  // Same fault surface as FromFile: a spill ends in a (re)open, and the
  // fault suite arms "segment.open" to fail that reopen.
  MLFS_FAILPOINT("segment.open");
  MLFS_ASSIGN_OR_RETURN(
      BlockFilePtr file,
      BlockFile::Spill(kSegmentMagic, kSegmentVersion, seg.encoded(),
                       std::move(path), remove_file_on_destroy, "segment"));
  return FromBlockFile(std::move(file));
}

size_t Segment::resident_bytes() const {
  size_t total = spilled() ? 0 : data_.size();
  for (const std::vector<Timestamp>& d : delta_cols_) {
    total += d.size() * sizeof(Timestamp);
  }
  return total;
}

bool Segment::is_null(size_t col, size_t row) const {
  MLFS_DCHECK(col < cols_.size() && row < num_rows_);
  return NullBit(cols_[col], row);
}

Value Segment::value(size_t col, size_t row) const {
  MLFS_DCHECK(col < cols_.size() && row < num_rows_);
  const Column& c = cols_[col];
  if (NullBit(c, row)) return Value::Null();
  switch (c.enc) {
    case ColumnEncoding::kNullOnly:
      return Value::Null();
    case ColumnEncoding::kRaw64: {
      const uint64_t bits = LoadU64(c.data + 8 * row);
      if (schema_->field(col).type == FeatureType::kInt64) {
        return Value::Int64(static_cast<int64_t>(bits));
      }
      double d;
      std::memcpy(&d, &bits, 8);
      return Value::Double(d);
    }
    case ColumnEncoding::kBool:
      return Value::Bool(c.data[row] != 0);
    case ColumnEncoding::kDeltaTimestamp:
      return Value::Time(delta_cols_[col][row]);
    case ColumnEncoding::kDictionary: {
      const uint32_t code = LoadU32(c.codes + 4 * row);
      const uint32_t beg = LoadU32(c.dict_offsets + 4 * code);
      const uint32_t end = LoadU32(c.dict_offsets + 4 * (code + 1));
      return Value::String(
          std::string(reinterpret_cast<const char*>(c.dict_blob) + beg,
                      end - beg));
    }
    case ColumnEncoding::kFloatList: {
      const uint64_t beg = LoadU64(c.fences + 8 * row);
      const uint64_t end = LoadU64(c.fences + 8 * row + 8);
      std::vector<float> floats(end - beg);
      std::memcpy(floats.data(), c.floats + 4 * beg, 4 * (end - beg));
      return Value::Embedding(std::move(floats));
    }
  }
  return Value::Null();
}

void Segment::AppendProjected(size_t row, std::span<const int> cols,
                              std::vector<Value>* out) const {
  for (int c : cols) out->push_back(value(static_cast<size_t>(c), row));
}

void Segment::LoadColumn(size_t col, std::span<const uint32_t> rows,
                         ColumnVector* out) const {
  MLFS_DCHECK(col < cols_.size());
  const Column& c = cols_[col];
  const FeatureType type = schema_->field(col).type;
  const size_t n = rows.size();
  out->Reset(type, n);
  switch (c.enc) {
    case ColumnEncoding::kNullOnly:
      break;  // Reset(kNull) already marked every cell NULL.
    case ColumnEncoding::kRaw64: {
      if (type == FeatureType::kInt64) {
        int64_t* o = out->i64();
        for (size_t i = 0; i < n; ++i) {
          o[i] = static_cast<int64_t>(LoadU64(c.data + 8 * rows[i]));
        }
      } else {
        double* o = out->f64();
        for (size_t i = 0; i < n; ++i) {
          const uint64_t bits = LoadU64(c.data + 8 * rows[i]);
          std::memcpy(&o[i], &bits, 8);
        }
      }
      break;
    }
    case ColumnEncoding::kBool: {
      uint8_t* o = out->b8();
      for (size_t i = 0; i < n; ++i) o[i] = c.data[rows[i]] != 0;
      break;
    }
    case ColumnEncoding::kDeltaTimestamp: {
      const std::vector<Timestamp>& ts = delta_cols_[col];
      int64_t* o = out->i64();
      for (size_t i = 0; i < n; ++i) o[i] = ts[rows[i]];
      break;
    }
    case ColumnEncoding::kDictionary: {
      // Hand the VM a dictionary *view* — 4 bytes of code per row plus
      // borrowed dictionary buffers (the segment outlives the scan) —
      // instead of copying every string. String predicates then evaluate
      // once per distinct code; per-cell reads go through StringAt
      // transparently.
      out->ResetDictionary(n, c.dict_count, c.dict_offsets, c.dict_blob);
      uint32_t* codes = out->codes();
      for (size_t i = 0; i < n; ++i) codes[i] = LoadU32(c.codes + 4 * rows[i]);
      break;  // Null bits from the shared bitmap loop below.
    }
    case ColumnEncoding::kFloatList: {
      for (size_t i = 0; i < n; ++i) {
        if (NullBit(c, rows[i])) {
          out->AppendNullCell();
          continue;
        }
        const uint64_t beg = LoadU64(c.fences + 8 * rows[i]);
        const uint64_t end = LoadU64(c.fences + 8 * rows[i] + 8);
        out->AppendEmbeddingBytes(c.floats + 4 * beg, end - beg);
      }
      return;
    }
  }
  if (c.nulls != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (NullBit(c, rows[i])) out->SetNull(i);
    }
  }
}

}  // namespace mlfs
