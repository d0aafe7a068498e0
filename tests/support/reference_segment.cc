#include "support/reference_segment.h"

#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/serde.h"
#include "io/block_file.h"
#include "storage/segment.h"

namespace mlfs {
namespace {

constexpr uint32_t kSegmentMagic = 0x47534c4d;  // "MLSG"
constexpr uint32_t kSegmentVersion = 1;

// Host-order fixed-width stores, as the format specifies.
void AppendU64(std::string* buf, uint64_t v) {
  buf->append(reinterpret_cast<const char*>(&v), 8);
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

StatusOr<std::string> ReferenceSegmentEncode(const SchemaPtr& schema,
                                             int64_t partition_id,
                                             int entity_idx, int time_idx,
                                             std::span<const Row> rows) {
  if (schema == nullptr) {
    return Status::InvalidArgument("segment needs a schema");
  }
  if (rows.empty()) {
    return Status::InvalidArgument("cannot seal an empty segment");
  }
  const size_t n = rows.size();
  const size_t ncols = schema->num_fields();
  if (entity_idx < 0 || static_cast<size_t>(entity_idx) >= ncols ||
      time_idx < 0 || static_cast<size_t>(time_idx) >= ncols) {
    return Status::InvalidArgument("segment entity/time index out of range");
  }
  if (schema->field(time_idx).type != FeatureType::kTimestamp) {
    return Status::InvalidArgument("segment time column is not a timestamp");
  }
  for (const Row& row : rows) {
    if (row.schema() == nullptr || !(*row.schema() == *schema)) {
      return Status::InvalidArgument("segment rows have mixed schemas");
    }
  }
  Timestamp min_ts = kMaxTimestamp;
  Timestamp max_ts = kMinTimestamp;
  for (const Row& row : rows) {
    const Value& tv = row.value(time_idx);
    if (tv.is_null()) {
      return Status::InvalidArgument("segment row has null event time");
    }
    min_ts = std::min(min_ts, tv.time_value());
    max_ts = std::max(max_ts, tv.time_value());
  }

  std::vector<std::string> col_bufs(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    const FeatureType type = schema->field(c).type;
    const ColumnEncoding enc = EncodingFor(type);
    std::string& buf = col_bufs[c];
    bool has_nulls = false;
    for (const Row& row : rows) {
      if (row.value(c).is_null()) {
        has_nulls = true;
        break;
      }
    }
    buf.push_back(has_nulls ? 1 : 0);
    if (has_nulls) {
      std::string bitmap((n + 7) / 8, '\0');
      for (size_t r = 0; r < n; ++r) {
        if (rows[r].value(c).is_null()) {
          bitmap[r >> 3] |= static_cast<char>(1u << (r & 7));
        }
      }
      buf.append(bitmap);
    }
    switch (enc) {
      case ColumnEncoding::kNullOnly:
        for (size_t r = 0; r < n; ++r) {
          if (!rows[r].value(c).is_null()) {
            return Status::InvalidArgument(
                "non-null value in a NULL-typed column");
          }
        }
        break;
      case ColumnEncoding::kRaw64:
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].value(c);
          uint64_t bits = 0;
          if (!v.is_null()) {
            if (type == FeatureType::kInt64) {
              bits = static_cast<uint64_t>(v.int64_value());
            } else {
              double d = v.double_value();
              std::memcpy(&bits, &d, 8);
            }
          }
          AppendU64(&buf, bits);
        }
        break;
      case ColumnEncoding::kBool:
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].value(c);
          buf.push_back(!v.is_null() && v.bool_value() ? 1 : 0);
        }
        break;
      case ColumnEncoding::kDeltaTimestamp: {
        // Null cells repeat the previous value (delta 0); the bitmap is
        // what makes them NULL on read.
        Timestamp prev = 0;
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].value(c);
          Timestamp t = v.is_null() ? prev : v.time_value();
          AppendVarint(&buf, ZigzagEncode(t - prev));
          prev = t;
        }
        break;
      }
      case ColumnEncoding::kDictionary: {
        // Dictionary in first-appearance order; null cells take code 0.
        std::unordered_map<std::string_view, uint32_t> dict;
        std::vector<std::string_view> dict_order;
        std::vector<uint32_t> codes(n, 0);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].value(c);
          if (v.is_null()) continue;
          std::string_view s = v.string_value();
          auto [it, inserted] =
              dict.emplace(s, static_cast<uint32_t>(dict_order.size()));
          if (inserted) dict_order.push_back(s);
          codes[r] = it->second;
        }
        AppendU32(&buf, static_cast<uint32_t>(dict_order.size()));
        for (uint32_t code : codes) AppendU32(&buf, code);
        uint32_t offset = 0;
        AppendU32(&buf, 0);
        for (std::string_view s : dict_order) {
          if (s.size() > UINT32_MAX - offset) {
            return Status::InvalidArgument("dictionary blob exceeds 4 GiB");
          }
          offset += static_cast<uint32_t>(s.size());
          AppendU32(&buf, offset);
        }
        for (std::string_view s : dict_order) buf.append(s);
        break;
      }
      case ColumnEncoding::kFloatList: {
        uint64_t fence = 0;
        AppendU64(&buf, 0);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].value(c);
          if (!v.is_null()) fence += v.embedding_value().size();
          AppendU64(&buf, fence);
        }
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].value(c);
          if (v.is_null()) continue;
          const std::vector<float>& e = v.embedding_value();
          buf.append(reinterpret_cast<const char*>(e.data()),
                     e.size() * sizeof(float));
        }
        break;
      }
    }
  }

  Encoder header;
  header.PutFixed64(static_cast<uint64_t>(partition_id));
  header.PutVarint64(static_cast<uint64_t>(entity_idx));
  header.PutVarint64(static_cast<uint64_t>(time_idx));
  header.PutSchema(*schema);
  header.PutVarint64(n);
  header.PutFixed64(static_cast<uint64_t>(min_ts));
  header.PutFixed64(static_cast<uint64_t>(max_ts));
  header.PutVarint64(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    header.PutU8(static_cast<uint8_t>(EncodingFor(schema->field(c).type)));
    header.PutFixed64(HashBytes(col_bufs[c]));
    header.PutVarint64(col_bufs[c].size());
  }

  std::string body = header.Release();
  for (const std::string& buf : col_bufs) body.append(buf);
  return BlockFile::Seal(kSegmentMagic, kSegmentVersion, body);
}

}  // namespace mlfs
