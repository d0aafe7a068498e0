#include "common/value.h"

#include <cmath>
#include <cstdio>

#include "common/hash.h"

namespace mlfs {

std::string_view FeatureTypeToString(FeatureType type) {
  switch (type) {
    case FeatureType::kNull:
      return "NULL";
    case FeatureType::kBool:
      return "BOOL";
    case FeatureType::kInt64:
      return "INT64";
    case FeatureType::kDouble:
      return "DOUBLE";
    case FeatureType::kString:
      return "STRING";
    case FeatureType::kTimestamp:
      return "TIMESTAMP";
    case FeatureType::kEmbedding:
      return "EMBEDDING";
  }
  return "UNKNOWN";
}

StatusOr<double> Value::AsDouble() const {
  switch (type_) {
    case FeatureType::kBool:
      return bool_value() ? 1.0 : 0.0;
    case FeatureType::kInt64:
      return static_cast<double>(int64_value());
    case FeatureType::kDouble:
      return double_value();
    default:
      return Status::InvalidArgument(
          std::string("cannot coerce ") +
          std::string(FeatureTypeToString(type_)) + " to double");
  }
}

std::string Value::ToString() const {
  char buf[64];
  switch (type_) {
    case FeatureType::kNull:
      return "NULL";
    case FeatureType::kBool:
      return bool_value() ? "true" : "false";
    case FeatureType::kInt64:
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(int64_value()));
      return buf;
    case FeatureType::kDouble:
      std::snprintf(buf, sizeof(buf), "%.6g", double_value());
      return buf;
    case FeatureType::kString:
      return "\"" + string_value() + "\"";
    case FeatureType::kTimestamp:
      return FormatTimestamp(time_value());
    case FeatureType::kEmbedding: {
      const auto& e = embedding_value();
      std::string out = "emb[" + std::to_string(e.size()) + "](";
      for (size_t i = 0; i < e.size() && i < 3; ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.3f", i ? ", " : "",
                      static_cast<double>(e[i]));
        out += buf;
      }
      if (e.size() > 3) out += ", ...";
      out += ")";
      return out;
    }
  }
  return "?";
}

uint64_t HashValue(const Value& v) {
  uint64_t seed = MixHash(static_cast<uint64_t>(v.type()) + 0x51ULL);
  switch (v.type()) {
    case FeatureType::kNull:
      return seed;
    case FeatureType::kBool:
      return HashCombine(seed, v.bool_value() ? 1 : 0);
    case FeatureType::kInt64:
      return HashCombine(seed, MixHash(static_cast<uint64_t>(v.int64_value())));
    case FeatureType::kDouble: {
      double d = v.double_value();
      if (d == 0.0) d = 0.0;  // Collapse -0.0 and +0.0.
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      return HashCombine(seed, MixHash(bits));
    }
    case FeatureType::kString:
      return HashCombine(seed, HashBytes(v.string_value()));
    case FeatureType::kTimestamp:
      return HashCombine(seed, MixHash(static_cast<uint64_t>(v.time_value())));
    case FeatureType::kEmbedding: {
      const auto& e = v.embedding_value();
      return HashCombine(seed,
                         Fnv1a64(e.data(), e.size() * sizeof(float)));
    }
  }
  return seed;
}

}  // namespace mlfs
