#ifndef MLFS_COMMON_VALUE_H_
#define MLFS_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/timestamp.h"

namespace mlfs {

/// Type of a feature value.
///
/// `kEmbedding` makes dense float vectors a first-class feature type — the
/// paper's central thesis is that feature stores must treat embeddings as
/// first-class citizens rather than opaque blobs.
enum class FeatureType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
  kTimestamp = 5,
  kEmbedding = 6,
};

/// Human-readable type name ("INT64", "EMBEDDING", ...).
std::string_view FeatureTypeToString(FeatureType type);

/// True for types on which arithmetic is defined (bool/int64/double).
constexpr bool IsNumeric(FeatureType type) {
  return type == FeatureType::kBool || type == FeatureType::kInt64 ||
         type == FeatureType::kDouble;
}

/// A dynamically typed feature value: the unit of data flowing through
/// ingestion, storage, transformation, and serving.
class Value {
 public:
  /// Constructs a NULL value.
  Value() : type_(FeatureType::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(FeatureType::kBool, b); }
  static Value Int64(int64_t i) { return Value(FeatureType::kInt64, i); }
  static Value Double(double d) { return Value(FeatureType::kDouble, d); }
  static Value String(std::string s) {
    return Value(FeatureType::kString, std::move(s));
  }
  static Value Time(Timestamp t) { return Value(FeatureType::kTimestamp, t); }
  static Value Embedding(std::vector<float> v) {
    return Value(FeatureType::kEmbedding, std::move(v));
  }

  FeatureType type() const { return type_; }
  bool is_null() const { return type_ == FeatureType::kNull; }

  /// Typed accessors; aborts (DCHECK) on type mismatch.
  bool bool_value() const {
    MLFS_DCHECK(type_ == FeatureType::kBool);
    return std::get<bool>(data_);
  }
  int64_t int64_value() const {
    MLFS_DCHECK(type_ == FeatureType::kInt64);
    return std::get<int64_t>(data_);
  }
  double double_value() const {
    MLFS_DCHECK(type_ == FeatureType::kDouble);
    return std::get<double>(data_);
  }
  const std::string& string_value() const {
    MLFS_DCHECK(type_ == FeatureType::kString);
    return std::get<std::string>(data_);
  }
  Timestamp time_value() const {
    MLFS_DCHECK(type_ == FeatureType::kTimestamp);
    return std::get<int64_t>(data_);
  }
  const std::vector<float>& embedding_value() const {
    MLFS_DCHECK(type_ == FeatureType::kEmbedding);
    return std::get<std::vector<float>>(data_);
  }
  std::vector<float>& mutable_embedding() {
    MLFS_DCHECK(type_ == FeatureType::kEmbedding);
    return std::get<std::vector<float>>(data_);
  }

  /// Numeric coercion: bool -> 0/1, int64 -> double, double -> itself.
  /// Error for other types (including null).
  StatusOr<double> AsDouble() const;

  /// Byte footprint estimate used by store accounting. Inline: the online
  /// store sizes every written row with it.
  size_t ByteSize() const {
    switch (type_) {
      case FeatureType::kNull:
        return 1;
      case FeatureType::kBool:
        return 2;
      case FeatureType::kInt64:
      case FeatureType::kDouble:
      case FeatureType::kTimestamp:
        return 9;
      case FeatureType::kString:
        return 5 + string_value().size();
      case FeatureType::kEmbedding:
        return 5 + embedding_value().size() * sizeof(float);
    }
    return 1;
  }

  /// Debug rendering; embeddings render as "emb[dim]" with a short prefix.
  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    if (a.type_ != b.type_) return false;
    return a.data_ == b.data_;
  }

 private:
  using Rep = std::variant<std::monostate, bool, int64_t, double, std::string,
                           std::vector<float>>;

  Value(FeatureType type, bool b) : type_(type), data_(b) {}
  Value(FeatureType type, int64_t i) : type_(type), data_(i) {}
  Value(FeatureType type, double d) : type_(type), data_(d) {}
  Value(FeatureType type, std::string s) : type_(type), data_(std::move(s)) {}
  Value(FeatureType type, std::vector<float> v)
      : type_(type), data_(std::move(v)) {}

  FeatureType type_;
  Rep data_;
};

/// Stable 64-bit hash of a value (used for sketches and dedup).
uint64_t HashValue(const Value& v);

}  // namespace mlfs

#endif  // MLFS_COMMON_VALUE_H_
