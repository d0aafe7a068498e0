#ifndef MLFS_COMMON_SCHEMA_H_
#define MLFS_COMMON_SCHEMA_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace mlfs {

/// One column of a schema.
struct FieldSpec {
  std::string name;
  FeatureType type = FeatureType::kNull;
  bool nullable = true;

  friend bool operator==(const FieldSpec& a, const FieldSpec& b) {
    return a.name == b.name && a.type == b.type && a.nullable == b.nullable;
  }
};

/// Ordered, named, typed column set. Immutable after construction; shared
/// by all rows of a table via shared_ptr.
class Schema {
 public:
  Schema() = default;

  /// Builds a schema; fails if field names collide or are empty.
  static StatusOr<std::shared_ptr<const Schema>> Create(
      std::vector<FieldSpec> fields);

  size_t num_fields() const { return fields_.size(); }
  const FieldSpec& field(size_t i) const {
    MLFS_DCHECK(i < fields_.size());
    return fields_[i];
  }
  const std::vector<FieldSpec>& fields() const { return fields_; }

  /// Index of the field named `name`, or -1 if absent.
  int FieldIndex(std::string_view name) const;

  /// True if `v` may be stored in column `i` (type matches, or null and
  /// the column is nullable).
  bool Accepts(size_t i, const Value& v) const;

  std::string ToString() const;

  /// Identity first: rows of one table share one SchemaPtr, so the
  /// per-row checks on the write and join paths skip the field compare.
  friend bool operator==(const Schema& a, const Schema& b) {
    return &a == &b || a.fields_ == b.fields_;
  }

 private:
  explicit Schema(std::vector<FieldSpec> fields);

  std::vector<FieldSpec> fields_;
  std::unordered_map<std::string, int> index_;
};

using SchemaPtr = std::shared_ptr<const Schema>;

}  // namespace mlfs

#endif  // MLFS_COMMON_SCHEMA_H_
