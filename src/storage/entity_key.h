#ifndef MLFS_STORAGE_ENTITY_KEY_H_
#define MLFS_STORAGE_ENTITY_KEY_H_

#include <charconv>
#include <string>

#include "common/status.h"
#include "common/value.h"

namespace mlfs {

/// The error every entity-key canonicalization returns for a value that is
/// neither INT64 nor STRING.
inline Status InvalidEntityKey(const Value& v) {
  return Status::InvalidArgument("entity key must be INT64 or STRING, got " +
                                 std::string(FeatureTypeToString(v.type())));
}

/// Canonical string form of an entity key value. Entity keys may be INT64
/// or STRING columns; both stores index by this canonical form so that the
/// same entity resolves identically online and offline.
inline StatusOr<std::string> EntityKeyToString(const Value& v) {
  switch (v.type()) {
    case FeatureType::kInt64:
      return std::to_string(v.int64_value());
    case FeatureType::kString:
      return v.string_value();
    default:
      return InvalidEntityKey(v);
  }
}

/// Appends the canonical form of `v` (the bytes EntityKeyToString returns)
/// to `out` without a temporary string — the batched store paths pack keys
/// into one arena. False, with `out` untouched, when `v` is neither INT64
/// nor STRING.
inline bool AppendEntityKey(const Value& v, std::string* out) {
  switch (v.type()) {
    case FeatureType::kInt64: {
      char digits[20];
      auto res = std::to_chars(digits, digits + sizeof(digits),
                               v.int64_value());
      out->append(digits, res.ptr);
      return true;
    }
    case FeatureType::kString:
      out->append(v.string_value());
      return true;
    default:
      return false;
  }
}

}  // namespace mlfs

#endif  // MLFS_STORAGE_ENTITY_KEY_H_
