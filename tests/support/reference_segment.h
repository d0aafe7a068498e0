#ifndef MLFS_TESTS_SUPPORT_REFERENCE_SEGMENT_H_
#define MLFS_TESTS_SUPPORT_REFERENCE_SEGMENT_H_

#include <cstdint>
#include <span>
#include <string>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"

namespace mlfs {

/// Row-at-a-time segment encoder: a column-by-column walk over `rows`
/// with one has-nulls scan and one encode pass per column, a node-based
/// dictionary, and the format's magic, version and layout spelled out
/// independently of src/storage. It is the byte-level oracle that
/// Segment::Encode (the one-pass row feeder) and Segment::Merge (the
/// segment feeder) must both reproduce exactly; not a storage path.
StatusOr<std::string> ReferenceSegmentEncode(const SchemaPtr& schema,
                                             int64_t partition_id,
                                             int entity_idx, int time_idx,
                                             std::span<const Row> rows);

}  // namespace mlfs

#endif  // MLFS_TESTS_SUPPORT_REFERENCE_SEGMENT_H_
