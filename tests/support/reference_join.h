#ifndef MLFS_TESTS_SUPPORT_REFERENCE_JOIN_H_
#define MLFS_TESTS_SUPPORT_REFERENCE_JOIN_H_

#include <string>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "serving/point_in_time.h"

namespace mlfs {

/// Row-at-a-time reference joins: one locked OfflineTable::AsOf per spine
/// row per source. They are the correctness oracle that the merge join
/// (PointInTimeJoin / NaiveLatestJoin) must reproduce byte for byte, and
/// the baseline in bench_pit_join; not a serving path. Same contract and
/// output schema as the merge joins.
StatusOr<TrainingSet> PointInTimeJoinReference(
    const std::vector<Row>& spine, const std::string& spine_entity_column,
    const std::string& spine_time_column,
    const std::vector<JoinSource>& sources);

StatusOr<TrainingSet> NaiveLatestJoinReference(
    const std::vector<Row>& spine, const std::string& spine_entity_column,
    const std::string& spine_time_column,
    const std::vector<JoinSource>& sources);

}  // namespace mlfs

#endif  // MLFS_TESTS_SUPPORT_REFERENCE_JOIN_H_
