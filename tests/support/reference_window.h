#ifndef MLFS_TESTS_SUPPORT_REFERENCE_WINDOW_H_
#define MLFS_TESTS_SUPPORT_REFERENCE_WINDOW_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "expr/evaluator.h"
#include "streaming/aggregator.h"
#include "streaming/window.h"

namespace mlfs {

/// Row-at-a-time windowed aggregation: each event is checked, has every
/// aggregation input evaluated on its own (CompiledExpr::Eval), and only
/// then is folded into each window containing it, after which the
/// watermark advances and finalizes. It is the oracle that
/// WindowedAggregator::ProcessEvents (chunked, vector-at-a-time inputs,
/// finalization at chunk ends) must match in results, late drops,
/// watermark and error status; not a streaming path.
///
/// A failing event leaves no trace: its status is that of the first
/// failing check, or of the first aggregation input (in spec order) that
/// fails to evaluate, and nothing of it is folded.
class ReferenceWindow {
 public:
  /// The arguments must already be accepted by WindowedAggregator::Create;
  /// only the input expressions are compiled here.
  static StatusOr<ReferenceWindow> Create(SchemaPtr event_schema,
                                          const std::string& entity_column,
                                          const std::string& time_column,
                                          WindowSpec window,
                                          std::vector<WindowAggSpec> aggs,
                                          Timestamp allowed_lateness = 0);

  Status ProcessEvent(const Row& event);
  /// Finalized results since the last poll, ordered by (window_end, entity).
  std::vector<WindowResult> PollResults();
  void AdvanceWatermarkTo(Timestamp t);

  Timestamp watermark() const { return watermark_; }
  uint64_t dropped_late() const { return dropped_late_; }
  size_t open_states() const;

 private:
  using State = std::vector<std::unique_ptr<AggregatorState>>;

  ReferenceWindow() = default;
  void Finalize();

  SchemaPtr schema_;
  int entity_idx_ = -1;
  int time_idx_ = -1;
  WindowSpec window_;
  std::vector<WindowAggSpec> aggs_;
  std::vector<std::unique_ptr<CompiledExpr>> inputs_;  // Null: count.
  Timestamp allowed_lateness_ = 0;
  // window_start -> entity key -> one state per aggregation; both levels
  // sorted, so finalization emits in (window_end, entity) order.
  std::map<Timestamp, std::map<std::string, State>> open_;
  std::vector<WindowResult> ready_;
  Timestamp watermark_ = kMinTimestamp;
  Timestamp max_event_time_ = kMinTimestamp;
  uint64_t dropped_late_ = 0;
};

}  // namespace mlfs

#endif  // MLFS_TESTS_SUPPORT_REFERENCE_WINDOW_H_
