#include "support/reference_window.h"

#include <algorithm>

#include "storage/entity_key.h"

namespace mlfs {

StatusOr<ReferenceWindow> ReferenceWindow::Create(
    SchemaPtr event_schema, const std::string& entity_column,
    const std::string& time_column, WindowSpec window,
    std::vector<WindowAggSpec> aggs, Timestamp allowed_lateness) {
  ReferenceWindow out;
  out.entity_idx_ = event_schema->FieldIndex(entity_column);
  out.time_idx_ = event_schema->FieldIndex(time_column);
  for (const WindowAggSpec& spec : aggs) {
    if (spec.input.empty()) {
      out.inputs_.push_back(nullptr);
      continue;
    }
    MLFS_ASSIGN_OR_RETURN(CompiledExpr compiled,
                          CompiledExpr::Compile(spec.input, event_schema));
    out.inputs_.push_back(std::make_unique<CompiledExpr>(std::move(compiled)));
  }
  out.schema_ = std::move(event_schema);
  out.window_ = window;
  out.aggs_ = std::move(aggs);
  out.allowed_lateness_ = allowed_lateness;
  return out;
}

Status ReferenceWindow::ProcessEvent(const Row& event) {
  if (event.schema() == nullptr || !(*event.schema() == *schema_)) {
    return Status::InvalidArgument("event schema mismatch");
  }
  const Value& tv = event.value(time_idx_);
  if (tv.is_null()) return Status::InvalidArgument("event time is null");
  const Timestamp t = tv.time_value();
  if (watermark_ != kMinTimestamp && t < watermark_) {
    ++dropped_late_;
    return Status::OK();
  }
  MLFS_ASSIGN_OR_RETURN(std::string key,
                        EntityKeyToString(event.value(entity_idx_)));
  // Every input evaluates before anything folds: a failure leaves no trace.
  std::vector<Value> inputs;
  for (const auto& input : inputs_) {
    if (input == nullptr) {
      inputs.push_back(Value::Bool(true));  // Count the event.
      continue;
    }
    MLFS_ASSIGN_OR_RETURN(Value v, input->Eval(event));
    inputs.push_back(std::move(v));
  }
  // Every window [start, start + width) with start on the slide grid that
  // contains t, found by walking the grid down from the latest one.
  Timestamp latest = t - t % window_.slide;
  if (t % window_.slide < 0) latest -= window_.slide;
  for (Timestamp start = latest; start + window_.width > t;
       start -= window_.slide) {
    State& state = open_[start][key];
    if (state.empty()) {
      for (const WindowAggSpec& spec : aggs_) {
        state.push_back(MakeAggregator(spec.fn));
      }
    }
    for (size_t i = 0; i < inputs.size(); ++i) state[i]->Add(inputs[i]);
  }
  max_event_time_ = std::max(max_event_time_, t);
  if (max_event_time_ - allowed_lateness_ > watermark_) {
    watermark_ = max_event_time_ - allowed_lateness_;
    Finalize();
  }
  return Status::OK();
}

void ReferenceWindow::Finalize() {
  while (!open_.empty() &&
         open_.begin()->first + window_.width <= watermark_) {
    auto& [start, by_entity] = *open_.begin();
    for (const auto& [key, state] : by_entity) {
      WindowResult result;
      result.entity_key = key;
      result.window_start = start;
      result.window_end = start + window_.width;
      for (const auto& agg : state) result.values.push_back(agg->Result());
      ready_.push_back(std::move(result));
    }
    open_.erase(open_.begin());
  }
}

std::vector<WindowResult> ReferenceWindow::PollResults() {
  std::vector<WindowResult> out;
  out.swap(ready_);
  return out;
}

void ReferenceWindow::AdvanceWatermarkTo(Timestamp t) {
  if (t <= watermark_) return;
  watermark_ = t;
  Finalize();
}

size_t ReferenceWindow::open_states() const {
  size_t n = 0;
  for (const auto& [start, by_entity] : open_) n += by_entity.size();
  return n;
}

}  // namespace mlfs
