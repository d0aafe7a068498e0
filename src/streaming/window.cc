#include "streaming/window.h"

#include <algorithm>

#include "storage/entity_key.h"

namespace mlfs {

WindowedAggregator::WindowedAggregator(
    SchemaPtr schema, int entity_idx, int time_idx, WindowSpec window,
    std::vector<WindowAggSpec> aggs,
    std::vector<std::unique_ptr<CompiledExpr>> inputs,
    Timestamp allowed_lateness)
    : schema_(std::move(schema)),
      entity_idx_(entity_idx),
      time_idx_(time_idx),
      window_(window),
      aggs_(std::move(aggs)),
      inputs_(std::move(inputs)),
      scratch_(inputs_.size()),
      allowed_lateness_(allowed_lateness) {}

StatusOr<std::unique_ptr<WindowedAggregator>> WindowedAggregator::Create(
    SchemaPtr event_schema, std::string entity_column,
    std::string time_column, WindowSpec window,
    std::vector<WindowAggSpec> aggs, Timestamp allowed_lateness) {
  if (event_schema == nullptr) {
    return Status::InvalidArgument("windowed aggregator needs a schema");
  }
  if (window.width <= 0 || window.slide <= 0 || window.slide > window.width) {
    return Status::InvalidArgument(
        "window needs 0 < slide <= width");
  }
  if (window.width % window.slide != 0) {
    return Status::InvalidArgument("window width must be a multiple of slide");
  }
  if (allowed_lateness < 0) {
    return Status::InvalidArgument("allowed_lateness must be >= 0");
  }
  if (aggs.empty()) {
    return Status::InvalidArgument("need at least one aggregation");
  }
  int eidx = event_schema->FieldIndex(entity_column);
  if (eidx < 0 || (event_schema->field(eidx).type != FeatureType::kInt64 &&
                   event_schema->field(eidx).type != FeatureType::kString)) {
    return Status::InvalidArgument("entity column '" + entity_column +
                                   "' missing or not INT64/STRING");
  }
  int tidx = event_schema->FieldIndex(time_column);
  if (tidx < 0 ||
      event_schema->field(tidx).type != FeatureType::kTimestamp) {
    return Status::InvalidArgument("time column '" + time_column +
                                   "' missing or not TIMESTAMP");
  }
  std::vector<std::unique_ptr<CompiledExpr>> inputs;
  inputs.reserve(aggs.size());
  for (const auto& spec : aggs) {
    if (spec.output_feature.empty()) {
      return Status::InvalidArgument("aggregation needs an output name");
    }
    if (spec.input.empty()) {
      if (spec.fn != AggregateFn::kCount) {
        return Status::InvalidArgument(
            "empty input is only valid for count()");
      }
      inputs.push_back(nullptr);
      continue;
    }
    MLFS_ASSIGN_OR_RETURN(CompiledExpr compiled,
                          CompiledExpr::Compile(spec.input, event_schema));
    bool needs_numeric = spec.fn != AggregateFn::kCount &&
                         spec.fn != AggregateFn::kCountDistinct;
    if (needs_numeric && !IsNumeric(compiled.output_type()) &&
        compiled.output_type() != FeatureType::kNull) {
      return Status::InvalidArgument(
          "aggregation '" + spec.output_feature + "': input type " +
          std::string(FeatureTypeToString(compiled.output_type())) +
          " is not numeric");
    }
    inputs.push_back(std::make_unique<CompiledExpr>(std::move(compiled)));
  }
  return std::unique_ptr<WindowedAggregator>(new WindowedAggregator(
      std::move(event_schema), eidx, tidx, window, std::move(aggs),
      std::move(inputs), allowed_lateness));
}

Timestamp WindowedAggregator::FirstWindowStartFor(Timestamp t) const {
  // Earliest window [start, start+width) containing t, with start on the
  // slide grid (floor semantics for negative times).
  Timestamp earliest = t - window_.width + 1;
  Timestamp q = earliest / window_.slide;
  if (earliest % window_.slide != 0 && earliest < 0) --q;
  Timestamp start = q * window_.slide;
  if (start + window_.width <= t) start += window_.slide;
  return start;
}

Status WindowedAggregator::ProcessEvent(const Row& event) {
  return ProcessEvents(std::span<const Row>(&event, 1));
}

Status WindowedAggregator::ProcessEvents(std::span<const Row> events) {
  constexpr size_t kChunkRows = 1024;
  for (size_t off = 0; off < events.size(); off += kChunkRows) {
    const size_t len = std::min(kChunkRows, events.size() - off);
    MLFS_RETURN_IF_ERROR(ProcessChunk(events.subspan(off, len)));
  }
  return Status::OK();
}

Status WindowedAggregator::ProcessChunk(std::span<const Row> chunk) {
  // Pre-scan with the prefix-max watermark each event would have seen had
  // the events arrived one at a time. Nothing mutates until the scan and
  // every batch evaluation have succeeded; the first failing event (at
  // chunk position `fail_pos`) is found on the way, so a failure applies
  // exactly the events before it and leaves no trace of it.
  // The scratch vectors are members reused across chunks, so a one-event
  // chunk does not allocate them again. The recursive call on failure
  // below reuses them too; nothing reads them after it.
  live_.clear();
  live_ts_.clear();
  live_keys_.clear();
  live_.reserve(chunk.size());
  live_ts_.reserve(chunk.size());
  live_keys_.reserve(chunk.size());
  Timestamp wm = watermark_;
  Timestamp max_t = max_event_time_;
  uint64_t dropped = 0;
  Status fail;
  size_t fail_pos = chunk.size();
  for (size_t p = 0; p < chunk.size(); ++p) {
    const Row& event = chunk[p];
    if (event.schema() == nullptr || !(*event.schema() == *schema_)) {
      fail = Status::InvalidArgument("event schema mismatch");
      fail_pos = p;
      break;
    }
    const Value& tv = event.value(time_idx_);
    if (tv.is_null()) {
      fail = Status::InvalidArgument("event time is null");
      fail_pos = p;
      break;
    }
    Timestamp t = tv.time_value();
    if (wm != kMinTimestamp && t < wm) {
      ++dropped;
      continue;
    }
    auto key = EntityKeyToString(event.value(entity_idx_));
    if (!key.ok()) {
      fail = key.status();
      fail_pos = p;
      break;
    }
    live_.push_back(&event);
    live_ts_.push_back(t);
    live_keys_.push_back(std::move(key).value());
    max_t = std::max(max_t, t);
    if (max_t - allowed_lateness_ > wm) wm = max_t - allowed_lateness_;
  }
  // One vectorized evaluation per aggregation input over the surviving
  // rows; expressions are pure, so one result serves every window an
  // event falls in. An input's failure maps back to the first failing
  // event; across inputs the earliest event wins, then the lowest
  // aggregation, which is the order a per-event loop evaluates them in.
  cols_.assign(inputs_.size(), nullptr);
  if (!live_.empty()) {
    RowPtrBatchSource src(schema_, live_);
    for (size_t i = 0; i < inputs_.size(); ++i) {
      if (inputs_[i] == nullptr) continue;
      size_t err_row = 0;  // A failure tied to no row fails the first.
      Status s = inputs_[i]->EvalBatch(src, &scratch_[i], &cols_[i], &err_row);
      if (s.ok()) continue;
      const size_t pos = static_cast<size_t>(live_[err_row] - chunk.data());
      if (pos < fail_pos) {
        fail = std::move(s);
        fail_pos = pos;
      }
    }
  }
  if (!fail.ok()) {
    if (fail_pos > 0) MLFS_RETURN_IF_ERROR(ProcessChunk(chunk.first(fail_pos)));
    return fail;
  }
  for (size_t r = 0; r < live_.size(); ++r) {
    const Timestamp t = live_ts_[r];
    const std::string& key = live_keys_[r];
    for (Timestamp start = FirstWindowStartFor(t); start <= t;
         start += window_.slide) {
      EntityState& state = [&]() -> EntityState& {
        auto& by_entity = open_[start];
        auto it = by_entity.find(key);
        if (it != by_entity.end()) return it->second;
        EntityState fresh;
        fresh.aggs.reserve(aggs_.size());
        for (const auto& spec : aggs_) {
          fresh.aggs.push_back(MakeAggregator(spec.fn));
        }
        return by_entity.emplace(key, std::move(fresh)).first->second;
      }();
      for (size_t i = 0; i < aggs_.size(); ++i) {
        if (inputs_[i] == nullptr) {
          state.aggs[i]->Add(Value::Bool(true));  // Count the event.
          continue;
        }
        state.aggs[i]->Add(cols_[i]->GetValue(r));
      }
    }
  }
  dropped_late_ += dropped;
  max_event_time_ = std::max(max_event_time_, max_t);
  Timestamp new_watermark = max_event_time_ - allowed_lateness_;
  if (new_watermark > watermark_) {
    watermark_ = new_watermark;
    // Deferring finalization to the chunk boundary is safe: every window
    // containing a chunk event ends after that event's time, which is at
    // or above the watermark a per-event loop would have finalized
    // against.
    MaybeFinalize();
  }
  return Status::OK();
}

void WindowedAggregator::MaybeFinalize() {
  // Finalize windows whose end <= watermark. `open_` is ordered by start.
  while (!open_.empty()) {
    auto it = open_.begin();
    Timestamp end = it->first + window_.width;
    if (end > watermark_) break;
    std::vector<std::string> keys;
    keys.reserve(it->second.size());
    for (const auto& [key, state] : it->second) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const auto& key : keys) {
      EntityState& state = it->second[key];
      WindowResult result;
      result.entity_key = key;
      result.window_start = it->first;
      result.window_end = end;
      result.values.reserve(state.aggs.size());
      for (const auto& agg : state.aggs) result.values.push_back(agg->Result());
      ready_.push_back(std::move(result));
    }
    open_.erase(it);
  }
}

std::vector<WindowResult> WindowedAggregator::PollResults() {
  std::vector<WindowResult> out;
  out.swap(ready_);
  return out;
}

void WindowedAggregator::AdvanceWatermarkTo(Timestamp t) {
  if (t <= watermark_) return;
  watermark_ = t;
  MaybeFinalize();
}

size_t WindowedAggregator::open_states() const {
  size_t n = 0;
  for (const auto& [start, by_entity] : open_) n += by_entity.size();
  return n;
}

}  // namespace mlfs
