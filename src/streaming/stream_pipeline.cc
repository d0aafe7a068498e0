#include "streaming/stream_pipeline.h"

#include "common/failpoint.h"

namespace mlfs {

StreamPipeline::StreamPipeline(StreamPipelineOptions options,
                               std::unique_ptr<WindowedAggregator> aggregator,
                               SchemaPtr output_schema, OnlineStore* online,
                               OfflineStore* offline)
    : options_(std::move(options)),
      aggregator_(std::move(aggregator)),
      output_schema_(std::move(output_schema)),
      online_(online),
      offline_(offline) {
  int eidx = options_.event_schema->FieldIndex(options_.entity_column);
  entity_type_ = options_.event_schema->field(eidx).type;
}

StatusOr<std::unique_ptr<StreamPipeline>> StreamPipeline::Create(
    StreamPipelineOptions options, OnlineStore* online,
    OfflineStore* offline) {
  if (online == nullptr || offline == nullptr) {
    return Status::InvalidArgument("stream pipeline needs both stores");
  }
  if (options.name.empty()) {
    return Status::InvalidArgument("stream pipeline needs a name");
  }
  MLFS_ASSIGN_OR_RETURN(
      auto aggregator,
      WindowedAggregator::Create(options.event_schema, options.entity_column,
                                 options.time_column, options.window,
                                 options.aggs, options.allowed_lateness));

  // Output schema: entity key, window-end timestamp, one column per agg.
  int eidx = options.event_schema->FieldIndex(options.entity_column);
  std::vector<FieldSpec> fields;
  fields.push_back({options.entity_column,
                    options.event_schema->field(eidx).type, false});
  fields.push_back({"event_time", FeatureType::kTimestamp, false});
  for (const auto& spec : options.aggs) {
    fields.push_back({spec.output_feature, AggregateOutputType(spec.fn),
                      true});
  }
  MLFS_ASSIGN_OR_RETURN(SchemaPtr output_schema,
                        Schema::Create(std::move(fields)));

  MLFS_RETURN_IF_ERROR(online->CreateView(options.name, output_schema));

  OfflineTableOptions table_options;
  table_options.name = options.name;
  table_options.schema = output_schema;
  table_options.entity_column = options.entity_column;
  table_options.time_column = "event_time";
  MLFS_RETURN_IF_ERROR(offline->CreateTable(std::move(table_options)));

  return std::unique_ptr<StreamPipeline>(
      new StreamPipeline(std::move(options), std::move(aggregator),
                         std::move(output_schema), online, offline));
}

Status StreamPipeline::Ingest(const Row& event) {
  return IngestBatch(std::span<const Row>(&event, 1));
}

Status StreamPipeline::IngestBatch(std::span<const Row> events) {
  MLFS_RETURN_IF_ERROR(aggregator_->ProcessEvents(events));
  events_ingested_ += events.size();
  return MaterializeReady();
}

Status StreamPipeline::Flush(Timestamp watermark) {
  aggregator_->AdvanceWatermarkTo(watermark);
  return MaterializeReady();
}

Status StreamPipeline::MaterializeReady() {
  MLFS_FAILPOINT("stream_pipeline.materialize");
  MLFS_ASSIGN_OR_RETURN(OfflineTable* table,
                        offline_->GetTable(options_.name));
  // Polled windows join the pending queue before anything is written, so
  // a failed write loses none of them: they are retried by the next
  // Ingest, IngestBatch or Flush.
  Status build_status;
  for (WindowResult& result : aggregator_->PollResults()) {
    Value entity = entity_type_ == FeatureType::kInt64
                       ? Value::Int64(std::stoll(result.entity_key))
                       : Value::String(result.entity_key);
    std::vector<Value> values;
    values.reserve(2 + result.values.size());
    values.push_back(std::move(entity));
    values.push_back(Value::Time(result.window_end));
    for (Value& v : result.values) values.push_back(std::move(v));
    StatusOr<Row> row = Row::Create(output_schema_, std::move(values));
    if (!row.ok()) {
      // A row that cannot be built can never be written; report it and
      // keep the rest of the poll.
      if (build_status.ok()) build_status = row.status();
      continue;
    }
    pending_.push_back(*std::move(row));
  }
  if (pending_.empty()) return build_status;
  // Online first, then offline. Re-putting a window is idempotent under
  // event-time LWW, so a retry after a failed PutBatch rewrites the same
  // cells; the log is appended only once every pending window is online,
  // and AppendBatch fails (at its failpoint) before appending any row, so
  // a retry never logs a window twice.
  if (pending_online_ < pending_.size()) {
    std::vector<OnlinePut> puts;
    puts.reserve(pending_.size() - pending_online_);
    for (size_t i = pending_online_; i < pending_.size(); ++i) {
      const Row& row = pending_[i];
      const Timestamp window_end = row.value(1).time_value();
      puts.push_back(OnlinePut{row.value(0), row, window_end, window_end,
                               options_.online_ttl});
    }
    MLFS_RETURN_IF_ERROR(online_->PutBatch(options_.name, puts));
    pending_online_ = pending_.size();
  }
  MLFS_RETURN_IF_ERROR(table->AppendBatch(pending_));
  rows_emitted_ += pending_.size();
  pending_.clear();
  pending_online_ = 0;
  return build_status;
}

}  // namespace mlfs
