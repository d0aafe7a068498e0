#include "registry/materializer.h"

#include "expr/evaluator.h"
#include "storage/entity_key.h"

namespace mlfs {

StatusOr<MaterializationResult> Materializer::Materialize(
    const RegisteredFeature& feature, Timestamp now) {
  MLFS_ASSIGN_OR_RETURN(OfflineTable* source,
                        offline_->GetTable(feature.def.source_table));
  const OfflineTableOptions& source_options = source->options();
  int entity_idx = source_options.schema->FieldIndex(
      source_options.entity_column);
  FeatureType entity_type =
      source_options.schema->field(entity_idx).type;

  MLFS_ASSIGN_OR_RETURN(
      CompiledExpr compiled,
      CompiledExpr::Compile(feature.def.expression, source_options.schema));

  // Output layout shared by the online view and the offline log.
  MLFS_ASSIGN_OR_RETURN(
      SchemaPtr out_schema,
      Schema::Create({{"entity", entity_type, false},
                      {"event_time", FeatureType::kTimestamp, false},
                      {"value", feature.output_type, true}}));
  const std::string& view = feature.def.name;
  if (!online_->HasView(view)) {
    MLFS_RETURN_IF_ERROR(online_->CreateView(view, out_schema));
  } else {
    MLFS_ASSIGN_OR_RETURN(SchemaPtr existing, online_->ViewSchema(view));
    if (!(*existing == *out_schema)) {
      return Status::FailedPrecondition(
          "online view '" + view +
          "' has an incompatible schema (feature type changed between "
          "versions; drop the view first)");
    }
  }
  const std::string log_name = LogTableName(feature.def.name);
  if (!offline_->HasTable(log_name)) {
    OfflineTableOptions log_options;
    log_options.name = log_name;
    log_options.schema = out_schema;
    log_options.entity_column = "entity";
    log_options.time_column = "event_time";
    MLFS_RETURN_IF_ERROR(offline_->CreateTable(std::move(log_options)));
  }
  MLFS_ASSIGN_OR_RETURN(OfflineTable* log_table, offline_->GetTable(log_name));

  MaterializationResult result;
  result.ran_at = now;
  // Batch read: the source table evaluates the compiled expression over its
  // sealed segments column-at-a-time, so the run never materializes
  // full-width source rows — only (entity, event_time, value) cells.
  MLFS_ASSIGN_OR_RETURN(std::vector<MaterializedCell> cells,
                        source->EvalLatestPerEntityAsOf(now, compiled));
  // Buffer the rows and write them as one PutBatch (one lock per online
  // shard) and one AppendBatch (one exclusive lock on the log table)
  // instead of locking once per entity.
  std::vector<Row> log_rows;
  log_rows.reserve(cells.size());
  std::vector<OnlinePut> puts;
  puts.reserve(cells.size());
  for (MaterializedCell& cell : cells) {
    if (cell.value.is_null()) ++result.null_values;
    MLFS_ASSIGN_OR_RETURN(
        Row out_row,
        Row::Create(out_schema, {cell.entity, Value::Time(cell.event_time),
                                 std::move(cell.value)}));
    puts.push_back(OnlinePut{std::move(cell.entity), out_row, cell.event_time,
                             now, feature.def.online_ttl});
    log_rows.push_back(std::move(out_row));
  }
  MLFS_RETURN_IF_ERROR(online_->PutBatch(view, puts));
  result.entities_updated = puts.size();
  MLFS_RETURN_IF_ERROR(log_table->AppendBatch(log_rows));
  // A materialization run is the natural tier boundary: the rows just
  // written are the batch's cold edge, so seal/compact/spill now instead
  // of leaving the work to a mid-query maintenance pass.
  MLFS_RETURN_IF_ERROR(log_table->RunMaintenance());
  result.rows_written = log_rows.size();
  if (lineage_ != nullptr) {
    // Stamp which feature version this view now serves; a re-run against a
    // fresh version clears the view's staleness annotation.
    MLFS_RETURN_IF_ERROR(lineage_->RecordMaterialization(
        ViewArtifact(view), FeatureArtifact(feature.def.name,
                                            feature.version)));
  }
  return result;
}

}  // namespace mlfs
