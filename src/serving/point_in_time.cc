#include "serving/point_in_time.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>

#include "common/threadpool.h"
#include "storage/entity_key.h"

namespace mlfs {
namespace {

struct ResolvedSource {
  const OfflineTable* table;
  Timestamp max_age;
  // Projected read plan: the unique source columns actually gathered
  // (output columns plus, under max_age, the event-time column), the schema
  // that projection conforms to, and the remaps from output column / time
  // column into a gathered cell group.
  std::vector<int> proj;
  SchemaPtr proj_schema;
  std::vector<int> out_pos;  // One per output column.
  int time_pos = -1;
};

// Validates sources and computes the output schema. `spine_schema` must
// already be validated (SpineIndex::Build does).
StatusOr<std::pair<SchemaPtr, std::vector<ResolvedSource>>> PrepareJoin(
    const SchemaPtr& spine_schema, const std::vector<JoinSource>& sources) {
  std::vector<FieldSpec> out_fields = spine_schema->fields();
  std::vector<ResolvedSource> resolved;
  resolved.reserve(sources.size());
  for (const JoinSource& source : sources) {
    if (source.table == nullptr) {
      return Status::InvalidArgument("join source has no table");
    }
    const OfflineTableOptions& options = source.table->options();
    const SchemaPtr& schema = options.schema;
    ResolvedSource rs;
    rs.table = source.table;
    rs.max_age = source.max_age;
    std::vector<std::string> columns = source.columns;
    if (columns.empty()) {
      for (const FieldSpec& field : schema->fields()) {
        if (field.name != options.entity_column &&
            field.name != options.time_column) {
          columns.push_back(field.name);
        }
      }
    }
    if (!source.output_columns.empty() &&
        source.output_columns.size() != columns.size()) {
      return Status::InvalidArgument(
          "output_columns must match projected column count");
    }
    const auto proj_position = [&rs](int idx) {
      for (size_t p = 0; p < rs.proj.size(); ++p) {
        if (rs.proj[p] == idx) return static_cast<int>(p);
      }
      rs.proj.push_back(idx);
      return static_cast<int>(rs.proj.size() - 1);
    };
    for (size_t ci = 0; ci < columns.size(); ++ci) {
      const std::string& column = columns[ci];
      int idx = schema->FieldIndex(column);
      if (idx < 0) {
        return Status::InvalidArgument("source '" + options.name +
                                       "' has no column '" + column + "'");
      }
      rs.out_pos.push_back(proj_position(idx));
      std::string out_name = source.output_columns.empty()
                                 ? source.prefix + column
                                 : source.output_columns[ci];
      // Joined columns are always nullable (history may be missing).
      out_fields.push_back({std::move(out_name), schema->field(idx).type,
                            true});
    }
    // The max_age check reads the matched row's event time, so it rides
    // along in the projection; an empty projection still gathers it so the
    // batch read has a concrete column list.
    if (rs.max_age > 0 || rs.proj.empty()) {
      rs.time_pos = proj_position(schema->FieldIndex(options.time_column));
    }
    std::vector<FieldSpec> proj_fields;
    proj_fields.reserve(rs.proj.size());
    for (int idx : rs.proj) proj_fields.push_back(schema->field(idx));
    MLFS_ASSIGN_OR_RETURN(rs.proj_schema,
                          Schema::Create(std::move(proj_fields)));
    resolved.push_back(std::move(rs));
  }
  MLFS_ASSIGN_OR_RETURN(SchemaPtr out_schema,
                        Schema::Create(std::move(out_fields)));
  return std::make_pair(std::move(out_schema), std::move(resolved));
}

// First (up to) 8 key bytes packed big-endian, so a single integer compare
// resolves most key orderings before falling back to byte-wise compare.
// prefix(a) < prefix(b) implies a < b lexicographically; equality falls
// through to the full comparison.
uint64_t KeyPrefix(const std::string& key) {
  unsigned char buf[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::memcpy(buf, key.data(), std::min<size_t>(key.size(), 8));
  uint64_t p = 0;
  for (int i = 0; i < 8; ++i) p = (p << 8) | buf[i];
  return p;
}

// ORs a shard's miss bitmap (bit j = request start + j) into `dst`, a
// word at a time. Bits past the shard's end are zero in `src`.
void StitchMissBits(const std::vector<uint64_t>& src, size_t start,
                    std::vector<uint64_t>& dst) {
  const size_t shift = start & 63;
  for (size_t w = 0; w < src.size(); ++w) {
    const uint64_t bits = src[w];
    if (bits == 0) continue;
    const size_t word = (start >> 6) + w;
    dst[word] |= bits << shift;
    if (shift != 0 && word + 1 < dst.size()) {
      dst[word + 1] |= bits >> (64 - shift);
    }
  }
}

// Batched sort-merge as-of join (see point_in_time.h). Produces output
// identical to the row-at-a-time reference join; the pit_merge and
// columnar property suites pin it.
StatusOr<TrainingSet> MergeJoinImpl(const SpineIndex& spine_index,
                                    const std::vector<JoinSource>& sources,
                                    bool point_in_time, ThreadPool* pool) {
  MLFS_ASSIGN_OR_RETURN(auto prepared,
                        PrepareJoin(spine_index.schema(), sources));
  SchemaPtr out_schema = std::move(prepared.first);
  std::vector<ResolvedSource> resolved = std::move(prepared.second);
  const std::vector<Row>& spine = spine_index.rows();
  const std::vector<std::string>& keys = spine_index.keys();
  const std::vector<Timestamp>& times = spine_index.times();
  const std::vector<uint32_t>& sorted = spine_index.sorted_rows();
  const std::vector<uint32_t>& pos_of_row = spine_index.pos_of_row();
  constexpr uint32_t kNoRequest = SpineIndex::kNoRequest;
  const size_t n = spine.size();
  const size_t m = sorted.size();
  const size_t num_sources = resolved.size();

  // 1. Lay out the batch requests in the index's (key, ts) order. The
  //    naive join asks for each entity's globally latest row, so every
  //    request degenerates to ts = +inf (still sorted). All requests of a
  //    key run view the run's first key bytes: the spine rows' own copies
  //    sit at random addresses in sorted order, and every source's gather
  //    compares each request's key with its neighbour's.
  std::vector<AsOfRequest> requests(m);
  for (size_t p = 0; p < m; ++p) {
    const std::string& key = keys[sorted[p]];
    requests[p] = {key, point_in_time ? times[sorted[p]] : kMaxTimestamp};
    if (p > 0 && requests[p - 1].key == key) {
      requests[p].key = requests[p - 1].key;
    }
  }

  // 2. Fan out: sources × entity-range shards of the sorted request array
  //    (shards cut at key boundaries so no entity's run is split). Each
  //    task gathers its shard's matched cells into its slice of the
  //    source's flat, request-major column: no Row is built per hit.
  std::vector<std::pair<size_t, size_t>> shards;
  {
    const size_t want = pool != nullptr ? pool->num_threads() * 2 : 1;
    const size_t target = m == 0 ? 0 : (m + want - 1) / want;
    size_t start = 0;
    while (start < m) {
      size_t stop = std::min(m, start + target);
      while (stop < m && requests[stop].key == requests[stop - 1].key) ++stop;
      shards.emplace_back(start, stop);
      start = stop;
    }
  }
  // cols[s][p * width + c]: cell c of source s's gathered projection for
  // request p.
  std::vector<std::vector<Value>> cols(num_sources);
  for (size_t s = 0; s < num_sources; ++s) {
    cols[s].resize(m * resolved[s].proj.size());
  }
  const size_t num_tasks = num_sources * shards.size();
  std::vector<Status> task_status(num_tasks);
  // Each task fills a private miss bitmap for its shard (bitmap words at
  // shard boundaries would be shared between tasks otherwise); the shard
  // bitmaps are stitched into one per-source bitmap after the barrier.
  std::vector<std::vector<uint64_t>> task_miss(num_tasks);
  ParallelFor(pool, 0, num_tasks, [&](size_t task) {
    const size_t s = task / shards.size();
    const auto [start, stop] = shards[task % shards.size()];
    const size_t width = resolved[s].proj.size();
    AsOfReadOptions read_options;
    read_options.columns = resolved[s].proj;
    read_options.projected_schema = resolved[s].proj_schema;
    read_options.miss_bitmap = &task_miss[task];
    task_status[task] = resolved[s].table->AsOfGather(
        std::span<const AsOfRequest>(requests.data() + start, stop - start),
        read_options,
        std::span<Value>(cols[s].data() + start * width,
                         (stop - start) * width));
  });
  for (Status& s : task_status) {
    MLFS_RETURN_IF_ERROR(std::move(s));
  }
  std::vector<std::vector<uint64_t>> source_miss(
      num_sources, std::vector<uint64_t>((m + 63) / 64, 0));
  for (size_t task = 0; task < num_tasks; ++task) {
    StitchMissBits(task_miss[task], shards[task % shards.size()].first,
                   source_miss[task / shards.size()]);
  }

  // 3. Assemble output rows in spine order: reserve the full output width
  //    once per row, then copy the spine cells and each source's cells.
  //    (Cells are copied, not moved: a source may list one column twice.)
  TrainingSet out;
  out.schema = out_schema;
  out.rows.assign(n, Row());
  const size_t out_width = out_schema->num_fields();
  std::atomic<uint64_t> missing{0};
  const auto assemble = [&](size_t r) {
    // A spine row's cells sit at a slot that is random with respect to r
    // (the gather answered requests in sorted key order); prefetching the
    // slots a few rows ahead overlaps those cache misses.
    constexpr size_t kFetch = 8;
    if (r + kFetch < n) {
      const uint32_t ahead = pos_of_row[r + kFetch];
      if (ahead != kNoRequest) {
        for (size_t s = 0; s < num_sources; ++s) {
          __builtin_prefetch(cols[s].data() + ahead * resolved[s].proj.size());
        }
      }
    }
    std::vector<Value> values;
    values.reserve(out_width);
    const std::vector<Value>& spine_values = spine[r].values();
    values.insert(values.end(), spine_values.begin(), spine_values.end());
    uint64_t row_missing = 0;
    const uint32_t pos = pos_of_row[r];
    for (size_t s = 0; s < num_sources; ++s) {
      const ResolvedSource& rs = resolved[s];
      // A miss never wrote its cells — the gather reported it through the
      // bitmap instead, and the null-fill happens here.
      bool usable =
          pos != kNoRequest && !MissBitmapTest(source_miss[s], pos);
      const Value* cells =
          usable ? cols[s].data() + size_t{pos} * rs.proj.size() : nullptr;
      if (usable && point_in_time && rs.max_age > 0) {
        Timestamp event_time = cells[rs.time_pos].time_value();
        usable = event_time >= times[r] - rs.max_age;
      }
      if (usable) {
        for (int p : rs.out_pos) values.push_back(cells[p]);
      } else {
        values.insert(values.end(), rs.out_pos.size(), Value::Null());
        row_missing += rs.out_pos.size();
      }
    }
    out.rows[r] = Row::CreateUnsafe(out_schema, std::move(values));
    if (row_missing != 0) {
      missing.fetch_add(row_missing, std::memory_order_relaxed);
    }
  };
  if (pool == nullptr) {
    // Serial fast path: calling the lambda directly (instead of through
    // ParallelFor's std::function) lets the compiler inline the row body
    // into the loop and hoist the per-source invariants.
    for (size_t r = 0; r < n; ++r) assemble(r);
  } else {
    ParallelFor(pool, 0, n, assemble);
  }
  out.missing_cells = missing.load(std::memory_order_relaxed);
  return out;
}

// A non-owning pointer to the caller's spine rows, for an index that lives
// only as long as one join call.
std::shared_ptr<const std::vector<Row>> BorrowRows(
    const std::vector<Row>& spine) {
  return std::shared_ptr<const std::vector<Row>>(std::shared_ptr<void>(),
                                                 &spine);
}

// The pool a join runs on: the caller's, or an internal one of
// max_threads workers held in `local`, or none (serial).
ThreadPool* JoinPool(const JoinOptions& options,
                     std::unique_ptr<ThreadPool>* local) {
  if (options.pool != nullptr) return options.pool;
  if (options.max_threads <= 1) return nullptr;
  *local = std::make_unique<ThreadPool>(options.max_threads);
  return local->get();
}

}  // namespace

StatusOr<SpineIndex> SpineIndex::Build(std::vector<Row> spine,
                                       const std::string& entity_column,
                                       const std::string& time_column) {
  return Index(std::make_shared<const std::vector<Row>>(std::move(spine)),
               entity_column, time_column, /*pool=*/nullptr);
}

StatusOr<SpineIndex> SpineIndex::Index(
    std::shared_ptr<const std::vector<Row>> rows,
    const std::string& entity_column, const std::string& time_column,
    ThreadPool* pool) {
  const std::vector<Row>& spine = *rows;
  if (spine.empty()) {
    return Status::InvalidArgument("spine is empty");
  }
  SpineIndex index;
  index.schema_ = spine.front().schema();
  if (index.schema_ == nullptr) {
    return Status::InvalidArgument("spine rows have no schema");
  }
  index.entity_idx_ = index.schema_->FieldIndex(entity_column);
  index.time_idx_ = index.schema_->FieldIndex(time_column);
  if (index.entity_idx_ < 0 || index.time_idx_ < 0) {
    return Status::InvalidArgument("spine is missing entity/time column");
  }
  if (index.schema_->field(index.time_idx_).type != FeatureType::kTimestamp) {
    return Status::InvalidArgument("spine time column is not a TIMESTAMP");
  }
  index.rows_ = std::move(rows);
  const size_t n = spine.size();
  index.keys_.resize(n);
  index.times_.assign(n, 0);
  index.pos_of_row_.assign(n, kNoRequest);

  // Canonicalize every entity key exactly once. A key that is not
  // INT64/STRING is not an error (the row-at-a-time reference treats the
  // per-row AsOf failure as a miss): the row simply misses every source.
  // Value-packed sort entries: the key prefix, key length and timestamp
  // travel with the index, so most comparisons stay inside the 24-byte
  // struct instead of chasing side arrays per compare.
  struct SortEntry {
    uint64_t prefix;
    Timestamp ts;
    uint32_t row;
    uint32_t len;  // Key length, saturated at UINT32_MAX.
  };
  static_assert(sizeof(SortEntry) == 24);
  // Sort by (key, ts). The key order itself is irrelevant — the batch
  // contract only needs equal keys contiguous with ascending timestamps —
  // so the integer prefix carries almost every comparison. On a prefix tie
  // where either key has at most 8 bytes, the shorter key is a prefix of
  // the longer (the prefix holds all of its bytes, zero-padded), so the
  // lengths settle the order and equal lengths mean equal keys. Only two
  // longer keys fall back to the full byte-wise compare.
  const std::vector<std::string>& keys = index.keys_;
  const auto less = [&keys](const SortEntry& a, const SortEntry& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    if (a.len <= 8 || b.len <= 8) {
      if (a.len != b.len) return a.len < b.len;
    } else if (const int c = keys[a.row].compare(keys[b.row]); c != 0) {
      return c < 0;
    }
    return a.ts < b.ts;
  };
  // Each worker canonicalizes and sorts one contiguous range of the spine;
  // the sorted runs are then merged pairwise.
  const size_t num_runs =
      pool != nullptr ? std::min(n, pool->num_threads()) : 1;
  std::vector<std::vector<SortEntry>> runs(num_runs);
  std::vector<Status> run_status(num_runs);
  const Schema* const schema = index.schema_.get();
  ParallelFor(pool, 0, num_runs, [&](size_t run) {
    const size_t begin = n * run / num_runs;
    const size_t end = n * (run + 1) / num_runs;
    std::vector<SortEntry>& ents = runs[run];
    ents.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      const Row& spine_row = spine[i];
      if (spine_row.schema() == nullptr ||
          !(*spine_row.schema() == *schema)) {
        run_status[run] =
            Status::InvalidArgument("spine rows have mixed schemas");
        return;
      }
      index.times_[i] = spine_row.value(index.time_idx_).time_value();
      StatusOr<std::string> key =
          EntityKeyToString(spine_row.value(index.entity_idx_));
      if (!key.ok()) continue;
      index.keys_[i] = std::move(*key);
      const size_t len = index.keys_[i].size();
      ents.push_back(
          {KeyPrefix(index.keys_[i]), index.times_[i],
           static_cast<uint32_t>(i),
           static_cast<uint32_t>(std::min<size_t>(len, UINT32_MAX))});
    }
    std::sort(ents.begin(), ents.end(), less);
  });
  for (Status& s : run_status) {
    MLFS_RETURN_IF_ERROR(std::move(s));
  }
  while (runs.size() > 1) {
    std::vector<std::vector<SortEntry>> merged(runs.size() / 2);
    ParallelFor(pool, 0, merged.size(), [&](size_t k) {
      const std::vector<SortEntry>& a = runs[2 * k];
      const std::vector<SortEntry>& b = runs[2 * k + 1];
      merged[k].resize(a.size() + b.size());
      std::merge(a.begin(), a.end(), b.begin(), b.end(), merged[k].begin(),
                 less);
    });
    if (runs.size() % 2 != 0) merged.push_back(std::move(runs.back()));
    runs = std::move(merged);
  }
  const std::vector<SortEntry>& ents = runs.front();
  index.sorted_.resize(ents.size());
  for (size_t p = 0; p < ents.size(); ++p) {
    index.sorted_[p] = ents[p].row;
    index.pos_of_row_[ents[p].row] = static_cast<uint32_t>(p);
  }
  return index;
}

StatusOr<TrainingSet> PointInTimeJoin(const std::vector<Row>& spine,
                                      const std::string& spine_entity_column,
                                      const std::string& spine_time_column,
                                      const std::vector<JoinSource>& sources,
                                      const JoinOptions& options) {
  std::unique_ptr<ThreadPool> local_pool;
  ThreadPool* pool = JoinPool(options, &local_pool);
  MLFS_ASSIGN_OR_RETURN(SpineIndex index,
                        SpineIndex::Index(BorrowRows(spine),
                                          spine_entity_column,
                                          spine_time_column, pool));
  return MergeJoinImpl(index, sources, /*point_in_time=*/true, pool);
}

StatusOr<TrainingSet> PointInTimeJoin(const SpineIndex& spine,
                                      const std::vector<JoinSource>& sources,
                                      const JoinOptions& options) {
  std::unique_ptr<ThreadPool> local_pool;
  return MergeJoinImpl(spine, sources, /*point_in_time=*/true,
                       JoinPool(options, &local_pool));
}

StatusOr<TrainingSet> NaiveLatestJoin(const std::vector<Row>& spine,
                                      const std::string& spine_entity_column,
                                      const std::string& spine_time_column,
                                      const std::vector<JoinSource>& sources,
                                      const JoinOptions& options) {
  std::unique_ptr<ThreadPool> local_pool;
  ThreadPool* pool = JoinPool(options, &local_pool);
  MLFS_ASSIGN_OR_RETURN(SpineIndex index,
                        SpineIndex::Index(BorrowRows(spine),
                                          spine_entity_column,
                                          spine_time_column, pool));
  return MergeJoinImpl(index, sources, /*point_in_time=*/false, pool);
}

StatusOr<TrainingSet> NaiveLatestJoin(const SpineIndex& spine,
                                      const std::vector<JoinSource>& sources,
                                      const JoinOptions& options) {
  std::unique_ptr<ThreadPool> local_pool;
  return MergeJoinImpl(spine, sources, /*point_in_time=*/false,
                       JoinPool(options, &local_pool));
}

StatusOr<uint64_t> CountDivergentCells(const TrainingSet& reference,
                                       const TrainingSet& candidate) {
  if (reference.rows.size() != candidate.rows.size()) {
    return Status::InvalidArgument("training sets have different row counts");
  }
  if (reference.schema == nullptr || candidate.schema == nullptr ||
      !(*reference.schema == *candidate.schema)) {
    return Status::InvalidArgument("training sets have different schemas");
  }
  uint64_t divergent = 0;
  for (size_t r = 0; r < reference.rows.size(); ++r) {
    const Row& a = reference.rows[r];
    const Row& b = candidate.rows[r];
    for (size_t c = 0; c < a.num_values(); ++c) {
      if (!(a.value(c) == b.value(c))) ++divergent;
    }
  }
  return divergent;
}

}  // namespace mlfs
