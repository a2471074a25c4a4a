#include "presto/druid/druid_store.h"

#include <algorithm>
#include <unordered_map>

#include "presto/common/hash.h"

namespace presto {
namespace druid {

namespace {

struct RollupKey {
  int64_t bucket;
  std::vector<std::string> dims;

  bool operator==(const RollupKey& other) const {
    return bucket == other.bucket && dims == other.dims;
  }
};

struct RollupKeyHash {
  size_t operator()(const RollupKey& key) const {
    uint64_t h = HashMix64(static_cast<uint64_t>(key.bucket));
    for (const std::string& d : key.dims) h = HashCombine(h, HashString(d));
    return static_cast<size_t>(h);
  }
};

int64_t FloorBucket(int64_t ts, int64_t granularity) {
  int64_t b = ts / granularity;
  if (ts < 0 && ts % granularity != 0) --b;
  return b * granularity;
}

}  // namespace

Status DruidStore::CreateDatasource(const std::string& name,
                                    DatasourceSchema schema) {
  if (schema.granularity_millis <= 0) {
    return Status::InvalidArgument("granularity must be positive");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (datasources_.count(name) > 0) {
    return Status::AlreadyExists("datasource exists: " + name);
  }
  datasources_[name] = Datasource{std::move(schema), {}};
  return Status::OK();
}

Status DruidStore::Ingest(const std::string& name,
                          const std::vector<DruidRow>& rows) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasources_.find(name);
  if (it == datasources_.end()) {
    return Status::NotFound("no such datasource: " + name);
  }
  const DatasourceSchema& schema = it->second.schema;

  // Rollup: collapse events sharing (time bucket, dims).
  struct Accum {
    std::vector<double> sums;
    int64_t count = 0;
  };
  std::unordered_map<RollupKey, Accum, RollupKeyHash> rollup;
  for (const DruidRow& row : rows) {
    if (row.dimensions.size() != schema.dimensions.size() ||
        row.metrics.size() != schema.metrics.size()) {
      return Status::InvalidArgument("row shape does not match schema");
    }
    RollupKey key{FloorBucket(row.timestamp, schema.granularity_millis),
                  row.dimensions};
    Accum& acc = rollup[key];
    if (acc.sums.empty()) acc.sums.resize(schema.metrics.size(), 0);
    for (size_t m = 0; m < row.metrics.size(); ++m) {
      acc.sums[m] += row.metrics[m];
    }
    ++acc.count;
  }
  metrics_.Increment("druid.ingest.events", static_cast<int64_t>(rows.size()));
  metrics_.Increment("druid.ingest.rows_after_rollup", static_cast<int64_t>(rollup.size()));

  // Deterministic segment order: sort rolled-up rows by (time, dims).
  std::vector<std::pair<RollupKey, Accum>> sorted(
      std::make_move_iterator(rollup.begin()), std::make_move_iterator(rollup.end()));
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.first.bucket != b.first.bucket) return a.first.bucket < b.first.bucket;
    return a.first.dims < b.first.dims;
  });

  auto segment = std::make_shared<Segment>();
  size_t n = sorted.size();
  segment->num_rows = n;
  segment->time.reserve(n);
  segment->dim_codes.assign(schema.dimensions.size(), {});
  segment->dim_dicts.assign(schema.dimensions.size(), {});
  segment->dim_inverted.assign(schema.dimensions.size(), {});
  segment->metric_values.assign(schema.metrics.size(), {});
  segment->rollup_counts.reserve(n);

  // Build sorted dictionaries per dimension.
  for (size_t d = 0; d < schema.dimensions.size(); ++d) {
    std::vector<std::string> values;
    values.reserve(n);
    for (const auto& [key, acc] : sorted) values.push_back(key.dims[d]);
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    segment->dim_dicts[d] = std::move(values);
    segment->dim_inverted[d].assign(segment->dim_dicts[d].size(), {});
    segment->dim_codes[d].reserve(n);
  }

  for (size_t r = 0; r < n; ++r) {
    const auto& [key, acc] = sorted[r];
    segment->time.push_back(key.bucket);
    for (size_t d = 0; d < schema.dimensions.size(); ++d) {
      const auto& dict = segment->dim_dicts[d];
      int32_t code = static_cast<int32_t>(
          std::lower_bound(dict.begin(), dict.end(), key.dims[d]) - dict.begin());
      segment->dim_codes[d].push_back(code);
      segment->dim_inverted[d][code].push_back(static_cast<int32_t>(r));
    }
    for (size_t m = 0; m < schema.metrics.size(); ++m) {
      segment->metric_values[m].push_back(acc.sums[m]);
    }
    segment->rollup_counts.push_back(acc.count);
  }
  if (n > 0) {
    segment->min_time = segment->time.front();
    segment->max_time = segment->time.back();
  }
  it->second.segments.push_back(std::move(segment));
  return Status::OK();
}

Result<DatasourceSchema> DruidStore::GetSchema(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasources_.find(name);
  if (it == datasources_.end()) {
    return Status::NotFound("no such datasource: " + name);
  }
  return it->second.schema;
}

std::vector<std::string> DruidStore::ListDatasources() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, ds] : datasources_) out.push_back(name);
  return out;
}

Result<TypePtr> DruidStore::TableType(const std::string& name) const {
  ASSIGN_OR_RETURN(DatasourceSchema schema, GetSchema(name));
  std::vector<std::string> names = {"__time"};
  std::vector<TypePtr> types = {Type::Timestamp()};
  for (const std::string& d : schema.dimensions) {
    names.push_back(d);
    types.push_back(Type::Varchar());
  }
  for (const std::string& m : schema.metrics) {
    names.push_back(m);
    types.push_back(Type::Double());
  }
  names.push_back("rollup_count");
  types.push_back(Type::Bigint());
  return Type::Row(std::move(names), std::move(types));
}

// One DruidStore::Execute over a snapshot of a datasource: resolves the
// result shape, then per segment prunes by time, narrows the rows through
// the inverted indexes, and scans or aggregates the survivors.
class DruidQueryRun {
 public:
  using Segment = DruidStore::Segment;

  DruidQueryRun(const DruidQuery& query, DatasourceSchema schema)
      : query_(query),
        schema_(std::move(schema)),
        is_scan_(query.aggregations.empty()) {}

  // Output shape: the scan columns, or the group-by dimensions followed by
  // the aggregates.
  Status Shape() {
    if (!is_scan_) return AggregationShape();
    std::vector<std::string> columns = query_.scan_columns;
    if (columns.empty()) {
      columns.push_back("__time");
      for (const auto& d : schema_.dimensions) columns.push_back(d);
      for (const auto& m : schema_.metrics) columns.push_back(m);
      columns.push_back("rollup_count");
    }
    for (const std::string& c : columns) {
      result_.column_names.push_back(c);
      if (c == "__time") {
        result_.column_types.push_back(Type::Timestamp());
      } else if (c == "rollup_count") {
        result_.column_types.push_back(Type::Bigint());
      } else if (auto d = DimIndex(c); d.ok()) {
        result_.column_types.push_back(Type::Varchar());
      } else if (auto m = MetricIndex(c); m.ok()) {
        result_.column_types.push_back(Type::Double());
      } else {
        return Status::NotFound("no such column: " + c);
      }
    }
    return Status::OK();
  }

  // Scans or aggregates one segment's matching rows. Returns false once a
  // scan has reached its LIMIT.
  Result<bool> Scan(const Segment& segment) {
    if (segment.num_rows == 0) return true;
    // Segment-level time pruning.
    if (segment.max_time < query_.interval.start ||
        segment.min_time >= query_.interval.end) {
      return true;
    }
    ASSIGN_OR_RETURN(std::vector<int32_t> candidates, CandidateRows(segment));
    bool need_time_check = query_.interval.start > segment.min_time ||
                           query_.interval.end <= segment.max_time;
    for (int32_t r : candidates) {
      if (need_time_check && (segment.time[r] < query_.interval.start ||
                              segment.time[r] >= query_.interval.end)) {
        continue;
      }
      ++result_.rows_scanned;
      if (!is_scan_) {
        RETURN_IF_ERROR(Accumulate(segment, r));
        continue;
      }
      RETURN_IF_ERROR(EmitScanRow(segment, r));
      if (query_.limit >= 0 &&
          static_cast<int64_t>(result_.rows.size()) >= query_.limit) {
        return false;
      }
    }
    return true;
  }

  DruidResult Finish() {
    if (is_scan_) return std::move(result_);
    for (auto& [hash, bucket] : groups_) {
      for (GroupState& g : bucket) {
        std::vector<Value> row = std::move(g.keys);
        for (size_t a = 0; a < query_.aggregations.size(); ++a) {
          if (query_.aggregations[a].kind == AggKind::kCount) {
            row.push_back(Value::Int(g.counts[a]));
          } else {
            row.push_back(g.seen[a] ? Value::Double(g.doubles[a]) : Value::Null());
          }
        }
        result_.rows.push_back(std::move(row));
      }
    }
    // Deterministic order + limit.
    std::sort(result_.rows.begin(), result_.rows.end(),
              [](const std::vector<Value>& a, const std::vector<Value>& b) {
                for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
                  int c = a[i].Compare(b[i]);
                  if (c != 0) return c < 0;
                }
                return false;
              });
    if (query_.limit >= 0 &&
        static_cast<int64_t>(result_.rows.size()) > query_.limit) {
      result_.rows.resize(query_.limit);
    }
    return std::move(result_);
  }

 private:
  // Group-by state across segments.
  struct GroupState {
    std::vector<Value> keys;
    std::vector<double> doubles;  // per agg
    std::vector<int64_t> counts;
    std::vector<bool> seen;
  };

  Result<size_t> DimIndex(const std::string& name) const {
    for (size_t d = 0; d < schema_.dimensions.size(); ++d) {
      if (schema_.dimensions[d] == name) return d;
    }
    return Status::NotFound("no such dimension: " + name);
  }

  Result<size_t> MetricIndex(const std::string& name) const {
    for (size_t m = 0; m < schema_.metrics.size(); ++m) {
      if (schema_.metrics[m] == name) return m;
    }
    return Status::NotFound("no such metric: " + name);
  }

  Status AggregationShape() {
    for (const std::string& d : query_.dimensions) {
      RETURN_IF_ERROR(DimIndex(d).status());
      result_.column_names.push_back(d);
      result_.column_types.push_back(Type::Varchar());
    }
    for (const DruidAggregation& agg : query_.aggregations) {
      result_.column_names.push_back(agg.output_name);
      if (agg.kind == AggKind::kCount) {
        result_.column_types.push_back(Type::Bigint());
      } else {
        RETURN_IF_ERROR(MetricIndex(agg.metric).status());
        result_.column_types.push_back(Type::Double());
      }
    }
    return Status::OK();
  }

  // Candidate rows via bitmap/inverted-index intersection: the union of a
  // filter's values' row lists, intersected across filters. Every row when
  // the query has no filter.
  Result<std::vector<int32_t>> CandidateRows(const Segment& segment) const {
    std::vector<int32_t> candidates;
    bool have_candidates = false;
    for (const DimensionFilter& filter : query_.filters) {
      ASSIGN_OR_RETURN(size_t d, DimIndex(filter.dimension));
      const auto& dict = segment.dim_dicts[d];
      std::vector<int32_t> rows_for_filter;
      for (const std::string& value : filter.values) {
        auto it = std::lower_bound(dict.begin(), dict.end(), value);
        if (it == dict.end() || *it != value) continue;
        const auto& list =
            segment.dim_inverted[d][static_cast<size_t>(it - dict.begin())];
        // Merge-union (lists are sorted).
        std::vector<int32_t> merged;
        std::set_union(rows_for_filter.begin(), rows_for_filter.end(),
                       list.begin(), list.end(), std::back_inserter(merged));
        rows_for_filter = std::move(merged);
      }
      if (!have_candidates) {
        candidates = std::move(rows_for_filter);
        have_candidates = true;
      } else {
        std::vector<int32_t> intersected;
        std::set_intersection(candidates.begin(), candidates.end(),
                              rows_for_filter.begin(), rows_for_filter.end(),
                              std::back_inserter(intersected));
        candidates = std::move(intersected);
      }
      if (candidates.empty()) break;
    }
    if (!have_candidates) {
      candidates.resize(segment.num_rows);
      for (size_t r = 0; r < segment.num_rows; ++r) {
        candidates[r] = static_cast<int32_t>(r);
      }
    }
    return candidates;
  }

  Status EmitScanRow(const Segment& segment, int32_t r) {
    std::vector<Value> row;
    row.reserve(result_.column_names.size());
    for (const std::string& c : result_.column_names) {
      if (c == "__time") {
        row.push_back(Value::Int(segment.time[r]));
      } else if (c == "rollup_count") {
        row.push_back(Value::Int(segment.rollup_counts[r]));
      } else if (auto d = DimIndex(c); d.ok()) {
        row.push_back(
            Value::String(segment.dim_dicts[*d][segment.dim_codes[*d][r]]));
      } else {
        ASSIGN_OR_RETURN(size_t m, MetricIndex(c));
        row.push_back(Value::Double(segment.metric_values[m][r]));
      }
    }
    result_.rows.push_back(std::move(row));
    return Status::OK();
  }

  Status Accumulate(const Segment& segment, int32_t r) {
    std::vector<Value> keys;
    keys.reserve(query_.dimensions.size());
    for (const std::string& dim : query_.dimensions) {
      ASSIGN_OR_RETURN(size_t d, DimIndex(dim));
      keys.push_back(Value::String(segment.dim_dicts[d][segment.dim_codes[d][r]]));
    }
    GroupState& g = GroupFor(std::move(keys));
    for (size_t a = 0; a < query_.aggregations.size(); ++a) {
      const DruidAggregation& agg = query_.aggregations[a];
      if (agg.kind == AggKind::kCount) {
        g.counts[a] += 1;  // rolled-up rows
      } else {
        ASSIGN_OR_RETURN(size_t m, MetricIndex(agg.metric));
        const double v = segment.metric_values[m][r];
        if (agg.kind == AggKind::kSum) {
          g.doubles[a] += v;
        } else if (!g.seen[a]) {
          g.doubles[a] = v;
        } else {
          g.doubles[a] = agg.kind == AggKind::kMin ? std::min(g.doubles[a], v)
                                                   : std::max(g.doubles[a], v);
        }
      }
      g.seen[a] = true;
    }
    return Status::OK();
  }

  GroupState& GroupFor(std::vector<Value> keys) {
    uint64_t h = 0;
    for (const Value& k : keys) h = HashCombine(h, k.Hash());
    auto& bucket = groups_[h];
    for (GroupState& g : bucket) {
      bool same = true;
      for (size_t i = 0; i < keys.size(); ++i) {
        if (!g.keys[i].Equals(keys[i])) {
          same = false;
          break;
        }
      }
      if (same) return g;
    }
    GroupState g;
    g.keys = std::move(keys);
    g.doubles.assign(query_.aggregations.size(), 0);
    g.counts.assign(query_.aggregations.size(), 0);
    g.seen.assign(query_.aggregations.size(), false);
    bucket.push_back(std::move(g));
    return bucket.back();
  }

  const DruidQuery& query_;
  DatasourceSchema schema_;
  const bool is_scan_;
  DruidResult result_;
  std::unordered_map<uint64_t, std::vector<GroupState>> groups_;
};

Result<DruidResult> DruidStore::Execute(const DruidQuery& query) {
  std::vector<std::shared_ptr<const Segment>> segments;
  DatasourceSchema schema;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasources_.find(query.datasource);
    if (it == datasources_.end()) {
      return Status::NotFound("no such datasource: " + query.datasource);
    }
    schema = it->second.schema;
    segments = it->second.segments;
    metrics_.Increment("druid.query.calls");
  }
  DruidQueryRun run(query, std::move(schema));
  RETURN_IF_ERROR(run.Shape());
  for (const auto& segment : segments) {
    ASSIGN_OR_RETURN(bool more, run.Scan(*segment));
    if (!more) break;
  }
  return run.Finish();
}

}  // namespace druid
}  // namespace presto
