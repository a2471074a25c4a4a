#ifndef PRESTO_DRUID_DRUID_STORE_H_
#define PRESTO_DRUID_DRUID_STORE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "presto/common/metrics.h"
#include "presto/common/status.h"
#include "presto/types/type.h"
#include "presto/types/value.h"

namespace presto {
namespace druid {

/// Mini real-time OLAP store standing in for Apache Druid (see DESIGN.md):
/// columnar segments, dictionary-encoded string dimensions with bitmap
/// inverted indexes, ingest-time rollup (pre-aggregation), and native
/// groupBy/timeseries/scan queries with sub-millisecond latency on indexed
/// filters. These are exactly the structures ("in memory bitmap indices,
/// inverted indices, pre-aggregations or dictionaries") that make
/// aggregation pushdown through the Presto-Druid connector profitable.

/// Schema of a datasource: a time column, string dimensions, and numeric
/// metrics that are summed on rollup.
struct DatasourceSchema {
  std::vector<std::string> dimensions;
  std::vector<std::string> metrics;  // all DOUBLE, summed on rollup
  /// Rollup time bucket in milliseconds (e.g. 3600'000 = hourly).
  int64_t granularity_millis = 3600000;
};

/// One event to ingest.
struct DruidRow {
  int64_t timestamp = 0;                // millis
  std::vector<std::string> dimensions;  // parallel to schema.dimensions
  std::vector<double> metrics;          // parallel to schema.metrics
};

struct TimeInterval {
  int64_t start = INT64_MIN;
  int64_t end = INT64_MAX;  // exclusive
};

/// Dimension filter with IN semantics (single value = equality).
struct DimensionFilter {
  std::string dimension;
  std::vector<std::string> values;
};

enum class AggKind { kCount, kSum, kMin, kMax };

struct DruidAggregation {
  std::string output_name;
  AggKind kind = AggKind::kCount;
  std::string metric;  // ignored for kCount
};

/// Native query: SCAN when `aggregations` is empty, otherwise
/// timeseries (no dimensions) or groupBy.
struct DruidQuery {
  std::string datasource;
  TimeInterval interval;
  std::vector<DimensionFilter> filters;
  std::vector<std::string> dimensions;      // group-by dimensions
  std::vector<DruidAggregation> aggregations;
  std::vector<std::string> scan_columns;    // SCAN only; empty = all columns
  int64_t limit = -1;                       // -1 = unlimited
};

struct DruidResult {
  std::vector<std::string> column_names;
  std::vector<TypePtr> column_types;
  std::vector<std::vector<Value>> rows;
  /// Rolled-up rows visited while answering (work metric for benches).
  int64_t rows_scanned = 0;
};

/// The store: datasources made of immutable columnar segments.
class DruidStore {
 public:
  Status CreateDatasource(const std::string& name, DatasourceSchema schema);

  /// Ingests a batch as one segment, applying rollup: events sharing
  /// (time bucket, dimensions) collapse into one row with summed metrics
  /// and an event count.
  Status Ingest(const std::string& name, const std::vector<DruidRow>& rows);

  Result<DruidResult> Execute(const DruidQuery& query);

  Result<DatasourceSchema> GetSchema(const std::string& name) const;
  std::vector<std::string> ListDatasources() const;

  /// Columns exposed to SQL layers: __time, dimensions..., metrics...,
  /// and the rollup event count as "rollup_count".
  Result<TypePtr> TableType(const std::string& name) const;

  MetricsRegistry& metrics() { return metrics_; }

 private:
  friend class DruidQueryRun;  // one Execute over a segment snapshot

  // Immutable columnar segment with per-dimension dictionaries + inverted
  // indexes (row-id lists per dictionary code).
  struct Segment {
    size_t num_rows = 0;
    std::vector<int64_t> time;
    // Per dimension: codes per row, sorted dictionary, inverted index.
    std::vector<std::vector<int32_t>> dim_codes;
    std::vector<std::vector<std::string>> dim_dicts;
    std::vector<std::vector<std::vector<int32_t>>> dim_inverted;
    // Per metric: rolled-up sums.
    std::vector<std::vector<double>> metric_values;
    std::vector<int64_t> rollup_counts;
    int64_t min_time = 0;
    int64_t max_time = 0;
  };

  struct Datasource {
    DatasourceSchema schema;
    std::vector<std::shared_ptr<const Segment>> segments;
  };

  mutable std::mutex mu_;
  std::map<std::string, Datasource> datasources_;
  MetricsRegistry metrics_;
};

}  // namespace druid
}  // namespace presto

#endif  // PRESTO_DRUID_DRUID_STORE_H_
