// Inputs, query templates and the answer oracle of the end-to-end
// benchmark. Every generated value is a pure function of the seed and the
// row's position, and the expected answers are computed here from those
// values in plain C++, never through the engine.

#ifndef E2E_BENCH_WORKLOAD_H_
#define E2E_BENCH_WORKLOAD_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ledger.h"
#include "presto/cluster/coordinator.h"
#include "presto/common/random.h"
#include "presto/vector/vector.h"

namespace e2e {

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

// Lake fact table: kPartitions sealed date partitions of kFilesPerPartition
// v2 lakefiles each. event_id is dense and ascending through the table, so
// per-page min/max stats are tight; country and device are low-cardinality
// varchars the writer dictionary-encodes.
constexpr int kPartitions = 16;
constexpr int kFilesPerPartition = 4;
constexpr int64_t kRowsPerFile = 25'000;
constexpr int64_t kPartitionRows = kFilesPerPartition * kRowsPerFile;
constexpr int64_t kSealedRows = kPartitions * kPartitionRows;
constexpr int kCountries = 24;
constexpr int kDevices = 4;
constexpr int64_t kAmountRange = 100'000;
constexpr int kTopN = 10;
constexpr int kGroupByPartitions = 3;
inline constexpr const char* kDeviceNames[kDevices] = {"phone", "tablet",
                                                       "desktop", "tv"};

// Open partition of realtime_mix: micro-batches of kIngestRows rows, the
// first kPreloadedBatches committed during set-up.
constexpr int64_t kIngestRows = 1'000;
constexpr int64_t kPreloadedBatches = 4;

// Batch tables: facts(k, d, v) joined to dims(d, region). A million fact
// rows keep a 20 s run above the 200 batch queries its p95 needs.
constexpr int64_t kFactRows = 1'000'000;
constexpr int64_t kGroups = 100'000;
constexpr int64_t kDimRows = 100'000;
constexpr int64_t kRegions = 50;
constexpr int64_t kValueRange = 10'000;
constexpr int kValueBuckets = 4;  // templates filter v >= a bucket floor
constexpr int64_t kBatchPageRows = 65'536;
// Each batch client cycles G group-by, J join, S spill: one query in eight
// is the group-by run under a memory cap that forces it to spill, over the
// top value bucket only to keep its cost bounded.
inline constexpr char kBatchCycle[] = "GJGJGJGS";
constexpr int64_t kBatchCycleLength = sizeof(kBatchCycle) - 1;
inline constexpr const char* kSpillMemoryCap = "8388608";

inline uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t x) {
  uint64_t z =
      seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL + x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Every column of the lake table is a pure function of the seed and the
/// row's event_id, so the oracle needs no copy of the data.
struct LakeRows {
  uint64_t seed = 0;
  int country(int64_t id) const {
    return static_cast<int>(Mix(seed, 1, id) % kCountries);
  }
  int device(int64_t id) const {
    return static_cast<int>(Mix(seed, 2, id) % kDevices);
  }
  int64_t amount(int64_t id) const {
    return static_cast<int64_t>(Mix(seed, 3, id) % kAmountRange);
  }
};

inline std::string PartitionName(int p) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "p%02d", p);
  return buf;
}

inline std::string CountryName(int c) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "c%02d", c);
  return buf;
}

/// Expected answers for the lake templates.
struct LakeTruth {
  LakeRows rows;
  std::vector<int64_t> count;  // [partition][device][country]
  std::vector<int64_t> sum;
  std::vector<std::vector<int64_t>> top;  // [partition][country], descending
  std::vector<int64_t> open_prefix_sum;   // amount sum of the first k batches

  static size_t Cell(int p, int d, int c) {
    return (static_cast<size_t>(p) * kDevices + d) * kCountries + c;
  }

  void Build(uint64_t seed, int64_t max_batches) {
    rows.seed = seed;
    count.assign(static_cast<size_t>(kPartitions) * kDevices * kCountries, 0);
    sum.assign(count.size(), 0);
    top.assign(static_cast<size_t>(kPartitions) * kCountries, {});
    for (int p = 0; p < kPartitions; ++p) {
      std::vector<std::vector<int64_t>> amounts(kCountries);
      for (int64_t id = p * kPartitionRows; id < (p + 1) * kPartitionRows;
           ++id) {
        const size_t cell = Cell(p, rows.device(id), rows.country(id));
        count[cell] += 1;
        sum[cell] += rows.amount(id);
        amounts[rows.country(id)].push_back(rows.amount(id));
      }
      for (int c = 0; c < kCountries; ++c) {
        std::vector<int64_t>& v = amounts[c];
        const size_t n = std::min<size_t>(kTopN, v.size());
        std::partial_sort(v.begin(), v.begin() + n, v.end(), std::greater<>());
        v.resize(n);
        top[static_cast<size_t>(p) * kCountries + c] = std::move(v);
      }
    }
    open_prefix_sum.assign(static_cast<size_t>(max_batches) + 1, 0);
    for (int64_t k = 0; k < max_batches; ++k) {
      int64_t s = 0;
      for (int64_t j = 0; j < kIngestRows; ++j) {
        s += rows.amount(kSealedRows + k * kIngestRows + j);
      }
      open_prefix_sum[k + 1] = open_prefix_sum[k] + s;
    }
  }
};

/// Batch table rows as pure functions of the seed.
struct BatchRows {
  uint64_t seed = 0;
  int64_t k(int64_t i) const {
    return static_cast<int64_t>(Mix(seed, 11, i) % kGroups);
  }
  int64_t d(int64_t i) const {
    return static_cast<int64_t>(Mix(seed, 12, i) % kDimRows);
  }
  int64_t v(int64_t i) const {
    return static_cast<int64_t>(Mix(seed, 13, i) % kValueRange);
  }
  int64_t region(int64_t d) const {
    return static_cast<int64_t>(Mix(seed, 14, d) % kRegions);
  }
};

inline int64_t BucketFloor(int b) { return b * kValueRange / kValueBuckets; }

/// Expected answers for the batch templates, as suffix sums over value
/// buckets: cell [key][b] covers the rows with v >= BucketFloor(b).
struct BatchTruth {
  BatchRows rows;
  std::vector<int64_t> group_count, group_sum;    // [k][bucket]
  std::vector<int64_t> region_count, region_sum;  // [region][bucket]

  void Build(uint64_t seed) {
    rows.seed = seed;
    group_count.assign(kGroups * kValueBuckets, 0);
    group_sum.assign(group_count.size(), 0);
    region_count.assign(kRegions * kValueBuckets, 0);
    region_sum.assign(region_count.size(), 0);
    for (int64_t i = 0; i < kFactRows; ++i) {
      const int64_t v = rows.v(i);
      const int64_t b = v * kValueBuckets / kValueRange;
      group_count[rows.k(i) * kValueBuckets + b] += 1;
      group_sum[rows.k(i) * kValueBuckets + b] += v;
      const int64_t r = rows.region(rows.d(i));
      region_count[r * kValueBuckets + b] += 1;
      region_sum[r * kValueBuckets + b] += v;
    }
    for (auto* cells : {&group_count, &group_sum, &region_count, &region_sum}) {
      for (size_t base = 0; base < cells->size(); base += kValueBuckets) {
        for (int b = kValueBuckets - 2; b >= 0; --b) {
          (*cells)[base + b] += (*cells)[base + b + 1];
        }
      }
    }
  }
};

/// Progress of the open partition: `started` counts batches whose
/// WriteDataFile call began, `committed` those whose call returned.
struct IngestState {
  std::atomic<int64_t> started{0};
  std::atomic<int64_t> committed{0};
  int64_t max_batches = 0;
};

// ---------------------------------------------------------------------------
// Query templates and the answer oracle
// ---------------------------------------------------------------------------

enum class Template {
  kPointLookup,   // one event by key inside one partition
  kGroupBy,       // dictionary-filtered group-by over a few partitions
  kTopN,          // ORDER BY amount DESC LIMIT inside one partition
  kOpenCount,     // count/sum over today's open partition
  kOpenPoint,     // one committed event of today's open partition
  kBatchGroupBy,  // 100k-group aggregation
  kBatchJoin,     // partitioned join, then aggregation
  kBatchSpill,    // the batch group-by under a memory cap that forces spill
};

inline const char* TemplateName(Template t) {
  switch (t) {
    case Template::kPointLookup:
      return "point_lookup";
    case Template::kGroupBy:
      return "group_by";
    case Template::kTopN:
      return "top_n";
    case Template::kOpenCount:
      return "open_count";
    case Template::kOpenPoint:
      return "open_point";
    case Template::kBatchGroupBy:
      return "batch_group_by";
    case Template::kBatchJoin:
      return "batch_join";
    case Template::kBatchSpill:
      return "batch_spill";
  }
  return "unknown";
}

struct Query {
  Template kind = Template::kPointLookup;
  std::string sql;
  int64_t logical_rows = 0;  // rows of the tables/partitions it covers
  int partition = 0;
  std::vector<int> partitions;
  int device = 0;
  int country = 0;
  int64_t id = 0;
  int bucket = 0;
  int64_t committed_at_dispatch = 0;

  /// Interactive queries read the lake; batch queries the memory tables.
  bool batch() const { return kind >= Template::kBatchGroupBy; }
};

/// The top-n template: the largest amounts of one country in one partition.
inline Query TopNQuery(int partition, int country) {
  Query q;
  q.kind = Template::kTopN;
  q.partition = partition;
  q.country = country;
  q.logical_rows = kPartitionRows;
  q.sql = "SELECT event_id, amount FROM lake.web.events WHERE ds = '" +
          PartitionName(partition) + "' AND country = '" +
          CountryName(country) + "' ORDER BY amount DESC LIMIT " +
          std::to_string(kTopN);
  return q;
}

/// Interactive query `index` of an open-loop stream. Templates follow a
/// fixed, interleaved cycle (their parameters are random), so every run has
/// the same template mix and its percentiles the same makeup: P point
/// lookup, G group-by, T top-n, C open count, O open point.
inline Query MakeInteractive(uint64_t seed, int64_t index, bool open_partition,
                             const IngestState& ingest) {
  presto::Random rng(Mix(seed, 21, index));
  const char* cycle =
      open_partition ? "PGTCOPGTCOPGTCOPGTPP" : "PGTPGTPGTPGTPGTPGTPP";
  const char slot = cycle[index % 20];
  Query q;
  if (slot == 'C' || slot == 'O') {
    q.committed_at_dispatch = ingest.committed.load();
    q.logical_rows = q.committed_at_dispatch * kIngestRows;
    if (slot == 'C') {
      q.kind = Template::kOpenCount;
      q.sql = "SELECT count(*), sum(amount) FROM lake.web.events "
              "WHERE ds = 'today'";
    } else {
      q.kind = Template::kOpenPoint;
      q.id = kSealedRows + static_cast<int64_t>(rng.NextBelow(q.logical_rows));
      q.sql = "SELECT event_id, amount FROM lake.web.events "
              "WHERE ds = 'today' AND event_id = " + std::to_string(q.id);
    }
    return q;
  }
  q.partition = static_cast<int>(rng.NextBelow(kPartitions));
  if (slot == 'T') {
    return TopNQuery(q.partition, static_cast<int>(rng.NextBelow(kCountries)));
  }
  if (slot == 'P') {
    q.kind = Template::kPointLookup;
    q.id = q.partition * kPartitionRows +
           static_cast<int64_t>(rng.NextBelow(kPartitionRows));
    q.logical_rows = kPartitionRows;
    q.sql = "SELECT event_id, country, device, amount FROM lake.web.events "
            "WHERE ds = '" + PartitionName(q.partition) +
            "' AND event_id = " + std::to_string(q.id);
    return q;
  }
  q.kind = Template::kGroupBy;
  q.device = static_cast<int>(rng.NextBelow(kDevices));
  const int first =
      static_cast<int>(rng.NextBelow(kPartitions - kGroupByPartitions + 1));
  std::string in;
  for (int i = 0; i < kGroupByPartitions; ++i) {
    q.partitions.push_back(first + i);
    in += (i > 0 ? ", '" : "'") + PartitionName(first + i) + "'";
  }
  q.logical_rows = kGroupByPartitions * kPartitionRows;
  q.sql = "SELECT country, count(*), sum(amount) FROM lake.web.events "
          "WHERE ds IN (" + in + ") AND device = '" + kDeviceNames[q.device] +
          "' GROUP BY country";
  return q;
}

/// Query `j` of batch client `client`. Every client runs the same template
/// cycle, so each run has the same template mix whatever the clients'
/// relative speeds.
inline Query MakeBatch(uint64_t seed, int client, int64_t j) {
  presto::Random rng(Mix(seed, 22 + static_cast<uint64_t>(client), j));
  Query q;
  q.bucket = static_cast<int>(rng.NextBelow(kValueBuckets));
  const char slot = kBatchCycle[j % kBatchCycleLength];
  if (slot == 'S') {
    q.kind = Template::kBatchSpill;
    q.bucket = kValueBuckets - 1;
  } else {
    q.kind = slot == 'G' ? Template::kBatchGroupBy : Template::kBatchJoin;
  }
  const std::string lo = std::to_string(BucketFloor(q.bucket));
  if (q.kind == Template::kBatchJoin) {
    q.logical_rows = kFactRows + kDimRows;
    q.sql = "SELECT m.region, count(*), sum(f.v) FROM mem.etl.facts f "
            "JOIN mem.etl.dims m ON f.d = m.d WHERE f.v >= " + lo +
            " GROUP BY m.region";
  } else {
    q.logical_rows = kFactRows;
    q.sql = "SELECT k, count(*), sum(v) FROM mem.etl.facts WHERE v >= " + lo +
            " GROUP BY k";
  }
  return q;
}

/// Flattens column `c` of every result page. False if the column is not of
/// the expected flat, null-free type.
template <typename T>
inline bool Column(const presto::QueryResult& result, size_t c,
                   std::vector<T>* out) {
  out->clear();
  for (const presto::Page& page : result.pages) {
    if (c >= page.num_columns()) return false;
    auto flat = presto::Vector::Flatten(page.column(c));
    if (!flat.ok()) return false;
    const auto* typed = dynamic_cast<const presto::FlatVector<T>*>(flat->get());
    if (typed == nullptr || typed->has_nulls()) return false;
    out->insert(out->end(), typed->values().begin(), typed->values().end());
  }
  return out->size() == static_cast<size_t>(result.total_rows);
}

/// Checks (key, count(*), sum) rows against suffix-sum cells [key][bucket]:
/// every key with rows appears exactly once with its exact aggregates.
inline std::string CheckKeyedAggregates(const presto::QueryResult& r,
                                        const std::vector<int64_t>& counts,
                                        const std::vector<int64_t>& sums,
                                        int64_t keys, int bucket) {
  std::vector<int64_t> key, count, sum;
  if (!Column(r, 0, &key) || !Column(r, 1, &count) || !Column(r, 2, &sum)) {
    return "unexpected columns";
  }
  int64_t expected_rows = 0;
  for (int64_t k = 0; k < keys; ++k) {
    expected_rows += counts[k * kValueBuckets + bucket] > 0;
  }
  if (static_cast<int64_t>(key.size()) != expected_rows) {
    return "wrong group count";
  }
  std::vector<uint8_t> seen(static_cast<size_t>(keys), 0);
  for (size_t i = 0; i < key.size(); ++i) {
    if (key[i] < 0 || key[i] >= keys || seen[key[i]]) {
      return "bad or repeated key " + std::to_string(key[i]);
    }
    seen[key[i]] = 1;
    const size_t cell = static_cast<size_t>(key[i] * kValueBuckets + bucket);
    if (count[i] != counts[cell] || sum[i] != sums[cell]) {
      return "wrong aggregates for key " + std::to_string(key[i]);
    }
  }
  return "";
}

/// Checks one answer; returns an empty string when it is right.
/// `started_at_completion` bounds what the open partition may show.
inline std::string CheckAnswer(const Query& q, const presto::QueryResult& r,
                               const LakeTruth& lake, const BatchTruth& batch,
                               int64_t started_at_completion) {
  const LakeRows& rows = lake.rows;
  std::vector<int64_t> ids, counts, amounts;
  std::vector<std::string> countries, devices;
  switch (q.kind) {
    case Template::kPointLookup:
      if (!Column(r, 0, &ids) || !Column(r, 1, &countries) ||
          !Column(r, 2, &devices) || !Column(r, 3, &amounts)) {
        return "point lookup: unexpected columns";
      }
      if (ids.size() != 1 || ids[0] != q.id ||
          countries[0] != CountryName(rows.country(q.id)) ||
          devices[0] != kDeviceNames[rows.device(q.id)] ||
          amounts[0] != rows.amount(q.id)) {
        return "point lookup: wrong row for id " + std::to_string(q.id);
      }
      return "";
    case Template::kOpenPoint:
      if (!Column(r, 0, &ids) || !Column(r, 1, &amounts)) {
        return "open point: unexpected columns";
      }
      if (ids.size() != 1 || ids[0] != q.id ||
          amounts[0] != rows.amount(q.id)) {
        return "open point: committed id " + std::to_string(q.id) +
               " not returned exactly once";
      }
      return "";
    case Template::kGroupBy: {
      if (!Column(r, 0, &countries) || !Column(r, 1, &counts) ||
          !Column(r, 2, &amounts)) {
        return "group-by: unexpected columns";
      }
      std::map<std::string, std::pair<int64_t, int64_t>> want;
      for (int p : q.partitions) {
        for (int c = 0; c < kCountries; ++c) {
          const size_t cell = LakeTruth::Cell(p, q.device, c);
          if (lake.count[cell] == 0) continue;
          auto& [count, sum] = want[CountryName(c)];
          count += lake.count[cell];
          sum += lake.sum[cell];
        }
      }
      if (countries.size() != want.size()) return "group-by: wrong group count";
      for (size_t i = 0; i < countries.size(); ++i) {
        auto it = want.find(countries[i]);
        if (it == want.end() ||
            it->second != std::make_pair(counts[i], amounts[i])) {
          return "group-by: wrong aggregates for " + countries[i];
        }
        want.erase(it);  // a repeated group then fails the lookup
      }
      return "";
    }
    case Template::kTopN: {
      if (!Column(r, 0, &ids) || !Column(r, 1, &amounts)) {
        return "top-n: unexpected columns";
      }
      // Ties make the ids ambiguous, so the amounts must match exactly and
      // each id must be a row of the partition and country with its amount.
      if (amounts != lake.top[static_cast<size_t>(q.partition) * kCountries +
                              q.country]) {
        return "top-n: wrong amounts";
      }
      for (size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] / kPartitionRows != q.partition || ids[i] >= kSealedRows ||
            rows.country(ids[i]) != q.country ||
            rows.amount(ids[i]) != amounts[i]) {
          return "top-n: row " + std::to_string(ids[i]) +
                 " does not match the filter";
        }
      }
      return "";
    }
    case Template::kOpenCount: {
      if (!Column(r, 0, &counts) || !Column(r, 1, &amounts) ||
          counts.size() != 1) {
        return "open count: unexpected shape";
      }
      const int64_t batches = VisibleBatches(
          counts[0], OpenPartitionWindow{q.committed_at_dispatch,
                                         started_at_completion, kIngestRows});
      if (batches < 0) {
        return "open count: " + std::to_string(counts[0]) +
               " rows outside the commit window [" +
               std::to_string(q.committed_at_dispatch * kIngestRows) + ", " +
               std::to_string(started_at_completion * kIngestRows) + "]";
      }
      if (amounts[0] != lake.open_prefix_sum[static_cast<size_t>(batches)]) {
        return "open count: sum is not the sum of the visible batches";
      }
      return "";
    }
    case Template::kBatchGroupBy:
    case Template::kBatchSpill: {
      const std::string wrong = CheckKeyedAggregates(
          r, batch.group_count, batch.group_sum, kGroups, q.bucket);
      return wrong.empty() ? "" : "batch group-by: " + wrong;
    }
    case Template::kBatchJoin: {
      const std::string wrong = CheckKeyedAggregates(
          r, batch.region_count, batch.region_sum, kRegions, q.bucket);
      return wrong.empty() ? "" : "batch join: " + wrong;
    }
  }
  return "unknown template";
}

}  // namespace e2e

#endif  // E2E_BENCH_WORKLOAD_H_
