// Self-test of the benchmark's own arithmetic on hand-built inputs: the
// percentile rule, due-time latency accounting, span self time, the open
// partition's commit window, and the answer oracle, which must accept right
// answers and reject wrong ones. Exits non-zero if any check fails.
//
//   python3 e2e_bench/run.py --selftest

#include <cstdio>
#include <string>
#include <vector>

#include "ledger.h"
#include "workload.h"

namespace e2e {
namespace {

int checks = 0;
int failures = 0;

void Check(bool ok, const char* what, int line) {
  ++checks;
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

void PercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted input
  CHECK(Percentile(v, 0.5) == 50);
  CHECK(Percentile(v, 0.95) == 95);
  CHECK(Percentile(v, 1.0) == 100);
  CHECK(Percentile({}, 0.5) == 0);
  CHECK(Median({3, 1, 2}) == 2);
  CHECK(NearestRank(200, 0.95) == 190);
  CHECK(PercentileSupported(200, 0.95));
  CHECK(!PercentileSupported(199, 0.95));
  CHECK(PercentileSupported(20, 0.5));
  CHECK(!PercentileSupported(19, 0.5));
  CHECK(!PercentileSupported(0, 0.5));
}

void DueTimeAccounting() {
  CHECK(DueNanos(1'000, 10, 3) == 1'000 + 300'000'000);
  // On time: latency is the service time, lag is zero.
  const OpenLoopTiming on_time{100'000'000, 100'000'000, 112'000'000};
  CHECK(on_time.LatencyMillis() == 12);
  CHECK(on_time.LagMillis() == 0);
  // A request that waited behind a stalled predecessor is charged the wait:
  // due at 100 ms, sent at 250 ms when the sender freed up, done at 260 ms.
  const OpenLoopTiming delayed{100'000'000, 250'000'000, 260'000'000};
  CHECK(delayed.LatencyMillis() == 160);
  CHECK(delayed.LagMillis() == 150);
}

presto::TraceSpan Span(int64_t id, int64_t parent, int64_t start, int64_t end,
                       presto::TraceKind kind = presto::TraceKind::kStage) {
  presto::TraceSpan s;
  s.id = id;
  s.parent_id = parent;
  s.kind = kind;
  s.start_nanos = start;
  s.end_nanos = end;
  return s;
}

void SpanSelfTime() {
  CHECK(UnionNanos({}) == 0);
  CHECK(UnionNanos({{0, 10}, {5, 20}, {30, 40}}) == 30);
  CHECK(UnionNanos({{30, 40}, {0, 10}, {10, 20}}) == 30);
  CHECK(UnionNanos({{5, 5}, {7, 3}}) == 0);
  // Query [0, 100): admission [0, 10), overlapping stages [10, 60) and
  // [40, 90), and a stage running past the query end that is clipped.
  std::vector<presto::TraceSpan> spans = {
      Span(1, 0, 0, 100, presto::TraceKind::kQuery),
      Span(2, 1, 0, 10),
      Span(3, 1, 10, 60),
      Span(4, 1, 40, 90),
      Span(5, 3, 20, 30),
      Span(6, 3, 25, 0)};
  auto self = SpanSelfNanos(spans);
  CHECK(self.at(1) == 10);  // 100 - |[0, 90)|
  CHECK(self.at(2) == 10);
  CHECK(self.at(3) == 40);  // 50 - |[20, 30)|; the open child is ignored
  CHECK(self.at(4) == 50);
  CHECK(self.count(6) == 0);
  spans.push_back(Span(7, 1, 95, 120));
  CHECK(SpanSelfNanos(spans).at(1) == 5);  // 100 - |[0, 90) + [95, 100)|
}

void CommitWindow() {
  const OpenPartitionWindow window{2, 5, 1000};
  CHECK(VisibleBatches(2000, window) == 2);
  CHECK(VisibleBatches(5000, window) == 5);
  CHECK(VisibleBatches(1000, window) == -1);  // lost a committed batch
  CHECK(VisibleBatches(6000, window) == -1);  // saw a batch not yet started
  CHECK(VisibleBatches(2500, window) == -1);  // saw half a batch
}

presto::QueryResult MakeResult(std::vector<presto::VectorPtr> columns) {
  presto::QueryResult r;
  const size_t n = columns.empty() ? 0 : columns[0]->size();
  r.pages.emplace_back(std::move(columns), n);
  r.total_rows = static_cast<int64_t>(n);
  return r;
}

presto::VectorPtr Ints(std::vector<int64_t> v) {
  return presto::MakeBigintVector(std::move(v));
}
presto::VectorPtr Strings(std::vector<std::string> v) {
  return presto::MakeVarcharVector(std::move(v));
}

void Oracle() {
  LakeTruth lake;
  lake.Build(7, 8);
  BatchTruth batch;
  batch.Build(7);
  const auto accepts = [&](const Query& q, std::vector<presto::VectorPtr> cols,
                           int64_t started_at_completion = 0) {
    return CheckAnswer(q, MakeResult(std::move(cols)), lake, batch,
                       started_at_completion)
        .empty();
  };

  Query point;
  point.kind = Template::kPointLookup;
  point.id = 3 * kPartitionRows + 17;
  const LakeRows& rows = lake.rows;
  const auto point_row = [&](int64_t amount) {
    return std::vector<presto::VectorPtr>{
        Ints({point.id}), Strings({CountryName(rows.country(point.id))}),
        Strings({kDeviceNames[rows.device(point.id)]}), Ints({amount})};
  };
  CHECK(accepts(point, point_row(rows.amount(point.id))));
  CHECK(!accepts(point, point_row(rows.amount(point.id) + 1)));
  CHECK(!accepts(point, {Ints({})}));

  Query group_by;
  group_by.kind = Template::kGroupBy;
  group_by.device = 1;
  group_by.partitions = {4, 5, 6};
  std::vector<std::string> countries;
  std::vector<int64_t> counts, sums;
  for (int c = 0; c < kCountries; ++c) {
    int64_t n = 0, s = 0;
    for (int p : group_by.partitions) {
      n += lake.count[LakeTruth::Cell(p, 1, c)];
      s += lake.sum[LakeTruth::Cell(p, 1, c)];
    }
    countries.push_back(CountryName(c));
    counts.push_back(n);
    sums.push_back(s);
  }
  CHECK(accepts(group_by, {Strings(countries), Ints(counts), Ints(sums)}));
  counts[5] += 1;
  CHECK(!accepts(group_by, {Strings(countries), Ints(counts), Ints(sums)}));

  // Two batches were committed at dispatch and four had started by the
  // reply: two to four whole batches, with their exact sum, are right.
  Query open;
  open.kind = Template::kOpenCount;
  open.committed_at_dispatch = 2;
  const auto open_row = [&](int64_t batches, int64_t sum_delta) {
    return std::vector<presto::VectorPtr>{
        Ints({batches * kIngestRows}),
        Ints({lake.open_prefix_sum[batches] + sum_delta})};
  };
  CHECK(accepts(open, open_row(3, 0), 4));
  CHECK(!accepts(open, open_row(1, 0), 4));
  CHECK(!accepts(open, open_row(5, 0), 4));
  CHECK(!accepts(open, open_row(3, 1), 4));

  Query join;
  join.kind = Template::kBatchJoin;
  join.bucket = 2;
  std::vector<int64_t> regions, region_counts, region_sums;
  for (int64_t g = 0; g < kRegions; ++g) {
    regions.push_back(g);
    region_counts.push_back(batch.region_count[g * kValueBuckets + 2]);
    region_sums.push_back(batch.region_sum[g * kValueBuckets + 2]);
  }
  const auto join_rows = [&] {
    return std::vector<presto::VectorPtr>{Ints(regions), Ints(region_counts),
                                          Ints(region_sums)};
  };
  CHECK(accepts(join, join_rows()));
  // A repeated region standing in for a missing one has the right row count.
  regions[1] = regions[0];
  region_counts[1] = region_counts[0];
  region_sums[1] = region_sums[0];
  CHECK(!accepts(join, join_rows()));
  regions.pop_back();
  region_counts.pop_back();
  region_sums.pop_back();
  CHECK(!accepts(join, join_rows()));
}

}  // namespace
}  // namespace e2e

int main() {
  e2e::PercentileRule();
  e2e::DueTimeAccounting();
  e2e::SpanSelfTime();
  e2e::CommitWindow();
  e2e::Oracle();
  std::printf("%d checks, %d failed\n", e2e::checks, e2e::failures);
  return e2e::failures == 0 ? 0 : 1;
}
