// Tracing-layer tests: log-bucketed histograms (bucketing, percentiles,
// cross-registry merge, sorted Prometheus rendering), blocked-time cells and
// timers, the TraceRecorder span tree, Chrome trace-event JSON round-trip,
// and end-to-end traced execution of a staged spilling query whose
// per-operator spans must reconcile exactly with OperatorStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "presto/cluster/cluster.h"
#include "presto/common/fault_injection.h"
#include "presto/common/metrics.h"
#include "presto/common/trace.h"
#include "presto/connectors/memory/memory_connector.h"
#include "presto/vector/vector_builder.h"

namespace presto {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(TraceTest, HistogramBucketing) {
  using H = MetricsRegistry::Histogram;
  EXPECT_EQ(H::BucketFor(-5), 0);
  EXPECT_EQ(H::BucketFor(0), 0);
  EXPECT_EQ(H::BucketFor(1), 1);
  EXPECT_EQ(H::BucketFor(2), 2);
  EXPECT_EQ(H::BucketFor(3), 2);
  EXPECT_EQ(H::BucketFor(4), 3);
  EXPECT_EQ(H::BucketFor(1023), 10);
  EXPECT_EQ(H::BucketFor(1024), 11);
  EXPECT_EQ(H::BucketFor(INT64_MAX), 63);

  EXPECT_EQ(H::BucketUpperBound(0), 0);
  EXPECT_EQ(H::BucketUpperBound(1), 1);
  EXPECT_EQ(H::BucketUpperBound(2), 3);
  EXPECT_EQ(H::BucketUpperBound(10), 1023);
  EXPECT_EQ(H::BucketUpperBound(63), INT64_MAX);

  // Every positive value lands in the bucket whose bound covers it.
  for (int64_t v : {1LL, 2LL, 7LL, 100LL, 65536LL, (1LL << 40) + 17}) {
    int b = H::BucketFor(v);
    EXPECT_LE(v, H::BucketUpperBound(b)) << v;
    EXPECT_GT(v, H::BucketUpperBound(b - 1)) << v;
  }
}

TEST(TraceTest, HistogramPercentilesAndReset) {
  MetricsRegistry registry;
  // 90 fast samples (~100) and 10 slow ones (~100000): p50 must answer from
  // the fast bucket, p99 from the slow one.
  for (int i = 0; i < 90; ++i) registry.RecordHistogram("lat", 100);
  for (int i = 0; i < 10; ++i) registry.RecordHistogram("lat", 100000);

  auto snapshots = registry.SnapshotHistograms();
  ASSERT_EQ(snapshots.count("lat"), 1u);
  const auto& snap = snapshots.at("lat");
  EXPECT_EQ(snap.count, 100);
  EXPECT_EQ(snap.sum, 90 * 100 + 10 * 100000);
  EXPECT_EQ(snap.Percentile(0.5),
            MetricsRegistry::Histogram::BucketUpperBound(
                MetricsRegistry::Histogram::BucketFor(100)));
  EXPECT_EQ(snap.Percentile(0.99),
            MetricsRegistry::Histogram::BucketUpperBound(
                MetricsRegistry::Histogram::BucketFor(100000)));
  EXPECT_GT(snap.Percentile(0.99), snap.Percentile(0.5));
  // Degenerate quantiles clamp to the sample range.
  EXPECT_EQ(snap.Percentile(0.0), snap.Percentile(0.01));
  EXPECT_EQ(MetricsRegistry::HistogramSnapshot{}.Percentile(0.5), 0);

  registry.Reset();
  EXPECT_EQ(registry.SnapshotHistograms().at("lat").count, 0);
}

TEST(TraceTest, HistogramMergeAcrossSnapshots) {
  MetricsRegistry a, b;
  for (int i = 0; i < 50; ++i) a.RecordHistogram("lat", 10);
  for (int i = 0; i < 50; ++i) b.RecordHistogram("lat", 1000000);

  auto merged = a.SnapshotHistograms().at("lat");
  merged.Merge(b.SnapshotHistograms().at("lat"));
  EXPECT_EQ(merged.count, 100);
  // Half the mass is slow, so the median sits at the fast bucket's bound and
  // p95 at the slow one's.
  EXPECT_LE(merged.Percentile(0.5), 15);
  EXPECT_GE(merged.Percentile(0.95), 1000000);
}

TEST(TraceTest, RenderTextSortedAndHistogramExposition) {
  MetricsRegistry registry;
  registry.Increment("zebra.count", 3);
  registry.Increment("alpha.count", 1);
  registry.RecordHistogram("middle.latency", 500);

  std::string text = registry.RenderText();
  size_t alpha = text.find("alpha_count 1");
  size_t middle = text.find("# TYPE middle_latency summary");
  size_t zebra = text.find("zebra_count 3");
  ASSERT_NE(alpha, std::string::npos) << text;
  ASSERT_NE(middle, std::string::npos) << text;
  ASSERT_NE(zebra, std::string::npos) << text;
  // Deterministic: counters and histograms interleave in sorted name order.
  EXPECT_LT(alpha, middle);
  EXPECT_LT(middle, zebra);
  EXPECT_NE(text.find("middle_latency{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("middle_latency{quantile=\"0.95\"}"), std::string::npos);
  EXPECT_NE(text.find("middle_latency{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("middle_latency_sum 500"), std::string::npos);
  EXPECT_NE(text.find("middle_latency_count 1"), std::string::npos);

  // Two renders are byte-identical (the original motivation: test-diffable).
  EXPECT_EQ(text, registry.RenderText());

  // The exposition merges same-named histograms bucket-wise across sources.
  MetricsRegistry other;
  other.RecordHistogram("middle.latency", 500);
  MetricsExposition exposition;
  exposition.AddRegistry("", &registry);
  exposition.AddRegistry("", &other);
  std::string merged = exposition.RenderText();
  EXPECT_NE(merged.find("middle_latency_count 2"), std::string::npos) << merged;
  EXPECT_NE(merged.find("middle_latency_sum 1000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Blocked-time cells
// ---------------------------------------------------------------------------

TEST(TraceTest, BlockedTimerAccumulatesIntoThreadCell) {
  BlockedCounters before = ThreadBlockedCounters();
  {
    BlockedTimer timer(BlockedKind::kSpillIo);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  AddThreadSpillWriteBytes(123);
  BlockedCounters delta = ThreadBlockedCounters().Delta(before);
  EXPECT_GE(delta.nanos[static_cast<int>(BlockedKind::kSpillIo)], 1'000'000);
  EXPECT_EQ(delta.nanos[static_cast<int>(BlockedKind::kExchangeWait)], 0);
  EXPECT_EQ(delta.spill_write_bytes, 123);

  // Accumulate folds a delta (the RunParallel carry path) additively.
  BlockedCounters cell;
  cell.Accumulate(delta);
  cell.Accumulate(delta);
  EXPECT_EQ(cell.spill_write_bytes, 246);
  EXPECT_EQ(cell.nanos[static_cast<int>(BlockedKind::kSpillIo)],
            2 * delta.nanos[static_cast<int>(BlockedKind::kSpillIo)]);
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TEST(TraceTest, RecorderSpanTreeAndArgs) {
  TraceRecorder recorder;
  int64_t query = recorder.BeginSpan(TraceKind::kQuery, "query#1", 0);
  int64_t stage = recorder.BeginSpan(TraceKind::kStage, "stage#0", query);
  int64_t op = recorder.BeginSpan(TraceKind::kOperator, "TableScan#3", stage);
  recorder.SetArg(op, "output_rows", 42);
  recorder.EndSpanWithArgs(op, {{"wall_nanos", 1000}, {"output_rows", 43}});
  recorder.EndSpan(stage);
  recorder.EndSpan(query);
  // Ending twice is a no-op, not a corruption.
  recorder.EndSpan(stage);

  std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].id, query);
  EXPECT_EQ(spans[0].parent_id, 0);
  EXPECT_EQ(spans[1].parent_id, query);
  EXPECT_EQ(spans[2].parent_id, stage);
  EXPECT_EQ(spans[2].name, "TableScan#3");
  EXPECT_EQ(spans[2].args.at("output_rows"), 43) << "EndSpanWithArgs wins";
  EXPECT_EQ(spans[2].args.at("wall_nanos"), 1000);
  for (const TraceSpan& span : spans) {
    EXPECT_GT(span.end_nanos, 0) << span.name;
    EXPECT_GE(span.end_nanos, span.start_nanos);
  }
}

TEST(TraceTest, RecorderDropsSpansPastCap) {
  TraceRecorder recorder(/*max_spans=*/3);
  EXPECT_GT(recorder.BeginSpan(TraceKind::kQuery, "a", 0), 0);
  EXPECT_GT(recorder.BeginSpan(TraceKind::kStage, "b", 1), 0);
  EXPECT_GT(recorder.BeginSpan(TraceKind::kTask, "c", 2), 0);
  EXPECT_EQ(recorder.BeginSpan(TraceKind::kOperator, "d", 3), 0);
  EXPECT_EQ(recorder.BeginSpan(TraceKind::kOperator, "e", 3), 0);
  EXPECT_EQ(recorder.dropped_spans(), 2);
  EXPECT_EQ(recorder.Snapshot().size(), 3u);
  // Operations on the dropped id 0 are no-ops.
  recorder.EndSpan(0);
  recorder.SetArg(0, "x", 1);
}

TEST(TraceTest, ChromeJsonRoundTrip) {
  TraceRecorder recorder;
  int64_t query = recorder.BeginSpan(TraceKind::kQuery, "query#7", 0);
  int64_t op =
      recorder.BeginSpan(TraceKind::kOperator, "Filter \"x\\y\"", query);
  recorder.EndSpanWithArgs(op, {{"output_rows", 5}});
  int64_t open = recorder.BeginSpan(TraceKind::kSpillWrite, "spill", op);
  recorder.EndSpan(query);

  std::string json = recorder.ToChromeTraceJson(/*pid=*/7, "deadbeef");
  auto parsed = ParseChromeTraceJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  EXPECT_EQ(parsed->trace_id, "deadbeef");
  ASSERT_EQ(parsed->events.size(), 3u);
  bool saw_filter = false;
  for (const ChromeTraceEvent& event : parsed->events) {
    EXPECT_EQ(event.ph, "X");
    EXPECT_EQ(event.pid, 7);
    EXPECT_GE(event.dur_micros, 0);
    EXPECT_GT(event.args.count("span_id"), 0u);
    if (event.args.at("span_id") == op) {
      saw_filter = true;
      EXPECT_EQ(event.name, "Filter \"x\\y\"") << "escapes round-trip";
      EXPECT_EQ(event.args.at("parent_id"), query);
      EXPECT_EQ(event.args.at("output_rows"), 5);
    }
    if (event.args.at("span_id") == open) {
      // Open spans render as still-running at snapshot time.
      EXPECT_GE(event.dur_micros, 0);
    }
  }
  EXPECT_TRUE(saw_filter);
}

TEST(TraceTest, ChromeJsonParserRejectsMalformed) {
  EXPECT_FALSE(ParseChromeTraceJson("").ok());
  EXPECT_FALSE(ParseChromeTraceJson("{").ok());
  EXPECT_FALSE(ParseChromeTraceJson("{\"traceEvents\": 5}").ok());
  EXPECT_FALSE(ParseChromeTraceJson("{\"traceEvents\": [{}]}").ok())
      << "events must carry ph/name";
  EXPECT_FALSE(
      ParseChromeTraceJson(
          "{\"traceEvents\": [{\"name\":\"x\",\"ph\":\"B\"}]}")
          .ok())
      << "only complete (X) events are valid here";
  EXPECT_TRUE(ParseChromeTraceJson("{\"traceEvents\": []}").ok());
}

// ---------------------------------------------------------------------------
// End-to-end traced execution
// ---------------------------------------------------------------------------

// A facts table big enough that a two-key group-by under a 64 KiB query cap
// must spill, and wide enough in key cardinality to shuffle real data.
std::shared_ptr<MemoryConnector> MakeFactsConnector() {
  auto memory = std::make_shared<MemoryConnector>();
  TypePtr t = Type::Row({"k", "w", "v"},
                        {Type::Bigint(), Type::Varchar(), Type::Bigint()});
  EXPECT_TRUE(memory->CreateTable("default", "facts", t).ok());
  const std::vector<std::string> words = {"ash", "birch", "cedar", "dogwood",
                                          "elm", "fir", "ginkgo", "hazel"};
  uint64_t state = 99;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int p = 0; p < 16; ++p) {
    const size_t n = 512;
    std::vector<int64_t> k(n), v(n);
    std::vector<std::string> w(n);
    for (size_t i = 0; i < n; ++i) {
      k[i] = static_cast<int64_t>(next() % 701);
      w[i] = words[next() % words.size()];
      v[i] = static_cast<int64_t>(next() % 1000);
    }
    EXPECT_TRUE(
        memory
            ->AppendPage("default", "facts",
                         Page({MakeBigintVector(std::move(k)),
                               std::make_shared<StringVector>(
                                   Type::Varchar(), std::move(w),
                                   std::vector<uint8_t>{}),
                               MakeBigintVector(std::move(v))}))
            .ok());
  }
  return memory;
}

struct TraceCluster {
  explicit TraceCluster(const std::string& name)
      : cluster(name, /*num_workers=*/2, /*slots_per_worker=*/2) {
    EXPECT_TRUE(
        cluster.catalogs().RegisterCatalog("memory", MakeFactsConnector()).ok());
  }
  PrestoCluster* operator->() { return &cluster; }
  PrestoCluster cluster;
};

constexpr const char* kSpillingGroupBy =
    "SELECT k, w, count(*), sum(v) FROM facts GROUP BY k, w";

Session TracedSpillSession() {
  Session session;
  session.properties["query_trace"] = "true";
  session.properties["query_max_memory"] = "65536";
  session.properties["spill_path"] = "/tmp/presto_trace_test";
  return session;
}

// The span tree of a traced query: unique ids, exactly one root (the query
// span), every other span's parent present, children within their parents,
// and no span left open.
void ExpectWellFormedSpanTree(const QueryResult& result) {
  ASSERT_FALSE(result.trace_id.empty());
  ASSERT_FALSE(result.trace_spans.empty());

  // Exactly one root (the query span); every other span's parent exists.
  std::set<int64_t> ids;
  for (const TraceSpan& span : result.trace_spans) {
    EXPECT_TRUE(ids.insert(span.id).second) << "duplicate span id " << span.id;
  }
  int roots = 0;
  std::map<int64_t, const TraceSpan*> by_id;
  for (const TraceSpan& span : result.trace_spans) by_id[span.id] = &span;
  for (const TraceSpan& span : result.trace_spans) {
    if (span.parent_id == 0) {
      ++roots;
      EXPECT_EQ(span.kind, TraceKind::kQuery);
    } else {
      ASSERT_EQ(ids.count(span.parent_id), 1u)
          << "orphan span " << span.name << " parent " << span.parent_id;
      // Children start within their parent (spans are closed bottom-up, so a
      // closed parent also bounds the child's end).
      const TraceSpan& parent = *by_id[span.parent_id];
      EXPECT_GE(span.start_nanos, parent.start_nanos) << span.name;
      if (span.end_nanos != 0 && parent.end_nanos != 0) {
        EXPECT_LE(span.end_nanos, parent.end_nanos)
            << span.name << " escapes " << parent.name;
      }
    }
    EXPECT_NE(span.end_nanos, 0) << span.name << " left open";
  }
  EXPECT_EQ(roots, 1);
}

TEST(TraceClusterTest, TracedSpillingQuerySpanTreeIsWellFormed) {
  TraceCluster cluster("trace-tree");
  auto result = cluster->Execute(kSpillingGroupBy, TracedSpillSession());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->exec_metrics["spill.run.written"], 0)
      << "the 64 KiB cap must force spilling for this test to bite";

  ExpectWellFormedSpanTree(*result);
  if (HasFatalFailure()) return;
  std::map<TraceKind, int> kinds;
  for (const TraceSpan& span : result->trace_spans) kinds[span.kind]++;

  // The taxonomy shows up: stages, tasks, operators, and — because the query
  // spilled under a multi-stage plan — spill I/O spans.
  EXPECT_GT(kinds[TraceKind::kStage], 1) << "multi-stage plan expected";
  EXPECT_GT(kinds[TraceKind::kTask], 1);
  EXPECT_GT(kinds[TraceKind::kOperator], 0);
  EXPECT_GT(kinds[TraceKind::kSpillWrite], 0);
  EXPECT_GT(kinds[TraceKind::kSpillRead], 0);

  // Journal correlation: every event of this query carries the trace id.
  auto events = cluster->coordinator().journal().EventsForQuery(result->query_id);
  ASSERT_FALSE(events.empty());
  for (const QueryEvent& event : events) {
    EXPECT_EQ(event.trace_id, result->trace_id) << event.ToString();
  }
}

// A traced query whose first run fails (a latched exchange) and restarts:
// the failed run's teardown closes its stage spans too, so the returned tree
// holds both runs' stages under one query span with nothing left open.
TEST(TraceClusterTest, RestartedTracedQuerySpanTreeIsWellFormed) {
  TraceCluster cluster("trace-restart");
  Session session = TracedSpillSession();
  session.properties["query_max_task_retries"] = "1";
  session.properties["task_retry_backoff_millis"] = "1";
  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmScripted("exchange.push", {1});
  auto result = cluster->Execute(kSpillingGroupBy, session);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->exec_metrics["query.restarted"], 1);
  int stage_spans = 0;
  for (const TraceSpan& span : result->trace_spans) {
    if (span.kind == TraceKind::kStage) ++stage_spans;
  }
  EXPECT_EQ(stage_spans, 2 * result->num_fragments);
  ExpectWellFormedSpanTree(*result);
}

TEST(TraceClusterTest, OperatorSpansReconcileWithOperatorStats) {
  TraceCluster cluster("trace-reconcile");
  auto result = cluster->Execute(kSpillingGroupBy, TracedSpillSession());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Sum every operator span's closing args per plan node; the totals must
  // equal the merged OperatorStats exactly — the span args are stamped from
  // the same stats_ struct the collector merges.
  struct Totals {
    int64_t rows = 0, wall = 0, cpu = 0;
    int64_t exchange_wait = 0, spill_io = 0, memory_wait = 0, queued = 0;
    int64_t spill_write = 0, spill_read = 0;
    int instances = 0;
  };
  std::map<int, Totals> per_node;
  for (const TraceSpan& span : result->trace_spans) {
    if (span.kind != TraceKind::kOperator) continue;
    ASSERT_GT(span.args.count("plan_node_id"), 0u) << span.name;
    Totals& t = per_node[static_cast<int>(span.args.at("plan_node_id"))];
    t.rows += span.args.at("output_rows");
    t.wall += span.args.at("wall_nanos");
    t.cpu += span.args.at("cpu_nanos");
    t.exchange_wait += span.args.at("exchange_wait_nanos");
    t.spill_io += span.args.at("spill_io_nanos");
    t.memory_wait += span.args.at("memory_wait_nanos");
    t.queued += span.args.at("queued_nanos");
    t.spill_write += span.args.at("spill_write_bytes");
    t.spill_read += span.args.at("spill_read_bytes");
    t.instances += 1;
  }
  ASSERT_FALSE(per_node.empty());
  int64_t total_spill_io = 0;
  for (const auto& [node_id, op] : result->stats.operators) {
    auto it = per_node.find(node_id);
    if (it == per_node.end()) {
      // An instance whose Next() was never reached records no span — and
      // must then also have recorded no work.
      EXPECT_EQ(op.output_rows, 0) << op.operator_type;
      continue;
    }
    const Totals& t = it->second;
    EXPECT_EQ(t.rows, op.output_rows) << op.operator_type;
    EXPECT_EQ(t.wall, op.wall_nanos) << op.operator_type;
    EXPECT_EQ(t.cpu, op.cpu_nanos) << op.operator_type;
    EXPECT_EQ(t.exchange_wait, op.exchange_wait_nanos) << op.operator_type;
    EXPECT_EQ(t.spill_io, op.spill_io_nanos) << op.operator_type;
    EXPECT_EQ(t.memory_wait, op.memory_wait_nanos) << op.operator_type;
    EXPECT_EQ(t.queued, 0) << "operator-level queued time must be zero";
    EXPECT_EQ(t.spill_write, op.spill_write_bytes) << op.operator_type;
    EXPECT_EQ(t.spill_read, op.spill_read_bytes) << op.operator_type;
    EXPECT_EQ(t.instances, op.num_instances) << op.operator_type;
    total_spill_io += t.spill_io;
  }
  EXPECT_GT(total_spill_io, 0) << "spilling query must attribute spill I/O";

  // The spilling aggregation accounts its spill volume both ways.
  bool saw_spilling_agg = false;
  for (const auto& [node_id, op] : result->stats.operators) {
    if (op.spilled_runs > 0) {
      saw_spilling_agg = true;
      EXPECT_GT(op.spill_write_bytes, 0) << op.operator_type;
      EXPECT_GT(op.spill_read_bytes, 0) << op.operator_type;
      EXPECT_GT(op.spill_io_nanos, 0) << op.operator_type;
    }
  }
  EXPECT_TRUE(saw_spilling_agg);
}

TEST(TraceClusterTest, ChromeTraceJsonDumpsAndExplainAnalyzeBreakdown) {
  TraceCluster cluster("trace-dump");
  auto result = cluster->Execute(kSpillingGroupBy, TracedSpillSession());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_FALSE(result->trace_json.empty());
  auto parsed = ParseChromeTraceJson(result->trace_json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->trace_id, result->trace_id);
  EXPECT_EQ(parsed->events.size(), result->trace_spans.size());
  for (const ChromeTraceEvent& event : parsed->events) {
    EXPECT_EQ(event.pid, result->query_id);
    EXPECT_GE(event.ts_micros, 0);
  }

  // EXPLAIN ANALYZE: per-operator blocked-time breakdown and spill volume.
  auto analyzed = cluster->Execute(
      std::string("EXPLAIN ANALYZE ") + kSpillingGroupBy, TracedSpillSession());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ASSERT_EQ(analyzed->total_rows, 1);
  std::string text = analyzed->Row(0)[0].ToString();
  EXPECT_NE(text.find("blocked: exch"), std::string::npos) << text;
  EXPECT_NE(text.find("spill-io"), std::string::npos);
  EXPECT_NE(text.find("wrote"), std::string::npos)
      << "spill bytes written missing:\n" << text;
  EXPECT_NE(text.find("read"), std::string::npos);

  // Latency histograms export non-zero tail quantiles after real queries.
  std::string metrics = cluster->RenderMetricsText();
  for (const char* name :
       {"query_latency_micros", "stage_latency_micros",
        "operator_latency_micros"}) {
    for (const char* q : {"0.5", "0.95", "0.99"}) {
      std::string needle =
          std::string(name) + "{quantile=\"" + q + "\"} ";
      size_t pos = metrics.find(needle);
      ASSERT_NE(pos, std::string::npos) << name << " " << q;
      int64_t value =
          std::strtoll(metrics.c_str() + pos + needle.size(), nullptr, 10);
      EXPECT_GT(value, 0) << needle;
    }
  }
}

TEST(TraceClusterTest, SlowQueryEventCarriesBlockedBreakdown) {
  TraceCluster cluster("trace-slow");
  Session session = TracedSpillSession();
  session.properties["slow_query_millis"] = "0";  // every query is "slow"
  auto result = cluster->Execute(kSpillingGroupBy, session);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const QueryEvent* slow = nullptr;
  for (const auto& event :
       cluster->coordinator().journal().EventsForQuery(result->query_id)) {
    if (event.kind == QueryEventKind::kSlowQuery) slow = new QueryEvent(event);
  }
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->counters, result->exec_metrics)
      << "slow-query snapshot must equal the result's exec_metrics";
  EXPECT_GT(slow->counters.count("trace.blocked.spill_io.nanos"), 0u);
  EXPECT_GT(slow->counters.at("trace.blocked.spill_io.nanos"), 0);
  EXPECT_GT(slow->counters.count("trace.spill.write_bytes"), 0u);
  delete slow;
}

TEST(TraceClusterTest, TracingOffByDefaultAndStatsStillCarryBreakdown) {
  TraceCluster cluster("trace-off");
  Session session;
  session.properties["query_max_memory"] = "65536";
  session.properties["spill_path"] = "/tmp/presto_trace_test";
  auto result = cluster->Execute(kSpillingGroupBy, session);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // No spans recorded, but the trace id still correlates the journal and the
  // always-on blocked accounting still fills the OperatorStats breakdown.
  EXPECT_TRUE(result->trace_json.empty());
  EXPECT_TRUE(result->trace_spans.empty());
  EXPECT_FALSE(result->trace_id.empty());
  int64_t spill_io = 0;
  for (const auto& [node_id, op] : result->stats.operators) {
    spill_io += op.spill_io_nanos;
  }
  EXPECT_GT(spill_io, 0) << "breakdown must not depend on query_trace";

  // Traced and untraced runs agree on results.
  auto traced = cluster->Execute(kSpillingGroupBy, TracedSpillSession());
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(traced->total_rows, result->total_rows);
}

}  // namespace
}  // namespace presto
