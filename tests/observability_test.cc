// End-to-end observability tests: operator stats reconciliation with query
// results (with kernels on and off), EXPLAIN / EXPLAIN ANALYZE rendering,
// query event journal ordering under a simulated clock, slow-query logging,
// failed-query partial counters, and Prometheus metrics exposition.

#include <gtest/gtest.h>

#include <cctype>

#include "presto/cluster/cluster.h"
#include "presto/connectors/hive/hive_connector.h"
#include "presto/connectors/memory/memory_connector.h"
#include "presto/fs/simulated_hdfs.h"
#include "presto/lakefile/writer.h"
#include "presto/vector/vector_builder.h"

namespace presto {
namespace {

// Every cluster in this file shares one simulated clock so journal
// timestamps are deterministic.
SimulatedClock* TestClock() {
  static SimulatedClock clock;
  return &clock;
}

std::shared_ptr<MemoryConnector> MakeOrdersConnector() {
  auto memory = std::make_shared<MemoryConnector>();
  TypePtr t = Type::Row({"k", "v"}, {Type::Bigint(), Type::Bigint()});
  EXPECT_TRUE(memory->CreateTable("default", "orders", t).ok());
  std::vector<int64_t> keys, values;
  for (int64_t i = 0; i < 1000; ++i) {
    keys.push_back(i % 10);
    values.push_back(i);
  }
  EXPECT_TRUE(memory->AppendPage("default", "orders",
                                 Page({MakeBigintVector(std::move(keys)),
                                       MakeBigintVector(std::move(values))}))
                  .ok());
  return memory;
}

CoordinatorOptions TestOptions() {
  CoordinatorOptions options;
  options.clock = TestClock();
  return options;
}

// PrestoCluster is not movable (the coordinator owns mutexes), so tests
// construct it in place and this helper only registers the test catalog.
struct ObsCluster {
  explicit ObsCluster(const std::string& name)
      : cluster(name, /*num_workers=*/2, /*slots_per_worker=*/2, TestOptions()) {
    EXPECT_TRUE(
        cluster.catalogs().RegisterCatalog("memory", MakeOrdersConnector()).ok());
  }
  PrestoCluster* operator->() { return &cluster; }
  PrestoCluster cluster;
};

constexpr const char* kGroupBy =
    "SELECT k, count(*), sum(v) FROM orders GROUP BY k";

TEST(ObservabilityTest, OperatorStatsReconcileWithResult) {
  ObsCluster cluster("obs-stats");
  Session session;
  auto result = cluster->Execute(kGroupBy, session);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_rows, 10);

  // The stats tree's query output must reconcile exactly with the result.
  EXPECT_EQ(result->stats.output_rows, result->total_rows);
  EXPECT_EQ(result->stats.total_tasks, result->num_tasks + 1);  // + root task

  // Every fragment appears as a stage; fragment 0 is the root stage.
  ASSERT_EQ(result->stats.stages.size(),
            static_cast<size_t>(result->num_fragments));
  EXPECT_EQ(result->stats.stages[0].fragment_id, 0);
  EXPECT_EQ(result->stats.stages[0].output_rows, result->total_rows);

  // The scan read the full table; its stats merged across all leaf tasks.
  int64_t scan_output = 0;
  bool saw_agg = false;
  for (const auto& [id, op] : result->stats.operators) {
    if (op.operator_type == "TableScan") scan_output += op.output_rows;
    if (op.operator_type == "HashAggregation") {
      saw_agg = true;
      EXPECT_GT(op.peak_buffered_rows, 0) << "group hash table high-water";
    }
    EXPECT_GE(op.wall_nanos, 0);
    EXPECT_GE(op.cpu_nanos, 0);
  }
  EXPECT_EQ(scan_output, 1000);
  EXPECT_TRUE(saw_agg);
}

TEST(ObservabilityTest, StatsSurviveBoxedFallback) {
  // approx_distinct has no columnar kernel, so its aggregation folds through
  // the row-at-a-time Accumulator adapter; the operator tree is the same.
  ObsCluster cluster("obs-fallback");
  auto kernel = cluster->Execute(kGroupBy, Session());
  auto adapter = cluster->Execute(
      "SELECT k, count(*), approx_distinct(v) FROM orders GROUP BY k",
      Session());
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  ASSERT_TRUE(adapter.ok()) << adapter.status().ToString();

  // Same per-operator row counts whichever way an aggregate folds.
  EXPECT_EQ(kernel->stats.output_rows, adapter->stats.output_rows);
  ASSERT_EQ(kernel->stats.operators.size(), adapter->stats.operators.size());
  int64_t kernel_pages = 0, kernel_fallback = 0;
  int64_t adapter_kernel = 0, adapter_pages = 0;
  for (const auto& [id, op] : kernel->stats.operators) {
    EXPECT_EQ(op.output_rows, adapter->stats.operators.at(id).output_rows)
        << "node " << id;
    kernel_pages += op.kernel_pages;
    kernel_fallback += op.fallback_pages;
  }
  for (const auto& [id, op] : adapter->stats.operators) {
    adapter_kernel += op.kernel_pages;
    adapter_pages += op.fallback_pages;
  }
  // The kernel/fallback split says where row-at-a-time work happened: every
  // aggregation page of the adapter query, none of the kernel query's.
  EXPECT_GT(kernel_pages, 0);
  EXPECT_EQ(kernel_fallback, 0);
  EXPECT_EQ(adapter_kernel, 0);
  EXPECT_EQ(adapter_pages, kernel_pages);
  EXPECT_EQ(adapter->exec_metrics["exec.agg.fallback_pages"], adapter_pages);
}

TEST(ObservabilityTest, ExplainReturnsPlanText) {
  ObsCluster cluster("obs-explain");
  Session session;
  auto result = cluster->Execute(std::string("EXPLAIN ") + kGroupBy, session);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->total_rows, 1);
  ASSERT_EQ(result->column_names.size(), 1u);
  EXPECT_EQ(result->column_names[0], "Query Plan");
  std::string text = result->Row(0)[0].ToString();
  EXPECT_NE(text.find("Fragment 0"), std::string::npos) << text;
  EXPECT_NE(text.find("TableScan"), std::string::npos) << text;
  // EXPLAIN plans but does not execute.
  EXPECT_EQ(text.find("rows:"), std::string::npos) << text;
}

TEST(ObservabilityTest, ExplainAnalyzeAnnotatesEveryNodeAndReconciles) {
  ObsCluster cluster("obs-analyze");
  Session session;
  auto plain = cluster->Execute(kGroupBy, session);
  ASSERT_TRUE(plain.ok());

  auto analyzed =
      cluster->Execute(std::string("EXPLAIN ANALYZE ") + kGroupBy, session);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ASSERT_EQ(analyzed->total_rows, 1);
  std::string text = analyzed->Row(0)[0].ToString();

  // The analyzed run's stats must reconcile exactly with the plain run.
  EXPECT_EQ(analyzed->stats.output_rows, plain->total_rows);

  // Every plan node line ("- Foo") is followed by an annotation line with
  // actual rows, and the query-output row count appears verbatim.
  size_t nodes = 0, annotations = 0;
  size_t pos = 0;
  while ((pos = text.find("- ", pos)) != std::string::npos) {
    ++nodes;
    pos += 2;
  }
  pos = 0;
  while ((pos = text.find("rows:", pos)) != std::string::npos) {
    ++annotations;
    pos += 5;
  }
  EXPECT_GT(nodes, 0u);
  EXPECT_GE(annotations, nodes) << text;
  EXPECT_NE(text.find("rows: " + std::to_string(plain->total_rows)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("[tasks:"), std::string::npos) << text;
}

TEST(ObservabilityTest, ExplainAnalyzeShowsPartitionedExchanges) {
  ObsCluster cluster("obs-exchange");
  Session session;
  auto analyzed =
      cluster->Execute(std::string("EXPLAIN ANALYZE ") + kGroupBy, session);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::string text = analyzed->Row(0)[0].ToString();

  // The partial-aggregation leaf hash-partitions its output into the final
  // aggregation's intermediate stage; the rendered plan shows the scheme,
  // the partition count, and the exchanged bytes per stage.
  EXPECT_NE(text.find("(intermediate)"), std::string::npos) << text;
  EXPECT_NE(text.find("partitions, exchanged:"), std::string::npos) << text;
  EXPECT_NE(text.find("hash("), std::string::npos) << text;

  // The same numbers land in the structured per-stage stats.
  bool saw_partitioned_stage = false;
  for (const auto& stage : analyzed->stats.stages) {
    if (stage.num_partitions > 1 && stage.exchanged_bytes > 0) {
      saw_partitioned_stage = true;
    }
  }
  EXPECT_TRUE(saw_partitioned_stage);

  // Exchange counters ride along in the per-query metric snapshot, and the
  // buffered high-water mark respects the (default) byte budget.
  EXPECT_GT(analyzed->exec_metrics["exchange.page.pushed"], 0);
  EXPECT_GT(analyzed->exec_metrics["exchange.byte.pushed"], 0);
  EXPECT_GT(analyzed->exec_metrics["exchange.peak_buffered_bytes"], 0);
  EXPECT_EQ(analyzed->exec_metrics["exchange.page.dropped"], 0);
}

TEST(ObservabilityTest, ExplainAnalyzeShowsLazyScanStatsAndEnforcedPushdown) {
  // A selective scan over a hive lakefile with many small pages: EXPLAIN
  // ANALYZE must surface the page-skipping / late-materialization counters
  // on the TableScan node, mark the pushdown " enforced", and carry NO
  // residual engine-side Filter (the connector emits exactly matching rows).
  PrestoCluster cluster("obs-lazyscan", 2, 2, TestOptions());
  auto hdfs = std::make_unique<SimulatedHdfs>(TestClock());
  auto hive = std::make_shared<HiveConnector>(hdfs.get(), "warehouse");
  TypePtr row = Type::Row({"k", "v"}, {Type::Bigint(), Type::Bigint()});
  ASSERT_TRUE(hive->CreateTable("raw", "pts", row).ok());
  {
    const size_t n = 2048;
    std::vector<int64_t> k(n), v(n);
    for (size_t i = 0; i < n; ++i) {
      k[i] = static_cast<int64_t>(i);  // sorted: page stats are tight
      v[i] = static_cast<int64_t>(i) * 5;
    }
    lakefile::WriterOptions writer_options;
    writer_options.row_group_rows = n;  // one group: skipping is per page
    writer_options.page_rows = 64;
    ASSERT_TRUE(hive
                    ->WriteDataFile("raw", "pts", "",
                                    {Page({MakeBigintVector(std::move(k)),
                                           MakeBigintVector(std::move(v))})},
                                    writer_options)
                    .ok());
  }
  ASSERT_TRUE(cluster.catalogs().RegisterCatalog("lake", hive).ok());

  const std::string sql = "SELECT v FROM lake.raw.pts WHERE k < 40";
  Session session;
  auto analyzed = cluster.Execute("EXPLAIN ANALYZE " + sql, session);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::string text = analyzed->Row(0)[0].ToString();

  // Scan counters rendered on the TableScan annotation line.
  EXPECT_NE(text.find("pages_skipped"), std::string::npos) << text;
  EXPECT_NE(text.find("rows_pruned"), std::string::npos) << text;
  EXPECT_NE(text.find("scan-io"), std::string::npos) << text;

  // Pushdown fully absorbed: marked enforced, no residual Filter node.
  EXPECT_NE(text.find("pushedPredicates="), std::string::npos) << text;
  EXPECT_NE(text.find(" enforced"), std::string::npos) << text;
  EXPECT_EQ(text.find("Filter["), std::string::npos)
      << "enforced pushdown must drop the engine-side residual filter:\n"
      << text;

  // Structured per-operator stats agree with the rendered text.
  bool saw_scan = false;
  for (const auto& [id, op] : analyzed->stats.operators) {
    if (op.operator_type != "TableScan") continue;
    saw_scan = true;
    EXPECT_GT(op.scan_pages_total, 0);
    EXPECT_GT(op.scan_pages_skipped_stats, 0)
        << "a 2% scan over 64-row pages must skip pages via page stats";
    EXPECT_GT(op.scan_rows_pruned_late, 0);
    EXPECT_LT(op.scan_pages_read, op.scan_pages_total);
    EXPECT_GT(op.scan_bytes_read, 0);
    EXPECT_EQ(op.output_rows, 40);
  }
  EXPECT_TRUE(saw_scan);

  // The lakefile.* counters ride along in the per-query metric snapshot.
  EXPECT_GT(analyzed->exec_metrics["lakefile.pages.read"], 0);
  EXPECT_GT(analyzed->exec_metrics["lakefile.pages.skipped_stats"], 0);
  EXPECT_GT(analyzed->exec_metrics["lakefile.rows.pruned_late"], 0);
  EXPECT_GT(analyzed->exec_metrics["lakefile.bytes.read"], 0);

  // And the query itself returns exactly the matching rows.
  auto result = cluster.Execute(sql, session);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_rows, 40);

  // One scan-accounting path: at one chain and at four, for the plain scan,
  // an aggregation (whose scan runs as replicated morsel chains) and a LIMIT
  // that abandons the scan early, every lakefile.* exec metric equals the
  // sum of its scan_* field over the TableScan records, and the merged page
  // counts balance.
  const std::string limit_sql = "SELECT v FROM lake.raw.pts LIMIT 5";
  for (const char* threads : {"1", "4"}) {
    Session threaded;
    threaded.properties["task_threads"] = threads;
    for (const std::string& query :
         {sql,
          std::string("SELECT count(*), sum(v) FROM lake.raw.pts WHERE k < 40"),
          limit_sql}) {
      SCOPED_TRACE(query + " at task_threads=" + threads);
      auto run = cluster.Execute("EXPLAIN ANALYZE " + query, threaded);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      OperatorStats scans;
      for (const auto& [id, op] : run->stats.operators) {
        if (op.operator_type == "TableScan") scans.Merge(op);
      }
      std::map<std::string, int64_t>& metrics = run->exec_metrics;
      EXPECT_EQ(metrics["lakefile.pages.read"], scans.scan_pages_read);
      EXPECT_EQ(metrics["lakefile.pages.skipped_stats"],
                scans.scan_pages_skipped_stats);
      EXPECT_EQ(metrics["lakefile.pages.skipped_lazy"],
                scans.scan_pages_skipped_lazy);
      EXPECT_EQ(metrics["lakefile.rows.pruned_late"],
                scans.scan_rows_pruned_late);
      EXPECT_EQ(metrics["lakefile.dict_code.filter_hits"],
                scans.scan_dict_code_hits);
      EXPECT_EQ(metrics["lakefile.bytes.read"], scans.scan_bytes_read);
      // Page ledger: every examined page is read or skipped exactly once.
      EXPECT_EQ(scans.scan_pages_read + scans.scan_pages_skipped_stats +
                    scans.scan_pages_skipped_lazy,
                scans.scan_pages_total);
      EXPECT_GT(metrics["lakefile.pages.read"], 0);
      EXPECT_GT(metrics["lakefile.bytes.read"], 0);
      if (query != limit_sql) {
        EXPECT_GT(metrics["lakefile.pages.skipped_stats"], 0);
        EXPECT_GT(metrics["lakefile.rows.pruned_late"], 0);
      }
    }
  }
}

TEST(ObservabilityTest, ExchangePeakStaysWithinSessionBudget) {
  ObsCluster cluster("obs-budget");
  Session session;
  session.properties["exchange_buffer_bytes"] = "8192";
  auto result = cluster->Execute(kGroupBy, session);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_rows, 10);
  // Bounded buffering: the high-water mark can overshoot the budget by at
  // most one page (a producer only learns the buffer is full after its
  // reservation), never more.
  int64_t peak = result->exec_metrics["exchange.peak_buffered_bytes"];
  int64_t pages = result->exec_metrics["exchange.page.pushed"];
  int64_t bytes = result->exec_metrics["exchange.byte.pushed"];
  ASSERT_GT(pages, 0);
  int64_t max_page = bytes;  // conservative upper bound for one page
  EXPECT_GT(peak, 0);
  EXPECT_LE(peak, 8192 + max_page);
}

TEST(ObservabilityTest, JournalOrdersLifecycleUnderSimulatedClock) {
  ObsCluster cluster("obs-journal");
  Session session;
  auto result = cluster->Execute(kGroupBy, session);
  ASSERT_TRUE(result.ok());

  auto events = cluster->coordinator().journal().EventsForQuery(result->query_id);
  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events.front().kind, QueryEventKind::kCreated);
  EXPECT_EQ(events.front().detail, kGroupBy);
  EXPECT_EQ(events[1].kind, QueryEventKind::kPlanned);
  EXPECT_EQ(events[2].kind, QueryEventKind::kScheduled);
  EXPECT_EQ(events.back().kind, QueryEventKind::kCompleted);
  EXPECT_EQ(events.back().counters.at("output_rows"), result->total_rows);

  // Every fragment's stage-finished event is present, between scheduled and
  // completed.
  int stage_finished = 0;
  for (const QueryEvent& event : events) {
    if (event.kind == QueryEventKind::kStageFinished) ++stage_finished;
  }
  EXPECT_EQ(stage_finished, result->num_fragments);

  // Nobody advanced the simulated clock mid-query, yet timestamps (and
  // sequence numbers) are strictly increasing.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].timestamp_nanos, events[i - 1].timestamp_nanos);
    EXPECT_GT(events[i].sequence, events[i - 1].sequence);
  }
}

TEST(ObservabilityTest, SlowQueryLogAndFailedQueryCounters) {
  ObsCluster cluster("obs-slow");
  Session session;
  session.properties["slow_query_millis"] = "0";  // everything is slow
  auto result = cluster->Execute(kGroupBy, session);
  ASSERT_TRUE(result.ok());
  auto events = cluster->coordinator().journal().EventsForQuery(result->query_id);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, QueryEventKind::kSlowQuery);
  // The slow-query record carries the per-query exec counter snapshot.
  EXPECT_EQ(events.back().counters, result->exec_metrics);

  // A failing query journals kFailed; no result escapes, so the journal is
  // where its diagnostics live.
  auto failed = cluster->Execute("SELECT nope FROM orders", session);
  ASSERT_FALSE(failed.ok());
  auto all = cluster->coordinator().journal().Events();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.back().kind, QueryEventKind::kFailed);
  EXPECT_EQ(cluster->coordinator().metrics().Get("coordinator.query.failed"), 1);
}

TEST(ObservabilityTest, JournalRingDropsOldestBeyondCapacity) {
  CoordinatorOptions options;
  options.clock = TestClock();
  options.journal_capacity = 8;
  CatalogRegistry catalogs;
  Coordinator coordinator(&catalogs, options);
  // No catalogs registered: every statement fails after created+failed
  // events; 6 statements = 12 events through a ring of 8.
  Session session;
  for (int i = 0; i < 6; ++i) {
    (void)coordinator.ExecuteSql("SELECT x FROM t" + std::to_string(i), session);
  }
  auto events = coordinator.journal().Events();
  EXPECT_EQ(events.size(), 8u);
  EXPECT_EQ(coordinator.journal().events_recorded(), 12);
  // Oldest events fell off the front; the survivors stay ordered.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].sequence, events[i - 1].sequence);
  }
}

TEST(ObservabilityTest, QueryStatsPropertyDisablesCollection) {
  ObsCluster cluster("obs-disable");
  Session session;
  session.properties["query_stats"] = "false";
  auto result = cluster->Execute(kGroupBy, session);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_rows, 10);  // rows still flow & count correctly
  EXPECT_TRUE(result->stats.operators.empty());

  // EXPLAIN ANALYZE overrides the property: it cannot work without stats.
  auto analyzed =
      cluster->Execute(std::string("EXPLAIN ANALYZE ") + kGroupBy, session);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_FALSE(analyzed->stats.operators.empty());
}

TEST(ObservabilityTest, ClusterMetricsRenderAsPrometheusText) {
  ObsCluster cluster("obs-prom");
  Session session;
  ASSERT_TRUE(cluster->Execute(kGroupBy, session).ok());

  std::string text = cluster->RenderMetricsText();
  // Counters and gauges with sanitized names and TYPE headers.
  EXPECT_NE(text.find("# TYPE coordinator_query_completed counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("coordinator_query_completed 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE worker_task_completed counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cluster_workers_active gauge"),
            std::string::npos);
  EXPECT_NE(text.find("cluster_workers_active 2"), std::string::npos);
  EXPECT_NE(text.find("coordinator_journal_events"), std::string::npos);
  // Latency histograms export as summaries with quantile labels.
  EXPECT_NE(text.find("# TYPE query_latency_micros summary"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("query_latency_micros{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("query_latency_micros_count 1"), std::string::npos);

  // Valid Prometheus text: every non-comment line is "<name>[{labels}] <int>",
  // names restricted to [a-zA-Z0-9_:].
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    // Optional label block ({quantile="0.95"}) must be balanced and
    // terminal; the name-charset rule applies to what precedes it.
    size_t brace = name.find('{');
    if (brace != std::string::npos) {
      ASSERT_EQ(name.back(), '}') << line;
      name = name.substr(0, brace);
      ASSERT_FALSE(name.empty()) << line;
    }
    for (char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << line;
    }
    EXPECT_NO_THROW(std::stoll(line.substr(space + 1))) << line;
  }
}

}  // namespace
}  // namespace presto
