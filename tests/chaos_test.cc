// Chaos tests: failure is a first-class, testable input. A deterministic,
// seedable FaultInjector arms named fault points across the S3 object store,
// connector split readers, the exchange, and worker task bodies; every query
// in the corpus must then either return results identical to the fault-free
// run or fail with a classified (retryable/terminal), non-corrupt error —
// never crash, never hang (query deadlines bound every wait), never return
// partial rows as if they were complete.
//
// Env knobs (wired into scripts/check.sh's chaos stage):
//   PRESTO_CHAOS_SEED   base seed for fault schedules   (default 20260806)
//   PRESTO_CHAOS_ITERS  fault-schedule iterations       (default 3)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "presto/cluster/cluster.h"
#include "presto/cluster/gateway.h"
#include "presto/common/fault_injection.h"
#include "presto/common/random.h"
#include "presto/connectors/hive/hive_connector.h"
#include "presto/connectors/memory/memory_connector.h"
#include "presto/exec/exchange.h"
#include "presto/fs/presto_s3_file_system.h"
#include "presto/vector/vector_builder.h"

namespace presto {
namespace {

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr || *value == '\0'
             ? fallback
             : std::strtoll(value, nullptr, 10);
}

// Disarms the global injector on scope exit so a failing assertion cannot
// leak an armed fault schedule into the next test.
struct InjectorGuard {
  InjectorGuard() { FaultInjector::Global().Reset(); }
  ~InjectorGuard() { FaultInjector::Global().Reset(); }
};

std::vector<std::string> SortedRows(const QueryResult& result) {
  std::vector<std::string> rows;
  for (const Page& page : result.pages) {
    for (size_t r = 0; r < page.num_rows(); ++r) {
      std::string row;
      for (size_t c = 0; c < page.num_columns(); ++c) {
        row += page.column(c)->GetValue(r).ToString() + "|";
      }
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool JournalHasEvent(const Coordinator& coordinator, QueryEventKind kind) {
  for (const QueryEvent& event : coordinator.journal().Events()) {
    if (event.kind == kind) return true;
  }
  return false;
}

// Shared fixture: one cluster, fact/dim tables in the memory connector (the
// multi-stage join/aggregation corpus) plus the same facts behind a hive
// table stored on simulated S3, so injected S3 faults flow through the
// PrestoS3FileSystem backoff into leaf-task retry.
class ChaosQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    cluster_ = std::make_unique<PrestoCluster>("chaos", 3, 2);
    auto memory = std::make_shared<MemoryConnector>();
    TypePtr facts_type = Type::Row({"k", "v", "v_d"},
                                   {Type::Bigint(), Type::Bigint(), Type::Double()});
    TypePtr dim_type =
        Type::Row({"key", "w"}, {Type::Bigint(), Type::Bigint()});
    ASSERT_TRUE(memory->CreateTable("raw", "facts", facts_type).ok());
    ASSERT_TRUE(memory->CreateTable("raw", "dim", dim_type).ok());

    clock_ = std::make_unique<SimulatedClock>();
    s3_ = std::make_unique<S3ObjectStore>(clock_.get());
    s3fs_ = std::make_unique<PrestoS3FileSystem>(s3_.get(), clock_.get());
    hive_ = std::make_shared<HiveConnector>(s3fs_.get(), "warehouse");
    ASSERT_TRUE(hive_->CreateTable("raw", "facts", facts_type).ok());

    Random rng(91);
    for (int p = 0; p < 6; ++p) {
      size_t n = 400;
      std::vector<int64_t> k(n), v(n);
      std::vector<double> vd(n);
      for (size_t i = 0; i < n; ++i) {
        k[i] = static_cast<int64_t>(rng.NextBelow(40));
        v[i] = static_cast<int64_t>(rng.NextBelow(1000));
        vd[i] = static_cast<double>(rng.NextBelow(10000)) / 4.0;
      }
      std::vector<VectorPtr> columns = {
          MakeBigintVector(std::move(k)), MakeBigintVector(std::move(v)),
          std::make_shared<DoubleVector>(Type::Double(), std::move(vd),
                                         std::vector<uint8_t>{})};
      Page page(std::move(columns), n);
      ASSERT_TRUE(hive_->WriteDataFile("raw", "facts", "", {page},
                                       lakefile::WriterOptions())
                      .ok());
      ASSERT_TRUE(memory->AppendPage("raw", "facts", std::move(page)).ok());
    }
    {
      std::vector<int64_t> key(40), w(40);
      for (size_t i = 0; i < key.size(); ++i) {
        key[i] = static_cast<int64_t>(i);
        w[i] = static_cast<int64_t>(i % 7);
      }
      ASSERT_TRUE(memory
                      ->AppendPage("raw", "dim",
                                   Page({MakeBigintVector(std::move(key)),
                                         MakeBigintVector(std::move(w))}))
                      .ok());
    }
    ASSERT_TRUE(cluster_->catalogs().RegisterCatalog("mem", memory).ok());
    ASSERT_TRUE(cluster_->catalogs().RegisterCatalog("s3hive", hive_).ok());
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  // The randomized multi-stage corpus: scans, filters, multi-stage group-bys
  // and partitioned joins, early-exit LIMIT, and an S3-backed hive scan.
  static std::vector<std::string> Corpus() {
    return {
        "SELECT k, count(*), sum(v), min(v), max(v) FROM mem.raw.facts "
        "GROUP BY k",
        "SELECT d.w, count(*), sum(f.v) FROM mem.raw.facts f "
        "JOIN mem.raw.dim d ON f.k = d.key GROUP BY d.w",
        "SELECT k, v FROM mem.raw.facts WHERE v < 100",
        "SELECT count(*), sum(v), avg(v_d) FROM mem.raw.facts",
        "SELECT k, v FROM mem.raw.facts WHERE k = 7 ORDER BY v LIMIT 10",
        "SELECT k, sum(v) FROM s3hive.raw.facts GROUP BY k",
    };
  }

  Result<QueryResult> Run(const std::string& sql,
                          std::map<std::string, std::string> props) {
    Session session;
    session.properties = std::move(props);
    return cluster_->Execute(sql, session);
  }

  std::unique_ptr<PrestoCluster> cluster_;
  std::unique_ptr<SimulatedClock> clock_;
  std::unique_ptr<S3ObjectStore> s3_;
  std::unique_ptr<PrestoS3FileSystem> s3fs_;
  std::shared_ptr<HiveConnector> hive_;
};

// The chaos differential: randomized fault schedules (rates up to 10%) on S3
// requests, split opens/reads, worker task bodies, and exchange transfers.
// Every corpus query either matches its fault-free reference exactly or
// fails with a classified retryable error — and with retries armed the vast
// majority must succeed.
TEST_F(ChaosQueryTest, DifferentialUnderInjectedFaults) {
  InjectorGuard guard;
  const uint64_t base_seed =
      static_cast<uint64_t>(EnvInt("PRESTO_CHAOS_SEED", 20260806));
  const int iterations = static_cast<int>(EnvInt("PRESTO_CHAOS_ITERS", 3));

  std::map<std::string, std::vector<std::string>> references;
  for (const std::string& sql : Corpus()) {
    auto clean = Run(sql, {});
    ASSERT_TRUE(clean.ok()) << sql << "\n" << clean.status().ToString();
    references[sql] = SortedRows(*clean);
  }

  int runs = 0, successes = 0, classified_failures = 0;
  int64_t total_injected = 0;  // Seed() resets counters; accumulate per iter
  auto& injector = FaultInjector::Global();
  for (int iter = 0; iter < iterations; ++iter) {
    injector.Seed(base_seed + static_cast<uint64_t>(iter));
    Random knobs(base_seed * 31 + static_cast<uint64_t>(iter));
    double rate = 0.02 + 0.08 * knobs.NextDouble();  // 2% .. 10%
    injector.ArmProbabilistic("s3.request", rate);
    injector.ArmProbabilistic("connector.split.open", rate);
    injector.ArmProbabilistic("connector.split.read", rate / 4,
                              StatusCode::kIoError);
    injector.ArmProbabilistic("worker.task.body", rate);
    injector.ArmProbabilistic("exchange.push", rate / 8);

    for (const std::string& sql : Corpus()) {
      auto result = Run(sql, {{"query_max_task_retries", "3"},
                              {"task_retry_backoff_millis", "1"},
                              {"query_timeout_millis", "30000"}});
      ++runs;
      if (result.ok()) {
        ++successes;
        EXPECT_EQ(SortedRows(*result), references[sql])
            << "faulted run returned corrupt results (seed "
            << base_seed + iter << ") on\n"
            << sql;
      } else {
        ++classified_failures;
        EXPECT_TRUE(IsRetryableStatus(result.status()))
            << "fault leaked out unclassified (seed " << base_seed + iter
            << "): " << result.status().ToString() << "\n"
            << sql;
      }
    }
    total_injected += injector.TotalInjected();
  }
  std::printf(
      "[ chaos  ] seed=%llu iters=%d: %d/%d queries exact-match, %d classified "
      "failures, %lld faults injected\n",
      static_cast<unsigned long long>(base_seed), iterations, successes, runs,
      classified_failures, static_cast<long long>(total_injected));
  EXPECT_GT(total_injected, 0)
      << "chaos schedule never actually fired a fault";
  // Leaf retry + restart-once should absorb most low-rate faults; a chaos
  // run where everything fails means recovery is not actually wired in.
  EXPECT_GT(successes, runs / 2)
      << successes << "/" << runs << " chaos queries succeeded";
  injector.Reset();

  // After disarming, the same corpus is fault-free again (no injector state
  // leaks into later queries).
  for (const std::string& sql : Corpus()) {
    auto result = Run(sql, {});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(SortedRows(*result), references[sql]);
  }
}

// Crash-style worker death mid-query (not graceful shrink): with retries
// armed the query succeeds via heartbeat detection -> blacklist -> leaf
// re-dispatch, and the journal shows the recovery trail.
TEST_F(ChaosQueryTest, WorkerKillMidQueryRecoversViaBlacklist) {
  InjectorGuard guard;
  const std::string sql =
      "SELECT k, count(*), sum(v) FROM mem.raw.facts GROUP BY k";
  auto reference = Run(sql, {});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Single-stage keeps every worker-hosted task a (retryable) leaf, so the
  // kill deterministically exercises blacklist + re-dispatch rather than the
  // stage-failure restart path.
  FaultInjector::Global().ArmScripted("worker.kill", {2});
  auto result = Run(sql, {{"multi_stage_execution", "false"},
                          {"query_max_task_retries", "2"},
                          {"task_retry_backoff_millis", "1"}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SortedRows(*result), SortedRows(*reference));

  const Coordinator& coordinator = cluster_->coordinator();
  EXPECT_EQ(coordinator.BlacklistedWorkers().size(), 1u);
  EXPECT_TRUE(JournalHasEvent(coordinator, QueryEventKind::kWorkerBlacklisted));
  EXPECT_TRUE(JournalHasEvent(coordinator, QueryEventKind::kTaskRetried));
  EXPECT_GE(coordinator.metrics().Get("worker.blacklisted"), 1);
  EXPECT_GE(coordinator.metrics().Get("task.retry.count"), 1);
  EXPECT_GE(result->exec_metrics["task.retry.count"], 1);

  // The dead worker is out of the fleet; later queries still work and never
  // touch it.
  for (const auto& worker : coordinator.ActiveWorkers()) {
    EXPECT_NE(worker->state(), WorkerState::kDead);
  }
  auto again = Run(sql, {});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(SortedRows(*again), SortedRows(*reference));
}

// The same crash with retries disabled: a clean, classified kUnavailable —
// not a hang, not a crash, not partial results.
TEST_F(ChaosQueryTest, WorkerKillWithoutRetriesFailsCleanly) {
  InjectorGuard guard;
  const std::string sql =
      "SELECT k, count(*), sum(v) FROM mem.raw.facts GROUP BY k";
  FaultInjector::Global().ArmScripted("worker.kill", {2});
  auto result = Run(sql, {{"multi_stage_execution", "false"}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();
  EXPECT_FALSE(
      JournalHasEvent(cluster_->coordinator(), QueryEventKind::kTaskRetried));
  EXPECT_GE(cluster_->coordinator().queries_failed(), 1);
}

// A transient intermediate-stage failure (latched exchange) is recovered by
// restarting the whole query once, journaled as query_restarted.
TEST_F(ChaosQueryTest, TransientStageFailureRestartsQueryOnce) {
  InjectorGuard guard;
  const std::string sql =
      "SELECT d.w, count(*), sum(f.v) FROM mem.raw.facts f "
      "JOIN mem.raw.dim d ON f.k = d.key GROUP BY d.w";
  auto reference = Run(sql, {});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  FaultInjector::Global().ArmScripted("exchange.push", {1});
  auto result = Run(sql, {{"query_max_task_retries", "1"},
                          {"task_retry_backoff_millis", "1"}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SortedRows(*result), SortedRows(*reference));
  EXPECT_TRUE(
      JournalHasEvent(cluster_->coordinator(), QueryEventKind::kRestarted));
  EXPECT_EQ(cluster_->coordinator().metrics().Get("query.restarted"), 1);
  EXPECT_EQ(result->exec_metrics["query.restarted"], 1);
}

// Scripted nth-call faults make precise regressions expressible: exactly the
// 2nd split open fails, leaf retry re-dispatches, and the query still
// matches the reference with exactly one retry journaled.
TEST_F(ChaosQueryTest, ScriptedSplitOpenFaultRetriesExactlyOnce) {
  InjectorGuard guard;
  const std::string sql = "SELECT count(*), sum(v) FROM mem.raw.facts";
  auto reference = Run(sql, {});
  ASSERT_TRUE(reference.ok());

  FaultInjector::Global().ArmScripted("connector.split.open", {2});
  auto result = Run(sql, {{"query_max_task_retries", "2"},
                          {"task_retry_backoff_millis", "1"}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SortedRows(*result), SortedRows(*reference));
  EXPECT_EQ(result->exec_metrics["task.retry.count"], 1);
  EXPECT_EQ(FaultInjector::Global().InjectedCount("connector.split.open"), 1);
}

// Lazy-scan chaos: the `lakefile.page.read` fault point fires inside the
// native reader's PageReader while a selective scan is skipping pages and
// late-materializing rows. A failed page must surface as a classified
// retryable error (absorbed by leaf retry) — never as wrong or partial rows.
TEST_F(ChaosQueryTest, LazyScanPageReadFaultsNeverCorruptResults) {
  InjectorGuard guard;
  // A dedicated hive table with many small pages and a sorted key, so the
  // scan actually exercises page skipping + lazy materialization while the
  // fault point is armed.
  TypePtr lazy_type = Type::Row({"k", "v"}, {Type::Bigint(), Type::Bigint()});
  ASSERT_TRUE(hive_->CreateTable("raw", "lazy", lazy_type).ok());
  {
    const size_t n = 1600;
    std::vector<int64_t> k(n), v(n);
    for (size_t i = 0; i < n; ++i) {
      k[i] = static_cast<int64_t>(i);
      v[i] = static_cast<int64_t>(i) * 3;
    }
    lakefile::WriterOptions writer_options;
    writer_options.row_group_rows = n;  // one group; skipping is per page
    writer_options.page_rows = 64;
    ASSERT_TRUE(hive_
                    ->WriteDataFile("raw", "lazy", "",
                                    {Page({MakeBigintVector(std::move(k)),
                                           MakeBigintVector(std::move(v))})},
                                    writer_options)
                    .ok());
  }
  const std::vector<std::string> corpus = {
      "SELECT k, v FROM s3hive.raw.lazy WHERE k < 40",           // selective
      "SELECT sum(v) FROM s3hive.raw.lazy WHERE k >= 1500",      // tail pages
      "SELECT count(*), sum(v) FROM s3hive.raw.lazy",            // full scan
  };
  std::map<std::string, std::vector<std::string>> references;
  for (const std::string& sql : corpus) {
    auto clean = Run(sql, {});
    ASSERT_TRUE(clean.ok()) << sql << "\n" << clean.status().ToString();
    references[sql] = SortedRows(*clean);
  }

  auto& injector = FaultInjector::Global();

  // Scripted regression: exactly the 2nd page read fails; leaf retry
  // re-dispatches and the selective scan still returns exact rows.
  injector.ArmScripted("lakefile.page.read", {2}, StatusCode::kIoError);
  auto retried = Run(corpus[0], {{"query_max_task_retries", "2"},
                                 {"task_retry_backoff_millis", "1"}});
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(SortedRows(*retried), references[corpus[0]]);
  EXPECT_EQ(injector.InjectedCount("lakefile.page.read"), 1);
  injector.Reset();

  // Probabilistic schedules: every run either matches exactly or fails with
  // a classified retryable error.
  const uint64_t base_seed =
      static_cast<uint64_t>(EnvInt("PRESTO_CHAOS_SEED", 20260806));
  const int iterations = static_cast<int>(EnvInt("PRESTO_CHAOS_ITERS", 3));
  int64_t total_injected = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    injector.Seed(base_seed + 1000 + static_cast<uint64_t>(iter));
    Random knobs(base_seed * 17 + static_cast<uint64_t>(iter));
    injector.ArmProbabilistic("lakefile.page.read",
                              0.02 + 0.06 * knobs.NextDouble(),
                              StatusCode::kIoError);
    for (const std::string& sql : corpus) {
      auto result = Run(sql, {{"query_max_task_retries", "3"},
                              {"task_retry_backoff_millis", "1"},
                              {"query_timeout_millis", "30000"}});
      if (result.ok()) {
        EXPECT_EQ(SortedRows(*result), references[sql])
            << "page-read fault corrupted results (iter " << iter << ") on\n"
            << sql;
      } else {
        EXPECT_TRUE(IsRetryableStatus(result.status()))
            << "page-read fault leaked out unclassified (iter " << iter
            << "): " << result.status().ToString() << "\n"
            << sql;
      }
    }
    EXPECT_GT(injector.CallCount("lakefile.page.read"), 0)
        << "lazy scan never reached the page-read fault point";
    total_injected += injector.TotalInjected();
  }
  EXPECT_GT(total_injected, 0) << "schedule never fired a page-read fault";
  injector.Reset();

  // Disarmed again: the corpus is exact.
  for (const std::string& sql : corpus) {
    auto result = Run(sql, {});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(SortedRows(*result), references[sql]);
  }
}

// A retry backoff longer than the query deadline must not hold the query
// alive: the backoff sleep wakes at the deadline and the query fails with
// the canonical timeout status in bounded wall time.
TEST_F(ChaosQueryTest, RetryBackoffHonorsQueryDeadline) {
  InjectorGuard guard;
  FaultInjector::Global().ArmScripted("connector.split.open", {1});
  Stopwatch watch;
  auto result = Run("SELECT count(*), sum(v) FROM mem.raw.facts",
                    {{"query_max_task_retries", "3"},
                     {"task_retry_backoff_millis", "10000"},
                     {"query_timeout_millis", "250"}});
  ASSERT_FALSE(result.ok())
      << "the injected fault never failed the query at all";
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("deadline"), std::string::npos)
      << result.status().ToString();
  EXPECT_LT(watch.ElapsedNanos(), 5'000'000'000LL)
      << "a 10s retry backoff outlived a 250ms query deadline";
  EXPECT_GE(cluster_->coordinator().metrics().Get("query.timeout"), 1);
}

// Per-query deadline: a query that cannot finish in time returns a clean
// kDeadlineExceeded instead of wedging the drain barrier.
TEST(QueryTimeoutTest, DeadlineReturnsCleanUnavailable) {
  InjectorGuard guard;
  PrestoCluster cluster("timeout", 2, 2);
  auto memory = std::make_shared<MemoryConnector>();
  TypePtr row = Type::Row({"k", "v"}, {Type::Bigint(), Type::Bigint()});
  ASSERT_TRUE(memory->CreateTable("raw", "big", row).ok());
  Random rng(7);
  for (int p = 0; p < 8; ++p) {
    size_t n = 65536;
    std::vector<int64_t> k(n), v(n);
    for (size_t i = 0; i < n; ++i) {
      k[i] = static_cast<int64_t>(rng.Next() % 100000);
      v[i] = static_cast<int64_t>(rng.NextBelow(1000));
    }
    ASSERT_TRUE(memory
                    ->AppendPage("raw", "big",
                                 Page({MakeBigintVector(std::move(k)),
                                       MakeBigintVector(std::move(v))}))
                    .ok());
  }
  ASSERT_TRUE(cluster.catalogs().RegisterCatalog("mem", memory).ok());

  Session session;
  session.properties["query_timeout_millis"] = "1";
  auto result = cluster.Execute(
      "SELECT k, count(*), sum(v) FROM mem.raw.big GROUP BY k", session);
  ASSERT_FALSE(result.ok()) << "a 1 ms deadline on a 512k-row group-by held";
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("deadline"), std::string::npos)
      << result.status().ToString();
  EXPECT_GE(cluster.coordinator().metrics().Get("query.timeout"), 1);

  // Without the deadline the same query completes.
  auto ok = cluster.Execute(
      "SELECT k, count(*), sum(v) FROM mem.raw.big GROUP BY k", Session());
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// A producer blocked on exchange backpressure wakes at the deadline and the
// exchange latches the timeout — the wedged-query shape the deadline exists
// to break.
TEST(QueryTimeoutTest, BlockedExchangeProducerWakesAtDeadline) {
  auto make_page = [] {
    std::vector<int64_t> values(1024);
    for (size_t i = 0; i < values.size(); ++i) values[i] = static_cast<int64_t>(i);
    return Page({MakeBigintVector(std::move(values))});
  };
  PartitionedExchange exchange(1, /*capacity_bytes=*/1024);
  exchange.SetProducerCount(1);
  exchange.SetDeadlineNanos(SteadyNowNanos() + 100'000'000);  // 100 ms
  Stopwatch watch;
  std::thread producer([&] {
    exchange.Push(0, make_page());  // fills the budget
    exchange.Push(0, make_page());  // blocks until the deadline latches
    exchange.ProducerDone();
  });
  producer.join();
  EXPECT_LT(watch.ElapsedNanos(), 10'000'000'000LL)
      << "blocked producer did not wake at the deadline";
  auto next = exchange.Next(0);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(next.status().message().find("deadline"), std::string::npos);
}

// ---------------------------------------------------------------------------
// PartitionedExchange fault-injection fuzz (satellite): random producer
// Fail() / consumer-cancel interleavings on randomized pages must never
// deadlock a blocked producer or leak buffered bytes past the budget.
// ---------------------------------------------------------------------------

TEST(ExchangeFaultFuzzTest, RandomFailCancelInterleavingsNeverDeadlockOrLeak) {
  const uint64_t base_seed =
      static_cast<uint64_t>(EnvInt("PRESTO_CHAOS_SEED", 20260806));
  const int iterations = static_cast<int>(EnvInt("PRESTO_CHAOS_ITERS", 3)) * 8;

  for (int iter = 0; iter < iterations; ++iter) {
    Random rng(base_seed ^ (0x9e3779b9ULL * (iter + 1)));
    const int num_partitions = 1 + static_cast<int>(rng.NextBelow(4));
    const int num_producers = 1 + static_cast<int>(rng.NextBelow(4));
    const int64_t capacity = 512 * (1 + static_cast<int64_t>(rng.NextBelow(8)));

    // Pre-draw every schedule decision on the main thread so the run is a
    // deterministic function of the seed (threads interleave freely, but
    // each thread's script is fixed).
    struct ProducerScript {
      std::vector<std::pair<int, size_t>> pages;  // (partition, rows)
      int fail_at = -1;  // call Fail() before pushing this page index
    };
    std::vector<ProducerScript> producers(num_producers);
    int64_t max_page_bytes = 0;
    for (ProducerScript& script : producers) {
      size_t pages = 1 + rng.NextBelow(12);
      for (size_t i = 0; i < pages; ++i) {
        size_t rows = 1 + rng.NextBelow(512);
        script.pages.emplace_back(static_cast<int>(rng.NextBelow(num_partitions)),
                                  rows);
        max_page_bytes =
            std::max(max_page_bytes, static_cast<int64_t>(rows * 8 + 128));
      }
      if (rng.NextBool(0.25)) {
        script.fail_at = static_cast<int>(rng.NextBelow(script.pages.size()));
      }
    }
    std::vector<int> cancel_after(num_partitions, -1);
    for (int p = 0; p < num_partitions; ++p) {
      if (rng.NextBool(0.3)) {
        cancel_after[p] = static_cast<int>(rng.NextBelow(8));
      }
    }

    PartitionedExchange exchange(num_partitions, capacity);
    exchange.SetProducerCount(num_producers);
    std::vector<std::thread> threads;
    for (const ProducerScript& script : producers) {
      threads.emplace_back([&exchange, &script] {
        for (size_t i = 0; i < script.pages.size(); ++i) {
          if (static_cast<int>(i) == script.fail_at) {
            exchange.Fail(Status::Unavailable("injected producer failure"));
          }
          auto [partition, rows] = script.pages[i];
          std::vector<int64_t> values(rows);
          for (size_t r = 0; r < rows; ++r) values[r] = static_cast<int64_t>(r);
          exchange.Push(partition, Page({MakeBigintVector(std::move(values))}));
        }
        exchange.ProducerDone();
      });
    }
    for (int p = 0; p < num_partitions; ++p) {
      threads.emplace_back([&exchange, p, cancel = cancel_after[p]] {
        int consumed = 0;
        while (true) {
          if (cancel >= 0 && consumed >= cancel) {
            exchange.ConsumerDone(p);
            return;
          }
          auto page = exchange.Next(p);
          if (!page.ok() || !page->has_value()) return;
          ++consumed;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    EXPECT_LE(exchange.peak_buffered_bytes(), capacity + max_page_bytes)
        << "byte budget breached (seed " << base_seed << ", iter " << iter
        << ")";
    EXPECT_EQ(exchange.buffered_bytes(), 0)
        << "buffered bytes leaked after teardown (iter " << iter << ")";
  }
}

// ---------------------------------------------------------------------------
// Gateway health-aware routing (satellite): N consecutive retryable failures
// mark a cluster unhealthy and traffic fails over; the first success (e.g.
// an out-of-band probe) restores it.
// ---------------------------------------------------------------------------

// Memory connector whose split opens fail with kUnavailable while `failing`
// is set — a cluster whose substrate is down, from the gateway's viewpoint.
class FlakyMemoryConnector : public MemoryConnector {
 public:
  Result<std::unique_ptr<ConnectorPageSource>> CreatePageSource(
      const SplitPtr& split, const AcceptedPushdown& pushdown) override {
    if (failing.load()) {
      return Status::Unavailable("injected cluster outage");
    }
    return MemoryConnector::CreatePageSource(split, pushdown);
  }

  std::atomic<bool> failing{false};
};

TEST(GatewayHealthTest, UnhealthyClusterFailsOverAndRecovers) {
  mysqlite::MySqlLite routing_db;
  PrestoGateway gateway(&routing_db, /*unhealthy_threshold=*/3);

  PrestoCluster alpha("alpha", 1, 1);
  PrestoCluster beta("beta", 1, 1);
  auto flaky = std::make_shared<FlakyMemoryConnector>();
  auto healthy = std::make_shared<MemoryConnector>();
  TypePtr row = Type::Row({"x"}, {Type::Bigint()});
  for (auto& connector :
       std::vector<std::shared_ptr<MemoryConnector>>{flaky, healthy}) {
    ASSERT_TRUE(connector->CreateTable("raw", "t", row).ok());
    ASSERT_TRUE(
        connector->AppendPage("raw", "t", Page({MakeBigintVector({1, 2, 3})}))
            .ok());
  }
  ASSERT_TRUE(alpha.catalogs().RegisterCatalog("mem", flaky).ok());
  ASSERT_TRUE(beta.catalogs().RegisterCatalog("mem", healthy).ok());
  ASSERT_TRUE(gateway.RegisterCluster("alpha", &alpha).ok());
  ASSERT_TRUE(gateway.RegisterCluster("beta", &beta).ok());
  ASSERT_TRUE(gateway.SetDefaultRoute("alpha").ok());

  const std::string sql = "SELECT sum(x) FROM mem.raw.t";
  Session session;

  // Healthy path routes to alpha.
  auto routed = gateway.Route(session);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ((*routed)->name(), "alpha");

  // Alpha's substrate goes down: the submission burns through alpha's
  // failure threshold, marks it unhealthy, and completes on beta.
  flaky->failing.store(true);
  auto result = gateway.Submit(sql, session);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->Row(0)[0], Value::Int(6));
  EXPECT_FALSE(gateway.IsClusterHealthy("alpha"));
  EXPECT_TRUE(gateway.IsClusterHealthy("beta"));
  EXPECT_EQ(gateway.metrics().Get("gateway.cluster.unhealthy"), 1);
  EXPECT_GE(gateway.metrics().Get("gateway.query.retried"), 3);

  // While alpha is sick, routing itself fails over.
  auto rerouted = gateway.Route(session);
  ASSERT_TRUE(rerouted.ok());
  EXPECT_EQ((*rerouted)->name(), "beta");
  EXPECT_GE(gateway.metrics().Get("gateway.route.failover"), 1);

  // Terminal (user) errors do not count against the healthy cluster.
  auto user_error = gateway.Submit("SELECT nope FROM mem.raw.missing", session);
  EXPECT_FALSE(user_error.ok());
  EXPECT_TRUE(gateway.IsClusterHealthy("beta"));

  // Alpha heals; the first success (out-of-band probe) restores routing.
  flaky->failing.store(false);
  gateway.ReportClusterSuccess("alpha");
  EXPECT_TRUE(gateway.IsClusterHealthy("alpha"));
  EXPECT_EQ(gateway.metrics().Get("gateway.cluster.recovered"), 1);
  auto back = gateway.Route(session);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->name(), "alpha");
  auto healthy_again = gateway.Submit(sql, session);
  ASSERT_TRUE(healthy_again.ok()) << healthy_again.status().ToString();
  EXPECT_EQ(healthy_again->Row(0)[0], Value::Int(6));
}

TEST(GatewayHealthTest, AllClustersUnhealthyIsCleanUnavailable) {
  mysqlite::MySqlLite routing_db;
  PrestoGateway gateway(&routing_db, /*unhealthy_threshold=*/1);
  PrestoCluster only("only", 1, 1);
  ASSERT_TRUE(gateway.RegisterCluster("only", &only).ok());
  ASSERT_TRUE(gateway.SetDefaultRoute("only").ok());
  gateway.ReportClusterFailure("only");
  auto routed = gateway.Route(Session());
  ASSERT_FALSE(routed.ok());
  EXPECT_EQ(routed.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace presto
