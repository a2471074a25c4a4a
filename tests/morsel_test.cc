// Morsel-driven intra-task parallelism: the replicated-chain execution of a
// task (session task_threads) must be invisible in results — group-by and
// join answers at 2 or 8 chains match the single-threaded reference exactly
// for integer aggregates and within fp tolerance for doubles (cross-chain
// merge reassociates additions) — and EXPLAIN ANALYZE totals must reconcile
// exactly because every morsel is counted by exactly one chain. Inputs mix
// flat, nullable, and dictionary-encoded pages so the parallel consume sees
// every encoding the readers produce.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "presto/cluster/cluster.h"
#include "presto/common/fault_injection.h"
#include "presto/common/random.h"
#include "presto/common/thread_pool.h"
#include "presto/connectors/memory/memory_connector.h"
#include "presto/exec/morsel.h"
#include "presto/vector/vector.h"

namespace presto {
namespace {

// -- WorkStealingPool ---------------------------------------------------------

TEST(WorkStealingPoolTest, RunsEverySubmittedTask) {
  WorkStealingPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(WorkStealingPoolTest, ShutdownDrainsPendingWork) {
  std::atomic<int> ran{0};
  {
    WorkStealingPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
    pool.Shutdown();
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(WorkStealingPoolTest, ExternalCallerCanHelp) {
  // An external (non-pool) thread may drain queued work via TryRunOne; the
  // combination of caller and pool thread must run every task exactly once.
  WorkStealingPool pool(1);
  std::atomic<int> ran{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  while (pool.TryRunOne()) {
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 1000);
}

// -- RunParallel --------------------------------------------------------------

TEST(RunParallelTest, RunsAllSlotsWithoutPool) {
  std::atomic<uint32_t> mask{0};
  Status st = RunParallel(nullptr, 8, [&mask](int slot) {
    mask.fetch_or(1u << slot);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(mask.load(), 0xFFu);
}

TEST(RunParallelTest, RunsAllSlotsWithPool) {
  WorkStealingPool pool(3);
  std::atomic<uint32_t> mask{0};
  Status st = RunParallel(&pool, 8, [&mask](int slot) {
    mask.fetch_or(1u << slot);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(mask.load(), 0xFFu);
}

TEST(RunParallelTest, PropagatesFirstError) {
  WorkStealingPool pool(2);
  Status st = RunParallel(&pool, 4, [](int slot) {
    if (slot == 2) return Status::Internal("slot 2 failed");
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("slot 2 failed"), std::string::npos);
}

// -- Differential: parallel chains vs the single-threaded reference -----------

std::vector<std::string> SortedRows(const QueryResult& result) {
  std::vector<std::string> rows;
  for (const Page& page : result.pages) {
    for (size_t r = 0; r < page.num_rows(); ++r) {
      std::string row;
      for (size_t c = 0; c < page.num_columns(); ++c) {
        row += page.column(c)->GetValue(r).ToString();
        row += "|";
      }
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class MorselDifferentialTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 200'000;
  static constexpr int64_t kKeys = 20'000;  // forces the radix upgrade
  static constexpr size_t kPageRows = 10'000;

  static void SetUpTestSuite() {
    cluster_ = new PrestoCluster("morsel-diff", 2, 2);
    auto memory = std::make_shared<MemoryConnector>();
    TypePtr facts_type = Type::Row(
        {"k", "tag", "v", "d"},
        {Type::Bigint(), Type::Varchar(), Type::Bigint(), Type::Double()});
    ASSERT_TRUE(memory->CreateTable("raw", "facts", facts_type).ok());

    // Dictionary base shared by the tag column of every page.
    std::vector<std::string> tags;
    for (int i = 0; i < 17; ++i) tags.push_back("tag_" + std::to_string(i));
    VectorPtr tag_base = MakeVarcharVector(tags);

    Random rng(20260808);
    for (int64_t done = 0; done < kRows; done += kPageRows) {
      std::vector<int64_t> k(kPageRows), v(kPageRows);
      std::vector<double> d(kPageRows);
      std::vector<uint8_t> v_nulls(kPageRows, 0);
      std::vector<int32_t> tag_idx(kPageRows);
      for (size_t i = 0; i < kPageRows; ++i) {
        k[i] = static_cast<int64_t>(rng.Next() % kKeys);
        v[i] = static_cast<int64_t>(rng.Next() % 1000);
        d[i] = static_cast<double>(rng.Next() % 100000) / 7.0;
        v_nulls[i] = rng.Next() % 20 == 0 ? 1 : 0;
        tag_idx[i] = static_cast<int32_t>(rng.Next() % tags.size());
      }
      std::vector<VectorPtr> columns;
      columns.push_back(MakeBigintVector(std::move(k)));
      columns.push_back(VectorPtr(
          std::make_shared<DictionaryVector>(tag_base, std::move(tag_idx))));
      columns.push_back(VectorPtr(std::make_shared<Int64Vector>(
          Type::Bigint(), std::move(v), std::move(v_nulls))));
      columns.push_back(MakeDoubleVector(std::move(d)));
      ASSERT_TRUE(memory
                      ->AppendPage("raw", "facts",
                                   Page(std::move(columns), kPageRows))
                      .ok());
    }
    ASSERT_TRUE(cluster_->catalogs().RegisterCatalog("mem", memory).ok());
  }

  static void TearDownTestSuite() {
    delete cluster_;
    cluster_ = nullptr;
  }

  static QueryResult Execute(const std::string& sql, int task_threads) {
    Session session;
    session.properties["task_threads"] = std::to_string(task_threads);
    auto result = cluster_->Execute(sql, session);
    EXPECT_TRUE(result.ok()) << sql << " (task_threads=" << task_threads
                             << ")\n"
                             << result.status().ToString();
    return result.ok() ? *result : QueryResult();
  }

  // Integer-only aggregates: results must be bit-identical at any thread
  // count.
  static void ExpectExactAcrossThreadCounts(const std::string& sql) {
    auto reference = SortedRows(Execute(sql, 1));
    ASSERT_FALSE(reference.empty()) << sql;
    for (int threads : {2, 8}) {
      EXPECT_EQ(SortedRows(Execute(sql, threads)), reference)
          << sql << " diverged at task_threads=" << threads;
    }
  }

  static PrestoCluster* cluster_;
};

PrestoCluster* MorselDifferentialTest::cluster_ = nullptr;

TEST_F(MorselDifferentialTest, GroupByExactAcrossThreadCounts) {
  ExpectExactAcrossThreadCounts(
      "SELECT k, count(*), sum(v), min(v), max(v) FROM mem.raw.facts "
      "GROUP BY k");
}

TEST_F(MorselDifferentialTest, DictionaryKeyGroupByExact) {
  ExpectExactAcrossThreadCounts(
      "SELECT tag, count(*), sum(v) FROM mem.raw.facts GROUP BY tag");
}

TEST_F(MorselDifferentialTest, GlobalAggregateExact) {
  ExpectExactAcrossThreadCounts(
      "SELECT count(*), sum(v), min(k), max(k) FROM mem.raw.facts");
}

TEST_F(MorselDifferentialTest, JoinExactAcrossThreadCounts) {
  // Self-join keeps the build side at kRows rows, past the radix-join
  // threshold, so the partitioned build tables get exercised.
  ExpectExactAcrossThreadCounts(
      "SELECT a.k, count(*) FROM mem.raw.facts a JOIN mem.raw.facts b "
      "ON a.k = b.k WHERE a.v < 3 AND b.v < 3 GROUP BY a.k");
}

TEST_F(MorselDifferentialTest, DoubleSumWithinTolerance) {
  // Cross-chain merge reassociates double additions; values must agree to
  // relative 1e-9 per group even though they need not be bit-identical.
  const std::string sql = "SELECT k, sum(d) FROM mem.raw.facts GROUP BY k";
  auto parse = [](const QueryResult& result) {
    std::map<int64_t, double> by_key;
    for (const Page& page : result.pages) {
      for (size_t r = 0; r < page.num_rows(); ++r) {
        by_key[page.column(0)->GetValue(r).int_value()] =
            page.column(1)->GetValue(r).AsDouble();
      }
    }
    return by_key;
  };
  auto reference = parse(Execute(sql, 1));
  // ~e^-10 of the 20k keys may go undrawn in 200k samples; all that matters
  // is that the parallel runs see exactly the same key set.
  ASSERT_GT(reference.size(), static_cast<size_t>(kKeys) * 9 / 10);
  for (int threads : {2, 8}) {
    auto parallel = parse(Execute(sql, threads));
    ASSERT_EQ(parallel.size(), reference.size());
    for (const auto& [key, expected] : reference) {
      double actual = parallel.at(key);
      EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-9 + 1e-9)
          << "key " << key << " at task_threads=" << threads;
    }
  }
}

TEST_F(MorselDifferentialTest, ExplainAnalyzeReconcilesExactly) {
  const std::string sql =
      "SELECT k, count(*), sum(v) FROM mem.raw.facts GROUP BY k";
  Session session;
  session.properties["task_threads"] = "8";
  auto plain = cluster_->Execute(sql, session);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  auto analyzed = cluster_->Execute("EXPLAIN ANALYZE " + sql, session);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();

  // Output totals reconcile exactly with the plain run.
  EXPECT_EQ(analyzed->stats.output_rows, plain->total_rows);

  // Every morsel is consumed by exactly one chain: the scan node's merged
  // per-chain stats must add up to exactly the table's rows.
  int64_t scan_rows = 0;
  bool saw_scan = false;
  for (const auto& [node_id, op] : analyzed->stats.operators) {
    if (op.operator_type == "TableScan") {
      scan_rows += op.output_rows;
      saw_scan = true;
    }
  }
  ASSERT_TRUE(saw_scan);
  EXPECT_EQ(scan_rows, kRows);
}

TEST_F(MorselDifferentialTest, ParallelChainsSurviveChaos) {
  // Faults armed while chains consume in parallel: every run either matches
  // the reference exactly or fails with a classified, retryable error.
  const std::string sql =
      "SELECT k, count(*), sum(v) FROM mem.raw.facts GROUP BY k";
  Session session;
  session.properties["task_threads"] = "4";
  auto reference = cluster_->Execute(sql, session);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const auto expected = SortedRows(*reference);

  auto& injector = FaultInjector::Global();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    injector.Reset();
    injector.Seed(seed);
    injector.ArmProbabilistic("connector.split.read", 0.02,
                              StatusCode::kIoError);
    injector.ArmProbabilistic("worker.task.body", 0.05);
    auto chaotic = cluster_->Execute(sql, session);
    if (chaotic.ok()) {
      EXPECT_EQ(SortedRows(*chaotic), expected) << "seed " << seed;
    } else {
      EXPECT_TRUE(IsRetryableStatus(chaotic.status()))
          << "seed " << seed << ": " << chaotic.status().ToString();
    }
  }
  injector.Reset();

  auto recovered = cluster_->Execute(sql, session);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(SortedRows(*recovered), expected);
}

TEST_F(MorselDifferentialTest, ZeroCopyCounterTicksOnGather) {
  Session session;
  auto result =
      cluster_->Execute("SELECT count(*) FROM mem.raw.facts", session);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The partial-aggregation stage gathers into the final stage through a
  // single-partition exchange: every page passes through zero-copy.
  EXPECT_GT(result->exec_metrics["exchange.page.zero_copy"], 0);
}

}  // namespace
}  // namespace presto
