// Differential (property) tests: the same logical query must produce
// identical results regardless of physical strategy —
//   * legacy vs native lakefile reader, all reader-feature combinations,
//   * connector pushdown vs engine-side evaluation,
//   * hive-on-lakefiles vs the same rows in the memory connector,
//   * columnar aggregation / join vs a row-at-a-time reference evaluator,
//   * geo rewrite on vs off (covered in integration_test).
// Any divergence is a correctness bug in a pushdown or reader feature.

#include <gtest/gtest.h>

#include <algorithm>

#include "presto/cluster/cluster.h"
#include "presto/connectors/hive/hive_connector.h"
#include "presto/connectors/memory/memory_connector.h"
#include "presto/fs/simulated_hdfs.h"
#include "presto/tpch/workloads.h"
#include "reference_eval.h"

namespace presto {
namespace {

// Rows of a result, boxed and sorted for order-insensitive comparison.
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

class DifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = new PrestoCluster("diff", 2, 2);
    clock_ = new SimulatedClock();
    hdfs_ = new SimulatedHdfs(clock_);
    hive_ = std::make_shared<HiveConnector>(hdfs_, "warehouse");

    // The same trips data lands in BOTH the hive table (lakefiles, several
    // row groups, city clustering for skippable stats) and a memory table.
    auto memory = std::make_shared<MemoryConnector>();
    TypePtr trips_type = workloads::TripsType();
    ASSERT_TRUE(hive_->CreateTable("raw", "trips", trips_type).ok());
    ASSERT_TRUE(memory->CreateTable("raw", "trips", trips_type).ok());
    for (int f = 0; f < 3; ++f) {
      workloads::TripsOptions options;
      options.num_rows = 4000;
      options.num_cities = 40;
      options.city_cluster_run = 250;
      options.null_fraction = 0.05;
      options.first_id = f * 4000;
      options.seed = 60 + f;
      Page page = workloads::GenerateTrips(options);
      lakefile::WriterOptions writer_options;
      writer_options.row_group_rows = 1000;
      ASSERT_TRUE(hive_->WriteDataFile("raw", "trips", "", {page}, writer_options).ok());
      ASSERT_TRUE(memory->AppendPage("raw", "trips", std::move(page)).ok());
    }
    ASSERT_TRUE(cluster_->catalogs().RegisterCatalog("hive", hive_).ok());
    ASSERT_TRUE(cluster_->catalogs().RegisterCatalog("mem", memory).ok());
  }

  static std::vector<std::string> Run(const std::string& sql) {
    Session session;
    auto result = cluster_->Execute(sql, session);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
    if (!result.ok()) return {};
    return SortedRows(*result);
  }

  // Runs the query template against hive under the given reader options and
  // against the memory connector; both must match.
  static void ExpectAllStrategiesAgree(const std::string& query_template) {
    auto substitute = [&](const std::string& catalog) {
      std::string sql = query_template;
      const std::string placeholder = "$T";
      size_t pos;
      while ((pos = sql.find(placeholder)) != std::string::npos) {
        sql.replace(pos, placeholder.size(), catalog + ".raw.trips");
      }
      return sql;
    };

    std::vector<std::string> reference = Run(substitute("mem"));

    // Legacy reader.
    HiveConnectorOptions legacy;
    legacy.use_legacy_reader = true;
    hive_->set_options(legacy);
    EXPECT_EQ(Run(substitute("hive")), reference) << "legacy reader diverged";

    // Native reader: every single-feature-off variant plus all-on.
    for (int mask = 0; mask < 6; ++mask) {
      HiveConnectorOptions options;
      options.use_legacy_reader = false;
      options.reader.nested_column_pruning = mask != 1;
      options.reader.predicate_pushdown = mask != 2;
      options.reader.dictionary_pushdown = mask != 3;
      options.reader.lazy_reads = mask != 4;
      options.reader.vectorized = mask != 5;
      hive_->set_options(options);
      EXPECT_EQ(Run(substitute("hive")), reference)
          << "native reader diverged with feature mask " << mask << " on\n"
          << query_template;
    }
    hive_->set_options(HiveConnectorOptions());
  }

  static PrestoCluster* cluster_;
  static SimulatedClock* clock_;
  static SimulatedHdfs* hdfs_;
  static std::shared_ptr<HiveConnector> hive_;
};

PrestoCluster* DifferentialTest::cluster_ = nullptr;
SimulatedClock* DifferentialTest::clock_ = nullptr;
SimulatedHdfs* DifferentialTest::hdfs_ = nullptr;
std::shared_ptr<HiveConnector> DifferentialTest::hive_;

TEST_F(DifferentialTest, FullScan) {
  ExpectAllStrategiesAgree("SELECT id, base.city_id, base.fare FROM $T");
}

TEST_F(DifferentialTest, NeedleEquality) {
  ExpectAllStrategiesAgree(
      "SELECT base.driver_uuid FROM $T WHERE base.city_id = 12");
  ExpectAllStrategiesAgree("SELECT base.city_id FROM $T WHERE id = 7777");
}

TEST_F(DifferentialTest, RangePredicates) {
  ExpectAllStrategiesAgree(
      "SELECT id FROM $T WHERE base.city_id >= 10 AND base.city_id < 13");
  ExpectAllStrategiesAgree(
      "SELECT id FROM $T WHERE id BETWEEN 3000 AND 3050");
}

TEST_F(DifferentialTest, InAndStringPredicates) {
  ExpectAllStrategiesAgree(
      "SELECT id FROM $T WHERE base.city_id IN (1, 5, 39)");
  ExpectAllStrategiesAgree(
      "SELECT id FROM $T WHERE base.status = 'completed' AND base.city_id = 3");
  ExpectAllStrategiesAgree(
      "SELECT id FROM $T WHERE base.status IN ('canceled', 'open')"
      " AND id < 500");
}

TEST_F(DifferentialTest, PredicateOnMissingMatch) {
  ExpectAllStrategiesAgree("SELECT id FROM $T WHERE base.city_id = 9999");
  ExpectAllStrategiesAgree("SELECT id FROM $T WHERE base.status = 'zzz'");
}

TEST_F(DifferentialTest, NullHandling) {
  // ~5% of base structs and fares are NULL.
  ExpectAllStrategiesAgree("SELECT count(*) FROM $T WHERE base.fare IS NULL");
  ExpectAllStrategiesAgree(
      "SELECT count(*), sum(base.fare) FROM $T WHERE base.fare IS NOT NULL");
  ExpectAllStrategiesAgree(
      "SELECT id FROM $T WHERE base.fare > 80.0");
}

TEST_F(DifferentialTest, Aggregations) {
  ExpectAllStrategiesAgree(
      "SELECT base.city_id, count(*), sum(base.fare), min(base.fare), "
      "max(base.fare) FROM $T GROUP BY base.city_id");
  ExpectAllStrategiesAgree(
      "SELECT base.status, avg(base.fare) FROM $T WHERE base.city_id < 20 "
      "GROUP BY base.status");
}

TEST_F(DifferentialTest, NestedCollections) {
  ExpectAllStrategiesAgree(
      "SELECT id, cardinality(tags) FROM $T WHERE id < 100");
  ExpectAllStrategiesAgree(
      "SELECT count(*) FROM $T WHERE contains(tags, 'airport')");
  ExpectAllStrategiesAgree(
      "SELECT id, element_at(metrics, 'surge') FROM $T WHERE id < 200");
}

TEST_F(DifferentialTest, ProjectionExpressions) {
  ExpectAllStrategiesAgree(
      "SELECT id % 7, base.fare * 2.0, upper(base.status) FROM $T "
      "WHERE id < 300");
}

TEST_F(DifferentialTest, TopNAndLimit) {
  // ORDER BY ... LIMIT has deterministic results (ties broken by id).
  ExpectAllStrategiesAgree(
      "SELECT id FROM $T WHERE base.city_id = 5 ORDER BY id LIMIT 20");
}

// ---------------------------------------------------------------------------
// Columnar aggregation / join vs the row-at-a-time reference evaluator
// ---------------------------------------------------------------------------

// Every aggregation and join runs on the normalized-key tables; the oracle
// is tests/reference_eval.h, fed a plain scan of the same tables. Inputs are
// randomized pages mixing flat and dictionary encodings with NULLs in both
// keys and values — the cases where key normalization, null flags, and
// dictionary gathers can silently diverge. Double values are multiples of
// 1/8, so sums are exact in any order.
class KernelDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = new PrestoCluster("kernel-diff", 2, 2);
    auto memory = std::make_shared<MemoryConnector>();

    TypePtr facts_type = Type::Row(
        {"k_int", "k_str", "v_int", "v_double"},
        {Type::Bigint(), Type::Varchar(), Type::Bigint(), Type::Double()});
    TypePtr dim_type = Type::Row({"key", "name"},
                                 {Type::Bigint(), Type::Varchar()});
    ASSERT_TRUE(memory->CreateTable("raw", "facts", facts_type).ok());
    ASSERT_TRUE(memory->CreateTable("raw", "dim", dim_type).ok());

    // Deterministic LCG so failures reproduce.
    uint64_t state = 42;
    auto next = [&state]() {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return state >> 33;
    };
    const std::vector<std::string> words = {"ash", "birch", "cedar", "dogwood",
                                            "elm", "fir", "ginkgo", ""};

    for (int p = 0; p < 6; ++p) {
      size_t n = 200 + next() % 300;
      std::vector<int64_t> k_int(n);
      std::vector<uint8_t> k_int_nulls(n);
      std::vector<std::string> k_str(n);
      std::vector<uint8_t> k_str_nulls(n);
      std::vector<int64_t> v_int(n);
      std::vector<uint8_t> v_int_nulls(n);
      std::vector<double> v_double(n);
      std::vector<uint8_t> v_double_nulls(n);
      for (size_t i = 0; i < n; ++i) {
        k_int[i] = static_cast<int64_t>(next() % 23) - 4;  // negatives too
        k_int_nulls[i] = next() % 10 == 0;
        k_str[i] = words[next() % words.size()];
        k_str_nulls[i] = next() % 11 == 0;
        v_int[i] = static_cast<int64_t>(next() % 1000) - 500;
        v_int_nulls[i] = next() % 7 == 0;
        v_double[i] = (static_cast<int64_t>(next() % 2000) - 1000) / 8.0;
        v_double_nulls[i] = next() % 9 == 0;
        if (v_double[i] == 0.0 && next() % 2 == 0) v_double[i] = -0.0;
      }
      std::vector<VectorPtr> columns = {
          std::make_shared<Int64Vector>(Type::Bigint(), k_int, k_int_nulls),
          std::make_shared<StringVector>(Type::Varchar(), k_str, k_str_nulls),
          std::make_shared<Int64Vector>(Type::Bigint(), v_int, v_int_nulls),
          std::make_shared<DoubleVector>(Type::Double(), v_double,
                                         v_double_nulls)};
      if (p % 2 == 1) {
        // Dictionary-encode the key columns: a shuffled gather over the flat
        // base plus dictionary-level nulls on top of the base nulls.
        for (size_t c = 0; c < 2; ++c) {
          std::vector<int32_t> indices(n);
          std::vector<uint8_t> top_nulls(n);
          for (size_t i = 0; i < n; ++i) {
            indices[i] = static_cast<int32_t>(next() % n);
            top_nulls[i] = next() % 13 == 0;
          }
          columns[c] = std::make_shared<DictionaryVector>(
              columns[c], std::move(indices), std::move(top_nulls));
        }
      }
      ASSERT_TRUE(
          memory->AppendPage("raw", "facts", Page(std::move(columns), n)).ok());
    }

    // Dimension table: duplicate and NULL keys, one dictionary page.
    for (int p = 0; p < 2; ++p) {
      size_t n = 40;
      std::vector<int64_t> key(n);
      std::vector<uint8_t> key_nulls(n);
      std::vector<std::string> name(n);
      for (size_t i = 0; i < n; ++i) {
        key[i] = static_cast<int64_t>(next() % 15) - 2;
        key_nulls[i] = next() % 8 == 0;
        name[i] = words[next() % words.size()] + std::to_string(next() % 4);
      }
      std::vector<VectorPtr> columns = {
          std::make_shared<Int64Vector>(Type::Bigint(), key, key_nulls),
          std::make_shared<StringVector>(Type::Varchar(), name,
                                         std::vector<uint8_t>{})};
      if (p == 1) {
        std::vector<int32_t> indices(n);
        for (size_t i = 0; i < n; ++i) {
          indices[i] = static_cast<int32_t>(next() % n);
        }
        columns[0] = std::make_shared<DictionaryVector>(columns[0],
                                                        std::move(indices));
      }
      ASSERT_TRUE(
          memory->AppendPage("raw", "dim", Page(std::move(columns), n)).ok());
    }

    ASSERT_TRUE(cluster_->catalogs().RegisterCatalog("mem", memory).ok());
  }

  // Boxes a plain scan of a fixture table as reference input.
  static reference::Table Scan(const std::string& sql) {
    auto result = cluster_->Execute(sql, Session());
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
    return result.ok() ? reference::FromResult(*result) : reference::Table();
  }
  // facts: [k_int, k_str, v_int, v_double]; dim: [key, name].
  static reference::Table Facts() {
    return Scan("SELECT k_int, k_str, v_int, v_double FROM mem.raw.facts");
  }
  // [facts..., dim...] joined on k_int = key.
  static reference::Table FactsJoinDim(bool left_outer) {
    return reference::Join(Facts(), Scan("SELECT key, name FROM mem.raw.dim"),
                           {{0, 0}}, left_outer);
  }

  // The query must return exactly the reference rows. `expect_kernel_of`
  // ("agg" / "join") names the operator whose pages must all have counted
  // as columnar kernel pages.
  static void ExpectMatchesReference(const std::string& sql,
                                     const Result<reference::Table>& expected,
                                     const std::string& expect_kernel_of) {
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto result = cluster_->Execute(sql, Session());
    ASSERT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
    EXPECT_EQ(SortedRows(*result), reference::Render(*expected))
        << "engine and reference evaluator diverged on\n" << sql;
    if (expect_kernel_of.empty()) return;
    const std::string kernel_pages = "exec." + expect_kernel_of + ".kernel_pages";
    EXPECT_GT(result->exec_metrics[kernel_pages], 0) << "none for\n" << sql;
    EXPECT_EQ(result->exec_metrics["exec.agg.fallback_pages"], 0) << sql;
  }

  static PrestoCluster* cluster_;
};

PrestoCluster* KernelDifferentialTest::cluster_ = nullptr;

TEST_F(KernelDifferentialTest, GroupByIntKey) {
  ExpectMatchesReference(
      "SELECT k_int, count(*), count(v_int), sum(v_int), min(v_int), "
      "max(v_int) FROM mem.raw.facts GROUP BY k_int",
      reference::GroupBy(Facts(), {0},
                         {{"count", {}}, {"count", {2}}, {"sum", {2}},
                          {"min", {2}}, {"max", {2}}}),
      "agg");
}

TEST_F(KernelDifferentialTest, GroupByDoubleAggregates) {
  ExpectMatchesReference(
      "SELECT k_int, sum(v_double), avg(v_double), min(v_double), "
      "max(v_double) FROM mem.raw.facts GROUP BY k_int",
      reference::GroupBy(
          Facts(), {0},
          {{"sum", {3}}, {"avg", {3}}, {"min", {3}}, {"max", {3}}}),
      "agg");
}

TEST_F(KernelDifferentialTest, GroupByVarcharAndMultiKey) {
  ExpectMatchesReference(
      "SELECT k_str, min(k_str), max(k_str), count(*) FROM mem.raw.facts "
      "GROUP BY k_str",
      reference::GroupBy(Facts(), {1},
                         {{"min", {1}}, {"max", {1}}, {"count", {}}}),
      "agg");
  ExpectMatchesReference(
      "SELECT k_str, k_int, avg(v_int), sum(v_double) FROM mem.raw.facts "
      "GROUP BY k_str, k_int",
      reference::GroupBy(Facts(), {1, 0}, {{"avg", {2}}, {"sum", {3}}}),
      "agg");
}

TEST_F(KernelDifferentialTest, GlobalAggregationAndEmptyInput) {
  ExpectMatchesReference(
      "SELECT count(*), sum(v_int), avg(v_double) FROM mem.raw.facts",
      reference::GroupBy(Facts(), {},
                         {{"count", {}}, {"sum", {2}}, {"avg", {3}}}),
      "agg");
  // Empty input: a global aggregation still emits exactly one row.
  reference::Table none = Facts();
  none.rows.clear();
  ExpectMatchesReference(
      "SELECT count(*), sum(v_int), min(k_str) FROM mem.raw.facts "
      "WHERE k_int > 1000000",
      reference::GroupBy(none, {},
                         {{"count", {}}, {"sum", {2}}, {"min", {1}}}),
      "");
}

TEST_F(KernelDifferentialTest, InnerJoin) {
  ExpectMatchesReference(
      "SELECT f.k_int, f.v_int, d.name FROM mem.raw.facts f "
      "JOIN mem.raw.dim d ON f.k_int = d.key",
      reference::Project(FactsJoinDim(/*left_outer=*/false), {0, 2, 5}),
      "join");
}

TEST_F(KernelDifferentialTest, LeftJoinNullKeys) {
  // NULL probe keys never match and must be null-extended exactly once.
  ExpectMatchesReference(
      "SELECT f.k_int, d.name FROM mem.raw.facts f "
      "LEFT JOIN mem.raw.dim d ON f.k_int = d.key",
      reference::Project(FactsJoinDim(/*left_outer=*/true), {0, 5}),
      "join");
}

TEST_F(KernelDifferentialTest, LeftJoinResidualFilter) {
  // A probe row whose matched pairs all fail the residual filter is
  // null-extended once; rows with a passing pair keep only those.
  ExpectMatchesReference(
      "SELECT f.k_int, f.v_int, d.name FROM mem.raw.facts f "
      "LEFT JOIN mem.raw.dim d ON f.k_int = d.key AND f.v_int > d.key * 40",
      reference::Project(
          reference::Join(Facts(), Scan("SELECT key, name FROM mem.raw.dim"),
                          {{0, 0}}, /*left_outer=*/true,
                          [](const reference::Row& f, const reference::Row& d) {
                            return !f[2].is_null() &&
                                   f[2].int_value() > d[0].int_value() * 40;
                          }),
          {0, 2, 5}),
      "join");
}

TEST_F(KernelDifferentialTest, JoinThenAggregate) {
  ExpectMatchesReference(
      "SELECT d.name, count(*), sum(f.v_double) FROM mem.raw.facts f "
      "JOIN mem.raw.dim d ON f.k_int = d.key GROUP BY d.name",
      reference::GroupBy(FactsJoinDim(/*left_outer=*/false), {5},
                         {{"count", {}}, {"sum", {3}}}),
      "agg");
}

// ---------------------------------------------------------------------------
// Multi-stage distributed execution vs coordinator-inline single stage
// ---------------------------------------------------------------------------

// The same query must produce identical (sorted) results whether it runs
// through hash-partitioned intermediate stages (multi_stage_execution=true,
// the default) or the legacy two-level leaf/root plan. Inputs are the
// randomized mixed-encoding pages from the kernel fixture — dictionary
// wraps, NULL keys, negative keys — exactly where row-hash routing could
// silently drop or duplicate rows.
class MultiStageDifferentialTest : public KernelDifferentialTest {
 protected:
  static void ExpectMultiStageMatchesSingleStage(const std::string& sql) {
    Session multi;
    multi.properties["multi_stage_execution"] = "true";
    auto staged = cluster_->Execute(sql, multi);
    ASSERT_TRUE(staged.ok()) << sql << "\n" << staged.status().ToString();

    Session single;
    single.properties["multi_stage_execution"] = "false";
    auto inline_result = cluster_->Execute(sql, single);
    ASSERT_TRUE(inline_result.ok())
        << sql << "\n" << inline_result.status().ToString();

    EXPECT_EQ(SortedRows(*staged), SortedRows(*inline_result))
        << "multi-stage and single-stage results diverged on\n" << sql;
  }
};

TEST_F(MultiStageDifferentialTest, GroupByMatchesSingleStage) {
  ExpectMultiStageMatchesSingleStage(
      "SELECT k_int, count(*), sum(v_int), min(v_double), max(v_double) "
      "FROM mem.raw.facts GROUP BY k_int");
  ExpectMultiStageMatchesSingleStage(
      "SELECT k_str, k_int, count(*), avg(v_double) FROM mem.raw.facts "
      "GROUP BY k_str, k_int");
}

TEST_F(MultiStageDifferentialTest, PartitionedJoinMatchesSingleStage) {
  ExpectMultiStageMatchesSingleStage(
      "SELECT f.k_int, f.v_int, d.name FROM mem.raw.facts f "
      "JOIN mem.raw.dim d ON f.k_int = d.key");
  ExpectMultiStageMatchesSingleStage(
      "SELECT f.k_int, d.name FROM mem.raw.facts f "
      "LEFT JOIN mem.raw.dim d ON f.k_int = d.key");
}

TEST_F(MultiStageDifferentialTest, JoinThenAggregateMatchesSingleStage) {
  ExpectMultiStageMatchesSingleStage(
      "SELECT d.name, count(*), sum(f.v_double) FROM mem.raw.facts f "
      "JOIN mem.raw.dim d ON f.k_int = d.key GROUP BY d.name");
}

TEST_F(MultiStageDifferentialTest, BroadcastJoinMatchesPartitioned) {
  const std::string sql =
      "SELECT f.k_int, d.name FROM mem.raw.facts f "
      "JOIN mem.raw.dim d ON f.k_int = d.key";
  Session partitioned;
  partitioned.properties["join_distribution_type"] = "partitioned";
  auto part = cluster_->Execute(sql, partitioned);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  Session broadcast;
  broadcast.properties["join_distribution_type"] = "broadcast";
  auto bcast = cluster_->Execute(sql, broadcast);
  ASSERT_TRUE(bcast.ok()) << bcast.status().ToString();
  EXPECT_EQ(SortedRows(*part), SortedRows(*bcast));
}

TEST_F(MultiStageDifferentialTest, TinyExchangeBudgetMatchesDefault) {
  // A 4 KB exchange budget forces constant producer backpressure; the
  // results must still be complete and identical.
  const std::string sql =
      "SELECT d.name, count(*), sum(f.v_int) FROM mem.raw.facts f "
      "JOIN mem.raw.dim d ON f.k_int = d.key GROUP BY d.name";
  Session tiny;
  tiny.properties["exchange_buffer_bytes"] = "4096";
  auto throttled = cluster_->Execute(sql, tiny);
  ASSERT_TRUE(throttled.ok()) << throttled.status().ToString();
  auto normal = cluster_->Execute(sql, Session());
  ASSERT_TRUE(normal.ok()) << normal.status().ToString();
  EXPECT_EQ(SortedRows(*throttled), SortedRows(*normal));
  EXPECT_GT(throttled->exec_metrics["exchange.producer.blocked"], 0)
      << "a 4 KB budget should have blocked at least one producer";
}

TEST_F(MultiStageDifferentialTest, JoinAggregationPlanHasThreeStages) {
  const std::string sql =
      "SELECT d.name, count(*) FROM mem.raw.facts f "
      "JOIN mem.raw.dim d ON f.k_int = d.key GROUP BY d.name";
  auto plan = cluster_->Explain(sql, Session());
  ASSERT_TRUE(plan.ok());
  // Two scan leaves hash-partitioned on the join keys, a partitioned join
  // stage, and the root gather: at least four fragments in total.
  EXPECT_NE(plan->find("Fragment 1 (leaf)"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("Fragment 2 (leaf)"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("Fragment 3 (intermediate)"), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("Join[INNER, partitioned"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("[output: hash("), std::string::npos) << *plan;
  EXPECT_NE(plan->find(", partitioned]"), std::string::npos) << *plan;
  // Single-stage mode collapses back to leaf+root only.
  Session single;
  single.properties["multi_stage_execution"] = "false";
  auto flat = cluster_->Explain(sql, single);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->find("(intermediate)"), std::string::npos) << *flat;
}

TEST_F(KernelDifferentialTest, UnsupportedAggregateFallsBack) {
  // approx_distinct has no columnar kernel: it folds through the per-group
  // Accumulator adapter on the same key table, and its pages count as
  // fallback pages.
  const std::string sql =
      "SELECT k_int, approx_distinct(v_int) FROM mem.raw.facts "
      "GROUP BY k_int";
  auto result = cluster_->Execute(sql, Session());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->exec_metrics["exec.agg.kernel_pages"], 0);
  EXPECT_GT(result->exec_metrics["exec.agg.fallback_pages"], 0);
  ExpectMatchesReference(
      sql, reference::GroupBy(Facts(), {0}, {{"approx_distinct", {2}}}), "");
}

}  // namespace
}  // namespace presto
