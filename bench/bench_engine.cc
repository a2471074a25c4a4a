// Engine hot-path bench: TPC-H-shaped aggregation and join queries on the
// columnar kernel layer (normalized-key tables, grouped accumulators), run
// end-to-end through the coordinator (parse -> plan -> fragment ->
// partial/final aggregation), plus the overhead, shuffle, parallelism and
// scan sections below.
//
// Emits machine-readable results to BENCH_engine.json (path overridable via
// argv[1]).

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "presto/cluster/cluster.h"
#include "presto/common/fault_injection.h"
#include "presto/common/random.h"
#include "presto/connectors/hive/hive_connector.h"
#include "presto/connectors/memory/memory_connector.h"
#include "presto/fs/simulated_hdfs.h"
#include "presto/lakefile/writer.h"

namespace presto {
namespace {

constexpr size_t kPageRows = 65536;

// Appends `num_rows` of (k BIGINT, v BIGINT, v_d DOUBLE) fact data with
// `num_keys` distinct keys.
Status FillFacts(MemoryConnector* memory, const std::string& table,
                 size_t num_rows, int64_t num_keys, uint64_t seed) {
  Random rng(seed);
  for (size_t done = 0; done < num_rows;) {
    size_t n = std::min(kPageRows, num_rows - done);
    std::vector<int64_t> k(n), v(n);
    std::vector<double> vd(n);
    for (size_t i = 0; i < n; ++i) {
      k[i] = static_cast<int64_t>(rng.NextBelow(num_keys));
      v[i] = static_cast<int64_t>(rng.NextBelow(10000));
      vd[i] = static_cast<double>(rng.NextBelow(100000)) / 100.0;
    }
    std::vector<VectorPtr> columns = {
        std::make_shared<Int64Vector>(Type::Bigint(), std::move(k),
                                      std::vector<uint8_t>{}),
        std::make_shared<Int64Vector>(Type::Bigint(), std::move(v),
                                      std::vector<uint8_t>{}),
        std::make_shared<DoubleVector>(Type::Double(), std::move(vd),
                                       std::vector<uint8_t>{})};
    RETURN_IF_ERROR(memory->AppendPage("raw", table, Page(std::move(columns), n)));
    done += n;
  }
  return Status::OK();
}

// The spread of a spilling query over repeated runs: how many runs and
// bytes it wrote, how they split between the aggregation nodes, how many
// pages the final aggregation read, and how long its operators waited on
// the memory arbiter.
struct SpillSpread {
  // One value per run, each list sorted ascending.
  std::vector<int64_t> runs, bytes, leaf_runs, final_runs, final_input_pages,
      wait_nanos;
  int64_t rows = -1;  // result rows; -1 when two runs disagreed
};

// Whether `op` is the final aggregation of a two-stage group-by: the
// aggregation node whose output is the result. The other one is the leaf
// partial aggregation.
bool IsFinalAggregation(const OperatorStats& op, const QueryResult& result) {
  return op.operator_type == "HashAggregation" &&
         op.output_rows == result.total_rows;
}

int64_t FinalAggregationInputPages(const QueryResult& result) {
  int64_t pages = 0;
  for (const auto& [node_id, op] : result.stats.operators) {
    if (IsFinalAggregation(op, result)) pages += op.input_pages;
  }
  return pages;
}

long long Median(const std::vector<int64_t>& sorted) {
  return sorted[sorted.size() / 2];
}

std::string MinMedianMax(const std::vector<int64_t>& v, double scale,
                         int digits) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.*f / %.*f / %.*f", digits,
                v.front() * scale, digits, Median(v) * scale, digits,
                v.back() * scale);
  return buf;
}

// Runs `sql` (a two-stage group-by) `reps` times under `props` and prints
// the spread.
SpillSpread RunSpillSpread(PrestoCluster& cluster, const std::string& sql,
                           const std::map<std::string, std::string>& props,
                           size_t input_rows, int reps) {
  SpillSpread s;
  for (int rep = 0; rep < reps; ++rep) {
    Session session;
    session.properties = props;
    auto result = cluster.Execute(sql, session);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n%s\n", sql.c_str(),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (rep == 0) s.rows = result->total_rows;
    if (s.rows != result->total_rows) s.rows = -1;
    s.runs.push_back(result->exec_metrics["spill.run.written"]);
    s.bytes.push_back(result->exec_metrics["spill.byte.written"]);
    s.wait_nanos.push_back(
        result->exec_metrics["trace.blocked.memory_wait.nanos"]);
    int64_t leaf = 0, final_runs = 0;
    for (const auto& [node_id, op] : result->stats.operators) {
      if (op.operator_type != "HashAggregation") continue;
      (IsFinalAggregation(op, *result) ? final_runs : leaf) += op.spilled_runs;
    }
    s.leaf_runs.push_back(leaf);
    s.final_runs.push_back(final_runs);
    s.final_input_pages.push_back(FinalAggregationInputPages(*result));
  }
  for (auto* v : {&s.runs, &s.bytes, &s.leaf_runs, &s.final_runs,
                  &s.final_input_pages, &s.wait_nanos}) {
    std::sort(v->begin(), v->end());
  }
  std::printf(
      "  %d runs (min / median / max): runs %s, MB written %s, "
      "B per input row %s\n"
      "  runs by node: leaf partial %s, final %s; memory wait ms %s\n"
      "  final aggregation input pages %s\n",
      reps, MinMedianMax(s.runs, 1, 0).c_str(),
      MinMedianMax(s.bytes, 1.0 / 1048576, 1).c_str(),
      MinMedianMax(s.bytes, 1.0 / input_rows, 2).c_str(),
      MinMedianMax(s.leaf_runs, 1, 0).c_str(),
      MinMedianMax(s.final_runs, 1, 0).c_str(),
      MinMedianMax(s.wait_nanos, 1e-6, 1).c_str(),
      MinMedianMax(s.final_input_pages, 1, 0).c_str());
  return s;
}

struct BenchResult {
  std::string query_name;
  std::string sql;
  size_t input_rows = 0;
  double kernel_millis = 0;
  int64_t result_rows = 0;
  int64_t groups_created = 0;
  int64_t hash_probes = 0;
};

}  // namespace
}  // namespace presto

int main(int argc, char** argv) {
  using namespace presto;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_engine.json";

  const size_t kGroupByRows = 10'000'000;
  const size_t kJoinFactRows = 4'000'000;
  const size_t kDimRows = 100'000;

  auto memory = std::make_shared<MemoryConnector>();
  TypePtr fact_type =
      Type::Row({"k", "v", "v_d"}, {Type::Bigint(), Type::Bigint(), Type::Double()});
  if (!memory->CreateTable("raw", "facts", fact_type).ok()) return 1;
  if (!FillFacts(memory.get(), "facts", kGroupByRows, 100'000, 11).ok()) return 1;
  if (!memory->CreateTable("raw", "orders", fact_type).ok()) return 1;
  if (!FillFacts(memory.get(), "orders", kJoinFactRows, kDimRows, 12).ok()) return 1;

  // Dimension table for the join: every key once, plus a bucket column with
  // 32 distinct values for the post-join GROUP BY.
  TypePtr dim_type = Type::Row({"k", "bucket"}, {Type::Bigint(), Type::Bigint()});
  if (!memory->CreateTable("raw", "dim", dim_type).ok()) return 1;
  {
    Random rng(13);
    for (size_t done = 0; done < kDimRows;) {
      size_t n = std::min(kPageRows, kDimRows - done);
      std::vector<int64_t> k(n), bucket(n);
      for (size_t i = 0; i < n; ++i) {
        k[i] = static_cast<int64_t>(done + i);
        bucket[i] = static_cast<int64_t>(rng.NextBelow(32));
      }
      std::vector<VectorPtr> columns = {
          std::make_shared<Int64Vector>(Type::Bigint(), std::move(k),
                                        std::vector<uint8_t>{}),
          std::make_shared<Int64Vector>(Type::Bigint(), std::move(bucket),
                                        std::vector<uint8_t>{})};
      if (!memory->AppendPage("raw", "dim", Page(std::move(columns), n)).ok()) {
        return 1;
      }
      done += n;
    }
  }

  PrestoCluster cluster("engine-bench", 2, 4);
  (void)cluster.catalogs().RegisterCatalog("mem", memory);

  struct QuerySpec {
    const char* name;
    std::string sql;
    size_t input_rows;
  };
  // TPC-H shapes: Q1-style wide aggregation, low- and high-cardinality
  // group-bys, and a Q3/Q12-style join + aggregate.
  std::vector<QuerySpec> queries = {
      {"groupby_int64_100k_groups",
       "SELECT k, count(*), sum(v), min(v), max(v), avg(v_d) "
       "FROM mem.raw.facts GROUP BY k",
       kGroupByRows},
      {"groupby_int64_mod7",
       "SELECT k % 7, count(*), sum(v_d) FROM mem.raw.facts GROUP BY k % 7",
       kGroupByRows},
      {"global_agg",
       "SELECT count(*), sum(v), avg(v_d), min(v), max(v) FROM mem.raw.facts",
       kGroupByRows},
      {"join_int64_then_agg",
       "SELECT d.bucket, count(*), sum(o.v) FROM mem.raw.orders o "
       "JOIN mem.raw.dim d ON o.k = d.k GROUP BY d.bucket",
       kJoinFactRows},
  };

  auto best_of = [&](const std::string& sql,
                     std::map<std::string, std::string> props, int reps,
                     QueryResult* out) {
    double best = 1e18;
    for (int rep = 0; rep < reps; ++rep) {
      Session session;
      session.properties = props;
      auto result = cluster.Execute(sql, session);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n%s\n", sql.c_str(),
                     result.status().ToString().c_str());
        std::exit(1);
      }
      if (result->wall_millis < best) {
        best = result->wall_millis;
        *out = std::move(*result);
      }
    }
    return best;
  };

  std::printf("=== Engine kernels ===\n\n");
  std::vector<BenchResult> results;
  for (const QuerySpec& q : queries) {
    BenchResult r;
    r.query_name = q.name;
    r.sql = q.sql;
    r.input_rows = q.input_rows;
    QueryResult kernel_result;
    r.kernel_millis = best_of(q.sql, {}, 3, &kernel_result);
    r.result_rows = kernel_result.total_rows;
    r.groups_created = kernel_result.exec_metrics["exec.agg.groups_created"];
    r.hash_probes = kernel_result.exec_metrics["exec.agg.hash_probes"] +
                    kernel_result.exec_metrics["exec.join.hash_probes"];
    // Every aggregate here has a columnar kernel: a page folded through the
    // row-at-a-time Accumulator adapter means a kernel went missing.
    if (kernel_result.exec_metrics["exec.agg.fallback_pages"] != 0) {
      std::fprintf(stderr, "kernel run fell back on %s\n", q.name);
      return 1;
    }
    double kernel_mrps = static_cast<double>(q.input_rows) / 1e3 / r.kernel_millis;
    std::printf("%-28s kernel %8.1f ms (%6.1f Mrows/s)\n", q.name,
                r.kernel_millis, kernel_mrps);
    results.push_back(std::move(r));
  }

  // -- Observability overhead: per-operator stats collection on vs off -------
  // The stats path adds two clock reads + byte estimation per Next() call;
  // with pre-registered sharded counters the 10M-row group-by must stay
  // within 2% of the uninstrumented run.
  std::printf("\n=== Operator stats instrumentation overhead ===\n\n");
  // Interleaved reps, not two back-to-back blocks: allocator / page-cache
  // warmup drift between blocks otherwise reads as fake overhead.
  QueryResult instrumented, uninstrumented;
  double stats_on_millis = 1e18, stats_off_millis = 1e18;
  for (int rep = 0; rep < 5; ++rep) {
    stats_on_millis = std::min(
        stats_on_millis,
        best_of(queries[0].sql, {}, 1, &instrumented));  // stats default on
    stats_off_millis =
        std::min(stats_off_millis, best_of(queries[0].sql,
                                           {{"query_stats", "false"}}, 1,
                                           &uninstrumented));
  }
  double overhead_pct =
      (stats_on_millis - stats_off_millis) / stats_off_millis * 100.0;
  std::printf(
      "%-28s stats-on %8.1f ms  stats-off %8.1f ms  overhead %+.2f%%\n",
      queries[0].name, stats_on_millis, stats_off_millis, overhead_pct);
  if (instrumented.stats.output_rows != instrumented.total_rows) {
    std::fprintf(stderr, "stats/result row mismatch: %lld vs %lld\n",
                 static_cast<long long>(instrumented.stats.output_rows),
                 static_cast<long long>(instrumented.total_rows));
    return 1;
  }

  // -- Distributed shuffle: hash-partitioned stages vs coordinator-inline ----
  // The same join + group-by runs with multi_stage_execution on (leaf scans
  // hash-partition into a worker-side join stage, then a final-aggregation
  // stage) and off (the legacy plan executes joins and final aggregation
  // inline on the coordinator thread). The delta is the win from spreading
  // the join/aggregation work across worker tasks, minus the exchange cost.
  std::printf("\n=== Multi-stage shuffle vs coordinator-inline ===\n\n");
  struct ShuffleResult {
    const char* name;
    std::string sql;
    double staged_millis = 0;
    double inline_millis = 0;
    int64_t exchanged_bytes = 0;
    int64_t exchange_pages = 0;
    int num_fragments = 0;
  };
  std::vector<ShuffleResult> shuffles = {
      {"shuffle_join_then_agg",
       "SELECT d.bucket, count(*), sum(o.v) FROM mem.raw.orders o "
       "JOIN mem.raw.dim d ON o.k = d.k GROUP BY d.bucket"},
      {"shuffle_groupby_100k_groups",
       "SELECT k, count(*), sum(v), avg(v_d) FROM mem.raw.facts GROUP BY k"},
  };
  for (ShuffleResult& s : shuffles) {
    QueryResult staged, inlined;
    s.staged_millis =
        best_of(s.sql, {{"multi_stage_execution", "true"}}, 3, &staged);
    s.inline_millis =
        best_of(s.sql, {{"multi_stage_execution", "false"}}, 3, &inlined);
    s.exchanged_bytes = staged.exec_metrics["exchange.byte.pushed"];
    s.exchange_pages = staged.exec_metrics["exchange.page.pushed"];
    s.num_fragments = staged.num_fragments;
    if (staged.total_rows != inlined.total_rows) {
      std::fprintf(stderr, "shuffle row mismatch on %s: %lld vs %lld\n",
                   s.name, static_cast<long long>(staged.total_rows),
                   static_cast<long long>(inlined.total_rows));
      return 1;
    }
    std::printf(
        "%-28s staged %8.1f ms (%d fragments, %.1f MB shuffled)  "
        "inline %8.1f ms  speedup %.2fx\n",
        s.name, s.staged_millis, s.num_fragments,
        s.exchanged_bytes / 1048576.0, s.inline_millis,
        s.inline_millis / s.staged_millis);
  }

  // -- Morsel-driven intra-task parallelism: task_threads scaling ------------
  // The group-by and the join run at task_threads 1/2/4/8, each thread count
  // compared with the one-chain run. On a single-core host the scaling curve
  // is expected to be flat; every thread count must return the same rows,
  // and N threads may cost at most linear memory (thread-local tables).
  std::printf("\n=== Morsel-driven parallelism (task_threads scaling) ===\n\n");
  struct ParallelResult {
    const char* name;
    std::string sql;
    size_t input_rows = 0;
    std::vector<int> threads;
    std::vector<double> millis;
    int64_t peak_bytes_at_1 = 0;
    int64_t peak_bytes_at_max = 0;
  };
  const std::vector<int> kThreadCounts = {1, 2, 4, 8};
  std::vector<ParallelResult> parallel_results;
  for (size_t qi : {size_t{0}, size_t{3}}) {
    ParallelResult p;
    p.name = queries[qi].name;
    p.sql = queries[qi].sql;
    p.input_rows = queries[qi].input_rows;
    int64_t one_chain_rows = 0;
    for (int t : kThreadCounts) {
      QueryResult r;
      double ms = best_of(
          p.sql, {{"task_threads", std::to_string(t)}}, 3, &r);
      if (t == 1) one_chain_rows = r.total_rows;  // kThreadCounts[0] == 1
      if (r.total_rows != one_chain_rows) {
        std::fprintf(stderr, "parallelism row mismatch on %s at %d threads: "
                     "%lld vs %lld at 1 thread\n", p.name, t,
                     static_cast<long long>(r.total_rows),
                     static_cast<long long>(one_chain_rows));
        return 1;
      }
      p.threads.push_back(t);
      p.millis.push_back(ms);
      int64_t peak = r.exec_metrics["memory.query.peak_bytes"];
      if (t == 1) p.peak_bytes_at_1 = peak;
      if (t == kThreadCounts.back()) p.peak_bytes_at_max = peak;
      std::printf(
          "%-28s %2d threads %10.1f ms (%6.1f Mrows/s)  vs 1 thread "
          "%.2fx  peak %.1f MB\n",
          p.name, t, ms, static_cast<double>(p.input_rows) / 1e3 / ms,
          p.millis.front() / ms, peak / 1048576.0);
    }
    // Memory budget: thread-local radix tables may cost at most linear
    // memory in task_threads, plus one reservation quantum of batching
    // slack per chain (64 MiB covers both with room for allocator noise).
    // A violation means per-chain state is being duplicated superlinearly
    // or reservation batching stopped returning shrunk reservations.
    int64_t budget = p.peak_bytes_at_1 * kThreadCounts.back() + (64LL << 20);
    if (p.peak_bytes_at_max > budget) {
      std::fprintf(stderr,
                   "memory budget violated on %s: peak at %d threads %lld "
                   "exceeds %lld (peak at 1 thread %lld)\n",
                   p.name, kThreadCounts.back(),
                   static_cast<long long>(p.peak_bytes_at_max),
                   static_cast<long long>(budget),
                   static_cast<long long>(p.peak_bytes_at_1));
      return 1;
    }
    parallel_results.push_back(std::move(p));
  }

  // -- Fault-tolerance overhead: recovery armed, fault rate zero -------------
  // Arming retries wraps every leaf task in the retry/backoff/deadline
  // machinery (attempt bookkeeping, buffered leaf output, heartbeat sweeps,
  // deadline checks at batch boundaries). With no faults injected the whole
  // apparatus must stay within a 2% budget of the bare run — fault tolerance
  // that taxes the happy path gets turned off in production.
  std::printf("\n=== Fault-tolerance machinery overhead (fault rate 0) ===\n\n");
  // Interleaved reps, not two back-to-back blocks: allocator / page-cache
  // warmup drift between blocks otherwise reads as fake overhead.
  QueryResult armed_result, bare_result;
  double armed_millis = 1e18, bare_millis = 1e18;
  for (int rep = 0; rep < 5; ++rep) {
    armed_millis = std::min(armed_millis,
                            best_of(queries[0].sql,
                                    {{"query_max_task_retries", "3"},
                                     {"query_timeout_millis", "600000"}},
                                    1, &armed_result));
    bare_millis =
        std::min(bare_millis, best_of(queries[0].sql, {}, 1, &bare_result));
  }
  double retry_overhead_pct = (armed_millis - bare_millis) / bare_millis * 100.0;
  std::printf(
      "%-28s armed %8.1f ms  bare %8.1f ms  overhead %+.2f%% (budget 2%%)\n",
      queries[0].name, armed_millis, bare_millis, retry_overhead_pct);
  if (armed_result.total_rows != bare_result.total_rows) {
    std::fprintf(stderr, "fault-tolerance row mismatch: %lld vs %lld\n",
                 static_cast<long long>(armed_result.total_rows),
                 static_cast<long long>(bare_result.total_rows));
    return 1;
  }
  if (armed_result.exec_metrics["task.retry.count"] != 0) {
    std::fprintf(stderr, "spurious retry at fault rate 0\n");
    return 1;
  }

  // -- Kill-one-worker recovery time: restart-once ---------------------------
  // A fresh 3-worker cluster runs the join while a scripted fault kills one
  // worker host roughly two thirds of the way through the query — late
  // enough that real upstream work is lost. A lost leaf task retries; a lost
  // stage task fails its run, and the query restarts once. Each faulted run
  // is paired with a fault-free baseline on a fresh cluster of the same
  // shape, whose worker.kill call count places the kill; the recovery delta
  // is faulted minus baseline. Both must produce the fault-free row count.
  std::printf("\n=== Kill-one-worker recovery (restart-once) ===\n\n");
  struct RecoveryRun {
    double millis = 0;
    int64_t rows = 0;
    int64_t restarts = 0;
    int64_t kill_point_calls = 0;  // worker.kill evaluations during the run
  };
  auto run_with_kill = [&](int64_t kill_at, RecoveryRun* out) {
    PrestoCluster recovery_cluster("recovery-bench", 3, 2);
    (void)recovery_cluster.catalogs().RegisterCatalog("mem", memory);
    FaultInjector::Global().Reset();
    if (kill_at > 0) {
      FaultInjector::Global().ArmScripted("worker.kill", {kill_at});
    } else {
      // Arm at probability 0 so the injector stays enabled and counts
      // worker.kill evaluations: the baseline's call count is how the kill
      // point for the faulted run is placed mid-query.
      FaultInjector::Global().ArmProbabilistic("worker.kill", 0.0);
    }
    Session session;
    session.properties = {{"query_max_task_retries", "2"},
                          {"query_timeout_millis", "600000"}};
    auto result = recovery_cluster.Execute(queries[3].sql, session);
    out->kill_point_calls = FaultInjector::Global().CallCount("worker.kill");
    FaultInjector::Global().Reset();
    if (!result.ok()) {
      std::fprintf(stderr, "recovery run (kill_at=%lld) failed: %s\n",
                   static_cast<long long>(kill_at),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    out->millis = result->wall_millis;
    out->rows = result->total_rows;
    out->restarts =
        recovery_cluster.coordinator().metrics().Get("query.restarted");
  };
  // Microseconds per rep, so MinMedianMax can sort and print them.
  std::vector<int64_t> kill_baseline_us, kill_faulted_us, kill_delta_us,
      kill_restarts;
  constexpr int kRecoveryReps = 5;
  for (int rep = 0; rep < kRecoveryReps; ++rep) {
    RecoveryRun baseline, faulted;
    run_with_kill(/*kill_at=*/0, &baseline);
    run_with_kill(std::max<int64_t>(3, baseline.kill_point_calls * 2 / 3),
                  &faulted);
    if (faulted.rows != baseline.rows) {
      std::fprintf(stderr, "recovery row mismatch: %lld vs %lld\n",
                   static_cast<long long>(faulted.rows),
                   static_cast<long long>(baseline.rows));
      return 1;
    }
    if (faulted.restarts > 1) {
      std::fprintf(stderr, "recovery restarted the query %lld times\n",
                   static_cast<long long>(faulted.restarts));
      return 1;
    }
    kill_baseline_us.push_back(static_cast<int64_t>(baseline.millis * 1e3));
    kill_faulted_us.push_back(static_cast<int64_t>(faulted.millis * 1e3));
    kill_delta_us.push_back(kill_faulted_us.back() - kill_baseline_us.back());
    kill_restarts.push_back(faulted.restarts);
  }
  for (auto* v : {&kill_baseline_us, &kill_faulted_us, &kill_delta_us,
                  &kill_restarts}) {
    std::sort(v->begin(), v->end());
  }
  std::printf(
      "%-28s %d runs (min / median / max): bare %s ms, killed %s ms, "
      "recovery %s ms, restarts %s\n",
      queries[3].name, kRecoveryReps,
      MinMedianMax(kill_baseline_us, 1e-3, 1).c_str(),
      MinMedianMax(kill_faulted_us, 1e-3, 1).c_str(),
      MinMedianMax(kill_delta_us, 1e-3, 1).c_str(),
      MinMedianMax(kill_restarts, 1, 0).c_str());

  // -- Memory management: spill throughput and reservation overhead ----------
  // The same 10M-row group-by runs unconstrained (hash tables fully
  // in memory) and under a query_max_memory cap small enough that the
  // aggregation revokes itself into spill runs ordered by key hash, then
  // merges them on output one hash batch at a time through a bounded state.
  // Row counts must match exactly; the slowdown is the price of running a
  // query that does not fit. Separately, memory_accounting=false
  // strips every pool reservation out of the hot path — with lock-free
  // per-level atomics the accounted run must stay within a 2% budget.
  std::printf("\n=== Spill vs in-memory, reservation overhead ===\n\n");
  QueryResult in_memory_result, spilled_result;
  double in_memory_millis = best_of(queries[0].sql, {}, 3, &in_memory_result);
  double spilled_millis =
      best_of(queries[0].sql,
              {{"query_max_memory", "16777216"},
               {"spill_path", "/tmp/presto_spill_bench"}},
              3, &spilled_result);
  int64_t spill_runs = spilled_result.exec_metrics["spill.run.written"];
  int64_t spill_bytes = spilled_result.exec_metrics["spill.byte.written"];
  if (spilled_result.total_rows != in_memory_result.total_rows) {
    std::fprintf(stderr, "spill row mismatch: %lld vs %lld\n",
                 static_cast<long long>(spilled_result.total_rows),
                 static_cast<long long>(in_memory_result.total_rows));
    return 1;
  }
  if (spill_runs == 0) {
    std::fprintf(stderr, "16 MiB cap did not force a spill\n");
    return 1;
  }
  std::printf(
      "%-28s in-memory %8.1f ms  spilled %8.1f ms (%lld runs, %.1f MB)  "
      "slowdown %.2fx\n",
      queries[0].name, in_memory_millis, spilled_millis,
      static_cast<long long>(spill_runs), spill_bytes / 1048576.0,
      spilled_millis / in_memory_millis);
  // Which operator spills, and how much, depends on which consumer the
  // memory arbiter revokes; five runs show the spread.
  SpillSpread spread = RunSpillSpread(
      cluster, queries[0].sql,
      {{"query_max_memory", "16777216"},
       {"spill_path", "/tmp/presto_spill_bench"}},
      queries[0].input_rows, 5);
  if (spread.rows != in_memory_result.total_rows) {
    std::fprintf(stderr, "spill spread row mismatch: %lld vs %lld\n",
                 static_cast<long long>(spread.rows),
                 static_cast<long long>(in_memory_result.total_rows));
    return 1;
  }
  const int64_t in_memory_final_pages =
      FinalAggregationInputPages(in_memory_result);
  std::printf("  final aggregation input pages in memory %lld\n",
              static_cast<long long>(in_memory_final_pages));

  // Interleave the accounted / unaccounted reps: running them as two
  // back-to-back blocks lets allocator and page-cache warmup from the spill
  // runs above systematically favor whichever block goes second, which reads
  // as fake reservation overhead (or a fake speedup).
  QueryResult accounted_result, unaccounted_result;
  double accounted_millis = 1e18, unaccounted_millis = 1e18;
  for (int rep = 0; rep < 5; ++rep) {
    accounted_millis = std::min(
        accounted_millis, best_of(queries[0].sql, {}, 1, &accounted_result));
    unaccounted_millis =
        std::min(unaccounted_millis,
                 best_of(queries[0].sql, {{"memory_accounting", "false"}}, 1,
                         &unaccounted_result));
  }
  double memory_overhead_pct =
      (accounted_millis - unaccounted_millis) / unaccounted_millis * 100.0;
  std::printf(
      "%-28s accounted %7.1f ms  unaccounted %7.1f ms  overhead %+.2f%% "
      "(budget 2%%), query peak %.1f MB\n",
      queries[0].name, accounted_millis, unaccounted_millis,
      memory_overhead_pct,
      accounted_result.exec_metrics["memory.query.peak_bytes"] / 1048576.0);
  if (accounted_result.total_rows != unaccounted_result.total_rows) {
    std::fprintf(stderr, "memory-accounting row mismatch: %lld vs %lld\n",
                 static_cast<long long>(accounted_result.total_rows),
                 static_cast<long long>(unaccounted_result.total_rows));
    return 1;
  }

  // -- Tracing overhead: query_trace on vs off ------------------------------
  // query_trace=true records the full span tree (stage / task / operator /
  // exchange / spill spans) through the sharded TraceRecorder and renders it
  // to Chrome trace JSON at the end. Spans are opened lazily and blocked-time
  // deltas ride the existing stats clock reads, so the traced run must stay
  // within a 2% budget of the untraced run (stats on in both).
  std::printf("\n=== Tracing overhead (query_trace on vs off) ===\n\n");
  // Interleaved reps, not two back-to-back blocks: allocator / page-cache
  // warmup drift between blocks otherwise reads as fake overhead.
  QueryResult traced_result, untraced_result;
  double traced_millis = 1e18, untraced_millis = 1e18;
  for (int rep = 0; rep < 9; ++rep) {
    traced_millis =
        std::min(traced_millis, best_of(queries[0].sql,
                                        {{"query_trace", "true"}}, 1,
                                        &traced_result));
    untraced_millis = std::min(
        untraced_millis, best_of(queries[0].sql, {}, 1, &untraced_result));
  }
  double tracing_overhead_pct =
      (traced_millis - untraced_millis) / untraced_millis * 100.0;
  int64_t trace_spans = static_cast<int64_t>(traced_result.trace_spans.size());
  std::printf(
      "%-28s traced %8.1f ms  untraced %8.1f ms  overhead %+.2f%% "
      "(budget 2%%), %lld spans\n",
      queries[0].name, traced_millis, untraced_millis, tracing_overhead_pct,
      static_cast<long long>(trace_spans));
  if (traced_result.total_rows != untraced_result.total_rows) {
    std::fprintf(stderr, "tracing row mismatch: %lld vs %lld\n",
                 static_cast<long long>(traced_result.total_rows),
                 static_cast<long long>(untraced_result.total_rows));
    return 1;
  }
  if (trace_spans == 0 || traced_result.trace_json.empty()) {
    std::fprintf(stderr, "traced run produced no spans\n");
    return 1;
  }

  // -- Lazy vectorized scan: page skipping + late materialization ------------
  // A 2M-row hive lakefile (one file, 65536-row groups, 8192-row pages,
  // sorted key) scanned at 1% selectivity with the production reader vs the
  // same scan with page_skipping and lazy_reads off. The pruned run must
  // skip >= 60% of the examined pages and read measurably fewer bytes.
  std::printf("\n=== Lazy scan pruning (1%% selectivity) ===\n\n");
  SimulatedClock scan_clock;
  SimulatedHdfs scan_hdfs(&scan_clock);
  auto hive = std::make_shared<HiveConnector>(&scan_hdfs, "warehouse");
  const size_t kScanRows = 2'000'000;
  {
    TypePtr pts_type = Type::Row({"k", "v"}, {Type::Bigint(), Type::Bigint()});
    if (!hive->CreateTable("raw", "pts", pts_type).ok()) return 1;
    Random rng(14);
    std::vector<Page> pages;
    for (size_t done = 0; done < kScanRows;) {
      size_t n = std::min(kPageRows, kScanRows - done);
      std::vector<int64_t> k(n), v(n);
      for (size_t i = 0; i < n; ++i) {
        k[i] = static_cast<int64_t>(done + i);  // sorted: tight page stats
        v[i] = static_cast<int64_t>(rng.NextBelow(10000));
      }
      pages.push_back(Page({std::make_shared<Int64Vector>(
                                Type::Bigint(), std::move(k),
                                std::vector<uint8_t>{}),
                            std::make_shared<Int64Vector>(
                                Type::Bigint(), std::move(v),
                                std::vector<uint8_t>{})}));
      done += n;
    }
    lakefile::WriterOptions writer_options;
    writer_options.row_group_rows = 65536;
    writer_options.page_rows = 8192;
    if (!hive->WriteDataFile("raw", "pts", "", pages, writer_options).ok()) {
      return 1;
    }
  }
  (void)cluster.catalogs().RegisterCatalog("lake", hive);
  const int64_t kScanThreshold = static_cast<int64_t>(kScanRows / 100);  // 1%
  const std::string scan_sql =
      "SELECT count(*), sum(v) FROM lake.raw.pts WHERE k < " +
      std::to_string(kScanThreshold);

  QueryResult pruned_result, unpruned_result;
  double pruned_millis = best_of(scan_sql, {}, 3, &pruned_result);
  HiveConnectorOptions no_prune;
  no_prune.reader.page_skipping = false;
  no_prune.reader.lazy_reads = false;
  hive->set_options(no_prune);
  double unpruned_millis = best_of(scan_sql, {}, 3, &unpruned_result);
  hive->set_options(HiveConnectorOptions());

  if (pruned_result.Row(0) != unpruned_result.Row(0)) {
    std::fprintf(stderr, "scan pruning changed the query result\n");
    return 1;
  }
  int64_t scan_pages_read = pruned_result.exec_metrics["lakefile.pages.read"];
  int64_t scan_pages_skipped =
      pruned_result.exec_metrics["lakefile.pages.skipped_stats"] +
      pruned_result.exec_metrics["lakefile.pages.skipped_lazy"];
  int64_t scan_rows_pruned =
      pruned_result.exec_metrics["lakefile.rows.pruned_late"];
  int64_t pruned_bytes = pruned_result.exec_metrics["lakefile.bytes.read"];
  int64_t unpruned_bytes = unpruned_result.exec_metrics["lakefile.bytes.read"];
  double pages_skipped_pct =
      100.0 * static_cast<double>(scan_pages_skipped) /
      static_cast<double>(std::max<int64_t>(1, scan_pages_read + scan_pages_skipped));
  std::printf(
      "%-28s pruned %8.1f ms  unpruned %8.1f ms  speedup %.2fx\n"
      "%-28s pages %lld read / %lld skipped (%.1f%%), rows_pruned %lld, "
      "bytes %.1f MB vs %.1f MB\n",
      "scan_1pct_selectivity", pruned_millis, unpruned_millis,
      unpruned_millis / pruned_millis, "", static_cast<long long>(scan_pages_read),
      static_cast<long long>(scan_pages_skipped), pages_skipped_pct,
      static_cast<long long>(scan_rows_pruned), pruned_bytes / 1048576.0,
      unpruned_bytes / 1048576.0);
  if (pages_skipped_pct < 60.0) {
    std::fprintf(stderr,
                 "1%%-selectivity scan skipped only %.1f%% of pages "
                 "(acceptance floor: 60%%)\n",
                 pages_skipped_pct);
    return 1;
  }
  if (pruned_bytes >= unpruned_bytes) {
    std::fprintf(stderr, "pruning did not reduce bytes read: %lld vs %lld\n",
                 static_cast<long long>(pruned_bytes),
                 static_cast<long long>(unpruned_bytes));
    return 1;
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"engine_kernels\",\n"
               "  \"host\": {\"cores\": %u, \"build_type\": \"%s\"},\n"
               "  \"results\": [\n",
               std::thread::hardware_concurrency(), PRESTO_BUILD_TYPE);
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(
        f,
        "    {\"query\": \"%s\", \"input_rows\": %zu, \"result_rows\": %lld,\n"
        "     \"kernel_millis\": %.2f, \"kernel_mrows_per_sec\": %.1f, "
        "\"groups_created\": %lld, \"hash_probes\": %lld}%s\n",
        r.query_name.c_str(), r.input_rows,
        static_cast<long long>(r.result_rows), r.kernel_millis,
        static_cast<double>(r.input_rows) / 1e3 / r.kernel_millis,
        static_cast<long long>(r.groups_created),
        static_cast<long long>(r.hash_probes),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"stats_overhead\": {\"query\": \"%s\", "
               "\"stats_on_millis\": %.2f, \"stats_off_millis\": %.2f, "
               "\"overhead_pct\": %.2f},\n",
               queries[0].name, stats_on_millis, stats_off_millis,
               overhead_pct);
  std::fprintf(f, "  \"shuffle\": [\n");
  for (size_t i = 0; i < shuffles.size(); ++i) {
    const ShuffleResult& s = shuffles[i];
    std::fprintf(
        f,
        "    {\"query\": \"%s\", \"staged_millis\": %.2f, "
        "\"inline_millis\": %.2f, \"speedup\": %.2f,\n"
        "     \"num_fragments\": %d, \"exchanged_bytes\": %lld, "
        "\"exchange_pages\": %lld}%s\n",
        s.name, s.staged_millis, s.inline_millis,
        s.inline_millis / s.staged_millis, s.num_fragments,
        static_cast<long long>(s.exchanged_bytes),
        static_cast<long long>(s.exchange_pages),
        i + 1 < shuffles.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"parallelism\": [\n");
  for (size_t i = 0; i < parallel_results.size(); ++i) {
    const ParallelResult& p = parallel_results[i];
    std::fprintf(f,
                 "    {\"query\": \"%s\",\n"
                 "     \"peak_bytes_at_1_thread\": %lld, "
                 "\"peak_bytes_at_%d_threads\": %lld,\n"
                 "     \"runs\": [",
                 p.name,
                 static_cast<long long>(p.peak_bytes_at_1),
                 kThreadCounts.back(),
                 static_cast<long long>(p.peak_bytes_at_max));
    for (size_t j = 0; j < p.threads.size(); ++j) {
      std::fprintf(
          f,
          "{\"threads\": %d, \"millis\": %.2f, \"mrows_per_sec\": %.1f}%s",
          p.threads[j], p.millis[j],
          static_cast<double>(p.input_rows) / 1e3 / p.millis[j],
          j + 1 < p.threads.size() ? ", " : "");
    }
    std::fprintf(f, "]}%s\n",
                 i + 1 < parallel_results.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"fault_tolerance\": {\"query\": \"%s\", "
               "\"recovery_armed_millis\": %.2f, \"bare_millis\": %.2f, "
               "\"overhead_pct\": %.2f, \"budget_pct\": 2.0,\n"
               "    \"worker_kill_recovery\": {\"query\": \"%s\", "
               "\"runs\": %d, \"bare_millis_median\": %.2f, "
               "\"killed_millis_median\": %.2f, "
               "\"recovery_millis_min\": %.2f, "
               "\"recovery_millis_median\": %.2f, "
               "\"recovery_millis_max\": %.2f, "
               "\"restarts_max\": %lld}},\n",
               queries[0].name, armed_millis, bare_millis,
               retry_overhead_pct, queries[3].name, kRecoveryReps,
               Median(kill_baseline_us) / 1e3, Median(kill_faulted_us) / 1e3,
               kill_delta_us.front() / 1e3, Median(kill_delta_us) / 1e3,
               kill_delta_us.back() / 1e3,
               static_cast<long long>(kill_restarts.back()));
  std::fprintf(
      f,
      "  \"memory\": {\"query\": \"%s\",\n"
      "    \"spill\": {\"in_memory_millis\": %.2f, \"spilled_millis\": %.2f, "
      "\"slowdown\": %.2f, \"runs_written\": %lld, \"bytes_written\": %lld},\n"
      "    \"spill_spread\": {\"runs\": %zu, \"runs_min\": %lld, "
      "\"runs_median\": %lld, \"runs_max\": %lld, \"bytes_min\": %lld, "
      "\"bytes_median\": %lld, \"bytes_max\": %lld, "
      "\"leaf_runs_median\": %lld, \"final_runs_median\": %lld, "
      "\"final_input_pages_median\": %lld, "
      "\"in_memory_final_input_pages\": %lld, "
      "\"memory_wait_nanos_median\": %lld},\n"
      "    \"reservation_overhead\": {\"accounted_millis\": %.2f, "
      "\"unaccounted_millis\": %.2f, \"overhead_pct\": %.2f, "
      "\"budget_pct\": 2.0, \"query_peak_bytes\": %lld}},\n",
      queries[0].name, in_memory_millis, spilled_millis,
      spilled_millis / in_memory_millis, static_cast<long long>(spill_runs),
      static_cast<long long>(spill_bytes), spread.runs.size(),
      static_cast<long long>(spread.runs.front()), Median(spread.runs),
      static_cast<long long>(spread.runs.back()),
      static_cast<long long>(spread.bytes.front()), Median(spread.bytes),
      static_cast<long long>(spread.bytes.back()), Median(spread.leaf_runs),
      Median(spread.final_runs), Median(spread.final_input_pages),
      static_cast<long long>(in_memory_final_pages),
      Median(spread.wait_nanos), accounted_millis,
      unaccounted_millis, memory_overhead_pct,
      static_cast<long long>(
          accounted_result.exec_metrics["memory.query.peak_bytes"]));
  std::fprintf(f,
               "  \"tracing_overhead\": {\"query\": \"%s\", "
               "\"traced_millis\": %.2f, \"untraced_millis\": %.2f, "
               "\"overhead_pct\": %.2f, \"budget_pct\": 2.0, "
               "\"spans_recorded\": %lld},\n",
               queries[0].name, traced_millis, untraced_millis,
               tracing_overhead_pct, static_cast<long long>(trace_spans));
  std::fprintf(
      f,
      "  \"scan_pruning\": {\"query\": \"scan_1pct_selectivity\", "
      "\"input_rows\": %zu, \"selectivity_pct\": 1.0,\n"
      "    \"pruned_millis\": %.2f, \"unpruned_millis\": %.2f, "
      "\"speedup\": %.2f,\n"
      "    \"pages_read\": %lld, \"pages_skipped\": %lld, "
      "\"pages_skipped_pct\": %.1f, \"floor_pct\": 60.0,\n"
      "    \"rows_pruned_late\": %lld, \"pruned_bytes_read\": %lld, "
      "\"unpruned_bytes_read\": %lld}\n}\n",
      kScanRows, pruned_millis, unpruned_millis,
      unpruned_millis / pruned_millis, static_cast<long long>(scan_pages_read),
      static_cast<long long>(scan_pages_skipped), pages_skipped_pct,
      static_cast<long long>(scan_rows_pruned),
      static_cast<long long>(pruned_bytes),
      static_cast<long long>(unpruned_bytes));
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
