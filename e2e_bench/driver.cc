// End-to-end benchmark driver: runs one named workload against an embedded
// PrestoCluster and prints, as the last line of stdout, one JSON object with
// the keys correct/attempted/failed/metrics. The line before it is the host
// block: cpus, build, seed and the workload's load shape.
//
//   e2e_driver --workload lake_dashboard|batch_shuffle|realtime_mix
//              --seed N --seconds S --trace 0|1 --scratch DIR
//              [--git-sha SHA] [--build-type TYPE]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same load
// twice, untraced then traced, and reports the per-layer metrics, measured
// from outside the engine: client timing around PrestoCluster::Execute and
// HiveConnector::WriteDataFile, plus what each QueryResult already carries
// (stats, exec_metrics, trace spans) and the cache and file-system counter
// registries. Every answer is checked against workload.h's oracle.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ledger.h"
#include "presto/cluster/cluster.h"
#include "presto/common/clock.h"
#include "presto/connectors/hive/hive_connector.h"
#include "presto/connectors/memory/memory_connector.h"
#include "presto/fs/simulated_hdfs.h"
#include "presto/vector/vector.h"
#include "workload.h"

namespace e2e {
namespace {

using presto::Page;
using presto::QueryResult;
using presto::Session;
using presto::SteadyNowNanos;
using presto::TraceKind;
using presto::TraceSpan;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadConfig {
  std::string name;
  bool lake = false;    // hive catalog over SimulatedHdfs
  bool batch = false;   // memory catalog of batch tables
  bool groups = false;  // resource groups enabled
  int interactive_senders = 0;
  double interactive_rate = 0;  // arrivals per second, all senders together
  int batch_clients = 0;
  double ingest_rate = 0;  // commits per second into today's open partition

  int load_threads() const {
    return interactive_senders + batch_clients + (ingest_rate > 0 ? 1 : 0);
  }
  /// Interactive templates also read the open partition when it is written.
  bool open_partition() const { return ingest_rate > 0; }
};

// Why each workload exists is recorded in BENCHMARK.json.
const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> kWorkloads = [] {
    WorkloadConfig lake;
    lake.name = "lake_dashboard";
    lake.lake = true;
    lake.interactive_senders = 3;
    // At this rate the cluster stays warm between queries; at 40 queries/s
    // the same queries ran up to 2x slower in some processes than in others.
    lake.interactive_rate = 100;
    WorkloadConfig batch;
    batch.name = "batch_shuffle";
    batch.batch = true;
    batch.batch_clients = 2;
    WorkloadConfig mix;
    mix.name = "realtime_mix";
    mix.lake = mix.batch = mix.groups = true;
    mix.interactive_senders = 2;
    mix.interactive_rate = 40;
    mix.batch_clients = 1;
    mix.ingest_rate = 10;
    return std::vector<WorkloadConfig>{lake, batch, mix};
  }();
  return kWorkloads;
}

// ---------------------------------------------------------------------------
// Environment: data, catalogs, cluster
// ---------------------------------------------------------------------------

/// Wall-clock NameNode: every modelled RPC sleeps for real, as a round trip
/// to a real NameNode would take, and the time slept is summed so the
/// benchmark can report how much query time went to NameNode calls.
class NameNodeClock final : public presto::SystemClock {
 public:
  void AdvanceNanos(int64_t nanos) override {
    const int64_t start = SteadyNowNanos();
    presto::SystemClock::AdvanceNanos(nanos);
    waited_.fetch_add(SteadyNowNanos() - start, std::memory_order_relaxed);
  }
  int64_t waited_nanos() const {
    return waited_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> waited_{0};
};

/// Members are destroyed in reverse order: the cluster goes first.
struct Env {
  NameNodeClock clock;
  std::unique_ptr<presto::SimulatedHdfs> hdfs;
  std::shared_ptr<presto::HiveConnector> hive;
  std::shared_ptr<presto::MemoryConnector> memory;
  std::unique_ptr<presto::PrestoCluster> cluster;
  IngestState ingest;
  LakeRows lake_rows;
};

/// Lake rows [first, first + rows) of partition `ds` as one page.
Page LakePage(const LakeRows& lake, const std::string& ds, int64_t first,
              int64_t rows) {
  std::vector<std::string> partition(rows, ds), country(rows), device(rows);
  std::vector<int64_t> id(rows), amount(rows);
  for (int64_t r = 0; r < rows; ++r) {
    id[r] = first + r;
    country[r] = CountryName(lake.country(id[r]));
    device[r] = kDeviceNames[lake.device(id[r])];
    amount[r] = lake.amount(id[r]);
  }
  return Page({presto::MakeVarcharVector(std::move(partition)),
               presto::MakeBigintVector(std::move(id)),
               presto::MakeVarcharVector(std::move(country)),
               presto::MakeVarcharVector(std::move(device)),
               presto::MakeBigintVector(std::move(amount))},
              static_cast<size_t>(rows));
}

presto::Status WriteOpenBatch(Env* env, int64_t batch) {
  const int64_t first = kSealedRows + batch * kIngestRows;
  return env->hive->WriteDataFile(
      "web", "events", "today",
      {LakePage(env->lake_rows, "today", first, kIngestRows)});
}

presto::Status BuildLake(Env* env, const WorkloadConfig& w) {
  env->hdfs = std::make_unique<presto::SimulatedHdfs>(&env->clock);
  env->hive =
      std::make_shared<presto::HiveConnector>(env->hdfs.get(), "/warehouse");
  const presto::TypePtr type = presto::Type::Row(
      {"ds", "event_id", "country", "device", "amount"},
      {presto::Type::Varchar(), presto::Type::Bigint(),
       presto::Type::Varchar(), presto::Type::Varchar(),
       presto::Type::Bigint()});
  RETURN_IF_ERROR(env->hive->CreateTable("web", "events", type, "ds"));
  for (int p = 0; p < kPartitions; ++p) {
    for (int f = 0; f < kFilesPerPartition; ++f) {
      const int64_t first = p * kPartitionRows + f * kRowsPerFile;
      RETURN_IF_ERROR(env->hive->WriteDataFile(
          "web", "events", PartitionName(p),
          {LakePage(env->lake_rows, PartitionName(p), first, kRowsPerFile)}));
    }
  }
  if (w.open_partition()) {
    // The open partition exists, and is listed, before any query runs.
    for (int64_t b = 0; b < kPreloadedBatches; ++b) {
      env->ingest.started.fetch_add(1);
      RETURN_IF_ERROR(WriteOpenBatch(env, b));
      env->ingest.committed.fetch_add(1);
    }
    RETURN_IF_ERROR(
        env->hive->SetPartitionSealed("web", "events", "today", false));
  }
  return presto::Status::OK();
}

presto::Status AppendBigintPages(
    presto::MemoryConnector* memory, const std::string& table, int64_t rows,
    const std::vector<std::function<int64_t(int64_t)>>& columns) {
  for (int64_t done = 0; done < rows;) {
    const int64_t n = std::min(kBatchPageRows, rows - done);
    std::vector<presto::VectorPtr> vectors;
    for (const auto& column : columns) {
      std::vector<int64_t> values(n);
      for (int64_t i = 0; i < n; ++i) values[i] = column(done + i);
      vectors.push_back(presto::MakeBigintVector(std::move(values)));
    }
    RETURN_IF_ERROR(memory->AppendPage(
        "etl", table, Page(std::move(vectors), static_cast<size_t>(n))));
    done += n;
  }
  return presto::Status::OK();
}

presto::Status BuildBatch(Env* env, uint64_t seed) {
  const BatchRows rows{seed};
  const presto::TypePtr bigint = presto::Type::Bigint();
  env->memory = std::make_shared<presto::MemoryConnector>();
  RETURN_IF_ERROR(env->memory->CreateTable(
      "etl", "facts",
      presto::Type::Row({"k", "d", "v"}, {bigint, bigint, bigint})));
  RETURN_IF_ERROR(env->memory->CreateTable(
      "etl", "dims", presto::Type::Row({"d", "region"}, {bigint, bigint})));
  RETURN_IF_ERROR(AppendBigintPages(
      env->memory.get(), "facts", kFactRows,
      {[&](int64_t i) { return rows.k(i); },
       [&](int64_t i) { return rows.d(i); },
       [&](int64_t i) { return rows.v(i); }}));
  return AppendBigintPages(
      env->memory.get(), "dims", kDimRows,
      {[](int64_t d) { return d; }, [&](int64_t d) { return rows.region(d); }});
}

/// The cpus this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

/// Pins the calling thread to one cpu until destroyed. Set-up is single
/// threaded, and on a shared host some cpus run slower than others for
/// minutes at a time: rotating the repeated set-ups over every cpu keeps
/// their median from depending on where the thread happened to run.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(int cpu) {
    pinned_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pinned_ && sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinnedToCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Set-up as timed by setup_s: generate the rows and write the lakefiles
/// (on `cpu`), then start the cluster and register the catalogs. The
/// cluster starts unpinned, so its threads may run on every cpu.
presto::Result<std::unique_ptr<Env>> Setup(const WorkloadConfig& w,
                                           uint64_t seed, int64_t max_batches,
                                           int cpu) {
  auto env = std::make_unique<Env>();
  env->lake_rows.seed = seed;
  env->ingest.max_batches = max_batches;
  {
    const PinnedToCpu pin(cpu);
    if (w.lake) RETURN_IF_ERROR(BuildLake(env.get(), w));
    if (w.batch) RETURN_IF_ERROR(BuildBatch(env.get(), seed));
  }
  presto::CoordinatorOptions options;
  if (w.groups) options.resource_groups = presto::DefaultResourceGroupTree();
  env->cluster = std::make_unique<presto::PrestoCluster>("e2e-" + w.name, 2, 2,
                                                         options);
  if (w.lake) {
    RETURN_IF_ERROR(
        env->cluster->catalogs().RegisterCatalog("lake", env->hive));
  }
  if (w.batch) {
    RETURN_IF_ERROR(
        env->cluster->catalogs().RegisterCatalog("mem", env->memory));
  }
  return env;
}

// ---------------------------------------------------------------------------
// Per-layer ledger of traced queries
// ---------------------------------------------------------------------------

int64_t MetricOr0(const std::map<std::string, int64_t>& m,
                  const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

/// Operator types reported by name (exec.operator_self_ms.<type>); any
/// other type is summed under "other".
const std::vector<std::string>& ReportedOperatorTypes() {
  static const std::vector<std::string> kTypes = {
      "TableScan", "Filter", "Project",     "HashAggregation",
      "Join",      "TopN",   "RemoteSource"};
  return kTypes;
}

/// Sums over the traced queries, by name. Times are in nanoseconds.
struct LayerLedger {
  std::map<std::string, double> sum;

  double operator[](const std::string& name) const {
    auto it = sum.find(name);
    return it == sum.end() ? 0 : it->second;
  }
  void Merge(const LayerLedger& o) {
    for (const auto& [name, value] : o.sum) sum[name] += value;
  }

  void Add(const Query& q, const QueryResult& r, int64_t sent, int64_t done) {
    sum["queries"] += 1;
    sum["lake_queries"] += q.batch() ? 0 : 1;
    sum["logical_rows"] += static_cast<double>(q.logical_rows);
    sum["tasks"] += r.num_tasks;
    sum["splits"] += r.num_splits;
    sum["cpu"] += static_cast<double>(r.stats.total_cpu_nanos);
    sum["admission"] += static_cast<double>(r.stats.queued_nanos);
    for (const presto::StageStats& stage : r.stats.stages) {
      sum["exchanged_bytes"] += static_cast<double>(stage.exchanged_bytes);
    }
    for (const auto& [metric, name] :
         {std::pair{"exec.agg.groups_created", "groups_created"},
          std::pair{"exec.agg.hash_probes", "hash_probes"},
          std::pair{"exec.join.hash_probes", "hash_probes"},
          std::pair{"spill.byte.written", "spill_bytes"},
          std::pair{"spill.run.written", "spill_runs"}}) {
      sum[name] += static_cast<double>(MetricOr0(r.exec_metrics, metric));
    }
    AddOperatorStats(q, r);
    AddSpans(r, sent, done);
  }

  /// Kernel pages, and the scan counters from the per-operator scan_*
  /// stats, which every scan path folds in (the lakefile.* exec metrics
  /// read zero under morsel chains).
  void AddOperatorStats(const Query& q, const QueryResult& r) {
    int64_t total = 0, read = 0, skipped = 0;
    for (const auto& [id, op] : r.stats.operators) {
      sum["kernel_pages"] += static_cast<double>(op.kernel_pages);
      sum["fallback_pages"] += static_cast<double>(op.fallback_pages);
      if (op.operator_type != "TableScan") continue;
      sum["scan_rows_out"] += static_cast<double>(op.output_rows);
      if (q.batch()) continue;
      sum["lake_scan_rows_out"] += static_cast<double>(op.output_rows);
      sum["scan_io"] += static_cast<double>(op.scan_io_nanos);
      sum["row_groups_total"] += static_cast<double>(op.scan_row_groups_total);
      sum["row_groups_skipped"] +=
          static_cast<double>(op.scan_row_groups_skipped);
      sum["scan_bytes_read"] += static_cast<double>(op.scan_bytes_read);
      sum["dict_code_hits"] += static_cast<double>(op.scan_dict_code_hits);
      total += op.scan_pages_total;
      read += op.scan_pages_read;
      skipped += op.scan_pages_skipped_stats + op.scan_pages_skipped_lazy;
    }
    sum["pages_total"] += static_cast<double>(total);
    sum["pages_read"] += static_cast<double>(read);
    sum["pages_skipped"] += static_cast<double>(skipped);
    // Every page the reader counted must have been read or skipped. The
    // converse does not hold today: the reader reports more pages read or
    // skipped than pages total (at any task_threads), so the surplus is
    // reported as lakefile.page_ledger_excess rather than failing the run.
    if (read + skipped < total) sum["conservation_failures"] += 1;
  }

  /// The wall-time ledger of one query from its span tree: plan (client
  /// send to query span start), admission, schedule (query span self time)
  /// and the union of the stage spans; the residual is what none covers.
  void AddSpans(const QueryResult& r, int64_t sent, int64_t done) {
    const std::vector<TraceSpan>& spans = r.trace_spans;
    const std::map<int64_t, int64_t> self = SpanSelfNanos(spans);
    std::map<int64_t, const TraceSpan*> by_id;
    for (const TraceSpan& span : spans) by_id[span.id] = &span;
    const TraceSpan* root = nullptr;
    std::vector<std::pair<int64_t, int64_t>> stages;
    std::map<int64_t, std::pair<int64_t, int64_t>> chains;  // task: busy, n
    for (const TraceSpan& span : spans) {
      const auto self_it = self.find(span.id);
      const auto self_nanos =
          static_cast<double>(self_it == self.end() ? 0 : self_it->second);
      const auto duration = static_cast<double>(SpanDuration(span));
      switch (span.kind) {
        case TraceKind::kQuery:
          if (span.parent_id == 0) root = &span;
          break;
        case TraceKind::kStage:
          stages.emplace_back(span.start_nanos, span.end_nanos);
          break;
        case TraceKind::kOperator: {
          const std::string type = span.name.substr(0, span.name.find('#'));
          const auto& named = ReportedOperatorTypes();
          const bool reported =
              std::find(named.begin(), named.end(), type) != named.end();
          sum["op." + (reported ? type : "other")] += self_nanos;
          break;
        }
        case TraceKind::kChain: {
          const TraceSpan* up = &span;
          while (up->kind != TraceKind::kTask && by_id.count(up->parent_id)) {
            up = by_id.at(up->parent_id);
          }
          if (up->kind == TraceKind::kTask) {
            chains[up->id].first += SpanDuration(span);
            chains[up->id].second += 1;
          }
          break;
        }
        case TraceKind::kExchangeWait:
          sum["exchange_wait"] += duration;
          break;
        case TraceKind::kSpillWrite:
        case TraceKind::kSpillRead:
          sum["spill_io"] += duration;
          break;
        case TraceKind::kMemoryWait:
          sum["memory_wait"] += duration;
          break;
        case TraceKind::kScanDecode:
          sum["scan_decode"] += self_nanos;
          break;
        default:
          break;
      }
    }
    for (const auto& [task, busy_and_chains] : chains) {
      sum["chain_busy"] += static_cast<double>(busy_and_chains.first);
      sum["chain_capacity"] += static_cast<double>(
          busy_and_chains.second * SpanDuration(*by_id.at(task)));
    }
    const auto client = static_cast<double>(done - sent);
    sum["client"] += client;
    if (root == nullptr || root->end_nanos == 0) {
      sum["residual"] += client;
      return;
    }
    const auto plan = static_cast<double>(root->start_nanos - sent);
    const auto schedule = static_cast<double>(self.at(root->id));
    sum["plan"] += plan;
    sum["schedule"] += schedule;
    sum["residual"] += client - plan -
                       static_cast<double>(r.stats.queued_nanos) - schedule -
                       static_cast<double>(UnionNanos(stages));
  }
};

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/// What one load thread saw; merged across threads after the phase.
struct Outcome {
  std::vector<double> interactive_ms;  // from due time
  std::vector<double> sender_lag_ms;
  std::vector<double> batch_ms;
  std::vector<double> ingest_ms;  // WriteDataFile call time
  std::map<Template, std::vector<double>> by_template;  // client time
  int64_t attempted = 0;
  int64_t failed = 0;  // errors, sheds and wrong answers
  int64_t wrong = 0;
  int64_t logical_rows = 0;
  std::vector<std::string> errors;  // the first few, for stderr
  LayerLedger ledger;

  void Fail(const std::string& what, bool wrong_answer) {
    ++failed;
    wrong += wrong_answer ? 1 : 0;
    if (errors.size() < 5) errors.push_back(what);
  }

  void Merge(const Outcome& o) {
    for (auto [to, from] : {std::pair{&interactive_ms, &o.interactive_ms},
                            std::pair{&sender_lag_ms, &o.sender_lag_ms},
                            std::pair{&batch_ms, &o.batch_ms},
                            std::pair{&ingest_ms, &o.ingest_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    for (const auto& [kind, ms] : o.by_template) {
      by_template[kind].insert(by_template[kind].end(), ms.begin(), ms.end());
    }
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    logical_rows += o.logical_rows;
    for (const std::string& e : o.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
    ledger.Merge(o.ledger);
  }
};

/// Cache and NameNode counters, by name.
std::map<std::string, int64_t> ReadCounters(Env* env) {
  if (env->hive == nullptr) return {};
  presto::FileListCache& lists = env->hive->file_list_cache();
  presto::FooterCache& footers = env->hive->footer_cache();
  const presto::MetricsRegistry& fs = env->hdfs->metrics();
  return {
      {"list_hits", lists.metrics().Get("cache.file_list.hits")},
      {"list_misses", lists.metrics().Get("cache.file_list.misses")},
      {"handle_hits", footers.handle_metrics().Get("cache.file_handle.hits")},
      {"handle_misses",
       footers.handle_metrics().Get("cache.file_handle.misses")},
      {"footer_hits", footers.footer_metrics().Get("cache.footer.hits")},
      {"footer_misses", footers.footer_metrics().Get("cache.footer.misses")},
      {"namenode_calls", fs.Get("fs.dir.list") + fs.Get("fs.file.stat")},
      {"namenode_nanos", env->clock.waited_nanos()},
  };
}

struct PhaseResult {
  Outcome outcome;
  std::map<std::string, int64_t> counters;  // deltas over the phase
  double wall_s = 0;
};

constexpr double kWarmSeconds = 3;

struct Runner {
  Env* env = nullptr;
  const WorkloadConfig* w = nullptr;
  const LakeTruth* lake = nullptr;
  const BatchTruth* batch = nullptr;
  std::string spill_path;

  Session MakeSession(const Query& q, bool traced) const {
    Session s;
    s.properties["spill_path"] = spill_path;
    s.properties["query_timeout_millis"] = "60000";
    if (w->groups) {
      s.properties["resource_group"] = q.batch() ? "batch" : "interactive";
    }
    if (q.kind == Template::kBatchSpill) {
      s.properties["query_max_memory"] = kSpillMemoryCap;
    }
    if (traced) s.properties["query_trace"] = "true";
    return s;
  }

  /// Runs one query, checks its answer and books its latency. `due` is the
  /// open-loop due time of an interactive query.
  void RunQuery(const Query& q, bool traced, int64_t due, Outcome* out,
                QueryResult* keep = nullptr) const {
    const Session session = MakeSession(q, traced);
    const int64_t sent = SteadyNowNanos();
    auto result = env->cluster->Execute(q.sql, session);
    const int64_t done = SteadyNowNanos();
    const int64_t started = env->ingest.started.load();
    ++out->attempted;
    if (!result.ok()) {
      out->Fail(q.sql + ": " + result.status().ToString(), false);
      return;
    }
    const std::string wrong = CheckAnswer(q, *result, *lake, *batch, started);
    if (!wrong.empty()) {
      out->Fail(q.sql + ": " + wrong, true);
      return;
    }
    out->logical_rows += q.logical_rows;
    out->by_template[q.kind].push_back(static_cast<double>(done - sent) / 1e6);
    if (q.batch()) {
      out->batch_ms.push_back(static_cast<double>(done - sent) / 1e6);
    } else {
      const OpenLoopTiming timing{due, sent, done};
      out->interactive_ms.push_back(timing.LatencyMillis());
      out->sender_lag_ms.push_back(timing.LagMillis());
    }
    if (traced) out->ledger.Add(q, *result, sent, done);
    if (keep != nullptr) *keep = std::move(*result);
  }

  static void SleepUntil(int64_t steady_nanos) {
    const int64_t wait = steady_nanos - SteadyNowNanos();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  }

  /// Open loop: sender s sends arrivals s, s + senders, ... on schedule.
  void Sender(int sender, uint64_t seed, int64_t start, int64_t end,
              bool traced, Outcome* out) const {
    for (int64_t i = sender;; i += w->interactive_senders) {
      const int64_t due = DueNanos(start, w->interactive_rate, i);
      if (due >= end) break;
      SleepUntil(due);
      RunQuery(MakeInteractive(seed, i, w->open_partition(), env->ingest),
               traced, due, out);
    }
  }

  /// Closed loop: the next query goes out when the last one returns.
  void BatchClient(int client, uint64_t seed, int64_t end, bool traced,
                   Outcome* out) const {
    for (int64_t j = 0; SteadyNowNanos() < end; ++j) {
      RunQuery(MakeBatch(seed, client, j), traced, 0, out);
    }
  }

  /// Commits one micro-batch into the open partition per 1/ingest_rate s.
  void Ingest(int64_t start, int64_t end, Outcome* out) const {
    for (int64_t i = 0;; ++i) {
      const int64_t due = DueNanos(start, w->ingest_rate, i);
      if (due >= end) break;
      SleepUntil(due);
      const int64_t batch_index = env->ingest.started.load();
      if (batch_index >= env->ingest.max_batches) break;
      env->ingest.started.fetch_add(1);
      const int64_t t0 = SteadyNowNanos();
      const presto::Status st = WriteOpenBatch(env, batch_index);
      const int64_t t1 = SteadyNowNanos();
      ++out->attempted;
      if (!st.ok()) {
        out->Fail("ingest batch " + std::to_string(batch_index) + ": " +
                      st.ToString(),
                  false);
        continue;
      }
      env->ingest.committed.fetch_add(1);
      out->ingest_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
  }

  /// Runs the workload's load for `seconds`, one thread per sender, client
  /// and ingest writer.
  PhaseResult Phase(uint64_t seed, double seconds, bool traced) const {
    const std::map<std::string, int64_t> before = ReadCounters(env);
    std::vector<Outcome> outcomes(static_cast<size_t>(w->load_threads()));
    std::vector<std::thread> threads;
    const int64_t start = SteadyNowNanos() + 5'000'000;
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    Outcome* out = outcomes.data();
    for (int s = 0; s < w->interactive_senders; ++s, ++out) {
      threads.emplace_back(
          [=, this] { Sender(s, seed, start, end, traced, out); });
    }
    for (int c = 0; c < w->batch_clients; ++c, ++out) {
      threads.emplace_back(
          [=, this] { BatchClient(c, seed, end, traced, out); });
    }
    if (w->ingest_rate > 0) {
      threads.emplace_back([=, this] { Ingest(start, end, out); });
    }
    for (std::thread& t : threads) t.join();
    PhaseResult phase;
    phase.wall_s = static_cast<double>(SteadyNowNanos() - start) / 1e9;
    for (const Outcome& o : outcomes) phase.outcome.Merge(o);
    phase.counters = ReadCounters(env);
    for (auto& [name, value] : phase.counters) value -= before.at(name);
    return phase;
  }

  /// Warms the metadata caches and checks that every template answers
  /// correctly and that the spill template really spills.
  presto::Status Warm(uint64_t seed) const {
    Outcome out;
    if (w->lake) {
      // A top-n reads every file of its partition, so this caches every
      // sealed listing, handle and footer; then one pass of the cycle.
      for (int p = 0; p < kPartitions; ++p) {
        RunQuery(TopNQuery(p, p % kCountries), false, SteadyNowNanos(), &out);
      }
      for (int64_t i = 0; i < 20; ++i) {
        RunQuery(MakeInteractive(Mix(seed, 40, 0), i, w->open_partition(),
                                 env->ingest),
                 false, SteadyNowNanos(), &out);
      }
    }
    if (w->batch) {
      bool spilled = false;
      for (int64_t j = 0; j < 2 * kBatchCycleLength && !spilled; ++j) {
        const Query q = MakeBatch(Mix(seed, 41, 0), 0, j);
        QueryResult result;
        RunQuery(q, false, 0, &out, &result);
        spilled = q.kind == Template::kBatchSpill &&
                  MetricOr0(result.exec_metrics, "spill.run.written") > 0;
      }
      if (!spilled) {
        return presto::Status::Internal("the spill template did not spill");
      }
    }
    // Then the workload's own load, untimed, so that thread arenas, pools
    // and caches are in their steady state when timing starts.
    out.Merge(Phase(Mix(seed, 42, 0), kWarmSeconds, false).outcome);
    if (out.failed > 0) {
      return presto::Status::Internal("warm-up failed: " + out.errors.front());
    }
    return presto::Status::OK();
  }

  /// File bytes of the open partition per byte of row data committed to it.
  double OpenBytesPerUserByte() const {
    auto files = env->hdfs->ListFiles("/warehouse/web/events/ds=today");
    if (!files.ok()) return 0;
    int64_t file_bytes = 0;
    for (const presto::FileInfo& f : *files) {
      file_bytes += static_cast<int64_t>(f.size);
    }
    int64_t user_bytes = 0;
    const int64_t rows = env->ingest.committed.load() * kIngestRows;
    for (int64_t id = kSealedRows; id < kSealedRows + rows; ++id) {
      // event_id and amount, then the ds, country and device strings.
      user_bytes +=
          16 + static_cast<int64_t>(
                   std::strlen("today") +
                   CountryName(env->lake_rows.country(id)).size() +
                   std::strlen(kDeviceNames[env->lake_rows.device(id)]));
    }
    return user_bytes > 0 ? static_cast<double>(file_bytes) /
                                static_cast<double>(user_bytes)
                          : 0;
  }
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> items;

  void Add(const std::string& name, double value, const std::string& unit) {
    items.emplace_back(name, value, unit);
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items.size(); ++i) {
      const auto& [name, value, unit] = items[i];
      out += (i > 0 ? ", " : "") + Quote(name) + ": {\"value\": " +
             Number(value) + ", \"unit\": " + Quote(unit) + "}";
    }
    return out + "}";
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Latency of the workload's foreground class: interactive queries where
/// there are any, else batch queries.
const std::vector<double>& Foreground(const WorkloadConfig& w,
                                      const Outcome& o) {
  return w.interactive_senders > 0 ? o.interactive_ms : o.batch_ms;
}

void PrintClass(const char* name, const std::vector<double>& ms) {
  if (ms.empty()) return;
  std::printf("%-12s n=%-6zu p50=%.3f ms  p95=%.3f ms%s\n", name, ms.size(),
              Percentile(ms, 0.5), Percentile(ms, 0.95),
              PercentileSupported(ms.size(), 0.95) ? "" : " (p95 unsupported)");
}

void EndToEndMetrics(const WorkloadConfig& w, const PhaseResult& phase,
                     double setup_s, Metrics* m) {
  const Outcome& o = phase.outcome;
  const std::vector<double>& foreground = Foreground(w, o);
  m->Add("setup_s", setup_s, "s");
  m->Add("p50_ms", Percentile(foreground, 0.5), "ms");
  m->Add("p95_ms", Percentile(foreground, 0.95), "ms");
  m->Add("mrows_per_s",
         static_cast<double>(o.logical_rows) / phase.wall_s / 1e6, "Mrows/s");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void LayerMetrics(const WorkloadConfig& w, const PhaseResult& untraced,
                  const PhaseResult& traced, double bytes_per_user_byte,
                  Metrics* m) {
  const LayerLedger& l = traced.outcome.ledger;
  const auto& c = traced.counters;
  const double queries = l["queries"];
  const double lake_queries = l["lake_queries"];
  // Per-query means of nanosecond sums, in milliseconds.
  const auto ms = [&](const char* name, double per) {
    return Ratio(l[name] / 1e6, per);
  };
  const auto count = [&](const std::string& name) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  m->Add("planner.plan_ms", ms("plan", queries), "ms");
  m->Add("cluster.schedule_ms", ms("schedule", queries), "ms");
  m->Add("cluster.tasks_per_query", Ratio(l["tasks"], queries), "count");
  m->Add("cluster.splits_per_query", Ratio(l["splits"], queries), "count");
  m->Add("cluster.admission_wait_ms", ms("admission", queries), "ms");
  for (const std::string& type : ReportedOperatorTypes()) {
    m->Add("exec.operator_self_ms." + type,
           Ratio(l["op." + type] / 1e6, queries), "ms");
  }
  m->Add("exec.operator_self_ms.other", ms("op.other", queries), "ms");
  m->Add("exec.cpu_ms_per_mrow",
         Ratio(l["cpu"] / 1e6, l["scan_rows_out"] / 1e6), "ms/Mrow");
  const double agg_pages = l["kernel_pages"] + l["fallback_pages"];
  m->Add("exec.kernel_page_share", Ratio(l["kernel_pages"], agg_pages),
         "ratio");
  m->Add("exec.kernel_page_share.base", Ratio(agg_pages, queries), "pages");
  m->Add("exec.groups_created", Ratio(l["groups_created"], queries), "count");
  m->Add("exec.hash_probes", Ratio(l["hash_probes"], queries), "count");
  m->Add("exec.chain_efficiency", Ratio(l["chain_busy"], l["chain_capacity"]),
         "ratio");
  m->Add("exec.exchange_wait_ms", ms("exchange_wait", queries), "ms");
  m->Add("exec.exchanged_bytes_per_row",
         Ratio(l["exchanged_bytes"], l["logical_rows"]), "B/row");
  m->Add("exec.spill_io_ms", ms("spill_io", queries), "ms");
  m->Add("exec.spill_bytes_written", Ratio(l["spill_bytes"], queries), "B");
  m->Add("exec.spilled_runs", Ratio(l["spill_runs"], queries), "count");
  m->Add("exec.memory_wait_ms", ms("memory_wait", queries), "ms");
  m->Add("lakefile.scan_decode_ms", ms("scan_decode", lake_queries), "ms");
  m->Add("lakefile.scan_io_ms", ms("scan_io", lake_queries), "ms");
  m->Add("lakefile.pages_skipped_share",
         Ratio(l["pages_skipped"], l["pages_total"]), "ratio");
  m->Add("lakefile.pages_skipped_share.base",
         Ratio(l["pages_total"], lake_queries), "pages");
  m->Add("lakefile.page_ledger_excess",
         Ratio(l["pages_read"] + l["pages_skipped"] - l["pages_total"],
               l["pages_total"]),
         "ratio");
  m->Add("lakefile.row_groups_skipped_share",
         Ratio(l["row_groups_skipped"], l["row_groups_total"]), "ratio");
  m->Add("lakefile.row_groups_skipped_share.base",
         Ratio(l["row_groups_total"], lake_queries), "row_groups");
  m->Add("lakefile.bytes_read_per_row_out",
         Ratio(l["scan_bytes_read"], l["lake_scan_rows_out"]), "B/row");
  m->Add("lakefile.dict_code_hits", Ratio(l["dict_code_hits"], lake_queries),
         "count");
  const std::vector<double>& writes = traced.outcome.ingest_ms;
  double write_ms = 0;
  for (double t : writes) write_ms += t;
  m->Add("lakefile.write_ms",
         Ratio(write_ms, static_cast<double>(writes.size())), "ms");
  m->Add("lakefile.bytes_written_per_user_byte", bytes_per_user_byte, "ratio");
  for (const auto& [name, key] :
       {std::pair{"cache.file_list_hit_share", "list"},
        std::pair{"cache.file_handle_hit_share", "handle"},
        std::pair{"cache.footer_hit_share", "footer"}}) {
    const double hits = count(std::string(key) + "_hits");
    const double lookups = hits + count(std::string(key) + "_misses");
    m->Add(name, Ratio(hits, lookups), "ratio");
    m->Add(std::string(name) + ".base", Ratio(lookups, lake_queries),
           "lookups");
  }
  m->Add("fs.namenode_calls_per_query",
         Ratio(count("namenode_calls"), lake_queries), "count");
  m->Add("fs.namenode_ms_per_query",
         Ratio(count("namenode_nanos") / 1e6, lake_queries), "ms");
  m->Add("bench.sender_lag_p95_ms",
         Percentile(untraced.outcome.sender_lag_ms, 0.95), "ms");
  const double base = Percentile(Foreground(w, untraced.outcome), 0.5);
  const double with = Percentile(Foreground(w, traced.outcome), 0.5);
  m->Add("bench.tracing_overhead_pct", 100.0 * Ratio(with - base, base), "%");
  m->Add("ledger.residual_pct", 100.0 * Ratio(l["residual"], l["client"]),
         "%");
}

/// Removes the spill area on every return path.
struct SpillDir {
  std::string path;
  ~SpillDir() {
    if (path.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string scratch = ".";
  std::string git_sha = "unknown";
  std::string build_type = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scratch") {
      args->scratch = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--build-type") {
      args->build_type = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

// Set-up runs in rounds of one run per cpu, and more rounds while all runs
// took under kSetupSeconds, so that a cheap set-up gets a steady median.
constexpr int kMaxSetups = 24;
constexpr double kSetupSeconds = 2;

double Seconds(int64_t since_nanos) {
  return static_cast<double>(SteadyNowNanos() - since_nanos) / 1e9;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR [--git-sha SHA] "
                 "[--build-type TYPE]\n");
    return 2;
  }
  const WorkloadConfig* w = nullptr;
  for (const WorkloadConfig& candidate : Workloads()) {
    if (candidate.name == args.workload) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // Keep freed memory for reuse, as a long-running server's allocator ends
  // up doing, instead of returning it and faulting it in again: otherwise
  // set-up and query times depend on how far a fresh process has come.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  const std::vector<int> cpus = AllowedCpus();
  const int nproc = static_cast<int>(cpus.size());
  if (w->load_threads() > nproc) {
    std::fprintf(stderr, "%s needs %d load threads but only %d cpus\n",
                 w->name.c_str(), w->load_threads(), nproc);
    return 2;
  }

  SpillDir spill;
  std::string pattern = args.scratch + "/spill-XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a spill directory under %s\n",
                 args.scratch.c_str());
    return 2;
  }
  spill.path = std::filesystem::absolute(pattern).string();

  const int64_t oracle_start = SteadyNowNanos();
  const int64_t max_batches =
      kPreloadedBatches +
      static_cast<int64_t>(w->ingest_rate * (args.seconds + kWarmSeconds) *
                           1.5) +
      16;
  LakeTruth lake;
  BatchTruth batch;
  if (w->lake) lake.Build(args.seed, max_batches);
  if (w->batch) batch.Build(args.seed);
  std::fprintf(stderr, "oracle %.3f s\n", Seconds(oracle_start));

  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  double setup_total = 0;
  for (int i = 0; i == 0 || i % nproc != 0 ||
                  (setup_total < kSetupSeconds && i < kMaxSetups);
       ++i) {
    env.reset();
    const int64_t start = SteadyNowNanos();
    auto built = Setup(*w, args.seed, max_batches, cpus[i % nproc]);
    setup_s.push_back(Seconds(start));
    setup_total += setup_s.back();
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    env = std::move(*built);
  }
  // setup_s: each cpu's median set-up time, averaged over the cpus.
  double setup_median_s = 0;
  for (int c = 0; c < nproc; ++c) {
    std::vector<double> on_cpu;
    for (size_t i = c; i < setup_s.size(); i += nproc) {
      on_cpu.push_back(setup_s[i]);
    }
    setup_median_s += Median(on_cpu) / nproc;
  }
  std::fprintf(stderr, "set-up %.4f s over %zu runs (min %.4f, max %.4f)\n",
               setup_median_s, setup_s.size(),
               *std::min_element(setup_s.begin(), setup_s.end()),
               *std::max_element(setup_s.begin(), setup_s.end()));

  const Runner runner{env.get(), w, &lake, &batch, spill.path};
  const int64_t warm_start = SteadyNowNanos();
  const presto::Status warm = runner.Warm(args.seed);
  std::fprintf(stderr, "warm-up %.3f s\n", Seconds(warm_start));
  if (!warm.ok()) {
    std::fprintf(stderr, "%s\n", warm.ToString().c_str());
    return 1;
  }

  const char* loop = w->interactive_senders == 0 ? "closed"
                     : w->batch_clients > 0      ? "open+closed"
                                                 : "open";
  std::printf(
      "{\"host\": {\"nproc\": %d, \"hardware_concurrency\": %u, "
      "\"build_type\": %s, \"git_sha\": %s, \"seed\": %llu, "
      "\"workload\": %s, \"run_seconds\": %s, \"trace\": %d, \"loop\": %s, "
      "\"interactive_rate_per_s\": %s, \"interactive_senders\": %d, "
      "\"batch_clients\": %d, \"ingest_rate_per_s\": %s, "
      "\"load_threads\": %d}}\n",
      nproc, std::thread::hardware_concurrency(),
      Quote(args.build_type).c_str(), Quote(args.git_sha).c_str(),
      static_cast<unsigned long long>(args.seed), Quote(w->name).c_str(),
      Number(args.seconds).c_str(), args.trace ? 1 : 0, Quote(loop).c_str(),
      Number(w->interactive_rate).c_str(), w->interactive_senders,
      w->batch_clients, Number(w->ingest_rate).c_str(), w->load_threads());

  const uint64_t phase_seed = Mix(args.seed, 50, args.trace ? 1 : 0);
  Metrics metrics;
  Outcome total;
  bool conserved = true;
  if (!args.trace) {
    PhaseResult phase = runner.Phase(phase_seed, args.seconds, false);
    EndToEndMetrics(*w, phase, setup_median_s, &metrics);
    total = std::move(phase.outcome);
    const size_t n = Foreground(*w, total).size();
    if (!PercentileSupported(n, 0.95)) {
      std::fprintf(stderr,
                   "warning: %zu foreground samples leave fewer than %zu "
                   "beyond p95\n",
                   n, kMinSamplesBeyond);
    }
  } else {
    PhaseResult untraced = runner.Phase(phase_seed, args.seconds / 2, false);
    PhaseResult traced =
        runner.Phase(Mix(phase_seed, 51, 0), args.seconds / 2, true);
    LayerMetrics(*w, untraced, traced,
                 w->open_partition() ? runner.OpenBytesPerUserByte() : 0,
                 &metrics);
    const double failures = traced.outcome.ledger["conservation_failures"];
    conserved = failures == 0;
    if (!conserved) {
      std::fprintf(stderr,
                   "%.0f traced queries read or skipped fewer pages than "
                   "they counted\n",
                   failures);
    }
    total = std::move(untraced.outcome);
    total.Merge(traced.outcome);
  }

  PrintClass("interactive", total.interactive_ms);
  PrintClass("batch", total.batch_ms);
  PrintClass("ingest", total.ingest_ms);
  for (const auto& [kind, ms] : total.by_template) {
    std::printf("  template %-14s n=%-6zu p50=%.3f ms (client time)\n",
                TemplateName(kind), ms.size(), Percentile(ms, 0.5));
  }
  const double error_pct =
      100.0 * Ratio(static_cast<double>(total.failed),
                    static_cast<double>(total.attempted));
  std::printf("error_pct=%s (%lld failed, %lld wrong of %lld)\n",
              Number(error_pct).c_str(), static_cast<long long>(total.failed),
              static_cast<long long>(total.wrong),
              static_cast<long long>(total.attempted));
  for (const std::string& e : total.errors) {
    std::fprintf(stderr, "error: %s\n", e.c_str());
  }

  const bool correct = total.wrong == 0 && conserved;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(total.attempted),
      static_cast<long long>(total.failed), metrics.Json().c_str());
  std::fflush(stdout);
  return correct && total.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
