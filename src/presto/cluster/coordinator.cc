#include "presto/cluster/coordinator.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <deque>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <thread>

#include "presto/common/fault_injection.h"
#include "presto/common/random.h"
#include "presto/exec/operators.h"
#include "presto/planner/optimizer.h"
#include "presto/sql/analyzer.h"
#include "presto/sql/parser.h"

namespace presto {

const Clock* DefaultSystemClock() {
  static SystemClock clock;
  return &clock;
}

std::vector<Value> QueryResult::Row(size_t r) const {
  for (const Page& page : pages) {
    if (r < page.num_rows()) return page.GetRow(r);
    r -= page.num_rows();
  }
  return {};
}

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out;
  for (size_t c = 0; c < column_names.size(); ++c) {
    out += c == 0 ? "" : " | ";
    out += column_names[c];
  }
  out += "\n";
  size_t emitted = 0;
  for (const Page& page : pages) {
    for (size_t r = 0; r < page.num_rows() && emitted < max_rows; ++r, ++emitted) {
      for (size_t c = 0; c < page.num_columns(); ++c) {
        out += c == 0 ? "" : " | ";
        out += page.column(c)->GetValue(r).ToString();
      }
      out += "\n";
    }
  }
  if (emitted < static_cast<size_t>(total_rows)) {
    out += "… (" + std::to_string(total_rows) + " rows total)\n";
  }
  return out;
}

Coordinator::~Coordinator() {
  // Queries run inside ExecuteSql, so by now none writes under these roots.
  for (const std::string& root : spill_roots_) {
    std::error_code ignored;
    std::filesystem::remove_all(root, ignored);
  }
}

std::string Coordinator::NewSpillScope() {
  static std::atomic<int64_t> next_seq{1};
  return std::to_string(::getpid()) + "-" + std::to_string(next_seq++);
}

std::string Coordinator::SpillRoot(const std::string& area) {
  std::string root = area + "/" + spill_scope_;
  {
    std::lock_guard<std::mutex> lock(spill_roots_mu_);
    if (!spill_roots_.insert(root).second) return root;
  }
  MarkSpillRoot(root, ::getpid());
  SweepDeadSpillRoots(area);
  return root;
}

namespace {

constexpr char kSpillRootMarker[] = ".presto_spill_root";

// The kernel boot and pid namespace this process runs in: a pid named by a
// marker from the same domain is one kill() can resolve. Empty when either
// is unreadable.
const std::string& PidDomain() {
  static const std::string domain = [] {
    std::string boot_id;
    std::ifstream("/proc/sys/kernel/random/boot_id") >> boot_id;
    std::error_code ec;
    std::string ns =
        std::filesystem::read_symlink("/proc/self/ns/pid", ec).string();
    if (boot_id.empty() || ec || ns.empty()) return std::string();
    return boot_id + "/" + ns;
  }();
  return domain;
}

}  // namespace

void Coordinator::MarkSpillRoot(const std::string& root, pid_t pid) {
  std::error_code ignored;
  std::filesystem::create_directories(root, ignored);
  std::ofstream(root + "/" + kSpillRootMarker) << pid << " " << PidDomain()
                                               << "\n";
}

void Coordinator::SweepDeadSpillRoots(const std::string& area) {
  const std::string& domain = PidDomain();
  if (domain.empty()) return;  // no way to tell whose pids markers name
  std::error_code ec;
  for (std::filesystem::directory_iterator it(area, ec), end;
       !ec && it != end; it.increment(ec)) {
    std::ifstream marker(it->path() / kSpillRootMarker);
    long pid = 0;
    std::string marker_domain;
    if (!(marker >> pid >> marker_domain) || marker_domain != domain) continue;
    const std::string prefix = std::to_string(pid) + "-";
    if (pid <= 0 || pid > std::numeric_limits<pid_t>::max() ||
        it->path().filename().string().rfind(prefix, 0) != 0) {
      continue;  // not "<pid>-<seq>" for the pid the marker names
    }
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) continue;
    std::error_code ignored;
    std::filesystem::remove_all(it->path(), ignored);
  }
}

void Coordinator::AddWorker(std::shared_ptr<Worker> worker) {
  std::lock_guard<std::mutex> lock(mu_);
  workers_.push_back(std::move(worker));
}

Status Coordinator::ShrinkWorker(const std::string& worker_id,
                                 int64_t grace_period_nanos) {
  std::shared_ptr<Worker> target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& worker : workers_) {
      if (worker->id() == worker_id) {
        target = worker;
        break;
      }
    }
  }
  if (target == nullptr) {
    return Status::NotFound("no such worker: " + worker_id);
  }
  // Propagate the worker's own state-machine verdict: a second shrink of the
  // same worker is kAlreadyExists, shrinking a crashed worker kUnavailable.
  // Returning OK here (as an earlier version did) made double-shrink
  // indistinguishable from success and hid races in elastic-scaling drivers.
  return target->TryRequestGracefulShutdown(grace_period_nanos);
}

Status Coordinator::DrainWorker(const std::string& worker_id) {
  std::shared_ptr<Worker> target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& worker : workers_) {
      if (worker->id() == worker_id) {
        target = worker;
        break;
      }
    }
  }
  if (target == nullptr) {
    return Status::NotFound("no such worker: " + worker_id);
  }
  // Drain() flips the worker to SHUTTING_DOWN before waiting, so it drops
  // out of ActiveWorkers() immediately and new dispatches route elsewhere
  // while this call blocks on its in-flight tasks.
  RETURN_IF_ERROR(target->Drain());
  metrics_.Increment("worker.drained");
  journal_.Record(/*query_id=*/0, QueryEventKind::kWorkerDrained, worker_id);
  return Status::OK();
}

int Coordinator::ProbeBlacklistedWorkers() {
  std::vector<std::shared_ptr<Worker>> members;
  std::set<std::string> blacklist_snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    members = workers_;
    blacklist_snapshot = blacklisted_;
  }
  std::vector<std::string> reinstated;
  for (const auto& member : members) {
    if (blacklist_snapshot.count(member->id()) == 0) continue;
    // The probe happens outside mu_ (it is a call into the worker); streak
    // bookkeeping goes back under the lock.
    const bool alive = member->Heartbeat();
    std::lock_guard<std::mutex> lock(mu_);
    if (blacklisted_.count(member->id()) == 0) continue;  // raced a reinstate
    if (!alive) {
      // Flapping host: one failed probe restarts probation from zero, so a
      // worker must sustain recovery before it sees traffic again.
      probation_streak_[member->id()] = 0;
      continue;
    }
    if (++probation_streak_[member->id()] >= kProbationProbes) {
      blacklisted_.erase(member->id());
      probation_streak_.erase(member->id());
      reinstated.push_back(member->id());
    }
  }
  for (const std::string& id : reinstated) {
    metrics_.Increment("worker.reinstated");
    journal_.Record(/*query_id=*/0, QueryEventKind::kWorkerReinstated, id);
  }
  return static_cast<int>(reinstated.size());
}

std::vector<std::string> Coordinator::BlacklistedWorkers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::string>(blacklisted_.begin(), blacklisted_.end());
}

std::vector<std::shared_ptr<Worker>> Coordinator::ActiveWorkers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<Worker>> out;
  for (const auto& worker : workers_) {
    if (worker->state() != WorkerState::kActive) continue;
    // A blacklisted worker whose process came back (Revive) is ACTIVE again
    // but stays out of rotation until the probation sweep reinstates it.
    if (blacklisted_.count(worker->id()) > 0) continue;
    out.push_back(worker);
  }
  return out;
}

size_t Coordinator::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

namespace {

// Stable per-query correlation id: query id in the high bits (so traces sort
// by query), steady-clock entropy in the low bits (so re-used ids across
// coordinator restarts stay distinguishable in external log aggregation).
std::string MakeTraceId(int64_t query_id) {
  uint64_t bits = (static_cast<uint64_t>(query_id) << 32) ^
                  (static_cast<uint64_t>(SteadyNowNanos()) & 0xffffffffu);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

// Keeps exchange buffers alive until every producer task has fully exited:
// without this, the root fragment can observe "all producers done" and let
// the query tear down while a producer is still inside its final
// notify_all() — a use-after-free on the buffer's condition variable.
struct TaskLatch {
  std::mutex mu;
  std::condition_variable cv;
  int remaining = 0;

  void Done() {
    // Notify under the lock: the waiter destroys this latch as soon as it
    // observes remaining == 0, so an unlocked notify_all() would race the
    // destructor.
    std::lock_guard<std::mutex> lock(mu);
    --remaining;
    cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return remaining <= 0; });
  }
  // Registers extra attempts after dispatch (straggler speculation). Must
  // happen-before Wait() can observe zero — the speculation monitor is
  // stopped and joined before the drain barrier waits on this latch.
  void Add(int n) {
    std::lock_guard<std::mutex> lock(mu);
    remaining += n;
  }
};

TableScanNode* FindScan(const PlanNodePtr& node) {
  if (node->kind() == PlanNodeKind::kTableScan) {
    return static_cast<TableScanNode*>(node.get());
  }
  for (const PlanNodePtr& source : node->sources()) {
    if (TableScanNode* scan = FindScan(source)) return scan;
  }
  return nullptr;
}

// One remote input a fragment consumes: the upstream fragment id plus
// whether that upstream's output is hash-partitioned (each consuming task
// then reads its own partition) or gathered (partition 0).
struct RemoteInput {
  int fragment_id = 0;
  bool hash_partitioned = false;
};

void CollectRemoteInputs(const PlanNodePtr& node, std::vector<RemoteInput>* out) {
  if (node->kind() == PlanNodeKind::kRemoteSource) {
    const auto* remote = static_cast<const RemoteSourceNode*>(node.get());
    out->push_back({remote->fragment_id(),
                    remote->source_partitioning() ==
                        PartitioningScheme::Kind::kHash});
    return;
  }
  for (const PlanNodePtr& source : node->sources()) {
    CollectRemoteInputs(source, out);
  }
}

// Channel indices of the fragment's hash-partitioning keys within its output
// layout; empty for gather fragments.
Result<std::vector<int>> ResolveRouteChannels(const PlanFragment& fragment) {
  std::vector<int> channels;
  if (fragment.output_partitioning.kind != PartitioningScheme::Kind::kHash) {
    return channels;
  }
  std::vector<VariablePtr> outputs = fragment.root->OutputVariables();
  for (const VariablePtr& key : fragment.output_partitioning.hash_keys) {
    int channel = -1;
    for (size_t c = 0; c < outputs.size(); ++c) {
      if (outputs[c]->name() == key->name()) {
        channel = static_cast<int>(c);
        break;
      }
    }
    if (channel < 0) {
      return Status::Internal("partitioning key " + key->name() +
                              " missing from fragment " +
                              std::to_string(fragment.id) + " output");
    }
    channels.push_back(channel);
  }
  return channels;
}

// Leaf fragments ordered by when their exchanges are drained: joins consume
// their build side (sources[1]) to exhaustion before pulling the probe side.
// Leaf tasks run in bounded FIFO worker pools, so a probe-side producer
// blocked on a full bounded exchange must never be queued ahead of the
// build-side producers its consumer is still waiting for — dispatching leaf
// tasks in consumption order keeps the pools deadlock-free.
void LeafConsumptionOrder(const FragmentedPlan& plan, const PlanNodePtr& node,
                          std::vector<int>* order) {
  if (node->kind() == PlanNodeKind::kRemoteSource) {
    const auto* remote = static_cast<const RemoteSourceNode*>(node.get());
    const PlanFragment& upstream = plan.fragments[remote->fragment_id()];
    if (upstream.leaf) {
      order->push_back(upstream.id);
    } else {
      LeafConsumptionOrder(plan, upstream.root, order);
    }
    return;
  }
  if (node->kind() == PlanNodeKind::kJoin) {
    LeafConsumptionOrder(plan, node->sources()[1], order);
    LeafConsumptionOrder(plan, node->sources()[0], order);
    return;
  }
  for (const PlanNodePtr& source : node->sources()) {
    LeafConsumptionOrder(plan, source, order);
  }
}

// Wraps text (the plan rendering for EXPLAIN [ANALYZE]) as a one-column,
// one-row varchar result, mirroring Presto's "Query Plan" output column.
void SetTextResult(QueryResult* result, std::string text) {
  result->column_names = {"Query Plan"};
  result->column_types = {Type::Varchar()};
  result->pages.clear();
  result->pages.push_back(Page({MakeVarcharVector({std::move(text)})}));
  result->total_rows = 1;
}

// True once the query's steady-clock deadline (0 = none) has passed.
bool DeadlinePassed(int64_t deadline_steady_nanos) {
  return deadline_steady_nanos > 0 && SteadyNowNanos() >= deadline_steady_nanos;
}

// An integer session property as strtoll reads it; nullopt when unset or
// empty.
std::optional<int64_t> IntProperty(const Session& session, const char* name) {
  std::string prop = session.Property(name, "");
  if (prop.empty()) return std::nullopt;
  return std::strtoll(prop.c_str(), nullptr, 10);
}

// The attempt id of a speculative duplicate, far above the usual retry
// range so traces name its provenance. Whether an attempt is speculative
// travels as a separate flag: with query_max_task_retries >= 100 a retry
// reaches this id too.
constexpr int kSpeculativeAttemptBase = 100;

}  // namespace

// A query's session properties, parsed once when it starts executing. Each
// keeps the default and validation rule documented in planner/session.h.
struct QueryOptions {
  int64_t timeout_millis = 0;        // query_timeout_millis; <= 0 = none
  int max_task_retries = 0;          // query_max_task_retries; > 0 = recovery
  int64_t retry_backoff_millis = 2;  // task_retry_backoff_millis
  int64_t queue_max = 64;            // query_queue_max
  bool trace = false;                // query_trace
  bool stats = true;                 // query_stats
  bool memory_accounting = true;
  int64_t max_memory = 1LL << 30;  // query_max_memory
  bool spill_enabled = true;
  std::string spill_path;
  int task_threads = 1;
  int hash_partitions = 0;  // hash_partition_count; 0 = one per task slot
  int64_t exchange_capacity = 32LL << 20;    // exchange_buffer_bytes
  bool speculative = false;                  // speculative_execution
  double speculation_quantile = 0.75;
  int64_t max_join_build_rows = ExecutionLimits().max_join_build_rows;
  bool fragment_cache = false;     // fragment_result_cache
  int64_t slow_query_millis = -1;  // < 0 = no slow_query event
};

QueryOptions ParseQueryOptions(const Session& session) {
  QueryOptions o;
  o.timeout_millis = IntProperty(session, "query_timeout_millis").value_or(0);
  o.max_task_retries = std::max(0, static_cast<int>(IntProperty(
      session, "query_max_task_retries").value_or(0)));
  o.retry_backoff_millis = std::max<int64_t>(
      0, IntProperty(session, "task_retry_backoff_millis").value_or(2));
  o.queue_max = std::max<int64_t>(
      0, IntProperty(session, "query_queue_max").value_or(64));
  o.trace = session.Property("query_trace", "false") == "true";
  o.stats = session.Property("query_stats", "true") != "false";
  o.memory_accounting =
      session.Property("memory_accounting", "true") != "false";
  int64_t max_memory = IntProperty(session, "query_max_memory").value_or(0);
  if (max_memory > 0) o.max_memory = max_memory;
  o.spill_enabled = session.Property("spill_enabled", "true") != "false";
  o.spill_path = session.Property("spill_path", "/tmp/presto_spill");
  o.task_threads = static_cast<int>(std::min<unsigned>(
      16, std::max<unsigned>(1, std::thread::hardware_concurrency())));
  if (auto threads = IntProperty(session, "task_threads")) {
    o.task_threads = std::max(1, static_cast<int>(*threads));
  }
  if (auto partitions = IntProperty(session, "hash_partition_count")) {
    o.hash_partitions = std::max(1, static_cast<int>(*partitions));
  }
  int64_t capacity = IntProperty(session, "exchange_buffer_bytes").value_or(0);
  if (capacity > 0) o.exchange_capacity = capacity;
  o.speculative = session.Property("speculative_execution", "false") == "true";
  double quantile = std::strtod(
      session.Property("speculation_quantile", "").c_str(), nullptr);
  if (quantile > 0.0 && quantile <= 1.0) o.speculation_quantile = quantile;
  if (auto rows = IntProperty(session, "max_join_build_rows")) {
    o.max_join_build_rows = *rows;
  }
  o.fragment_cache =
      session.Property("fragment_result_cache", "false") == "true";
  o.slow_query_millis = IntProperty(session, "slow_query_millis").value_or(-1);
  return o;
}

// One run of a query: its stages, their exchanges, and every task attempt.
// Root, stage, leaf and speculative attempts share one attempt body
// (RunAttempt), one dispatcher (Dispatch) and one recovery decision
// (OnAttemptFailed); every exit of Run tears down through Finish. A query
// that restarts makes a second QueryRun.
class QueryRun {
 public:
  QueryRun(Coordinator* coordinator, int64_t query_id,
           const FragmentedPlan& plan, const QueryOptions& options,
           bool force_stats, int64_t deadline_steady_nanos,
           MetricsRegistry* query_metrics,
           std::shared_ptr<QueryMemory> memory,
           const ResourceGroupConfig& group, TraceRecorder* recorder,
           int64_t query_span);
  QueryRun(const QueryRun&) = delete;
  QueryRun& operator=(const QueryRun&) = delete;

  // Schedules every task, drains the root fragment on the calling thread,
  // and on success journals the stage-finished / completed / slow-query
  // events, records the latency histograms and closes the query's trace.
  // `queued_nanos` is the query's admission wait. Does NOT record kFailed:
  // ExecutePlan owns terminal failure accounting.
  Result<QueryResult> Run(const Stopwatch& watch, int64_t queued_nanos);

 private:
  struct FragmentState {
    const PlanFragment* fragment = nullptr;
    std::vector<RemoteInput> inputs;
    // Output-layout channels of the hash-partitioning keys; empty = gather.
    std::vector<int> route_channels;
    // The stage's task count until tasks start; the last task to finish
    // journals the stage finished.
    std::atomic<int> unfinished_tasks{1};
    std::unique_ptr<PartitionedExchange> exchange;  // null for the root
  };
  // One producer slot: a leaf's split batch, a stage's partition, or the
  // root. Its attempts (retries, a speculative duplicate) commit
  // through the slot's fence in the fragment's exchange.
  struct Task {
    FragmentState* state = nullptr;
    std::vector<SplitPtr> splits;  // leaf tasks only
    int partition = 0;
    int attempt = 0;  // current retry attempt
    // -- speculation bookkeeping (read by the monitor thread) --
    std::atomic<int64_t> start_nanos{0};  // first attempt began (0 = not yet)
    std::atomic<int64_t> duration_nanos{0};  // set when the task finished
    std::atomic<bool> finished{false};
    std::atomic<bool> speculated{false};  // duplicate attempt launched
    std::atomic<int64_t> progress_rows{0};
  };

  Status BuildStages();
  void MakeExchange(FragmentState& state);
  void Start();
  void Dispatch(Task& task, int attempt, bool speculative);
  void Execute(Task& task, int attempt, bool speculative, Worker* host);
  Status RunAttempt(Task& task, int attempt, bool speculative, Worker* host,
                    bool* superseded);
  Status BuildAndDrain(Task& task, int attempt, bool speculative,
                       Worker* host, bool* superseded);
  bool Commit(Task& task, int attempt, bool speculative,
              std::vector<Page> pages, Operator* tree, int64_t wall_nanos);
  bool OnAttemptFailed(Task& task, Status status);
  void Backoff(const Task& task);
  void FinalizeFailed(Task& task, const Status& status);
  void CloseSlot(Task& task, const std::string& detail);
  // Bumps `name` in both the coordinator's and the query's metrics.
  void Count(const std::string& name) {
    coordinator_->metrics_.Increment(name);
    query_metrics_->Increment(name);
  }
  void BlacklistDeadWorkers();
  void MonitorStragglers();
  void Speculate(Task& task, int64_t running_nanos, int64_t threshold_nanos);
  void Finish();
  void RecordRunMetrics();
  QueryResult Complete(const Stopwatch& watch, int64_t queued_nanos);

  // Whether the attempt holds its output back until it commits through the
  // fence: leaf tasks when retries or speculation are armed, speculative
  // duplicates always.
  bool Buffered(const Task& task, bool speculative) const {
    return speculative || (task.state->fragment->leaf && buffer_leaf_output_);
  }
  // The kStage span of `fragment_id`, or the query span.
  int64_t StageSpan(int fragment_id) const {
    auto it = stage_spans_.find(fragment_id);
    return it != stage_spans_.end() ? it->second : query_span_;
  }
  // Closes every upstream exchange partition the task consumes — its own
  // partition of a hash-partitioned input, partition 0 of a gathered one.
  void CloseInputs(const Task& task) {
    for (const RemoteInput& input : task.state->inputs) {
      auto it = exchange_refs_.find(input.fragment_id);
      if (it == exchange_refs_.end()) continue;
      PartitionedExchange* in = it->second;
      in->ConsumerDone(input.hash_partitioned
                           ? task.partition % in->num_partitions()
                           : 0);
    }
  }

  Coordinator* const coordinator_;
  const int64_t query_id_;
  const FragmentedPlan& plan_;
  const QueryOptions& options_;
  const int64_t deadline_;
  MetricsRegistry* const query_metrics_;
  const std::shared_ptr<QueryMemory> memory_;  // null = unaccounted
  const ResourceGroupConfig& group_;
  TraceRecorder* const recorder_;  // null = untraced
  const int64_t query_span_;
  // Tracing implies stats: the Next() fast path for collect_stats=false
  // skips the blocked accounting and span plumbing entirely, so a traced
  // query must run with stats on for its spans to reconcile with anything.
  const bool collect_stats_;
  // Retries buffer leaf output until the attempt succeeds (so a half-run
  // attempt never leaks pages into its exchange), and so does speculation:
  // two attempts of one task run concurrently and only the fence winner
  // may publish.
  const bool buffer_leaf_output_;
  ExecutionLimits limits_;  // shared by every task; pools added per attempt
  int hash_partitions_ = 1;
  QueryResult result_;
  std::map<int, FragmentState> states_;
  std::map<int, PartitionedExchange*> exchange_refs_;
  // Fragment id -> kStage span; built before dispatch, read-only after.
  std::map<int, int64_t> stage_spans_;
  Task root_;
  std::deque<Task> tasks_;  // stage tasks, then leaves in consumption order
  size_t num_leaves_ = 0;
  QueryStatsCollector collector_;
  TaskLatch latch_;
  std::atomic<size_t> next_worker_{0};
  std::mutex backoff_mu_;
  Random backoff_rng_;  // guarded by backoff_mu_
  // Tasks no worker accepted; retries add to it from worker threads.
  std::mutex local_mu_;
  std::vector<std::thread> local_threads_;  // guarded by local_mu_
  std::atomic<bool> stop_monitor_{false};
  std::thread monitor_;  // straggler speculation; joined by Finish
};


Result<FragmentedPlan> Coordinator::PlanQuery(const sql::Query& query,
                                              const Session& session) {
  sql::Analyzer analyzer(catalogs_, &session);
  ASSIGN_OR_RETURN(PlanNodePtr plan, analyzer.Analyze(query));
  Optimizer optimizer(catalogs_, &session, &analyzer.ids());
  ASSIGN_OR_RETURN(plan, optimizer.Optimize(std::move(plan)));
  FragmenterOptions fragmenter_options;
  fragmenter_options.multi_stage =
      session.Property("multi_stage_execution", "true") != "false";
  Fragmenter fragmenter(&analyzer.ids(), &FunctionRegistry::Default(),
                        fragmenter_options);
  return fragmenter.Fragment(std::move(plan));
}

Result<FragmentedPlan> Coordinator::PlanSql(const std::string& sql,
                                            const Session& session) {
  ASSIGN_OR_RETURN(sql::Query query, sql::ParseQuery(sql));
  return PlanQuery(query, session);
}

Result<std::string> Coordinator::ExplainSql(const std::string& sql,
                                            const Session& session) {
  ASSIGN_OR_RETURN(FragmentedPlan plan, PlanSql(sql, session));
  return plan.ToString();
}

Status Coordinator::RecordFailure(int64_t query_id, const Status& status,
                                  const MetricsRegistry* query_metrics) {
  queries_failed_.fetch_add(1);
  metrics_.Increment("coordinator.query.failed");
  if (status.code() == StatusCode::kDeadlineExceeded) {
    metrics_.Increment("query.timeout");
  }
  // Failed queries return no QueryResult, so whatever counters the tasks
  // accumulated before the error ride along on the journal event instead —
  // this keeps failure diagnostics consistent with the success path.
  std::map<std::string, int64_t> counters;
  if (query_metrics != nullptr) counters = query_metrics->Snapshot();
  journal_.Record(query_id, QueryEventKind::kFailed, status.ToString(),
                  std::move(counters));
  return status;
}

void Coordinator::OnQueryKilled(const QueryMemory& victim,
                                const QueryMemory& requester,
                                int64_t bytes_requested) {
  // The flag alone suffices: operators poll it at every batch boundary, so
  // the victim unwinds (releasing its pools) without any exchange plumbing.
  metrics_.Increment("query.killed.memory");
  if (!victim.group.empty()) {
    metrics_.Increment("group." + victim.group + ".killed");
  }
  journal_.Record(victim.query_id, QueryEventKind::kKilledMemory,
                  "largest reservation under worker memory pressure",
                  {{"reserved_bytes", victim.query->reserved_bytes()},
                   {"bytes_requested", bytes_requested},
                   {"requesting_query", requester.query_id}});
}

Status Coordinator::AdmitQuery(int64_t query_id, const std::string& group,
                               int64_t query_queue_max,
                               int64_t deadline_steady_nanos,
                               int64_t* queued_nanos_out) {
  bool queued = false;
  Status st = groups_->TryAdmit(group, query_id, query_queue_max, &queued);
  if (!st.ok()) {
    // Load shed (kRejected): the group queue is full. The gateway treats
    // this as cluster overload — back off, don't blind-failover-hammer.
    metrics_.Increment("query.shed");
    journal_.Record(query_id, QueryEventKind::kShed, st.message(),
                    {{"group_running", groups_->running(group)},
                     {"group_queued", groups_->queued(group)}});
    return st;
  }
  if (!queued) return Status::OK();  // fast path: slot granted immediately
  metrics_.Increment("query.queued");
  journal_.Record(query_id, QueryEventKind::kQueued,
                  "waiting in resource group '" + group + "'",
                  {{"reserved_bytes", worker_pool_->reserved_bytes()},
                   {"group_running", groups_->running(group)},
                   {"group_queued", groups_->queued(group)}});
  // From here the query is genuinely waiting: time the wait into the
  // thread's blocked cell (kQueued) and, when tracing, record an admission
  // span under the query span installed by ExecutePlan.
  const int64_t wait_start = SteadyNowNanos();
  BlockedTimer blocked(BlockedKind::kQueued);
  TraceEventScope span(TraceKind::kAdmission, "group_queue_wait");
  st = groups_->Wait(group, query_id, deadline_steady_nanos);
  if (queued_nanos_out != nullptr) {
    *queued_nanos_out = SteadyNowNanos() - wait_start;
  }
  if (st.ok()) {
    journal_.Record(query_id, QueryEventKind::kAdmitted,
                    "weighted-fair promotion granted a slot in group '" +
                        group + "'");
  } else if (st.code() == StatusCode::kRejected) {
    // Queued-time deadline: stale work is shed rather than run long after
    // the client gave up on it.
    metrics_.Increment("query.shed");
    journal_.Record(query_id, QueryEventKind::kShed, st.message());
  } else {
    metrics_.Increment("query.timeout.queued");
    journal_.Record(query_id, QueryEventKind::kTimeoutQueued, st.message());
  }
  return st;
}

Result<QueryResult> Coordinator::ExecuteSql(const std::string& sql,
                                            const Session& session) {
  Stopwatch watch;
  int64_t query_id = next_query_id_.fetch_add(1);
  // Register the trace id and resource group before the first event so every
  // journal entry of this query (kCreated included) carries both.
  journal_.SetTraceId(query_id, MakeTraceId(query_id));
  journal_.SetResourceGroup(query_id, groups_->Resolve(session).name);
  journal_.Record(query_id, QueryEventKind::kCreated, sql);

  auto statement = sql::ParseStatement(sql);
  if (!statement.ok()) {
    return RecordFailure(query_id, statement.status(), nullptr);
  }
  auto plan = PlanQuery(statement->query, session);
  if (!plan.ok()) return RecordFailure(query_id, plan.status(), nullptr);
  journal_.Record(query_id, QueryEventKind::kPlanned,
                  std::to_string(plan->fragments.size()) + " fragments");

  if (statement->kind == sql::Statement::Kind::kQuery) {
    return ExecutePlan(query_id, *plan, session, watch, /*force_stats=*/false);
  }
  if (statement->kind == sql::Statement::Kind::kExplain) {
    QueryResult result;
    result.query_id = query_id;
    result.trace_id = journal_.TraceIdFor(query_id);
    result.num_fragments = static_cast<int>(plan->fragments.size());
    SetTextResult(&result, plan->ToString());
    result.wall_millis = watch.ElapsedMillis();
    queries_completed_.fetch_add(1);
    metrics_.Increment("coordinator.query.completed");
    journal_.Record(query_id, QueryEventKind::kCompleted, "explain");
    return result;
  }

  // EXPLAIN ANALYZE: run the query (stats collection forced on even if the
  // session disabled query_stats), then re-render the fragmented plan with
  // each node annotated by its actual merged operator stats.
  auto executed = ExecutePlan(query_id, *plan, session, watch,
                              /*force_stats=*/true);
  if (!executed.ok()) return executed.status();
  QueryResult result = std::move(*executed);
  SetTextResult(&result, RenderPlanWithStats(*plan, result.stats));
  return result;
}

Result<QueryResult> Coordinator::ExecutePlan(int64_t query_id,
                                             const FragmentedPlan& fragmented,
                                             const Session& session,
                                             Stopwatch watch,
                                             bool force_stats) {
  const QueryOptions options = ParseQueryOptions(session);
  // Per-query deadline, measured on the real monotonic clock rather than the
  // injected Clock: a wedged query under a SimulatedClock nobody advances is
  // exactly what the timeout must break.
  const int64_t deadline_steady_nanos =
      options.timeout_millis > 0
          ? SteadyNowNanos() + options.timeout_millis * 1'000'000
          : 0;
  // One registry across runs: counters (task retries, restart, partial work
  // of a failed first run) accumulate so the terminal journal event and the
  // result's exec_metrics reflect the whole recovery story.
  MetricsRegistry query_metrics;

  // -- Resource group resolution: every query belongs to exactly one group
  // (the resource_group session property, else the session's group name,
  // else the default). Journal events (stamped at kCreated) and the trace
  // root carry it.
  const ResourceGroupConfig& group = groups_->Resolve(session);

  // -- Tracing (session query_trace=true): one recorder per query, rooted at
  // a kQuery span. The context scope installs it on the coordinator thread;
  // task dispatch re-installs it on worker threads per attempt.
  std::unique_ptr<TraceRecorder> recorder;
  int64_t query_span = 0;
  if (options.trace) {
    recorder = std::make_unique<TraceRecorder>();
    std::string root_name = "query#" + std::to_string(query_id);
    if (groups_->enabled()) root_name += " group=" + group.name;
    query_span = recorder->BeginSpan(TraceKind::kQuery, root_name, 0);
  }
  TraceContextScope trace_ctx(recorder.get(), query_span);

  // Every admission is paired with exactly one release + completed — on
  // every exit path, and before a restarted run re-enters its group's queue
  // — so concurrency quotas and admitted == completed reconcile exactly even
  // through restarts, kills, and failures.
  struct AdmissionGuard {
    Coordinator* coordinator;
    std::string group;
    bool admitted = false;
    void Release() {
      if (!admitted) return;
      admitted = false;
      coordinator->groups_->Release(group);
      coordinator->metrics_.Increment("group." + group + ".completed");
    }
    ~AdmissionGuard() { Release(); }
  } admission{this, group.name};

  // -- Per-query memory: worker [-> group] -> query.<id> -> {user, system},
  // set up once the query is first admitted. Registering it with the
  // arbiter makes the query a kill candidate until its last holder drops
  // it, which removes it (waking arbiter waiters) and wakes queued queries.
  std::shared_ptr<QueryMemory> memory;

  int64_t queued_nanos = 0;
  Result<QueryResult> run = Status::Internal("query did not run");
  for (int pass = 0;; ++pass) {
    // -- Admission control: a queued query holds no memory yet, so it waits
    // here, before its pools even exist. Only the first admission's wait is
    // the query's queued time.
    Status admitted =
        AdmitQuery(query_id, group.name, options.queue_max,
                   deadline_steady_nanos, pass == 0 ? &queued_nanos : nullptr);
    if (pass == 0 && queued_nanos > 0) {
      // Into the per-query registry now, so the exec_metrics snapshot taken
      // at the end of the run (and the slow-query event reusing it) carries
      // the admission share of the blocked-time breakdown.
      query_metrics.FindOrRegister("trace.blocked.queued.nanos")
          ->Add(queued_nanos);
    }
    if (!admitted.ok()) return RecordFailure(query_id, admitted, &query_metrics);
    admission.admitted = true;
    if (pass == 0 && options.memory_accounting) {
      // Query pools hang off the group's pool layer when resource groups
      // are enabled, so the group's memory_fraction cap bounds its tenants'
      // combined reservations (the arbiter scopes a group-cap failure to
      // the tenant: spill or fail, never the cross-tenant killer).
      memory.reset(new QueryMemory(), [this](QueryMemory* exited) {
        arbiter_->RemoveQuery(exited);
        groups_->NotifyCapacity();
        delete exited;
      });
      MemoryPool* pool_parent = group_pool(group.name);
      if (pool_parent == nullptr) pool_parent = worker_pool_.get();
      memory->query_id = query_id;
      memory->group = group.name;
      memory->query = pool_parent->AddChild("query." + std::to_string(query_id));
      memory->user = memory->query->AddChild("user", options.max_memory);
      memory->system = memory->query->AddChild("system");
      memory->deadline_steady_nanos = deadline_steady_nanos;
      if (options.spill_enabled) memory->spill_fs = spill_fs_.get();
      memory->spill_dir = SpillRoot(options.spill_path) + "/query-" +
                          std::to_string(query_id);
      arbiter_->AddQuery(memory.get());
    }
    run = QueryRun(this, query_id, fragmented, options, force_stats,
                   deadline_steady_nanos, &query_metrics, memory, group,
                   recorder.get(), query_span)
              .Run(watch, queued_nanos);
    // Leaf-task retry handles transient failures surgically; a transient
    // error that still escapes it (a lost stage task fails fast by latching
    // its exchange — its upstream partitions are already partially
    // consumed) is recovered by running the whole query once more. The
    // restarted run re-enters its group's admission queue instead of riding
    // the first run's slot, so weighted-fair promotion can schedule someone
    // else ahead of it.
    if (run.ok() || pass > 0 || options.max_task_retries == 0 ||
        DeadlinePassed(deadline_steady_nanos) ||
        !IsRetryableStatus(run.status())) {
      break;
    }
    metrics_.Increment("query.restarted");
    query_metrics.Increment("query.restarted");
    journal_.Record(query_id, QueryEventKind::kRestarted,
                    run.status().ToString());
    admission.Release();
  }
  if (!run.ok()) return RecordFailure(query_id, run.status(), &query_metrics);
  return run;
}

// -- QueryRun -------------------------------------------------------------------

QueryRun::QueryRun(Coordinator* coordinator, int64_t query_id,
                   const FragmentedPlan& plan, const QueryOptions& options,
                   bool force_stats, int64_t deadline_steady_nanos,
                   MetricsRegistry* query_metrics,
                   std::shared_ptr<QueryMemory> memory,
                   const ResourceGroupConfig& group, TraceRecorder* recorder,
                   int64_t query_span)
    : coordinator_(coordinator),
      query_id_(query_id),
      plan_(plan),
      options_(options),
      deadline_(deadline_steady_nanos),
      query_metrics_(query_metrics),
      memory_(std::move(memory)),
      group_(group),
      recorder_(recorder),
      query_span_(query_span),
      collect_stats_(force_stats || recorder != nullptr || options.stats),
      buffer_leaf_output_(options.max_task_retries > 0 || options.speculative),
      backoff_rng_(static_cast<uint64_t>(query_id)) {
  result_.query_id = query_id;
  result_.num_fragments = static_cast<int>(plan.fragments.size());
  limits_.metrics = query_metrics;
  limits_.collect_stats = collect_stats_;
  limits_.deadline_steady_nanos = deadline_steady_nanos;
  limits_.max_join_build_rows = options.max_join_build_rows;
  limits_.task_threads = options.task_threads;
  limits_.query_memory = memory_;
}

Result<QueryResult> QueryRun::Run(const Stopwatch& watch,
                                  int64_t queued_nanos) {
  Status st = BuildStages();
  if (st.ok()) {
    Start();
    bool superseded = false;  // the root has no sibling attempts
    st = RunAttempt(root_, /*attempt=*/0, false, nullptr, &superseded);
  }
  Finish();
  if (!st.ok()) return st;
  RecordRunMetrics();
  return Complete(watch, queued_nanos);
}

// Cuts the plan into stages: leaf fragments get split batches (one task per
// worker, never more tasks than splits), intermediate stages one task per
// partition when any input is hash-partitioned (else one gather task), and
// every non-root fragment an output exchange. Tasks are listed in dispatch
// order: intermediate stages, then leaves in consumption order (join build
// sides first — see LeafConsumptionOrder).
Status QueryRun::BuildStages() {
  const CoordinatorOptions& cluster = coordinator_->options_;
  const size_t num_workers = coordinator_->ActiveWorkers().size();
  // Target parallelism: every worker runs tasks_per_fragment tasks, and each
  // leaf task should get at least one split.
  const size_t parallelism = std::max<size_t>(
      1, std::max<size_t>(num_workers, 1) * cluster.tasks_per_fragment);
  hash_partitions_ = options_.hash_partitions > 0
                         ? options_.hash_partitions
                         : static_cast<int>(parallelism);
  // Soft degradation: before memory pressure reaches spill/queue/kill
  // territory, degradable groups (batch/adhoc) give up intra-task
  // parallelism. Fewer concurrent operator chains means a smaller working
  // set, trading batch latency for cluster headroom.
  const int64_t reserved = coordinator_->worker_pool_->reserved_bytes();
  if (group_.degradable && memory_ != nullptr && limits_.task_threads > 1 &&
      reserved >= static_cast<int64_t>(
                      cluster.degrade_high_water *
                      static_cast<double>(cluster.worker_memory_bytes))) {
    limits_.task_threads = 1;
    coordinator_->metrics_.Increment("group." + group_.name + ".degraded");
    query_metrics_->Increment("query.degraded");
    coordinator_->journal_.Record(query_id_, QueryEventKind::kDegraded,
                                  "memory pressure shrank task_threads to 1",
                                  {{"reserved_bytes", reserved}});
  }

  std::map<int, std::vector<std::vector<SplitPtr>>> leaf_batches;
  for (const PlanFragment& fragment : plan_.fragments) {
    FragmentState& state = states_[fragment.id];
    state.fragment = &fragment;
    CollectRemoteInputs(fragment.root, &state.inputs);
    if (fragment.id == 0) continue;  // root: one coordinator-side task
    if (fragment.leaf) {
      TableScanNode* scan = FindScan(fragment.root);
      if (scan == nullptr) {
        return Status::Internal("leaf fragment without a table scan");
      }
      ASSIGN_OR_RETURN(Connector * connector,
                       coordinator_->catalogs_->GetConnector(scan->catalog()));
      ASSIGN_OR_RETURN(std::vector<SplitPtr> splits,
                       connector->CreateSplits(scan->table_schema_name(),
                                               scan->table_name(),
                                               *scan->accepted(), parallelism));
      result_.num_splits += static_cast<int>(splits.size());
      // The task's chains share its splits, which stay fine-grained so
      // morsels balance across chains. Splits go round-robin across tasks.
      size_t num_tasks = std::min<size_t>(std::max<size_t>(1, splits.size()),
                                          std::max<size_t>(1, num_workers));
      std::vector<std::vector<SplitPtr>>& batches = leaf_batches[fragment.id];
      batches.resize(num_tasks);
      for (size_t i = 0; i < splits.size(); ++i) {
        batches[i % num_tasks].push_back(splits[i]);
      }
      state.unfinished_tasks = static_cast<int>(num_tasks);
    } else {
      const bool hash_input =
          std::any_of(state.inputs.begin(), state.inputs.end(),
                      [](const RemoteInput& in) { return in.hash_partitioned; });
      state.unfinished_tasks = hash_input ? hash_partitions_ : 1;
      for (int t = 0; t < state.unfinished_tasks; ++t) {
        Task& task = tasks_.emplace_back();
        task.state = &state;
        task.partition = t;
      }
    }
    ASSIGN_OR_RETURN(state.route_channels, ResolveRouteChannels(fragment));
    MakeExchange(state);
    exchange_refs_[fragment.id] = state.exchange.get();
  }
  root_.state = &states_[0];
  std::vector<int> leaf_order;
  LeafConsumptionOrder(plan_, plan_.fragments[0].root, &leaf_order);
  for (const PlanFragment& fragment : plan_.fragments) {
    if (!fragment.leaf) continue;
    if (std::find(leaf_order.begin(), leaf_order.end(), fragment.id) ==
        leaf_order.end()) {
      leaf_order.push_back(fragment.id);
    }
  }
  for (int fragment_id : leaf_order) {
    std::vector<std::vector<SplitPtr>>& batches = leaf_batches[fragment_id];
    for (size_t t = 0; t < batches.size(); ++t) {
      Task& task = tasks_.emplace_back();
      task.state = &states_[fragment_id];
      task.splits = std::move(batches[t]);
      task.partition = static_cast<int>(t);
      ++num_leaves_;
    }
  }
  result_.num_tasks = static_cast<int>(tasks_.size());
  return Status::OK();
}

// The fragment's output exchange: hash-partitioned or gathered per the
// fragment's partitioning, bounded by exchange_buffer_bytes (producers block
// once it buffers that much), fenced by the query deadline.
void QueryRun::MakeExchange(FragmentState& state) {
  const PlanFragment& fragment = *state.fragment;
  const int partitions =
      fragment.output_partitioning.kind == PartitioningScheme::Kind::kHash
          ? hash_partitions_
          : 1;
  auto exchange = std::make_unique<PartitionedExchange>(
      partitions, options_.exchange_capacity, query_metrics_);
  exchange->SetProducerCount(state.unfinished_tasks);
  exchange->SetDeadlineNanos(deadline_);
  if (memory_ != nullptr) {
    // Exchange buffers live in the query's system subtree (uncapped at the
    // query level): a tiny query_max_memory squeezes operators into
    // spilling without starving shuffle buffers, while the worker cap still
    // sees every buffered byte. A refused push goes to the worker's memory
    // arbiter like any operator's reservation.
    exchange->SetMemoryPool(
        memory_->system->AddChild("exchange." + std::to_string(fragment.id)),
        memory_);
  }
  state.exchange = std::move(exchange);
}

void QueryRun::Start() {
  // Stage spans, one per fragment under the query span, open before any
  // task dispatches so task spans always find their parent.
  if (recorder_ != nullptr) {
    for (const PlanFragment& fragment : plan_.fragments) {
      stage_spans_[fragment.id] = recorder_->BeginSpan(
          TraceKind::kStage, "stage#" + std::to_string(fragment.id),
          query_span_);
    }
  }
  latch_.remaining = static_cast<int>(tasks_.size());
  coordinator_->journal_.Record(
      query_id_, QueryEventKind::kScheduled,
      std::to_string(result_.num_tasks) + " tasks, " +
          std::to_string(result_.num_splits) + " splits");
  for (Task& task : tasks_) Dispatch(task, /*attempt=*/0, false);
  if (options_.speculative && num_leaves_ > 0) {
    monitor_ = std::thread([this] { MonitorStragglers(); });
  }
}

// Round-robin across healthy workers. A leaf's first attempt rides a pool
// slot, in consumption order (see LeafConsumptionOrder). Everything else
// gets a dedicated thread: stage tasks are the consumers that keep bounded
// exchanges draining, so they must never queue behind producers in a pool
// slot; and a retry or duplicate re-entering the queue out of order could
// sit behind probe-side producers blocked on an exchange whose consumer is
// still waiting for this very build-side task. A task no worker accepts
// (embedded mode, every worker draining) runs on a query-owned thread —
// never inline, because a producer can block on a bounded exchange before
// its consumer ever runs.
void QueryRun::Dispatch(Task& task, int attempt, bool speculative) {
  const bool pool_slot = task.state->fragment->leaf && attempt == 0;
  std::vector<std::shared_ptr<Worker>> healthy = coordinator_->ActiveWorkers();
  for (size_t i = 0; i < healthy.size(); ++i) {
    Worker* host = healthy[next_worker_.fetch_add(1) % healthy.size()].get();
    auto body = [=, this, &task] { Execute(task, attempt, speculative, host); };
    if (pool_slot ? host->SubmitTask(body) : host->SubmitDedicatedTask(body)) {
      return;
    }
  }
  std::lock_guard<std::mutex> lock(local_mu_);
  local_threads_.emplace_back(
      [=, this, &task] { Execute(task, attempt, speculative, nullptr); });
}

// A dispatched attempt, start to finish. The task's latch count is released
// once the task reaches a terminal outcome; an attempt that hands the task
// to a retry passes the count on instead.
void QueryRun::Execute(Task& task, int attempt, bool speculative,
                       Worker* host) {
  int64_t not_started = 0;
  task.start_nanos.compare_exchange_strong(not_started, SteadyNowNanos());
  bool superseded = false;
  Status st = RunAttempt(task, attempt, speculative, host, &superseded);
  if (speculative) {
    // The duplicate never retries and never finalizes the slot as failed —
    // the original attempt owns the failure path; the duplicate either wins
    // the fence or is discarded.
    const char* outcome = superseded ? "task.speculative.wasted"
                          : st.ok()  ? "task.speculative.won"
                                     : "task.speculative.failed";
    Count(outcome);
  } else if (st.ok() || superseded || !OnAttemptFailed(task, st)) {
    // Terminal: mark completion for the speculation monitor.
    task.duration_nanos.store(SteadyNowNanos() - task.start_nanos.load());
    task.finished.store(true);
  } else {
    return;
  }
  latch_.Done();
}

// Wraps one attempt in a kTask span under its stage's span and installs the
// trace context on the executing thread, so operator spans opened inside the
// attempt nest under the task.
Status QueryRun::RunAttempt(Task& task, int attempt, bool speculative,
                            Worker* host, bool* superseded) {
  const int fragment_id = task.state->fragment->id;
  int64_t span = 0;
  if (recorder_ != nullptr) {
    std::string name = "fragment" + std::to_string(fragment_id) + ".task" +
                       std::to_string(task.partition);
    if (attempt > 0) name += ".attempt" + std::to_string(attempt);
    span = recorder_->BeginSpan(TraceKind::kTask, name, StageSpan(fragment_id));
  }
  Status st;
  {
    TraceContextScope scope(recorder_, span);
    st = BuildAndDrain(task, attempt, speculative, host, superseded);
  }
  if (recorder_ != nullptr) {
    recorder_->EndSpanWithArgs(span, {{"ok", st.ok() ? 1 : 0},
                                      {"partition", task.partition},
                                      {"attempt", attempt}});
  }
  return st;
}

// The attempt body: builds the fragment's operator tree and drains it into
// the task's sink — the root's pages become the query result; every other
// task pushes into its fragment's exchange (hash-routed or gathered), held
// back until the attempt commits when Buffered(). Leaf tasks consult the
// fragment result cache first. Returns OK only after Commit finalized the
// producer slot (or found it superseded). On failure it returns the error
// WITHOUT touching the exchange: OnAttemptFailed decides what happens next.
Status QueryRun::BuildAndDrain(Task& task, int attempt, bool speculative,
                               Worker* host, bool* superseded) {
  Stopwatch task_watch;
  const PlanFragment& fragment = *task.state->fragment;
  const bool root = fragment.id == 0;
  std::string cache_key;
  const bool cacheable = options_.fragment_cache && fragment.leaf;
  if (cacheable) {
    cache_key = fragment.root->ToString();
    for (const SplitPtr& split : task.splits) {
      cache_key += "\n";
      cache_key += split->ToString();
    }
    if (auto hit = coordinator_->fragment_cache_.Get(cache_key)) {
      // No operators ran; Commit still records the task so stage task
      // counts stay truthful. The pages share immutable vectors.
      *superseded = !Commit(task, attempt, speculative, **hit,
                            /*tree=*/nullptr, task_watch.ElapsedNanos());
      return Status::OK();
    }
  }
  if (!root) {
    RETURN_IF_ERROR(FaultInjector::Global().Hit("worker.task.body"));
    // Stage-scoped chaos hook: scripts "fail the Nth intermediate task"
    // deterministically — worker.task.body call order races the far more
    // numerous leaf bodies, so it cannot target a stage on purpose.
    if (!fragment.leaf) {
      RETURN_IF_ERROR(FaultInjector::Global().Hit("worker.task.stage"));
    }
  }
  ExecutionLimits limits = limits_;
  // Replicated chains borrow helper threads: the root from the
  // coordinator's pool, a task from its host worker's. A task on a
  // query-owned fallback thread has no pool, and its chains run serially
  // on the task thread (correct, just unhelped).
  limits.morsel_pool = root ? coordinator_->root_morsel_pool_.get()
                       : host != nullptr ? host->morsel_pool()
                                         : nullptr;
  if (memory_ != nullptr) {
    // Each attempt gets its own pool under the query's user subtree;
    // operators hang their leaf pools off it, and destroying the attempt's
    // operator tree returns every byte.
    limits.task_pool = memory_->user->AddChild(
        root ? std::string("task.root")
             : "task." + std::to_string(fragment.id) + "." +
                   std::to_string(task.partition));
  }
  OperatorBuilder builder(coordinator_->catalogs_, &FunctionRegistry::Default(),
                          &exchange_refs_, root ? nullptr : &task.splits,
                          limits, task.partition);
  ASSIGN_OR_RETURN(OperatorPtr op, builder.Build(fragment.root));
  PartitionedExchange* out = task.state->exchange.get();
  const bool hold = out == nullptr || Buffered(task, speculative);
  std::vector<Page> produced;  // for the fragment result cache
  std::vector<Page> held;      // the root's result, or held-back output
  bool truncated = false;
  while (true) {
    if (out != nullptr) {
      if (out->AllConsumersDone()) {
        // Downstream cancelled (e.g. a satisfied LIMIT): stop producing.
        truncated = true;
        break;
      }
      // The host dying mid-task is the crash signal: the task aborts at its
      // next page boundary with kUnavailable, exactly like a remote task
      // whose worker process disappeared. The worker.kill fault point lets
      // the chaos tests script that death deterministically.
      if (host != nullptr) {
        if (FaultInjector::Global().ShouldTrigger("worker.kill")) host->Kill();
        if (host->state() == WorkerState::kDead) {
          return Status::Unavailable("worker " + host->id() +
                                     " died mid-task");
        }
      }
      // Deterministic straggler hook for the speculation tests: a triggered
      // first attempt stalls as a slow host would, while its duplicate
      // attempt (dispatched elsewhere) runs at full speed.
      if (attempt == 0 &&
          FaultInjector::Global().ShouldTrigger("worker.task.straggle")) {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
      }
    }
    ASSIGN_OR_RETURN(std::optional<Page> page, op->Next());
    if (!page.has_value()) break;
    task.progress_rows.fetch_add(static_cast<int64_t>(page->num_rows()),
                                 std::memory_order_relaxed);
    if (cacheable) produced.push_back(*page);
    if (hold) {
      held.push_back(std::move(*page));
    } else {
      // Gather (empty route_channels) also goes through PushPartitioned so
      // its pass-through pages tick the zero-copy counter.
      out->PushPartitioned(*page, task.state->route_channels);
    }
  }
  if (!Commit(task, attempt, speculative, std::move(held), op.get(),
              task_watch.ElapsedNanos())) {
    *superseded = true;
    return Status::OK();
  }
  if (cacheable && !truncated) {
    int64_t cache_weight = 0;
    for (const Page& page : produced) cache_weight += page.EstimateBytes();
    coordinator_->fragment_cache_.Put(
        cache_key,
        std::make_shared<const std::vector<Page>>(std::move(produced)),
        cache_weight);
  }
  return Status::OK();
}

// Publishes a finished attempt. The root's pages become the result. Any
// other task publishes through the attempt fence when its output was held
// back — so of two concurrent attempts exactly one commits, and a sibling
// that already committed turns this one into a discarded no-op (returns
// false) — then pushes what it held and closes its producer slot. `tree` is
// the attempt's operator tree, whose stats go to the collector; null for a
// fragment-cache hit.
bool QueryRun::Commit(Task& task, int attempt, bool speculative,
                      std::vector<Page> pages, Operator* tree,
                      int64_t wall_nanos) {
  FragmentState& state = *task.state;
  PartitionedExchange* out = state.exchange.get();
  if (out == nullptr) {
    for (const Page& page : pages) {
      result_.total_rows += static_cast<int64_t>(page.num_rows());
    }
    result_.pages = std::move(pages);
  } else {
    if (Buffered(task, speculative) &&
        !out->TryCommitProducer(task.partition, attempt)) {
      return false;
    }
    for (const Page& page : pages) {
      out->PushPartitioned(page, state.route_channels);
    }
  }
  if (collect_stats_) {
    std::vector<OperatorStats> ops;
    if (tree != nullptr) tree->CollectStats(&ops);
    collector_.AddTask(state.fragment->id,
                       tree != nullptr ? tree->stats().plan_node_id : -1,
                       ops, wall_nanos);
  }
  if (out != nullptr) CloseSlot(task, "");
  return true;
}

// The recovery decision for a failed attempt — the rung table in DESIGN.md
// "Fault tolerance". A leaf attempt that failed retryably within the retry
// budget and the query deadline retries on a fresh healthy-worker snapshot
// after backoff (its held-back output leaked nothing). Anything else —
// every stage task failure included — finalizes the slot as failed, which
// fails the run; ExecutePlan's restart-once is the last rung. Returns true
// when the task was dispatched again.
bool QueryRun::OnAttemptFailed(Task& task, Status status) {
  const PlanFragment& fragment = *task.state->fragment;
  if (fragment.leaf && IsRetryableStatus(status) &&
      task.attempt < options_.max_task_retries && !DeadlinePassed(deadline_)) {
    ++task.attempt;
    Count("task.retry.count");
    coordinator_->journal_.Record(
        query_id_, QueryEventKind::kTaskRetried,
        "fragment " + std::to_string(fragment.id) + " partition " +
            std::to_string(task.partition) + " attempt " +
            std::to_string(task.attempt) + ": " + status.ToString());
    BlacklistDeadWorkers();
    Backoff(task);
    if (!DeadlinePassed(deadline_)) {
      Dispatch(task, task.attempt, false);
      return true;
    }
    // Deadline hit during (or before) the backoff: finalize with the
    // canonical timeout status instead of burning another attempt.
    status = Status::DeadlineExceeded(
        "query deadline exceeded (query_timeout_millis)");
  }
  FinalizeFailed(task, status);
  return false;
}

// Capped exponential backoff with jitter before a leaf retry: uniform in
// [ceiling/2, ceiling], where ceiling doubles per attempt up to 64x the
// base. The sleep wakes at the query deadline if that lands inside the
// delay, so a long backoff ladder never holds a timed-out query alive.
void QueryRun::Backoff(const Task& task) {
  const int64_t ceiling_millis = options_.retry_backoff_millis
                                 << std::min(task.attempt - 1, 6);
  int64_t delay_millis = 0;
  if (ceiling_millis > 0) {
    std::lock_guard<std::mutex> lock(backoff_mu_);
    delay_millis =
        backoff_rng_.NextInRange((ceiling_millis + 1) / 2, ceiling_millis);
  }
  if (delay_millis <= 0) return;
  // Backoff span parented to the stage (no task context is live here — the
  // failed attempt's span already closed), so retry gaps show up between
  // the attempt spans in the trace timeline.
  int64_t span = 0;
  if (recorder_ != nullptr) {
    span = recorder_->BeginSpan(TraceKind::kRetryBackoff, "task_retry_backoff",
                                StageSpan(task.state->fragment->id));
  }
  auto wake = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(delay_millis);
  if (deadline_ > 0) {
    auto deadline = std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(deadline_));
    if (deadline < wake) wake = deadline;
  }
  std::this_thread::sleep_until(wake);
  if (recorder_ != nullptr) {
    recorder_->EndSpanWithArgs(
        span, {{"delay_millis", delay_millis}, {"attempt", task.attempt}});
  }
}

// Terminal failure of a task slot: latch the error into the fragment's
// exchange (consumers see it instead of hanging), release the producer
// slot, and keep the input/stage accounting consistent with success. The
// failure goes through the same attempt fence as success — if a
// speculative sibling already committed the slot, there is nothing left to
// finalize and the failure is moot.
void QueryRun::FinalizeFailed(Task& task, const Status& status) {
  PartitionedExchange* out = task.state->exchange.get();
  if (Buffered(task, /*speculative=*/false) &&
      !out->TryCommitProducer(task.partition, task.attempt)) {
    return;
  }
  out->Fail(status);
  CloseSlot(task, " (failed: " + status.ToString() + ")");
}

// Releases a committed or failed producer slot: closing the task's consumed
// partitions releases upstream producers blocked on bounded exchanges and
// cascades early-exit cancellation down the plan, and the stage's last task
// journals the stage finished (`detail` appended).
void QueryRun::CloseSlot(Task& task, const std::string& detail) {
  task.state->exchange->ProducerDone();
  CloseInputs(task);
  if (task.state->unfinished_tasks.fetch_sub(1) == 1) {
    coordinator_->journal_.Record(
        query_id_, QueryEventKind::kStageFinished,
        "fragment " + std::to_string(task.state->fragment->id) + detail);
  }
}

// Liveness sweep, run before each retry dispatch: heartbeat every member; a
// worker that stopped answering is blacklisted (journaled once per
// coordinator) and — no longer ACTIVE — drops out of scheduling.
void QueryRun::BlacklistDeadWorkers() {
  std::vector<std::shared_ptr<Worker>> members;
  {
    std::lock_guard<std::mutex> lock(coordinator_->mu_);
    members = coordinator_->workers_;
  }
  for (const auto& member : members) {
    if (member->Heartbeat()) continue;
    bool fresh = false;
    {
      std::lock_guard<std::mutex> lock(coordinator_->mu_);
      fresh = coordinator_->blacklisted_.insert(member->id()).second;
    }
    if (fresh) {
      Count("worker.blacklisted");
      coordinator_->journal_.Record(
          query_id_, QueryEventKind::kWorkerBlacklisted, member->id());
    }
  }
}

// Straggler speculation (session speculative_execution): watches leaf-task
// progress from a coordinator-side thread. Once at least half the leaf
// tasks have completed, a task still running past
// quantile(completed durations) * 2 (plus a floor that keeps trivial
// queries from speculating on noise) gets one duplicate attempt on another
// worker. Both attempts race to the exchange's attempt fence; the loser
// discards its output.
void QueryRun::MonitorStragglers() {
  constexpr int64_t kSpeculationFloorNanos = 25'000'000;  // 25ms
  while (!stop_monitor_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::vector<int64_t> durations;
    for (const Task& task : tasks_) {
      if (task.state->fragment->leaf && task.finished.load()) {
        durations.push_back(task.duration_nanos.load());
      }
    }
    if (durations.empty() || durations.size() * 2 < num_leaves_) continue;
    std::sort(durations.begin(), durations.end());
    const size_t idx = static_cast<size_t>(
        options_.speculation_quantile *
        static_cast<double>(durations.size() - 1));
    const int64_t threshold = durations[idx] * 2 + kSpeculationFloorNanos;
    const int64_t now = SteadyNowNanos();
    for (Task& task : tasks_) {
      if (!task.state->fragment->leaf || task.finished.load() ||
          task.speculated.load()) {
        continue;
      }
      const int64_t start = task.start_nanos.load();
      if (start == 0 || now - start < threshold) continue;
      if (task.speculated.exchange(true)) continue;
      Speculate(task, now - start, threshold);
    }
  }
}

void QueryRun::Speculate(Task& task, int64_t running_nanos,
                         int64_t threshold_nanos) {
  // Registered before dispatch: Finish joins this monitor before it waits
  // on the latch, so the barrier sees a stable attempt count.
  latch_.Add(1);
  Count("task.speculative.launched");
  coordinator_->journal_.Record(
      query_id_, QueryEventKind::kTaskSpeculated,
      "fragment " + std::to_string(task.state->fragment->id) + " partition " +
          std::to_string(task.partition) + " running " +
          std::to_string(running_nanos / 1'000'000) + "ms against threshold " +
          std::to_string(threshold_nanos / 1'000'000) + "ms");
  if (recorder_ != nullptr) {
    int64_t span = recorder_->BeginSpan(TraceKind::kSpeculation,
                                        "speculative_attempt",
                                        StageSpan(task.state->fragment->id));
    recorder_->EndSpanWithArgs(
        span, {{"partition", task.partition},
               {"elapsed_millis", running_nanos / 1'000'000},
               {"threshold_millis", threshold_nanos / 1'000'000},
               {"progress_rows", task.progress_rows.load()}});
  }
  Dispatch(task, kSpeculativeAttemptBase, /*speculative=*/true);
}

// The one teardown, run on every exit of Run: close every exchange
// partition (cancelling whatever upstream production the root no longer
// needs, turning any further production into drops and waking blocked
// producers), stop the speculation monitor so no attempt is added after
// the barrier, wait for every task — in-flight retries included — to fully
// exit before the exchanges go away, then end the stage spans: every task
// span is closed by now, so the stage spans stay temporal supersets of
// their children, and a failed run leaves none open.
void QueryRun::Finish() {
  for (auto& [id, state] : states_) {
    if (state.exchange != nullptr) state.exchange->CloseAllPartitions();
  }
  if (monitor_.joinable()) {
    stop_monitor_.store(true);
    monitor_.join();
  }
  latch_.Wait();
  {
    std::lock_guard<std::mutex> lock(local_mu_);
    for (std::thread& thread : local_threads_) thread.join();
    local_threads_.clear();
  }
  if (recorder_ != nullptr) {
    for (const auto& [fragment_id, span_id] : stage_spans_) {
      recorder_->EndSpan(span_id);
    }
  }
}

// Success-path accounting into the per-query registry, before the
// exec_metrics snapshot so the slow-query event (which reuses that
// snapshot) carries it.
void QueryRun::RecordRunMetrics() {
  // The exchange.* counters accumulate per-page; the high-water mark is
  // per-exchange state, surfaced as the max across the query's exchanges.
  // Each exchange's partition count and bytes pushed go to its stage's
  // stats.
  int64_t peak_exchange_bytes = 0;
  for (auto& [id, state] : states_) {
    if (state.exchange == nullptr) continue;
    peak_exchange_bytes =
        std::max(peak_exchange_bytes, state.exchange->peak_buffered_bytes());
    if (collect_stats_) {
      collector_.SetStageExchange(id, state.exchange->num_partitions(),
                                  state.exchange->bytes_pushed());
    }
  }
  query_metrics_->FindOrRegister("exchange.peak_buffered_bytes")
      ->Add(peak_exchange_bytes);
  if (memory_ != nullptr) {
    // Query-level memory high-water mark (user + system subtrees). On the
    // rare restarted query this accumulates one value per run, matching how
    // every other counter in the shared registry behaves.
    query_metrics_->FindOrRegister("memory.query.peak_bytes")
        ->Add(memory_->query->peak_bytes());
  }
  if (!collect_stats_) return;
  result_.stats = collector_.Finish();
  // Blocked-time breakdown and spill volume totals. Like total_wall_nanos,
  // the times sum operator Next()-frame time: a parent frame includes the
  // children it pulled.
  static constexpr std::pair<const char*, int64_t OperatorStats::*> kTotals[] =
      {{"trace.blocked.exchange_wait.nanos", &OperatorStats::exchange_wait_nanos},
       {"trace.blocked.spill_io.nanos", &OperatorStats::spill_io_nanos},
       {"trace.blocked.memory_wait.nanos", &OperatorStats::memory_wait_nanos},
       {"trace.spill.write_bytes", &OperatorStats::spill_write_bytes},
       {"trace.spill.read_bytes", &OperatorStats::spill_read_bytes}};
  for (const auto& [name, field] : kTotals) {
    int64_t total = 0;
    for (const auto& [node_id, op] : result_.stats.operators) {
      total += op.*field;
    }
    if (total > 0) query_metrics_->FindOrRegister(name)->Add(total);
  }
}

QueryResult QueryRun::Complete(const Stopwatch& watch, int64_t queued_nanos) {
  result_.exec_metrics = query_metrics_->Snapshot();
  auto counter = [this](const char* name) -> int64_t {
    auto it = result_.exec_metrics.find(name);
    return it == result_.exec_metrics.end() ? 0 : it->second;
  };
  const int64_t spill_runs = counter("spill.run.written");
  if (spill_runs > 0) {
    coordinator_->journal_.Record(
        query_id_, QueryEventKind::kOperatorSpilled,
        std::to_string(spill_runs) + " runs under memory pressure",
        {{"spill.run.written", spill_runs},
         {"spill.byte.written", counter("spill.byte.written")}});
  }
  // The root stage is finished once its fragment has drained — journaled
  // unconditionally so the lifecycle is complete even with query_stats=false.
  const PlanFragment& root = plan_.fragments[0];
  coordinator_->journal_.Record(query_id_, QueryEventKind::kStageFinished,
                              "fragment " + std::to_string(root.id));

  if (root.root->kind() == PlanNodeKind::kOutput) {
    const auto* output = static_cast<const OutputNode*>(root.root.get());
    result_.column_names = output->column_names();
    for (const VariablePtr& v : output->OutputVariables()) {
      result_.column_types.push_back(v->type());
    }
  }
  result_.wall_millis = watch.ElapsedMillis();
  coordinator_->queries_completed_.fetch_add(1);
  coordinator_->metrics_.Increment("coordinator.query.completed");
  coordinator_->journal_.Record(query_id_, QueryEventKind::kCompleted,
                              std::to_string(result_.total_rows) + " rows",
                              {{"output_rows", result_.total_rows},
                               {"tasks", result_.num_tasks},
                               {"splits", result_.num_splits},
                               {"wall_micros", watch.ElapsedNanos() / 1000}});

  // Slow-query log: queries whose wall time crosses the session threshold
  // journal a slow_query event carrying the full per-query counter snapshot.
  if (options_.slow_query_millis >= 0 &&
      result_.wall_millis >= static_cast<double>(options_.slow_query_millis)) {
    coordinator_->metrics_.Increment("coordinator.query.slow");
    coordinator_->journal_.Record(
        query_id_, QueryEventKind::kSlowQuery,
        "wall_millis above threshold " +
            std::to_string(options_.slow_query_millis),
        result_.exec_metrics);
  }
  result_.trace_id = coordinator_->journal_.TraceIdFor(query_id_);
  result_.stats.queued_nanos = queued_nanos;

  // Latency histograms (coordinator registry, Prometheus-exported): query
  // end-to-end and admission wait always; per-stage and per-operator wall
  // time whenever stats were collected.
  coordinator_->metrics_.RecordHistogram(
      "query.latency.micros", static_cast<int64_t>(result_.wall_millis * 1000.0));
  if (queued_nanos > 0) {
    coordinator_->metrics_.RecordHistogram("query.queued.micros",
                                         queued_nanos / 1000);
  }
  for (const StageStats& stage : result_.stats.stages) {
    coordinator_->metrics_.RecordHistogram("stage.latency.micros",
                                         stage.wall_nanos / 1000);
  }
  for (const auto& [node_id, op] : result_.stats.operators) {
    coordinator_->metrics_.RecordHistogram("operator.latency.micros",
                                         op.wall_nanos / 1000);
  }
  if (recorder_ != nullptr) {
    recorder_->EndSpanWithArgs(query_span_, {{"queued_nanos", queued_nanos},
                                             {"output_rows", result_.total_rows},
                                             {"tasks", result_.num_tasks}});
    result_.trace_json =
        recorder_->ToChromeTraceJson(query_id_, result_.trace_id);
    result_.trace_spans = recorder_->Snapshot();
  }
  return std::move(result_);
}

}  // namespace presto
