#include "presto/cluster/coordinator.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "presto/common/fault_injection.h"
#include "presto/common/random.h"
#include "presto/exec/exchange_spool.h"
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

// Per-fragment outstanding-task counts; when a fragment's count reaches
// zero its stage is finished and a journal event fires.
struct StageTracker {
  std::mutex mu;
  std::map<int, int> remaining;

  // Returns true when this completion was the fragment's last task.
  bool TaskDone(int fragment_id) {
    std::lock_guard<std::mutex> lock(mu);
    return --remaining[fragment_id] == 0;
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

}  // namespace

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
  // Failed queries return no QueryResult, so whatever counters the tasks
  // accumulated before the error ride along on the journal event instead —
  // this keeps failure diagnostics consistent with the success path.
  std::map<std::string, int64_t> counters;
  if (query_metrics != nullptr) counters = query_metrics->Snapshot();
  journal_.Record(query_id, QueryEventKind::kFailed, status.ToString(),
                  std::move(counters));
  return status;
}

bool Coordinator::OnMemoryPressure(int64_t requesting_query_id,
                                   int64_t bytes_requested) {
  int64_t victim_id = -1;
  int64_t victim_reserved = -1;
  std::string victim_group;
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    // A kill already in flight is freeing memory as the victim unwinds; don't
    // stack a second victim. The requester retries — unless it *is* the
    // victim, in which case retrying is pointless (it observes its own flag).
    for (const auto& [id, query] : active_queries_) {
      if (query.killed->load(std::memory_order_relaxed)) {
        return id != requesting_query_id;
      }
    }
    const ActiveQuery* victim = nullptr;
    for (const auto& [id, query] : active_queries_) {
      int64_t reserved = query.pool->reserved_bytes();
      if (reserved > victim_reserved) {
        victim_reserved = reserved;
        victim_id = id;
        victim = &query;
      }
    }
    if (victim == nullptr || victim_reserved <= 0) return false;
    victim->killed->store(true, std::memory_order_relaxed);
    victim_group = victim->group;
  }
  // The flag alone suffices: operators poll it at every batch boundary, so
  // the victim unwinds (releasing its pools) without any exchange plumbing.
  metrics_.Increment("query.killed.memory");
  if (!victim_group.empty()) {
    metrics_.Increment("group." + victim_group + ".killed");
  }
  journal_.Record(victim_id, QueryEventKind::kKilledMemory,
                  "largest reservation under worker memory pressure",
                  {{"reserved_bytes", victim_reserved},
                   {"bytes_requested", bytes_requested},
                   {"requesting_query", requesting_query_id}});
  return victim_id != requesting_query_id;
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

  if (statement->kind == sql::Statement::Kind::kQuery) {
    auto plan = PlanQuery(statement->query, session);
    if (!plan.ok()) return RecordFailure(query_id, plan.status(), nullptr);
    journal_.Record(query_id, QueryEventKind::kPlanned,
                    std::to_string(plan->fragments.size()) + " fragments");
    return ExecutePlan(query_id, *plan, session, watch, /*force_stats=*/false);
  }

  // EXPLAIN / EXPLAIN ANALYZE.
  auto plan = PlanQuery(statement->query, session);
  if (!plan.ok()) return RecordFailure(query_id, plan.status(), nullptr);
  journal_.Record(query_id, QueryEventKind::kPlanned,
                  std::to_string(plan->fragments.size()) + " fragments");

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
  // Per-query deadline (session query_timeout_millis), measured on the real
  // monotonic clock rather than the injected Clock: a wedged query under a
  // SimulatedClock nobody advances is exactly what the timeout must break.
  int64_t deadline_steady_nanos = 0;
  {
    std::string prop = session.Property("query_timeout_millis", "");
    if (!prop.empty()) {
      int64_t millis = std::strtoll(prop.c_str(), nullptr, 10);
      if (millis > 0) {
        deadline_steady_nanos = SteadyNowNanos() + millis * 1'000'000;
      }
    }
  }
  bool recovery_enabled =
      std::strtoll(session.Property("query_max_task_retries", "0").c_str(),
                   nullptr, 10) > 0;
  // One registry across attempts: counters (task retries, restart, partial
  // work of a failed first run) accumulate so the terminal journal event and
  // the result's exec_metrics reflect the whole recovery story.
  MetricsRegistry query_metrics;

  // -- Resource group resolution: every query belongs to exactly one group
  // (the resource_group session property, else the session's group name,
  // else the default). Journal events (stamped at kCreated) and the trace
  // root carry it.
  const ResourceGroupConfig& group = groups_->Resolve(session);

  // -- Tracing (session query_trace=true): one recorder per query, rooted at
  // a kQuery span. The context scope installs it on the coordinator thread;
  // task dispatch re-installs it on worker threads per attempt.
  const bool tracing = session.Property("query_trace", "false") == "true";
  TraceState trace_state;
  TraceState* trace = nullptr;
  if (tracing) {
    trace_state.recorder = std::make_shared<TraceRecorder>();
    std::string root_name = "query#" + std::to_string(query_id);
    if (groups_->enabled()) root_name += " group=" + group.name;
    trace_state.query_span = trace_state.recorder->BeginSpan(
        TraceKind::kQuery, root_name, 0);
    trace = &trace_state;
  }
  TraceContextScope trace_ctx(
      tracing ? trace_state.recorder.get() : nullptr,
      tracing ? trace_state.query_span : 0);

  // -- Admission control: a queued query holds no memory yet, so it waits
  // here, before its pools even exist.
  int64_t query_queue_max = std::strtoll(
      session.Property("query_queue_max", "64").c_str(), nullptr, 10);
  if (query_queue_max < 0) query_queue_max = 0;
  int64_t queued_nanos = 0;
  Status admitted = AdmitQuery(query_id, group.name, query_queue_max,
                               deadline_steady_nanos, &queued_nanos);
  if (queued_nanos > 0) {
    // Into the per-query registry now, so the exec_metrics snapshot taken at
    // the end of ExecutePlanOnce (and the slow-query event reusing it)
    // carries the admission share of the blocked-time breakdown.
    query_metrics.FindOrRegister("trace.blocked.queued.nanos")
        ->Add(queued_nanos);
  }
  if (!admitted.ok()) {
    if (admitted.code() == StatusCode::kDeadlineExceeded) {
      metrics_.Increment("query.timeout");
    }
    return RecordFailure(query_id, admitted, &query_metrics);
  }
  // Admitted: the group slot is held until every exit path below — the
  // guard returns it (waking promotion) and closes the group's completion
  // accounting, so concurrency quotas reconcile exactly even after
  // restarts, kills, and failures.
  struct AdmissionGuard {
    Coordinator* coordinator;
    std::string group;
    // Disarmed across the restart re-admission window (the slot is released
    // and re-acquired explicitly there); re-armed once re-admission succeeds.
    bool armed = true;
    ~AdmissionGuard() {
      if (!armed) return;
      coordinator->groups_->Release(group);
      coordinator->metrics_.Increment("group." + group + ".completed");
    }
  } admission_guard{this, group.name};

  // -- Per-query memory context: worker [-> group] -> query.<id> ->
  // {user, system}. The registration below makes the query visible to the
  // low-memory killer; the guard unregisters it on every exit path and
  // wakes queued queries.
  QueryMemoryContext memory_ctx;
  const QueryMemoryContext* memory = nullptr;
  struct ActiveGuard {
    Coordinator* coordinator;
    int64_t query_id;
    bool armed = false;
    ~ActiveGuard() {
      if (!armed) return;
      {
        std::lock_guard<std::mutex> lock(coordinator->active_mu_);
        coordinator->active_queries_.erase(query_id);
      }
      coordinator->groups_->NotifyCapacity();
    }
  } active_guard{this, query_id};
  if (session.Property("memory_accounting", "true") != "false") {
    int64_t query_max_memory = 1LL << 30;
    {
      std::string prop = session.Property("query_max_memory", "");
      if (!prop.empty()) {
        int64_t parsed = std::strtoll(prop.c_str(), nullptr, 10);
        if (parsed > 0) query_max_memory = parsed;
      }
    }
    // Query pools hang off the group's pool layer when resource groups are
    // enabled, so the group's memory_fraction cap bounds its tenants'
    // combined reservations (operators classify a group-cap failure like a
    // query-cap failure: spill or fail, never the cross-tenant killer).
    MemoryPool* pool_parent = worker_pool_.get();
    auto group_pool_it = group_pools_.find(group.name);
    if (group_pool_it != group_pools_.end()) {
      pool_parent = group_pool_it->second.get();
      memory_ctx.group = pool_parent;
    }
    memory_ctx.query =
        pool_parent->AddChild("query." + std::to_string(query_id));
    memory_ctx.user = memory_ctx.query->AddChild("user", query_max_memory);
    memory_ctx.system = memory_ctx.query->AddChild("system");
    memory_ctx.killed = std::make_shared<std::atomic<bool>>(false);
    memory_ctx.spill_enabled =
        session.Property("spill_enabled", "true") != "false";
    memory_ctx.spill_dir =
        SpillRoot(session.Property("spill_path", "/tmp/presto_spill")) +
        "/query-" + std::to_string(query_id);
    memory = &memory_ctx;
    {
      std::lock_guard<std::mutex> lock(active_mu_);
      active_queries_[query_id] =
          ActiveQuery{memory_ctx.query, memory_ctx.killed, group.name};
    }
    active_guard.armed = true;
  }

  auto attempt = ExecutePlanOnce(query_id, fragmented, session, watch,
                                 force_stats, deadline_steady_nanos,
                                 &query_metrics, memory, &group, trace);
  bool deadline_expired = deadline_steady_nanos > 0 &&
                          SteadyNowNanos() >= deadline_steady_nanos;
  if (!attempt.ok() && recovery_enabled && !deadline_expired &&
      IsRetryableStatus(attempt.status())) {
    // Leaf-task retry handles transient leaf failures surgically; transient
    // errors that still escape (intermediate stages fail fast by latching
    // their exchange — their upstream partitions are already partially
    // consumed, so re-running just that task would drop rows) are recovered
    // by restarting the whole query once.
    metrics_.Increment("query.restarted");
    query_metrics.Increment("query.restarted");
    journal_.Record(query_id, QueryEventKind::kRestarted,
                    attempt.status().ToString());
    // The restarted run re-enters its group's admission queue instead of
    // riding the first run's slot: release the slot (closing the first run's
    // admission accounting, and letting weighted-fair promotion schedule
    // someone else ahead of the re-run), then admit again. Every successful
    // admission is paired with exactly one release+completed, so
    // admitted == completed reconciles per group even through restarts.
    admission_guard.armed = false;
    groups_->Release(group.name);
    metrics_.Increment("group." + group.name + ".completed");
    Status readmitted = AdmitQuery(query_id, group.name, query_queue_max,
                                   deadline_steady_nanos);
    if (!readmitted.ok()) {
      if (readmitted.code() == StatusCode::kDeadlineExceeded) {
        metrics_.Increment("query.timeout");
      }
      return RecordFailure(query_id, readmitted, &query_metrics);
    }
    admission_guard.armed = true;
    attempt = ExecutePlanOnce(query_id, fragmented, session, watch, force_stats,
                              deadline_steady_nanos, &query_metrics, memory,
                              &group, trace);
  }
  if (!attempt.ok()) {
    if (attempt.status().code() == StatusCode::kDeadlineExceeded) {
      metrics_.Increment("query.timeout");
    }
    return RecordFailure(query_id, attempt.status(), &query_metrics);
  }
  attempt->trace_id = journal_.TraceIdFor(query_id);
  attempt->stats.queued_nanos = queued_nanos;

  // Latency histograms (coordinator registry, Prometheus-exported): query
  // end-to-end and admission wait always; per-stage and per-operator wall
  // time whenever stats were collected.
  metrics_.RecordHistogram(
      "query.latency.micros",
      static_cast<int64_t>(attempt->wall_millis * 1000.0));
  if (queued_nanos > 0) {
    metrics_.RecordHistogram("query.queued.micros", queued_nanos / 1000);
  }
  for (const StageStats& stage : attempt->stats.stages) {
    metrics_.RecordHistogram("stage.latency.micros", stage.wall_nanos / 1000);
  }
  for (const auto& [node_id, op] : attempt->stats.operators) {
    metrics_.RecordHistogram("operator.latency.micros", op.wall_nanos / 1000);
  }

  if (tracing) {
    trace_state.recorder->EndSpanWithArgs(
        trace_state.query_span,
        {{"queued_nanos", queued_nanos},
         {"output_rows", attempt->total_rows},
         {"tasks", attempt->num_tasks}});
    std::string trace_id = attempt->trace_id;
    attempt->trace_json =
        trace_state.recorder->ToChromeTraceJson(query_id, trace_id);
    attempt->trace_spans = trace_state.recorder->Snapshot();
  }
  return attempt;
}

Result<QueryResult> Coordinator::ExecutePlanOnce(
    int64_t query_id, const FragmentedPlan& fragmented, const Session& session,
    Stopwatch watch, bool force_stats, int64_t deadline_steady_nanos,
    MetricsRegistry* query_metrics, const QueryMemoryContext* memory,
    const ResourceGroupConfig* group, TraceState* trace) {
  QueryResult result;
  result.query_id = query_id;
  result.num_fragments = static_cast<int>(fragmented.fragments.size());

  // -- Stage setup: per-fragment exchanges, inputs, task counts. ----------------
  std::vector<std::shared_ptr<Worker>> workers = ActiveWorkers();

  // Target parallelism: every worker runs tasks_per_fragment tasks, and each
  // leaf task should get at least one split.
  size_t parallelism = std::max<size_t>(
      1, std::max<size_t>(workers.size(), 1) * options_.tasks_per_fragment);
  // Morsel-driven intra-task parallelism (session task_threads): tasks
  // replicate their consume chains over a shared morsel source instead of
  // multiplying task counts, so each worker runs one leaf task per fragment
  // and parallelism moves inside the task.
  int task_threads = static_cast<int>(std::min<unsigned>(
      16, std::max<unsigned>(1, std::thread::hardware_concurrency())));
  {
    std::string prop = session.Property("task_threads", "");
    if (!prop.empty()) {
      task_threads = std::max<int>(
          1, static_cast<int>(std::strtoll(prop.c_str(), nullptr, 10)));
    }
  }
  // Soft degradation: before memory pressure reaches spill/queue/kill
  // territory, degradable groups (batch/adhoc) give up intra-task
  // parallelism. Fewer concurrent operator chains means a smaller working
  // set, trading batch latency for cluster headroom.
  if (group != nullptr && group->degradable && memory != nullptr &&
      task_threads > 1 &&
      worker_pool_->reserved_bytes() >=
          static_cast<int64_t>(options_.degrade_high_water *
                               static_cast<double>(options_.worker_memory_bytes))) {
    task_threads = 1;
    metrics_.Increment("group." + group->name + ".degraded");
    if (query_metrics != nullptr) query_metrics->Increment("query.degraded");
    journal_.Record(query_id, QueryEventKind::kDegraded,
                    "memory pressure shrank task_threads to 1",
                    {{"reserved_bytes", worker_pool_->reserved_bytes()}});
  }
  // Partition count of hash-partitioned stages (session hash_partition_count).
  int hash_partitions = static_cast<int>(parallelism);
  {
    std::string prop = session.Property("hash_partition_count", "");
    if (!prop.empty()) {
      hash_partitions = std::max<int>(
          1, static_cast<int>(std::strtoll(prop.c_str(), nullptr, 10)));
    }
  }
  // Per-exchange byte budget (session exchange_buffer_bytes): producers block
  // once an exchange buffers this much, so peak stays <= budget + one page.
  int64_t exchange_capacity = 32LL << 20;
  {
    std::string prop = session.Property("exchange_buffer_bytes", "");
    if (!prop.empty()) {
      int64_t parsed = std::strtoll(prop.c_str(), nullptr, 10);
      if (parsed > 0) exchange_capacity = parsed;
    }
  }
  // Spooled exchange (session exchange_spool): every page accepted into an
  // exchange is also written, snappy-compressed in the spill page encoding,
  // to a worker-local spool file. A lost intermediate task is then re-run
  // against the surviving upstream spools (stage re-run) instead of
  // restarting the whole query. The spool's bytes are capped per query
  // (exchange_spool_budget_bytes) and charged to the query's system pool.
  const bool exchange_spool =
      session.Property("exchange_spool", "false") == "true";
  int64_t spool_budget_bytes = 256LL << 20;
  {
    std::string prop = session.Property("exchange_spool_budget_bytes", "");
    if (!prop.empty()) {
      int64_t parsed = std::strtoll(prop.c_str(), nullptr, 10);
      if (parsed > 0) spool_budget_bytes = parsed;
    }
  }
  // Straggler speculation (session speculative_execution): once enough leaf
  // tasks of the query have completed, a task running past
  // quantile(speculation_quantile) * 2 of its siblings' durations gets a
  // duplicate attempt on another worker; the first attempt to commit wins
  // (attempt-id fencing at the exchange keeps publication exactly-once).
  const bool speculative_execution =
      session.Property("speculative_execution", "false") == "true";
  double speculation_quantile = 0.75;
  {
    std::string prop = session.Property("speculation_quantile", "");
    if (!prop.empty()) {
      double parsed = std::strtod(prop.c_str(), nullptr);
      if (parsed > 0.0 && parsed <= 1.0) speculation_quantile = parsed;
    }
  }

  // The per-query registry (owned by the ExecutePlan wrapper, shared across
  // restart attempts) is shared by every task; snapshotted into the result
  // after the root fragment drains.
  // Per-operator stats tree, merged across tasks keyed by plan node id.
  // Tracing implies stats: the Next() fast path for collect_stats=false
  // skips the blocked accounting and span plumbing entirely, so a traced
  // query must run with stats on for its spans to reconcile with anything.
  bool collect_stats = force_stats || trace != nullptr ||
                       session.Property("query_stats", "true") != "false";
  auto collector = std::make_shared<QueryStatsCollector>();
  ExecutionLimits limits;
  limits.metrics = query_metrics;
  limits.collect_stats = collect_stats;
  limits.deadline_steady_nanos = deadline_steady_nanos;
  {
    std::string max_build = session.Property("max_join_build_rows", "");
    if (!max_build.empty()) {
      limits.max_join_build_rows = std::strtoll(max_build.c_str(), nullptr, 10);
    }
    limits.task_threads = task_threads;
  }
  if (memory != nullptr) {
    // Task pools are added per task inside run_task; everything else about
    // the memory hierarchy is shared across the query's tasks.
    limits.query_user_pool = memory->user.get();
    limits.query_group_pool = memory->group;
    limits.arbiter = this;
    limits.query_id = query_id;
    limits.query_killed = memory->killed;
    limits.spill_enabled = memory->spill_enabled;
    limits.spill_fs = spill_fs_.get();
    limits.spill_dir = memory->spill_dir;
  }

  // Leaf-task retry knobs. Retries buffer leaf output until the attempt
  // succeeds (so a half-run attempt never leaks pages into its exchange),
  // which is why the retry path is opt-in per session.
  int max_task_retries = static_cast<int>(std::strtoll(
      session.Property("query_max_task_retries", "0").c_str(), nullptr, 10));
  if (max_task_retries < 0) max_task_retries = 0;
  int64_t retry_backoff_millis = std::strtoll(
      session.Property("task_retry_backoff_millis", "2").c_str(), nullptr, 10);
  if (retry_backoff_millis < 0) retry_backoff_millis = 0;
  // Speculation also needs held-back output: two attempts of one task run
  // concurrently, and only the fence winner may publish.
  const bool buffer_leaf_output = max_task_retries > 0 || speculative_execution;
  // Stage re-runs get the same attempt budget as leaf retries (at least one
  // when spooling is on — the spool exists precisely to re-run stages).
  const int stage_rerun_budget =
      exchange_spool ? std::max(1, max_task_retries) : 0;
  const bool buffer_stage_output = stage_rerun_budget > 0;

  struct FragmentState {
    const PlanFragment* fragment = nullptr;
    std::vector<RemoteInput> inputs;
    // Output-layout channels of the hash-partitioning keys; empty = gather.
    std::vector<int> route_channels;
    int num_tasks = 1;
    std::unique_ptr<PartitionedExchange> exchange;  // null for the root
  };
  std::map<int, FragmentState> states;
  std::map<int, PartitionedExchange*> exchange_refs;
  std::map<int, std::vector<std::vector<SplitPtr>>> leaf_batches;
  auto stage_tracker = std::make_shared<StageTracker>();

  for (const PlanFragment& fragment : fragmented.fragments) {
    FragmentState& state = states[fragment.id];
    state.fragment = &fragment;
    CollectRemoteInputs(fragment.root, &state.inputs);
    if (fragment.id == 0) continue;  // root: one coordinator-side task

    if (fragment.leaf) {
      TableScanNode* scan = FindScan(fragment.root);
      if (scan == nullptr) {
        return Status::Internal("leaf fragment without a table scan");
      }
      auto connector = catalogs_->GetConnector(scan->catalog());
      if (!connector.ok()) {
        return connector.status();
      }
      auto splits = (*connector)->CreateSplits(scan->table_schema_name(),
                                               scan->table_name(),
                                               *scan->accepted(), parallelism);
      if (!splits.ok()) {
        return splits.status();
      }
      result.num_splits += static_cast<int>(splits->size());
      // One leaf task per worker, never more tasks than splits: the task's
      // chains share its splits, which stay fine-grained so morsels balance
      // across chains.
      size_t num_tasks =
          std::min<size_t>(std::max<size_t>(1, splits->size()),
                           std::max<size_t>(1, workers.size()));
      // Round-robin splits across tasks.
      std::vector<std::vector<SplitPtr>> batches(num_tasks);
      for (size_t i = 0; i < splits->size(); ++i) {
        batches[i % num_tasks].push_back((*splits)[i]);
      }
      state.num_tasks = static_cast<int>(num_tasks);
      leaf_batches[fragment.id] = std::move(batches);
    } else {
      // Intermediate stage: one task per partition when any input is
      // hash-partitioned, else a single gather task.
      bool hash_input = false;
      for (const RemoteInput& input : state.inputs) {
        if (input.hash_partitioned) hash_input = true;
      }
      state.num_tasks = hash_input ? hash_partitions : 1;
    }

    auto route_channels = ResolveRouteChannels(fragment);
    if (!route_channels.ok()) {
      return route_channels.status();
    }
    state.route_channels = std::move(*route_channels);
    int exchange_partitions =
        fragment.output_partitioning.kind == PartitioningScheme::Kind::kHash
            ? hash_partitions
            : 1;
    state.exchange = std::make_unique<PartitionedExchange>(
        exchange_partitions, exchange_capacity, query_metrics);
    state.exchange->SetProducerCount(state.num_tasks);
    state.exchange->SetDeadlineNanos(deadline_steady_nanos);
    if (memory != nullptr) {
      // Exchange buffers live in the query's system subtree (uncapped at the
      // query level): a tiny query_max_memory squeezes operators into
      // spilling without starving shuffle buffers, while the worker cap
      // still sees every buffered byte.
      state.exchange->SetMemoryPool(memory->system->AddChild(
          "exchange." + std::to_string(fragment.id)));
    }
    if (exchange_spool) {
      // One spool per producing fragment, under the query's spill area; its
      // framed bytes are charged to the query's system pool like the exchange
      // buffers they shadow. Each restart attempt builds fresh spools (the
      // old ones are deleted with their exchange).
      std::string spool_dir =
          (memory != nullptr ? memory->spill_dir
                             : SpillRoot("/tmp/presto_spool") + "/query-" +
                                   std::to_string(query_id)) +
          "/spool-fragment-" + std::to_string(fragment.id);
      std::shared_ptr<MemoryPool> spool_pool;
      if (memory != nullptr) {
        spool_pool =
            memory->system->AddChild("spool." + std::to_string(fragment.id));
      }
      state.exchange->SetSpool(std::make_shared<ExchangeSpool>(
          spill_fs_.get(), std::move(spool_dir), exchange_partitions,
          query_metrics, std::move(spool_pool), spool_budget_bytes));
    }
    exchange_refs[fragment.id] = state.exchange.get();
    stage_tracker->remaining[fragment.id] = state.num_tasks;
  }

  // Stage spans, one per fragment under the query span, opened before any
  // task dispatches (so task spans always find their parent) and ended at
  // teardown once every task span has closed. Built up front: the map is
  // read-only — and so safely shared — once tasks are running.
  if (trace != nullptr) {
    for (const PlanFragment& fragment : fragmented.fragments) {
      trace->stage_spans[fragment.id] = trace->recorder->BeginSpan(
          TraceKind::kStage, "stage#" + std::to_string(fragment.id),
          trace->query_span);
    }
  }
  // Wraps one task attempt in a kTask span under its stage's span and
  // installs the trace context on the executing thread, so operator spans
  // opened inside the attempt nest under the task.
  auto traced_task = [trace](FragmentState* state, int partition, int attempt,
                             const std::function<Status()>& body) -> Status {
    TraceRecorder* rec = trace != nullptr ? trace->recorder.get() : nullptr;
    if (rec == nullptr) return body();
    int64_t parent = trace->query_span;
    auto it = trace->stage_spans.find(state->fragment->id);
    if (it != trace->stage_spans.end()) parent = it->second;
    std::string name = "fragment" + std::to_string(state->fragment->id) +
                       ".task" + std::to_string(partition);
    if (attempt > 0) name += ".attempt" + std::to_string(attempt);
    int64_t span = rec->BeginSpan(TraceKind::kTask, name, parent);
    Status st;
    {
      TraceContextScope scope(rec, span);
      st = body();
    }
    rec->EndSpanWithArgs(span, {{"ok", st.ok() ? 1 : 0},
                                {"partition", partition},
                                {"attempt", attempt}});
    return st;
  };

  // -- Task lists. --------------------------------------------------------------
  struct TaskSpec {
    FragmentState* state;
    std::vector<SplitPtr> splits;
    int partition;
  };
  // Intermediate stages run on dedicated worker threads: they are the
  // consumers that keep bounded exchanges draining, so they must never be
  // queued behind producer tasks in a bounded pool slot.
  std::vector<TaskSpec> stage_tasks;
  for (const PlanFragment& fragment : fragmented.fragments) {
    if (fragment.id == 0 || fragment.leaf) continue;
    FragmentState& state = states[fragment.id];
    for (int t = 0; t < state.num_tasks; ++t) {
      stage_tasks.push_back(TaskSpec{&state, {}, t});
    }
  }
  // Leaf tasks run in worker pool slots, dispatched in consumption order
  // (join build sides first — see LeafConsumptionOrder).
  std::vector<int> leaf_order;
  LeafConsumptionOrder(fragmented, fragmented.fragments[0].root, &leaf_order);
  for (const PlanFragment& fragment : fragmented.fragments) {
    if (!fragment.leaf) continue;
    bool seen = false;
    for (int id : leaf_order) seen = seen || id == fragment.id;
    if (!seen) leaf_order.push_back(fragment.id);
  }
  std::vector<TaskSpec> leaf_tasks;
  for (int fragment_id : leaf_order) {
    FragmentState& state = states[fragment_id];
    std::vector<std::vector<SplitPtr>>& batches = leaf_batches[fragment_id];
    for (size_t t = 0; t < batches.size(); ++t) {
      leaf_tasks.push_back(
          TaskSpec{&state, std::move(batches[t]), static_cast<int>(t)});
    }
  }
  result.num_tasks = static_cast<int>(leaf_tasks.size() + stage_tasks.size());

  auto latch = std::make_shared<TaskLatch>();
  latch->remaining = result.num_tasks;

  bool use_fragment_cache =
      session.Property("fragment_result_cache", "false") == "true";

  // Task body: build the fragment's operator tree and pump pages into its
  // exchange (hash-routed or gathered per the fragment's partitioning
  // scheme), consulting the fragment result cache first for leaf stages.
  //
  // Returns OK only after fully finalizing the producer slot (output pushed,
  // ProducerDone, inputs closed, stage accounting done). On failure it
  // returns the error WITHOUT touching the exchange: the caller either
  // retries the attempt (leaf tasks, when the error is transient), re-runs
  // the stage against upstream spools, or finalizes the slot as failed via
  // finalize_failed. With buffer_output the attempt's pages are held locally
  // and published only on success, so a half-run retryable attempt never
  // leaks rows downstream — and publication goes through the exchange's
  // attempt fence, so of two concurrent attempts (straggler speculation)
  // exactly one commits; the loser returns OK with *superseded_out = true
  // and must not be retried or finalized.
  auto run_task = [this, &exchange_refs, use_fragment_cache, limits,
                   collect_stats, collector, stage_tracker, query_id, memory](
                      FragmentState* state,
                      const std::vector<SplitPtr>& splits_in, int partition,
                      Worker* host, bool buffer_output, int attempt,
                      bool* superseded_out,
                      std::atomic<int64_t>* progress_rows) -> Status {
    Stopwatch task_watch;
    const PlanFragment* fragment = state->fragment;
    PartitionedExchange* out = state->exchange.get();
    auto push_output = [&](Page page) {
      // Gather (empty route_channels) also goes through PushPartitioned so
      // its pass-through pages tick the zero-copy counter.
      out->PushPartitioned(page, state->route_channels);
    };
    // Closing consumed partitions at exit (every completed path) releases
    // upstream producers blocked on bounded exchanges and cascades
    // early-exit cancellation down the plan.
    auto close_inputs = [&] {
      for (const RemoteInput& input : state->inputs) {
        auto it = exchange_refs.find(input.fragment_id);
        if (it == exchange_refs.end()) continue;
        it->second->ConsumerDone(
            input.hash_partitioned ? partition % it->second->num_partitions()
                                   : 0);
      }
    };
    auto finish_stage = [&] {
      if (stage_tracker->TaskDone(fragment->id)) {
        journal_.Record(query_id, QueryEventKind::kStageFinished,
                        "fragment " + std::to_string(fragment->id));
      }
    };
    // The host worker dying mid-task is the crash signal: the task aborts at
    // its next page boundary with kUnavailable, exactly like a remote task
    // whose worker process disappeared. The worker.kill fault point lets the
    // chaos tests script that death deterministically.
    auto check_host = [&]() -> Status {
      if (host == nullptr) return Status::OK();
      if (FaultInjector::Global().ShouldTrigger("worker.kill")) host->Kill();
      if (host->state() == WorkerState::kDead) {
        return Status::Unavailable("worker " + host->id() + " died mid-task");
      }
      return Status::OK();
    };
    std::string cache_key;
    bool cacheable = use_fragment_cache && fragment->leaf;
    if (cacheable) {
      cache_key = fragment->root->ToString();
      for (const SplitPtr& split : splits_in) {
        cache_key += "\n";
        cache_key += split->ToString();
      }
      if (auto hit = fragment_cache_.Get(cache_key)) {
        if (buffer_output && !out->TryCommitProducer(partition, attempt)) {
          if (superseded_out != nullptr) *superseded_out = true;
          return Status::OK();
        }
        for (const Page& page : **hit) {
          push_output(page);  // pages share immutable vectors
        }
        out->ProducerDone();
        close_inputs();
        if (collect_stats) {
          // No operators ran; record the task so stage task counts stay
          // truthful even when its pages came from the fragment cache.
          collector->AddTask(fragment->id, /*root_plan_node_id=*/-1, {},
                             task_watch.ElapsedNanos());
        }
        finish_stage();
        return Status::OK();
      }
    }
    RETURN_IF_ERROR(FaultInjector::Global().Hit("worker.task.body"));
    if (!fragment->leaf) {
      // Stage-scoped chaos hook: scripts "fail the Nth intermediate task"
      // deterministically — worker.task.body call order races the far more
      // numerous leaf bodies, so it cannot target a stage on purpose.
      RETURN_IF_ERROR(FaultInjector::Global().Hit("worker.task.stage"));
    }
    // The builder copies splits into the scan operator, so each retry
    // attempt rebuilds from the task's own (retained) split list.
    std::vector<SplitPtr> splits = splits_in;
    // Each task (and each retry attempt) gets its own pool under the query's
    // user subtree; operators hang their leaf pools off it, and destroying
    // the attempt's operator tree returns every byte.
    ExecutionLimits task_limits = limits;
    // Replicated chains borrow helper threads from the host worker's local
    // pool; a task running on a query-owned fallback thread has no pool and
    // its chains run serially on the task thread (correct, just unhelped).
    task_limits.morsel_pool = host != nullptr ? host->morsel_pool() : nullptr;
    if (memory != nullptr) {
      task_limits.task_pool = memory->user->AddChild(
          "task." + std::to_string(fragment->id) + "." +
          std::to_string(partition));
    }
    OperatorBuilder builder(catalogs_, &FunctionRegistry::Default(),
                            &exchange_refs, &splits, task_limits, partition);
    auto op = builder.Build(fragment->root);
    if (!op.ok()) return op.status();
    std::vector<Page> produced;   // for the fragment result cache
    std::vector<Page> buffered;   // held-back output when retries are armed
    bool truncated = false;
    while (true) {
      if (out->AllConsumersDone()) {
        // Downstream cancelled (e.g. a satisfied LIMIT): stop producing.
        truncated = true;
        break;
      }
      RETURN_IF_ERROR(check_host());
      // Deterministic straggler hook for the speculation tests: a triggered
      // first attempt stalls as a slow host would, while its duplicate
      // attempt (dispatched elsewhere) runs at full speed.
      if (attempt == 0 &&
          FaultInjector::Global().ShouldTrigger("worker.task.straggle")) {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
      }
      auto page = (*op)->Next();
      if (!page.ok()) return page.status();
      if (!page->has_value()) break;
      if (progress_rows != nullptr) {
        progress_rows->fetch_add(static_cast<int64_t>((*page)->num_rows()),
                                 std::memory_order_relaxed);
      }
      if (cacheable) produced.push_back(**page);
      if (buffer_output) {
        buffered.push_back(std::move(**page));
      } else {
        push_output(std::move(**page));
      }
    }
    // Success: publish and finalize the producer slot — through the attempt
    // fence when output was held back, so a speculative sibling that already
    // committed turns this attempt into a discarded no-op.
    if (buffer_output && !out->TryCommitProducer(partition, attempt)) {
      if (superseded_out != nullptr) *superseded_out = true;
      return Status::OK();
    }
    for (Page& page : buffered) push_output(std::move(page));
    if (cacheable && !truncated) {
      int64_t cache_weight = 0;
      for (const Page& page : produced) cache_weight += page.EstimateBytes();
      fragment_cache_.Put(cache_key,
                          std::make_shared<const std::vector<Page>>(
                              std::move(produced)),
                          cache_weight);
    }
    out->ProducerDone();
    close_inputs();
    if (collect_stats) {
      std::vector<OperatorStats> ops;
      (*op)->CollectStats(&ops);
      collector->AddTask(fragment->id, (*op)->stats().plan_node_id, ops,
                         task_watch.ElapsedNanos());
    }
    finish_stage();
    return Status::OK();
  };

  // Terminal failure of a task slot: latch the error into the fragment's
  // exchange (consumers see it instead of hanging), release the producer
  // slot, and keep the input/stage accounting consistent with success. The
  // terminal failure goes through the same attempt fence as success — if a
  // speculative sibling already committed the slot, there is nothing left to
  // finalize and the failure is moot.
  auto finalize_failed = [this, &exchange_refs, stage_tracker, query_id](
                             FragmentState* state, int partition,
                             const Status& st, int attempt, bool fenced) {
    PartitionedExchange* out = state->exchange.get();
    if (fenced && !out->TryCommitProducer(partition, attempt)) return;
    out->Fail(st);
    out->ProducerDone();
    for (const RemoteInput& input : state->inputs) {
      auto it = exchange_refs.find(input.fragment_id);
      if (it == exchange_refs.end()) continue;
      it->second->ConsumerDone(
          input.hash_partitioned ? partition % it->second->num_partitions()
                                 : 0);
    }
    if (stage_tracker->TaskDone(state->fragment->id)) {
      journal_.Record(query_id, QueryEventKind::kStageFinished,
                      "fragment " + std::to_string(state->fragment->id) +
                          " (failed: " + st.ToString() + ")");
    }
  };

  journal_.Record(query_id, QueryEventKind::kScheduled,
                  std::to_string(result.num_tasks) + " tasks, " +
                      std::to_string(result.num_splits) + " splits");

  // -- Dispatch: round-robin across active workers. -----------------------------
  // Tasks refused by every worker (embedded mode, or every worker draining)
  // run on query-owned threads: inline execution would deadlock, because a
  // producer can block on a bounded exchange before its consumer ever runs.
  // Retried leaf tasks resubmit concurrently from worker threads, so the
  // fallback-thread list is mutex-protected.
  std::vector<std::thread> local_threads;
  std::mutex local_mu;
  auto add_local = [&local_threads, &local_mu](std::function<void()> body) {
    std::lock_guard<std::mutex> lock(local_mu);
    local_threads.emplace_back(std::move(body));
  };
  auto next_worker = std::make_shared<std::atomic<size_t>>(0);

  // Liveness sweep, run before each retry dispatch: heartbeat every member;
  // a worker that stopped answering is blacklisted (journaled once per
  // coordinator) and — no longer ACTIVE — drops out of scheduling.
  auto blacklist_dead_workers = [this, query_id, query_metrics] {
    std::vector<std::shared_ptr<Worker>> members;
    {
      std::lock_guard<std::mutex> lock(mu_);
      members = workers_;
    }
    for (const auto& member : members) {
      if (member->Heartbeat()) continue;
      bool fresh = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        fresh = blacklisted_.insert(member->id()).second;
      }
      if (fresh) {
        metrics_.Increment("worker.blacklisted");
        query_metrics->Increment("worker.blacklisted");
        journal_.Record(query_id, QueryEventKind::kWorkerBlacklisted,
                        member->id());
      }
    }
  };

  // Intermediate stages run on dedicated worker threads (always-running
  // consumers that keep the bounded exchanges draining). Without a spool
  // they fail fast: their upstream partitions are already partially
  // consumed, so the recovery unit is the whole query (ExecutePlan's
  // restart). With exchange_spool armed, a stage task that fails with a
  // retryable status is instead re-run in place: its input partitions flip
  // to replay mode (the replacement attempt streams the complete partition
  // history from the upstream spools) and its held-back output means the
  // failed attempt leaked nothing downstream. Replay unavailable (spool
  // broken, budget blown) falls through to the fail-fast path — the ladder's
  // next rung is restart-once.
  struct StageTask {
    FragmentState* state = nullptr;
    int partition = 0;
    int attempt = 0;
  };
  auto run_stage_attempt = std::make_shared<
      std::function<void(std::shared_ptr<StageTask>, Worker*)>>();
  auto submit_stage =
      std::make_shared<std::function<void(std::shared_ptr<StageTask>)>>();
  *run_stage_attempt = [&](std::shared_ptr<StageTask> task, Worker* host) {
    static const std::vector<SplitPtr> kNoSplits;
    bool superseded = false;
    Status st = traced_task(task->state, task->partition, task->attempt, [&] {
      return run_task(task->state, kNoSplits, task->partition, host,
                      buffer_stage_output, task->attempt, &superseded,
                      /*progress_rows=*/nullptr);
    });
    if (st.ok()) {
      latch->Done();
      return;
    }
    bool deadline_expired = deadline_steady_nanos > 0 &&
                            SteadyNowNanos() >= deadline_steady_nanos;
    if (IsRetryableStatus(st) && task->attempt < stage_rerun_budget &&
        !deadline_expired) {
      // Flip every input partition this task consumes to replay mode. All
      // must succeed — a partially replayable input set would re-run the
      // task against a mix of replayed and already-consumed streams.
      Status reset = Status::OK();
      for (const RemoteInput& input : task->state->inputs) {
        auto it = exchange_refs.find(input.fragment_id);
        if (it == exchange_refs.end()) continue;
        reset = it->second->ResetPartitionForReplay(
            input.hash_partitioned
                ? task->partition % it->second->num_partitions()
                : 0);
        if (!reset.ok()) break;
      }
      if (reset.ok()) {
        ++task->attempt;
        metrics_.Increment("stage.rerun.count");
        query_metrics->Increment("stage.rerun.count");
        journal_.Record(
            query_id, QueryEventKind::kStageRerun,
            "fragment " + std::to_string(task->state->fragment->id) +
                " partition " + std::to_string(task->partition) +
                " attempt " + std::to_string(task->attempt) +
                " replaying upstream spools: " + st.ToString());
        blacklist_dead_workers();
        (*submit_stage)(task);
        return;
      }
    }
    finalize_failed(task->state, task->partition, st, task->attempt,
                    buffer_stage_output);
    latch->Done();
  };
  *submit_stage = [this, &add_local, run_stage_attempt, next_worker, &workers](
                      std::shared_ptr<StageTask> task) {
    // Re-runs prefer the healthy-worker snapshot (the failed host may have
    // just been blacklisted); first attempts use the dispatch-time list.
    std::vector<std::shared_ptr<Worker>> healthy =
        task->attempt == 0 ? workers : ActiveWorkers();
    for (size_t i = 0; i < healthy.size(); ++i) {
      auto& worker = healthy[next_worker->fetch_add(1) % healthy.size()];
      Worker* host = worker.get();
      bool submitted = worker->SubmitDedicatedTask(
          [run_stage_attempt, task, host] { (*run_stage_attempt)(task, host); });
      if (submitted) return;
    }
    add_local([run_stage_attempt, task] { (*run_stage_attempt)(task, nullptr); });
  };
  for (TaskSpec& task : stage_tasks) {
    auto stage_task = std::make_shared<StageTask>();
    stage_task->state = task.state;
    stage_task->partition = task.partition;
    (*submit_stage)(stage_task);
  }

  // Leaf tasks are the retry unit: an attempt that fails with a retryable
  // status (kUnavailable/kIoError — S3 throttle, dead worker, injected
  // fault) re-dispatches onto a fresh healthy-worker snapshot after a capped
  // exponential backoff with jitter. Output buffering above guarantees the
  // exchange saw nothing from the failed attempt. The two recursive bodies
  // live behind shared_ptr<std::function> so a resubmitted attempt can name
  // them from whichever worker thread it lands on; every frame reference
  // ([&]) stays valid because the latch holds this frame alive until the
  // final attempt of every task has finished.
  struct LeafTask {
    FragmentState* state = nullptr;
    std::vector<SplitPtr> splits;
    int partition = 0;
    int attempt = 0;
    // -- speculation bookkeeping (read by the monitor thread) --
    std::atomic<int64_t> start_nanos{0};      // first attempt began (0 = not yet)
    std::atomic<int64_t> duration_nanos{0};   // set when the task finished
    std::atomic<bool> finished{false};
    std::atomic<bool> speculated{false};      // duplicate attempt launched
    std::shared_ptr<std::atomic<int64_t>> progress_rows =
        std::make_shared<std::atomic<int64_t>>(0);
  };
  // Speculative duplicate attempts use ids far above the retry range so an
  // attempt id names its provenance in traces and fence decisions.
  constexpr int kSpeculativeAttemptBase = 100;
  auto backoff_rng = std::make_shared<Random>(static_cast<uint64_t>(query_id));
  auto backoff_mu = std::make_shared<std::mutex>();
  auto run_leaf_attempt = std::make_shared<
      std::function<void(std::shared_ptr<LeafTask>, Worker*)>>();
  auto submit_leaf =
      std::make_shared<std::function<void(std::shared_ptr<LeafTask>)>>();
  // run_leaf_attempt reaches submit_leaf through the frame ([&]), not an
  // owning copy: each owning the other's shared_ptr would be a reference
  // cycle that leaks both function objects.
  *run_leaf_attempt = [&, backoff_rng, backoff_mu](
                          std::shared_ptr<LeafTask> task, Worker* host) {
    int64_t expected_start = 0;
    task->start_nanos.compare_exchange_strong(expected_start, SteadyNowNanos());
    bool superseded = false;
    Status st = traced_task(task->state, task->partition, task->attempt, [&] {
      return run_task(task->state, task->splits, task->partition, host,
                      buffer_leaf_output, task->attempt, &superseded,
                      task->progress_rows.get());
    });
    // Mark completion for the speculation monitor on every terminal path
    // below (success, superseded, exhausted retries) — not on a retryable
    // failure that resubmits.
    auto mark_finished = [&task] {
      task->duration_nanos.store(SteadyNowNanos() -
                                 task->start_nanos.load());
      task->finished.store(true);
    };
    if (superseded) {
      // The speculative duplicate won the fence: this attempt's work is
      // discarded, the winner already finalized the slot.
      mark_finished();
      latch->Done();
      return;
    }
    if (st.ok()) {
      mark_finished();
      latch->Done();
      return;
    }
    bool deadline_expired = deadline_steady_nanos > 0 &&
                            SteadyNowNanos() >= deadline_steady_nanos;
    if (IsRetryableStatus(st) && task->attempt < max_task_retries &&
        !deadline_expired) {
      ++task->attempt;
      metrics_.Increment("task.retry.count");
      query_metrics->Increment("task.retry.count");
      journal_.Record(
          query_id, QueryEventKind::kTaskRetried,
          "fragment " + std::to_string(task->state->fragment->id) +
              " partition " + std::to_string(task->partition) + " attempt " +
              std::to_string(task->attempt) + ": " + st.ToString());
      blacklist_dead_workers();
      // Capped exponential backoff with jitter: uniform in [ceiling/2,
      // ceiling] where ceiling doubles per attempt up to 64x the base.
      int64_t ceiling_millis =
          retry_backoff_millis << std::min(task->attempt - 1, 6);
      int64_t delay_millis = 0;
      if (ceiling_millis > 0) {
        std::lock_guard<std::mutex> lock(*backoff_mu);
        delay_millis = backoff_rng->NextInRange((ceiling_millis + 1) / 2,
                                                ceiling_millis);
      }
      if (delay_millis > 0) {
        // Backoff span parented to the stage (no task context is live here —
        // the failed attempt's span already closed), so retry gaps show up
        // between the attempt spans in the trace timeline.
        int64_t backoff_span = 0;
        TraceRecorder* rec = trace != nullptr ? trace->recorder.get() : nullptr;
        if (rec != nullptr) {
          auto it = trace->stage_spans.find(task->state->fragment->id);
          backoff_span = rec->BeginSpan(
              TraceKind::kRetryBackoff, "task_retry_backoff",
              it != trace->stage_spans.end() ? it->second : trace->query_span);
        }
        // The backoff sleep honors query_timeout_millis: wake at the query
        // deadline if it lands inside the delay, so a long backoff ladder
        // can never hold a timed-out query alive past its deadline.
        auto wake = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(delay_millis);
        if (deadline_steady_nanos > 0) {
          auto deadline_tp = std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(deadline_steady_nanos));
          if (deadline_tp < wake) wake = deadline_tp;
        }
        std::this_thread::sleep_until(wake);
        if (rec != nullptr) {
          rec->EndSpanWithArgs(backoff_span,
                               {{"delay_millis", delay_millis},
                                {"attempt", task->attempt}});
        }
      }
      if (deadline_steady_nanos > 0 &&
          SteadyNowNanos() >= deadline_steady_nanos) {
        // Deadline hit during (or before) the backoff: finalize with the
        // canonical timeout status instead of burning another attempt.
        mark_finished();
        finalize_failed(
            task->state, task->partition,
            Status::DeadlineExceeded(
                "query deadline exceeded (query_timeout_millis)"),
            task->attempt, buffer_leaf_output);
        latch->Done();
        return;
      }
      (*submit_leaf)(task);
      return;
    }
    mark_finished();
    finalize_failed(task->state, task->partition, st, task->attempt,
                    buffer_leaf_output);
    latch->Done();
  };
  *submit_leaf = [this, &add_local, run_leaf_attempt, next_worker](
                     std::shared_ptr<LeafTask> task) {
    std::vector<std::shared_ptr<Worker>> healthy = ActiveWorkers();
    for (size_t i = 0; i < healthy.size(); ++i) {
      auto& worker = healthy[next_worker->fetch_add(1) % healthy.size()];
      Worker* host = worker.get();
      auto body = [run_leaf_attempt, task, host] {
        (*run_leaf_attempt)(task, host);
      };
      // First attempts ride pool slots in consumption order (see
      // LeafConsumptionOrder). A retry re-enters the queue out of order: in
      // a pool slot it could sit behind probe-side producers blocked on a
      // bounded exchange whose consumer is still waiting for this very
      // build-side task — a deadlock — so retries get a dedicated thread.
      bool submitted = task->attempt == 0 ? worker->SubmitTask(body)
                                          : worker->SubmitDedicatedTask(body);
      if (submitted) return;
    }
    // No healthy worker accepted the task: run it on a query-owned thread.
    add_local(
        [run_leaf_attempt, task] { (*run_leaf_attempt)(task, nullptr); });
  };
  std::vector<std::shared_ptr<LeafTask>> all_leaf_tasks;
  all_leaf_tasks.reserve(leaf_tasks.size());
  for (TaskSpec& task : leaf_tasks) {
    auto leaf = std::make_shared<LeafTask>();
    leaf->state = task.state;
    leaf->splits = std::move(task.splits);
    leaf->partition = task.partition;
    all_leaf_tasks.push_back(leaf);
    (*submit_leaf)(leaf);
  }

  // -- Straggler speculation monitor. -------------------------------------------
  // Watches leaf-task progress from a coordinator-side thread. Once at least
  // half the leaf tasks have completed, a task still running past
  // quantile(completed durations) * 2 (plus a floor that keeps trivial
  // queries from speculating on noise) gets one duplicate attempt on another
  // worker. Both attempts race to the exchange's attempt fence; the loser
  // discards its output. The monitor is stopped and joined before the drain
  // barrier waits on the latch, so its latch->Add() calls are ordered before
  // the final Wait().
  auto spec_stop = std::make_shared<std::atomic<bool>>(false);
  std::thread spec_monitor;
  if (speculative_execution && !all_leaf_tasks.empty()) {
    spec_monitor = std::thread([&, spec_stop] {
      constexpr int64_t kSpeculationFloorNanos = 25'000'000;  // 25ms
      const size_t n = all_leaf_tasks.size();
      while (!spec_stop->load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::vector<int64_t> durations;
        for (const auto& task : all_leaf_tasks) {
          if (task->finished.load()) {
            durations.push_back(task->duration_nanos.load());
          }
        }
        if (durations.empty() || durations.size() * 2 < n) continue;
        std::sort(durations.begin(), durations.end());
        const size_t idx = static_cast<size_t>(
            speculation_quantile * static_cast<double>(durations.size() - 1));
        const int64_t threshold = durations[idx] * 2 + kSpeculationFloorNanos;
        const int64_t now = SteadyNowNanos();
        for (const auto& task : all_leaf_tasks) {
          if (task->finished.load() || task->speculated.load()) continue;
          const int64_t start = task->start_nanos.load();
          if (start == 0 || now - start < threshold) continue;
          if (task->speculated.exchange(true)) continue;
          latch->Add(1);
          metrics_.Increment("task.speculative.launched");
          query_metrics->Increment("task.speculative.launched");
          journal_.Record(
              query_id, QueryEventKind::kTaskSpeculated,
              "fragment " + std::to_string(task->state->fragment->id) +
                  " partition " + std::to_string(task->partition) +
                  " running " + std::to_string((now - start) / 1'000'000) +
                  "ms against threshold " +
                  std::to_string(threshold / 1'000'000) + "ms");
          if (trace != nullptr) {
            auto it = trace->stage_spans.find(task->state->fragment->id);
            int64_t span = trace->recorder->BeginSpan(
                TraceKind::kSpeculation, "speculative_attempt",
                it != trace->stage_spans.end() ? it->second
                                               : trace->query_span);
            trace->recorder->EndSpanWithArgs(
                span, {{"partition", task->partition},
                       {"elapsed_millis", (now - start) / 1'000'000},
                       {"threshold_millis", threshold / 1'000'000},
                       {"progress_rows", task->progress_rows->load()}});
          }
          // The duplicate attempt never retries and never finalizes the slot
          // as failed — the original attempt owns the failure path; the
          // duplicate either wins the fence or is discarded.
          std::shared_ptr<LeafTask> original = task;
          auto spec_run = [&, original](Worker* host) {
            bool superseded = false;
            Status st = traced_task(
                original->state, original->partition, kSpeculativeAttemptBase,
                [&] {
                  return run_task(original->state, original->splits,
                                  original->partition, host,
                                  /*buffer_output=*/true,
                                  kSpeculativeAttemptBase, &superseded,
                                  /*progress_rows=*/nullptr);
                });
            const char* outcome = superseded ? "task.speculative.wasted"
                                 : st.ok()  ? "task.speculative.won"
                                            : "task.speculative.failed";
            metrics_.Increment(outcome);
            query_metrics->Increment(outcome);
            latch->Done();
          };
          bool dispatched = false;
          std::vector<std::shared_ptr<Worker>> healthy = ActiveWorkers();
          for (size_t i = 0; i < healthy.size() && !dispatched; ++i) {
            auto& worker =
                healthy[next_worker->fetch_add(1) % healthy.size()];
            Worker* host = worker.get();
            dispatched = worker->SubmitDedicatedTask(
                [spec_run, host] { spec_run(host); });
          }
          if (!dispatched) {
            add_local([spec_run] { spec_run(nullptr); });
          }
        }
      }
    });
  }

  // Teardown helpers: close every exchange partition (turning any further
  // production into drops and waking blocked producers), then wait for all
  // tasks — including in-flight retries — to fully exit before the
  // exchanges go out of scope.
  auto shutdown_exchanges = [&] {
    for (auto& [id, state] : states) {
      if (state.exchange != nullptr) state.exchange->CloseAllPartitions();
    }
  };
  auto finish_tasks = [&] {
    // Stop the speculation monitor before waiting on the latch: after the
    // join no further latch->Add() (or dispatch) can happen, so the barrier
    // below observes a stable attempt count.
    if (spec_monitor.joinable()) {
      spec_stop->store(true);
      spec_monitor.join();
    }
    latch->Wait();
    std::lock_guard<std::mutex> lock(local_mu);
    for (std::thread& thread : local_threads) thread.join();
    local_threads.clear();
  };

  // -- Run the root fragment on the coordinator. --------------------------------
  const PlanFragment& root = fragmented.fragments[0];
  Stopwatch root_watch;
  ExecutionLimits root_limits = limits;
  root_limits.morsel_pool = root_morsel_pool_.get();
  if (memory != nullptr) {
    root_limits.task_pool = memory->user->AddChild("task.root");
  }
  OperatorBuilder builder(catalogs_, &FunctionRegistry::Default(), &exchange_refs,
                          nullptr, root_limits);
  auto root_op = builder.Build(root.root);
  if (!root_op.ok()) {
    shutdown_exchanges();
    finish_tasks();
    return root_op.status();
  }
  // The root task span lives under stage#0 like any remote task's would;
  // operator spans of the root fragment nest under it via the context scope.
  TraceRecorder* root_rec = trace != nullptr ? trace->recorder.get() : nullptr;
  int64_t root_task_span = 0;
  if (root_rec != nullptr) {
    root_task_span = root_rec->BeginSpan(
        TraceKind::kTask, "fragment" + std::to_string(root.id) + ".task0",
        trace->stage_spans.count(root.id) > 0 ? trace->stage_spans[root.id]
                                              : trace->query_span);
  }
  Status drained = Status::OK();
  {
    TraceContextScope root_scope(root_rec, root_task_span);
    while (true) {
      auto page = (*root_op)->Next();
      if (!page.ok()) {
        drained = page.status();
        break;
      }
      if (!page->has_value()) break;
      result.total_rows += static_cast<int64_t>((*page)->num_rows());
      result.pages.push_back(std::move(**page));
    }
  }
  if (root_rec != nullptr) {
    root_rec->EndSpanWithArgs(root_task_span, {{"ok", drained.ok() ? 1 : 0}});
  }
  if (!drained.ok()) {
    shutdown_exchanges();
    finish_tasks();
    return drained;
  }
  // Cancel whatever upstream production the root no longer needs (LIMIT-style
  // early exit), then wait for every producer task to fully exit before the
  // exchanges go away.
  shutdown_exchanges();
  finish_tasks();
  // Every task span is closed once the latch clears, so ending the stage
  // spans here keeps them temporal supersets of their children (a stage span
  // ended from inside the last task would close before that task's own span).
  if (trace != nullptr) {
    for (const auto& [fragment_id, span_id] : trace->stage_spans) {
      trace->recorder->EndSpan(span_id);
    }
  }

  // The exchange.* counters accumulate per-page; the high-water mark is
  // per-exchange state, surfaced as the max across the query's exchanges.
  int64_t peak_exchange_bytes = 0;
  for (auto& [id, state] : states) {
    if (state.exchange != nullptr) {
      peak_exchange_bytes = std::max(peak_exchange_bytes,
                                     state.exchange->peak_buffered_bytes());
    }
  }
  query_metrics->FindOrRegister("exchange.peak_buffered_bytes")
      ->Add(peak_exchange_bytes);
  if (memory != nullptr) {
    // Query-level memory high-water mark (user + system subtrees). On the
    // rare restarted query this accumulates one value per attempt, matching
    // how every other counter in the shared registry behaves.
    query_metrics->FindOrRegister("memory.query.peak_bytes")
        ->Add(memory->query->peak_bytes());
  }

  if (collect_stats) {
    std::vector<OperatorStats> ops;
    (*root_op)->CollectStats(&ops);
    collector->AddTask(root.id, (*root_op)->stats().plan_node_id, ops,
                       root_watch.ElapsedNanos());
    for (auto& [id, state] : states) {
      if (state.exchange != nullptr) {
        collector->SetStageExchange(id, state.exchange->num_partitions(),
                                    state.exchange->bytes_pushed());
      }
    }
    result.stats = collector->Finish();
    // Blocked-time breakdown totals into the per-query registry, before the
    // exec_metrics snapshot below so the slow-query event (which reuses that
    // snapshot) carries them. Like total_wall_nanos, these sum operator
    // Next()-frame time: a parent frame includes the children it pulled.
    int64_t exchange_wait = 0;
    int64_t spill_io = 0;
    int64_t memory_wait = 0;
    int64_t spill_write = 0;
    int64_t spill_read = 0;
    for (const auto& [node_id, op] : result.stats.operators) {
      exchange_wait += op.exchange_wait_nanos;
      spill_io += op.spill_io_nanos;
      memory_wait += op.memory_wait_nanos;
      spill_write += op.spill_write_bytes;
      spill_read += op.spill_read_bytes;
    }
    if (exchange_wait > 0) {
      query_metrics->FindOrRegister("trace.blocked.exchange_wait.nanos")
          ->Add(exchange_wait);
    }
    if (spill_io > 0) {
      query_metrics->FindOrRegister("trace.blocked.spill_io.nanos")
          ->Add(spill_io);
    }
    if (memory_wait > 0) {
      query_metrics->FindOrRegister("trace.blocked.memory_wait.nanos")
          ->Add(memory_wait);
    }
    if (spill_write > 0) {
      query_metrics->FindOrRegister("trace.spill.write_bytes")->Add(spill_write);
    }
    if (spill_read > 0) {
      query_metrics->FindOrRegister("trace.spill.read_bytes")->Add(spill_read);
    }
  }
  result.exec_metrics = query_metrics->Snapshot();
  {
    int64_t spill_runs = 0;
    int64_t spill_bytes = 0;
    auto it = result.exec_metrics.find("spill.run.written");
    if (it != result.exec_metrics.end()) spill_runs = it->second;
    it = result.exec_metrics.find("spill.byte.written");
    if (it != result.exec_metrics.end()) spill_bytes = it->second;
    if (spill_runs > 0) {
      journal_.Record(query_id, QueryEventKind::kOperatorSpilled,
                      std::to_string(spill_runs) + " runs under memory pressure",
                      {{"spill.run.written", spill_runs},
                       {"spill.byte.written", spill_bytes}});
    }
  }
  // The root stage is finished once its fragment has drained — journaled
  // unconditionally so the lifecycle is complete even with query_stats=false.
  journal_.Record(query_id, QueryEventKind::kStageFinished,
                  "fragment " + std::to_string(root.id));

  // Output metadata.
  if (root.root->kind() == PlanNodeKind::kOutput) {
    const auto* output = static_cast<const OutputNode*>(root.root.get());
    result.column_names = output->column_names();
    for (const VariablePtr& v : output->OutputVariables()) {
      result.column_types.push_back(v->type());
    }
  }
  result.wall_millis = watch.ElapsedMillis();
  queries_completed_.fetch_add(1);
  metrics_.Increment("coordinator.query.completed");
  journal_.Record(query_id, QueryEventKind::kCompleted,
                  std::to_string(result.total_rows) + " rows",
                  {{"output_rows", result.total_rows},
                   {"tasks", result.num_tasks},
                   {"splits", result.num_splits},
                   {"wall_micros", watch.ElapsedNanos() / 1000}});

  // Slow-query log: queries whose wall time crosses the session threshold
  // journal a slow_query event carrying the full per-query counter snapshot.
  std::string slow_millis = session.Property("slow_query_millis", "");
  if (!slow_millis.empty()) {
    int64_t threshold = std::strtoll(slow_millis.c_str(), nullptr, 10);
    if (threshold >= 0 && result.wall_millis >= static_cast<double>(threshold)) {
      metrics_.Increment("coordinator.query.slow");
      journal_.Record(query_id, QueryEventKind::kSlowQuery,
                      "wall_millis above threshold " + slow_millis,
                      result.exec_metrics);
    }
  }
  return result;
}

}  // namespace presto
