#ifndef PRESTO_CLUSTER_COORDINATOR_H_
#define PRESTO_CLUSTER_COORDINATOR_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "presto/cache/lru_cache.h"
#include "presto/common/memory_pool.h"
#include "presto/common/trace.h"
#include "presto/connector/connector.h"
#include "presto/cluster/query_journal.h"
#include "presto/cluster/resource_groups.h"
#include "presto/cluster/worker.h"
#include "presto/exec/query_stats.h"
#include "presto/fs/file_system.h"
#include "presto/fs/local_file_system.h"
#include "presto/planner/fragmenter.h"
#include "presto/planner/session.h"
#include "presto/vector/page.h"

namespace presto {

namespace sql {
struct Query;
}  // namespace sql

/// Process-wide real-time clock used when CoordinatorOptions does not inject
/// one (tests inject a SimulatedClock to get deterministic journal order).
const Clock* DefaultSystemClock();

/// Result of one query: pages plus metadata and basic stats.
struct QueryResult {
  /// Coordinator-assigned id; joins the result to its journal events.
  int64_t query_id = 0;
  std::vector<std::string> column_names;
  std::vector<TypePtr> column_types;
  std::vector<Page> pages;
  int64_t total_rows = 0;
  double wall_millis = 0;
  int num_fragments = 0;
  int num_tasks = 0;
  int num_splits = 0;
  /// Per-query execution counters aggregated across all tasks (groups
  /// created, hash-table probes, kernel vs fallback page counts, ...).
  std::map<std::string, int64_t> exec_metrics;
  /// Per-operator/per-stage stats tree merged across tasks. Populated unless
  /// the session property query_stats=false disables collection.
  QueryStats stats;
  /// Correlation id joining this result to its journal events and trace.
  std::string trace_id;
  /// Chrome trace-event JSON of the query's span tree (query -> stage ->
  /// task -> chain -> operator plus waits). Populated only when the session
  /// property query_trace=true; loadable in chrome://tracing / Perfetto.
  std::string trace_json;
  /// The raw recorded spans behind trace_json (same condition).
  std::vector<TraceSpan> trace_spans;

  /// Boxes one result row (r indexes across all pages).
  std::vector<Value> Row(size_t r) const;
  std::string ToString(size_t max_rows = 32) const;
};

struct CoordinatorOptions {
  /// Target split batches (tasks) per leaf fragment; capped by split count.
  size_t tasks_per_fragment = 4;
  /// Time source for query-event timestamps; nullptr = real wall clock.
  const Clock* clock = nullptr;
  /// Ring capacity of the query event journal.
  size_t journal_capacity = 1024;
  /// Capacity of the worker-level memory pool every query's reservations
  /// count against (this embedded cluster models one worker process).
  int64_t worker_memory_bytes = 8LL << 30;
  /// Admission control high-water mark as a fraction of worker_memory_bytes:
  /// new queries queue while reserved worker memory is at or above it.
  double admission_high_water = 0.85;
  /// Resource groups (multi-tenant admission). Disabled by default: one
  /// unbounded FIFO group gated only by the high-water mark — the
  /// pre-resource-groups behavior. Enable (e.g. DefaultResourceGroupTree())
  /// for per-group concurrency quotas, weighted-fair admission, queue-depth
  /// load shedding, and per-group memory caps.
  ResourceGroupsOptions resource_groups;
  /// Soft-degradation watermark as a fraction of worker_memory_bytes: above
  /// it, queries of degradable groups run with task_threads = 1 so batch
  /// narrows before the low-memory killer fires.
  double degrade_high_water = 0.7;
};

/// Single-coordinator query engine (Section III): parses incoming SQL into
/// an AST, analyzes it into a logical plan, runs the optimizer rounds,
/// fragments the physical plan, and schedules tasks on worker execution
/// slots. There is one coordinator per cluster; it is stateful.
///
/// Memory management: the coordinator owns the worker-level MemoryPool root
/// and its MemoryArbiter. Each query gets a child pool split into a "user"
/// subtree (capped by the session property query_max_memory; operators
/// reserve there) and a "system" subtree (exchange buffers). New queries
/// queue at the admission high-water mark; a reservation that fails goes to
/// the arbiter, which revokes (spills) the largest revocable state under the
/// refused pool and, only at the worker cap, kills the query with the
/// largest reservation.
class Coordinator {
 public:
  Coordinator(CatalogRegistry* catalogs,
              CoordinatorOptions options = CoordinatorOptions())
      : catalogs_(catalogs),
        options_(options),
        journal_(options.clock != nullptr ? options.clock : DefaultSystemClock(),
                 options.journal_capacity) {
    worker_pool_ = MemoryPool::CreateRoot("worker", options_.worker_memory_bytes,
                                          &metrics_);
    arbiter_ = std::make_unique<MemoryArbiter>(
        worker_pool_, std::bind_front(&Coordinator::OnQueryKilled, this));
    // Admission gate shared by every group: reserved worker memory must sit
    // below the high-water mark for any query to be admitted.
    const int64_t high_water = static_cast<int64_t>(
        static_cast<double>(options_.worker_memory_bytes) *
        options_.admission_high_water);
    groups_ = std::make_unique<ResourceGroupManager>(
        options_.resource_groups, &metrics_,
        [this, high_water] {
          return worker_pool_->reserved_bytes() < high_water;
        });
    if (groups_->enabled()) {
      // Per-group pool layer: worker -> group.<name> -> query.<id>. A
      // memory_fraction below 1 becomes a reservation-time cap, so one
      // tenant's queries spill (or fail) inside their own budget instead of
      // invoking the cross-tenant killer.
      for (const ResourceGroupConfig& group : groups_->options().groups) {
        int64_t cap = MemoryPool::kUnlimited;
        if (group.memory_fraction < 1.0) {
          cap = static_cast<int64_t>(
              static_cast<double>(options_.worker_memory_bytes) *
              group.memory_fraction);
        }
        group_pools_[group.name] =
            worker_pool_->AddChild("group." + group.name, cap);
      }
    }
    spill_fs_ = std::make_unique<LocalFileSystem>();
    fragment_cache_.SetMemoryPool(
        ProcessCachePool()->AddChild("cache.fragment_result"));
    // Helper pool for morsel-parallel root fragments, which run on the
    // coordinator thread and so cannot borrow a worker's pool.
    root_morsel_pool_ = std::make_unique<WorkStealingPool>(2);
  }

  /// Removes the spill directories this coordinator created.
  ~Coordinator();

  // -- worker membership: elastic expansion / graceful shrink ----------------
  void AddWorker(std::shared_ptr<Worker> worker);
  /// Sends the shutdown command; the worker drains per the grace-period
  /// protocol and is dropped from scheduling immediately. kNotFound for an
  /// unknown worker id, kAlreadyExists when the worker is already draining or
  /// shut down, kUnavailable when it died.
  Status ShrinkWorker(const std::string& worker_id, int64_t grace_period_nanos);
  /// Synchronous graceful shrink: the worker stops accepting tasks, the call
  /// blocks until its in-flight tasks complete, and the worker leaves the
  /// fleet in SHUT_DOWN (journaled as worker_drained, counted in
  /// worker.drained). Unlike ShrinkWorker there is no grace-period protocol —
  /// the worker drops out of scheduling at the state flip, before the wait.
  Status DrainWorker(const std::string& worker_id);
  /// Probation sweep over blacklisted workers: heartbeat-probe each one and,
  /// after kProbationProbes consecutive successful probes, re-admit it to
  /// scheduling (journaled as worker_reinstated, counted in
  /// worker.reinstated). A failed probe resets the worker's streak. Returns
  /// the number of workers reinstated by this sweep. Callers (an operations
  /// loop, tests) invoke it periodically; it is cheap when the blacklist is
  /// empty.
  int ProbeBlacklistedWorkers();
  static constexpr int kProbationProbes = 3;
  /// Workers eligible for scheduling: ACTIVE state and not blacklisted. A
  /// revived (restarted) worker stays out of rotation until the probation
  /// sweep reinstates it.
  std::vector<std::shared_ptr<Worker>> ActiveWorkers() const;
  size_t num_workers() const;
  /// Worker ids the liveness check found dead and removed from scheduling.
  std::vector<std::string> BlacklistedWorkers() const;

  // -- queries -------------------------------------------------------------------
  /// Executes one statement. Plain queries return their result pages;
  /// EXPLAIN returns the fragmented plan as a one-row varchar result;
  /// EXPLAIN ANALYZE executes the query and returns the plan re-rendered
  /// with actual per-operator stats (rows, bytes, wall/CPU time).
  Result<QueryResult> ExecuteSql(const std::string& sql, const Session& session);
  /// EXPLAIN: the fragmented physical plan as text.
  Result<std::string> ExplainSql(const std::string& sql, const Session& session);

  CatalogRegistry* catalogs() { return catalogs_; }
  int64_t queries_completed() const { return queries_completed_; }
  int64_t queries_failed() const { return queries_failed_; }

  /// Structured lifecycle journal: created/planned/scheduled/stage-finished/
  /// completed/failed events with simulated-clock timestamps, ring-buffered.
  const QueryJournal& journal() const { return journal_; }

  /// Coordinator-level counters (coordinator.query.completed/.failed/.slow).
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Fragment result cache (Section VII mentions it among the RaptorX cache
  /// family): leaf-fragment outputs keyed by (fragment plan, splits). Opt-in
  /// via session property fragment_result_cache=true — results are reused
  /// only when the underlying data is immutable between runs, which the
  /// session owner asserts by enabling it.
  MetricsRegistry& fragment_cache_metrics() { return fragment_cache_.metrics(); }
  void InvalidateFragmentCache() { fragment_cache_.Clear(); }

  /// Worker-level memory pool root; query pools hang off it. Exposed so
  /// tests and benches can observe or pre-reserve worker memory.
  MemoryPool* worker_pool() { return worker_pool_.get(); }

  /// Weighted-fair admission across resource groups (tests and benches
  /// inspect per-group running/queued counts for reconciliation).
  ResourceGroupManager& resource_groups() { return *groups_; }

  /// The group's memory pool layer (worker -> group -> query), or null when
  /// resource groups are disabled / the group is unknown.
  MemoryPool* group_pool(const std::string& group) {
    auto it = group_pools_.find(group);
    return it == group_pools_.end() ? nullptr : it->second.get();
  }

  /// Creates `root` and writes its marker file, ".presto_spill_root":
  /// "<pid> <boot id>/<pid namespace>". Only marked roots are ever swept.
  static void MarkSpillRoot(const std::string& root, pid_t pid);
  /// Removes the roots in `area` left by coordinators that died without
  /// running their destructor: directories named "<pid>-<seq>" whose marker
  /// names that pid, this boot and this pid namespace, and whose pid is gone
  /// (kill(pid, 0) fails with ESRCH). A live pid's root, a root marked by
  /// another host or namespace, and any unmarked directory are kept.
  static void SweepDeadSpillRoots(const std::string& area);

 private:
  /// One run of a query's tasks (coordinator.cc); reads the members below.
  friend class QueryRun;

  /// The arbiter's kill path picked `victim`: journals query_killed_memory
  /// and bumps query.killed.memory (and group.<name>.killed).
  void OnQueryKilled(const QueryMemory& victim, const QueryMemory& requester,
                     int64_t bytes_requested);

  /// Admission control through the resource-group manager: immediate when
  /// the group has quota and the memory gate is open, else the query parks
  /// in its group's queue (journaling query_queued / query_admitted) until
  /// weighted-fair promotion grants a slot. Sheds with kRejected when the
  /// group queue is full or the group's queued-time deadline passes
  /// (journaling query_shed), and gives up at the query deadline
  /// (query_timeout_queued). `queued_nanos_out` (optional) receives the wall
  /// time spent waiting.
  Status AdmitQuery(int64_t query_id, const std::string& group,
                    int64_t query_queue_max, int64_t deadline_steady_nanos,
                    int64_t* queued_nanos_out = nullptr);
  Result<FragmentedPlan> PlanSql(const std::string& sql, const Session& session);
  Result<FragmentedPlan> PlanQuery(const sql::Query& query,
                                   const Session& session);
  /// Runs a fragmented plan as a QueryRun: arms the query deadline (session
  /// query_timeout_millis), admits the query, and — when recovery is enabled
  /// (query_max_task_retries > 0) and a transient (kUnavailable/kIoError)
  /// error escapes task retry — releases the group slot, re-admits, and
  /// runs the query a second time. Records the terminal failed/timeout
  /// events.
  Result<QueryResult> ExecutePlan(int64_t query_id, const FragmentedPlan& plan,
                                  const Session& session, Stopwatch watch,
                                  bool force_stats);
  /// Bumps failure counters (query.timeout too, for kDeadlineExceeded) and
  /// journals a kFailed event carrying a snapshot of whatever per-query
  /// counters accumulated before the error, then passes the status through.
  Status RecordFailure(int64_t query_id, const Status& status,
                       const MetricsRegistry* query_metrics);

  /// "<pid>-<seq>": unique among the coordinators alive on this host.
  static std::string NewSpillScope();
  /// This coordinator's directory in a spill area,
  /// "<area>/<pid>-<seq>", remembered so the destructor removes it. Query
  /// ids restart at 1 in every coordinator, so without it two coordinators
  /// (in one process or in two) would read and delete each other's files.
  /// The first call for an area creates and marks the root (MarkSpillRoot),
  /// then sweeps the area (SweepDeadSpillRoots) outside spill_roots_mu_.
  std::string SpillRoot(const std::string& area);

  CatalogRegistry* catalogs_;
  CoordinatorOptions options_;
  /// Byte-weighted: entries are charged their pages' estimated bytes.
  LruCache<std::vector<Page>> fragment_cache_{256 << 20,
                                              "cache.fragment_result"};

  QueryJournal journal_;
  std::unique_ptr<WorkStealingPool> root_morsel_pool_;
  MetricsRegistry metrics_;
  std::atomic<int64_t> next_query_id_{1};

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Worker>> workers_;
  std::set<std::string> blacklisted_;  // dead workers, by liveness check
  /// Consecutive successful probation probes per blacklisted worker id.
  std::map<std::string, int> probation_streak_;
  std::atomic<int64_t> queries_completed_{0};
  std::atomic<int64_t> queries_failed_{0};

  // -- memory management ------------------------------------------------------
  /// Root of the worker memory hierarchy (capacity worker_memory_bytes).
  std::shared_ptr<MemoryPool> worker_pool_;
  /// File system behind the spill area (fault-injection covered in tests).
  std::unique_ptr<FileSystem> spill_fs_;
  /// This coordinator's directory name under every spill area.
  const std::string spill_scope_ = NewSpillScope();
  std::mutex spill_roots_mu_;
  std::set<std::string> spill_roots_;  // guarded by spill_roots_mu_
  /// Per-group memory pool layer between the worker root and query pools
  /// (only when resource groups are enabled; capped groups enforce
  /// memory_fraction at reservation time).
  std::map<std::string, std::shared_ptr<MemoryPool>> group_pools_;
  /// Weighted-fair admission (always present; a single unbounded FIFO group
  /// when resource groups are disabled).
  std::unique_ptr<ResourceGroupManager> groups_;
  /// Every failed reservation of every query on this worker goes here.
  std::unique_ptr<MemoryArbiter> arbiter_;
};

}  // namespace presto

#endif  // PRESTO_CLUSTER_COORDINATOR_H_
