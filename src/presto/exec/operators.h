#ifndef PRESTO_EXEC_OPERATORS_H_
#define PRESTO_EXEC_OPERATORS_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "presto/common/memory_pool.h"
#include "presto/common/metrics.h"
#include "presto/common/trace.h"
#include "presto/connector/connector.h"
#include "presto/exec/exchange.h"
#include "presto/exec/query_stats.h"
#include "presto/expr/evaluator.h"
#include "presto/fs/file_system.h"
#include "presto/planner/plan.h"

namespace presto {

class WorkStealingPool;
class MorselSource;
struct ExecutionLimits;

/// Pull-based vectorized operator: Next() produces the next page or nullopt
/// when exhausted. Each operator instance is driven by one thread at a time;
/// parallelism comes from running tasks concurrently and, within a task,
/// from morsel-driven replicated operator chains that share a morsel source
/// and merge in their parent (aggregation, join build).
///
/// Next() is a non-virtual wrapper that records OperatorStats (output
/// rows/bytes/pages, wall and thread-CPU time) around the subclass's
/// NextInternal(). Recorded time is cumulative: it includes time spent
/// pulling from children, so the root operator's wall time approximates the
/// task's. Input-side stats are derived at CollectStats() time from the
/// children's outputs.
class Operator {
 public:
  virtual ~Operator() {
    // An operator abandoned mid-stream (limit reached, error unwound the
    // task) still closes its trace span with whatever it accumulated.
    FinishTraceSpan();
  }

  /// Pulls the next page (or nullopt when exhausted), recording stats.
  Result<std::optional<Page>> Next();

  const OperatorStats& stats() const { return stats_; }

  /// Ties this operator instance to its plan node for the query stats tree
  /// (set by OperatorBuilder right after construction).
  void SetIdentity(int plan_node_id, std::string operator_type) {
    stats_.plan_node_id = plan_node_id;
    stats_.operator_type = std::move(operator_type);
  }

  /// Registers `child` for input-stat derivation and recursive collection.
  /// Called by OperatorBuilder; `child` must outlive this operator (it is
  /// owned by a subclass member).
  void AddChild(const Operator* child) { children_.push_back(child); }

  /// Applies what Next() enforces from the query's limits:
  /// - collect_stats=false (session query_stats=false) turns off the timing
  ///   portion of stats recording; row/page counts are always kept — the
  ///   engine needs them anyway;
  /// - the cooperative deadline (SteadyNowNanos epoch, 0 = none; session
  ///   query_timeout_millis): checked at every batch boundary, a clean
  ///   kDeadlineExceeded once it passes, so a hung or fault-looping query
  ///   unwinds instead of running forever;
  /// - the kill flag (QueryMemory::killed): checked at the same cadence, a
  ///   classified kResourceExhausted once the memory arbiter sets it, so a
  ///   killed query's tasks unwind cooperatively and release their
  ///   reservations.
  void Arm(const ExecutionLimits& limits);

  /// Appends this operator's stats (input side derived from children, or
  /// mirrored from output for leaves) and recursively every child's.
  void CollectStats(std::vector<OperatorStats>* out) const;

 protected:
  virtual Result<std::optional<Page>> NextInternal() = 0;

  /// Raises the buffered-rows high-water mark (hash table groups, join
  /// build rows, sort buffer).
  void RecordPeakBuffered(int64_t rows) {
    if (rows > stats_.peak_buffered_rows) stats_.peak_buffered_rows = rows;
  }

  OperatorStats stats_;
  bool collect_stats_ = true;
  int64_t deadline_steady_nanos_ = 0;
  std::shared_ptr<const QueryMemory> kill_flag_;  // its `killed`

  /// This operator instance's trace span, lazily opened at the first Next()
  /// under a live TraceContext (the pull model guarantees the parent's span
  /// exists by then). Subclasses that fan work out to other threads
  /// (aggregation chains, join builds) use these to parent their sub-spans.
  TraceRecorder* trace_recorder_ = nullptr;
  int64_t trace_span_id_ = 0;

  /// Closes the operator span (idempotent), stamping the final stats as span
  /// args — the trace and OperatorStats reconcile exactly because both are
  /// the same integers.
  void FinishTraceSpan();

  /// Runs fn(0..n-1) through RunParallel on `pool`, each call under its own
  /// kChain span `name<i>` parented to this operator's span, with the trace
  /// context installed on whichever thread executes it, so a chain's
  /// replicated operators register their spans in the right subtree.
  Status RunChains(WorkStealingPool* pool, int n, const char* name,
                   const std::function<Status(int)>& fn);

 private:
  std::vector<const Operator*> children_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Maps variable names to channel indices for a node's input.
std::map<std::string, int> MakeLayout(const std::vector<VariablePtr>& variables);

/// Engine-side resource limits and execution options. The paper's Section
/// XII.C: big joins fail with "Insufficient Resource" when the build side
/// exceeds what a worker can hold in memory.
struct ExecutionLimits {
  int64_t max_join_build_rows = 10'000'000;
  /// Optional per-query counters (groups created, hash probes, kernel vs
  /// fallback page counts). Not owned; may be null.
  MetricsRegistry* metrics = nullptr;
  /// Record per-operator wall/CPU time and byte counts (session property
  /// query_stats). Row/page counts are recorded regardless.
  bool collect_stats = true;
  /// Absolute real-time deadline (SteadyNowNanos epoch, 0 = none) enforced
  /// cooperatively at operator batch boundaries; derived from the session
  /// property query_timeout_millis.
  int64_t deadline_steady_nanos = 0;

  // -- Morsel-driven intra-task parallelism ----------------------------------
  /// Number of operator chains per eligible task subtree (session property
  /// task_threads). 1 = one chain over the same morsel source.
  int task_threads = 1;
  /// Worker-local work-stealing pool supplying helper threads for the
  /// replicated chains. Not owned; null means the calling thread runs every
  /// chain itself (correct, just serial).
  WorkStealingPool* morsel_pool = nullptr;

  // -- Memory accounting (null = accounting off) ------------------------------
  /// Task-level memory pool; memory-hungry operators (aggregation, sort,
  /// join builds) add child pools and reserve their EstimateBytes footprint
  /// through a MemoryConsumer as it grows. Null disables accounting (session
  /// memory_accounting=false).
  std::shared_ptr<MemoryPool> task_pool;
  /// The query's memory handle: its pools, the kill flag every operator
  /// polls, its deadline and spill area, and the worker's arbiter that a
  /// refused reservation goes to. With a spill file system, aggregation
  /// chains and sort buffers register as revocable consumers; the arbiter
  /// spills them into sorted runs under spill_dir, merged on output.
  std::shared_ptr<QueryMemory> query_memory;
};

/// Builds operator trees from plan fragments. `exchanges` resolves
/// RemoteSourceNode fragment ids to their partitioned exchanges; `splits`
/// feeds the (single) TableScanNode of a leaf fragment. `task_partition` is
/// the index of this task within its stage: a RemoteSource over a
/// hash-partitioned upstream consumes exactly that partition of the
/// exchange (gather upstreams always consume partition 0).
class OperatorBuilder {
 public:
  OperatorBuilder(const CatalogRegistry* catalogs, FunctionRegistry* functions,
                  const std::map<int, PartitionedExchange*>* exchanges,
                  const std::vector<SplitPtr>* splits,
                  ExecutionLimits limits = ExecutionLimits(),
                  int task_partition = 0)
      : catalogs_(catalogs),
        functions_(functions),
        exchanges_(exchanges),
        splits_(splits),
        limits_(limits),
        task_partition_(task_partition) {}

  /// Builds the operator tree for `node`, stamping each operator with its
  /// plan node id and type name for the query stats tree.
  Result<OperatorPtr> Build(const PlanNodePtr& node);

 private:
  Result<OperatorPtr> BuildNode(const PlanNodePtr& node);
  Result<OperatorPtr> BuildAggregate(const AggregateNode& agg);
  Result<OperatorPtr> BuildJoin(const JoinNode& join);
  /// A SortNode, or a TopNNode (a sort with a row limit).
  Result<OperatorPtr> BuildSort(const PlanNode& node);

  /// The operator chains a merging parent (aggregation consume, join build)
  /// drains; never empty. `limits_.task_threads` copies of the subtree under
  /// `node` share one morsel source when the subtree is a chain of stateless
  /// row-preserving nodes over a table scan with splits or a remote source;
  /// any other subtree is the one plain Build(node).
  Result<std::vector<OperatorPtr>> BuildParallelChains(const PlanNodePtr& node);

  /// The morsel source a table scan (the task's splits) or a remote source
  /// (the task's partition of the upstream exchange) reads from.
  Result<std::shared_ptr<MorselSource>> MakeMorselSource(const PlanNode& leaf);

  const CatalogRegistry* catalogs_;
  FunctionRegistry* functions_;
  const std::map<int, PartitionedExchange*>* exchanges_;
  const std::vector<SplitPtr>* splits_;
  ExecutionLimits limits_;
  int task_partition_ = 0;
  /// Non-null while building replicated chains: the leaf of every chain
  /// reads this shared source instead of one of its own.
  std::shared_ptr<MorselSource> morsel_source_override_;
};

}  // namespace presto

#endif  // PRESTO_EXEC_OPERATORS_H_
