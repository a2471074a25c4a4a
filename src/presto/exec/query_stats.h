#ifndef PRESTO_EXEC_QUERY_STATS_H_
#define PRESTO_EXEC_QUERY_STATS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace presto {

struct FragmentedPlan;

/// Runtime statistics of one operator instance (or the merge of every
/// instance of the same plan node across tasks). This is the per-node payload
/// of the query stats tree the coordinator attaches to QueryResult, and what
/// EXPLAIN ANALYZE renders next to each plan node.
struct OperatorStats {
  int plan_node_id = -1;
  std::string operator_type;  // "TableScan", "HashAggregation", ...

  /// Rows/bytes/pages pulled from child operators. For leaves (scan, values,
  /// remote source) this counts what the source handed the operator.
  int64_t input_rows = 0;
  int64_t input_bytes = 0;
  int64_t input_pages = 0;

  /// Rows/bytes/pages this operator emitted from Next().
  int64_t output_rows = 0;
  int64_t output_bytes = 0;
  int64_t output_pages = 0;

  /// Time spent inside Next() (self + children, like Presto's operator wall
  /// time) and the on-core share of it (CLOCK_THREAD_CPUTIME_ID).
  int64_t wall_nanos = 0;
  int64_t cpu_nanos = 0;

  /// Blocked-time breakdown of wall_nanos, attributed through the thread's
  /// BlockedCounters cell (see trace.h). Cumulative like wall/cpu: a parent
  /// includes children pulled on the same thread and work carried back from
  /// morsel-chain pool threads. queued_nanos is always 0 at operator level
  /// (admission queueing happens before operators exist); it exists so the
  /// breakdown vector is uniform across span kinds.
  int64_t exchange_wait_nanos = 0;
  int64_t spill_io_nanos = 0;
  int64_t memory_wait_nanos = 0;
  int64_t queued_nanos = 0;
  int64_t scan_io_nanos = 0;

  /// Spill I/O volume through this operator's Next() frames: bytes written
  /// as runs and bytes read back during merge.
  int64_t spill_write_bytes = 0;
  int64_t spill_read_bytes = 0;

  /// High-water mark of rows this operator held buffered (hash table groups,
  /// join build rows, sort buffer).
  int64_t peak_buffered_rows = 0;

  /// Pages run entirely on columnar kernels vs pages where some aggregate
  /// folded row-at-a-time through the Accumulator adapter (aggregation and
  /// join only; a join's pages are all kernel pages).
  int64_t kernel_pages = 0;
  int64_t fallback_pages = 0;

  /// Revocable-memory spill activity (aggregation/sort only; zero
  /// elsewhere): bytes of in-memory state written out as sorted runs, and
  /// how many runs were written.
  int64_t spilled_bytes = 0;
  int64_t spilled_runs = 0;

  /// Lazy-scan work counters (TableScan only; zero elsewhere), harvested
  /// from the connector page sources feeding the scan.
  int64_t scan_row_groups_total = 0;
  int64_t scan_row_groups_skipped = 0;
  int64_t scan_pages_total = 0;
  int64_t scan_pages_read = 0;
  int64_t scan_pages_skipped_stats = 0;
  int64_t scan_pages_skipped_lazy = 0;
  int64_t scan_rows_pruned_late = 0;
  int64_t scan_dict_code_hits = 0;
  int64_t scan_bytes_read = 0;

  /// Number of operator instances merged into this record (tasks running the
  /// same plan node).
  int num_instances = 0;

  /// Accumulates `other` into this record: sums counts/time, maxes the peak.
  void Merge(const OperatorStats& other);

  /// One-line "rows=… bytes=… wall=…ms" rendering for EXPLAIN ANALYZE.
  std::string ToString() const;
};

/// Per-stage rollup: one entry per plan fragment that ran.
struct StageStats {
  int fragment_id = 0;
  int num_tasks = 0;
  int64_t output_rows = 0;   // rows the fragment root emitted
  int64_t output_bytes = 0;  // bytes the fragment root emitted
  int64_t wall_nanos = 0;    // summed task wall time
  int64_t cpu_nanos = 0;     // summed task CPU time
  /// Output-exchange shape: partition count of this fragment's exchange and
  /// bytes actually shuffled through it (0 for the root fragment, which
  /// returns pages directly to the client).
  int num_partitions = 0;
  int64_t exchanged_bytes = 0;
};

/// The task→stage→query aggregation result. `operators` is keyed by plan
/// node id and merges every task's instance of that node.
struct QueryStats {
  std::map<int, OperatorStats> operators;
  std::vector<StageStats> stages;  // sorted by fragment id
  int64_t total_tasks = 0;
  int64_t total_wall_nanos = 0;  // summed task wall time (not elapsed time)
  int64_t total_cpu_nanos = 0;

  /// Wall time the query spent in the coordinator's admission queue before
  /// any task ran (0 when admitted immediately).
  int64_t queued_nanos = 0;

  /// Total rows/bytes the root fragment's root operator produced — must
  /// reconcile with QueryResult::total_rows.
  int64_t output_rows = 0;
  int64_t output_bytes = 0;
};

/// Thread-safe sink the coordinator hands to every task of a query; each
/// task reports its operator stats once on completion and the collector
/// merges them into the query tree.
class QueryStatsCollector {
 public:
  /// Merges one finished task: per-operator records plus the task's wall
  /// time. `root_plan_node_id` identifies which operator's output counts as
  /// the fragment's output.
  void AddTask(int fragment_id, int root_plan_node_id,
               const std::vector<OperatorStats>& operators,
               int64_t task_wall_nanos);

  /// Records the fragment's output-exchange shape (partition count, bytes
  /// pushed through it); called once per fragment at query teardown.
  void SetStageExchange(int fragment_id, int num_partitions,
                        int64_t exchanged_bytes);

  /// Snapshot of the merged tree (stages sorted by fragment id). The root
  /// fragment is id 0; its stage output becomes the query output.
  QueryStats Finish() const;

 private:
  mutable std::mutex mu_;
  QueryStats stats_;
  std::map<int, StageStats> stages_;  // fragment id -> rollup
};

/// Renders the fragmented plan with each node annotated by its actual
/// runtime stats — the EXPLAIN ANALYZE output. Nodes that never executed
/// (e.g. pruned by the fragment result cache) render without an annotation.
std::string RenderPlanWithStats(const FragmentedPlan& plan,
                                const QueryStats& stats);

}  // namespace presto

#endif  // PRESTO_EXEC_QUERY_STATS_H_
