#ifndef PRESTO_PLANNER_SESSION_H_
#define PRESTO_PLANNER_SESSION_H_

#include <map>
#include <string>

namespace presto {

/// Query session: user/group identity (used by the gateway for routing) and
/// session properties. "Presto has session properties to turn on broadcast
/// join for all queries in this session" (Section XII.A).
struct Session {
  std::string user = "anonymous";
  std::string group = "default";
  std::string default_catalog = "memory";
  std::string default_schema = "default";
  std::map<std::string, std::string> properties;

  /// Known properties:
  ///   join_distribution_type = "broadcast" | "partitioned" (default)
  ///   geo_index_rewrite      = "true" (default) | "false"
  ///   multi_stage_execution  = "true" (default) | "false"
  ///   exchange_buffer_bytes  = per-exchange byte budget (default 32 MiB)
  ///   hash_partition_count   = partitions per hash-partitioned stage
  ///   query_max_task_retries = leaf-task retry budget on retryable
  ///                            failures; > 0 also restarts the whole query
  ///                            once when a retryable error escapes the
  ///                            retries (default 0: recovery disabled)
  ///   task_retry_backoff_millis = base retry backoff, doubles per attempt
  ///                            with jitter, capped at 64x (default 2)
  ///   query_timeout_millis   = per-query deadline, enforced cooperatively
  ///                            at operator-batch and exchange waits
  ///                            (default: none)
  ///   query_max_memory       = per-query user-memory cap in bytes; the
  ///                            query's operators (hash tables, sort
  ///                            buffers, join builds) reserve against it;
  ///                            a reservation it refuses has the memory
  ///                            arbiter revoke (spill) the query's largest
  ///                            revocable state, else fails
  ///                            (default 1 GiB)
  ///   spill_enabled          = "true" (default) | "false": aggregation
  ///                            chains and order-by buffers register as
  ///                            revocable with the memory arbiter, which
  ///                            writes them to disk as sorted runs when a
  ///                            cap is hit (merged on output); off
  ///                            registers none, so exceeding
  ///                            query_max_memory is a kResourceExhausted
  ///                            failure
  ///   spill_path             = spill-area directory; each coordinator
  ///                            spills under <spill_path>/<pid>-<seq>
  ///                            (removed when it is destroyed), each query
  ///                            under query-<id> within that
  ///                            (default /tmp/presto_spill)
  ///   query_queue_max        = admission-control queue depth: queries
  ///                            arriving while reserved worker memory is
  ///                            above the high-water mark wait here;
  ///                            arrivals beyond this are load-shed with
  ///                            kRejected (default 64; with resource groups
  ///                            enabled the effective depth is the minimum
  ///                            of this and the group's max_queued)
  ///   resource_group         = resource group to run under ("interactive",
  ///                            "batch", "adhoc" in the default tree); falls
  ///                            back to a group named like the session's
  ///                            group, then the tree's default group
  ///   memory_accounting      = "true" (default) | "false": disables the
  ///                            memory-pool hierarchy entirely (used to
  ///                            measure reservation overhead in benches)
  ///   task_threads           = operator chains per task over one shared
  ///                            morsel source (1 = one chain); each chain
  ///                            owns thread-local radix-partitioned
  ///                            aggregation/join state merged partition-wise
  ///                            at finalize (default min(16, hardware
  ///                            threads))
  ///   query_trace            = "false" (default) | "true": record the
  ///                            query's span tree (query -> stage -> task ->
  ///                            chain -> operator, plus admission/exchange/
  ///                            spill/memory waits) and return it on the
  ///                            QueryResult as Chrome trace-event JSON
  ///                            (trace_json, loadable in chrome://tracing);
  ///                            implies stats collection
  ///   slow_query_millis      = wall-time threshold above which a slow_query
  ///                            journal event is recorded carrying the full
  ///                            per-query counter snapshot, including the
  ///                            trace.blocked.* breakdown (default: off)
  ///   speculative_execution  = "false" (default) | "true": watch leaf-task
  ///                            progress and launch one duplicate attempt
  ///                            for a task running past the quantile-based
  ///                            slowness threshold; first attempt to commit
  ///                            wins via attempt-id fencing at the exchange
  ///   speculation_quantile   = quantile of completed sibling durations the
  ///                            straggler threshold is derived from
  ///                            (threshold = quantile * 2 + floor; default
  ///                            0.75, valid (0, 1])
  std::string Property(const std::string& name,
                       const std::string& default_value) const {
    auto it = properties.find(name);
    return it == properties.end() ? default_value : it->second;
  }
};

}  // namespace presto

#endif  // PRESTO_PLANNER_SESSION_H_
