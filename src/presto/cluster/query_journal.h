#ifndef PRESTO_CLUSTER_QUERY_JOURNAL_H_
#define PRESTO_CLUSTER_QUERY_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "presto/common/clock.h"

namespace presto {

/// Lifecycle events of a query, Presto event-listener style.
enum class QueryEventKind {
  kCreated,        // SQL received, query id assigned
  kPlanned,        // parse/analyze/optimize/fragment finished
  kScheduled,      // tasks dispatched to workers
  kStageFinished,  // every task of one fragment drained
  kCompleted,      // result returned to the client
  kFailed,         // query errored (carries partial counters)
  kSlowQuery,      // wall time crossed the slow_query_millis threshold
  kTaskRetried,        // a leaf task failed transiently and was re-dispatched
  kWorkerBlacklisted,  // liveness check found a dead worker; out of scheduling
  kRestarted,          // transient stage-level error; whole query re-run once
  kQueued,             // admission control held the query (worker memory high)
  kAdmitted,           // a previously queued query got its admission slot
  kKilledMemory,       // low-memory killer cancelled the largest query
  kOperatorSpilled,    // revocable operators wrote spill runs under pressure
  kShed,               // overload protection rejected the query (kRejected)
  kTimeoutQueued,      // query_timeout_millis expired while still queued
  kDegraded,           // memory pressure shrank the query's task_threads
  kTaskSpeculated,     // duplicate attempt launched for a straggling task
  kWorkerDrained,      // graceful shrink: worker finished its tasks and left
  kWorkerReinstated,   // blacklisted worker passed probation; back in rotation
};

const char* QueryEventKindToString(QueryEventKind kind);

/// One structured journal entry. `counters` carries a metrics snapshot on
/// terminal events (completed/failed/slow-query) so failure diagnostics and
/// the slow-query log see partial execution stats even when no QueryResult
/// was returned.
struct QueryEvent {
  int64_t query_id = 0;
  QueryEventKind kind = QueryEventKind::kCreated;
  int64_t timestamp_nanos = 0;  // from the coordinator's Clock
  int64_t sequence = 0;         // global, strictly increasing
  /// Stable correlation id of the query (hex), stamped on every event of the
  /// query once the coordinator registers it via SetTraceId — joins the
  /// journal with trace dumps and client-side logs.
  std::string trace_id;
  /// Resource group the query was admitted under ("" before resolution or
  /// when the registration was pruned), stamped like trace_id via
  /// SetResourceGroup.
  std::string resource_group;
  std::string detail;
  std::map<std::string, int64_t> counters;

  std::string ToString() const;
};

/// Ring-buffered history of query events on the coordinator. Timestamps come
/// from the injected Clock (simulated in tests/benches) but are forced
/// strictly increasing: under a SimulatedClock that nobody advances, two
/// consecutive events still order as created < planned < ... < completed.
class QueryJournal {
 public:
  explicit QueryJournal(const Clock* clock, size_t capacity = 1024)
      : clock_(clock), capacity_(capacity == 0 ? 1 : capacity) {}

  void Record(int64_t query_id, QueryEventKind kind, std::string detail = "",
              std::map<std::string, int64_t> counters = {});

  /// Registers the query's trace id; every subsequent (and this query's
  /// future) event carries it. The mapping is bounded — oldest registrations
  /// are pruned past 1024 live queries.
  void SetTraceId(int64_t query_id, std::string trace_id);

  /// The registered trace id for a query ("" if unknown/pruned).
  std::string TraceIdFor(int64_t query_id) const;

  /// Registers the query's resource group; every subsequent event of the
  /// query carries it. Bounded like the trace-id map.
  void SetResourceGroup(int64_t query_id, std::string group);

  /// Copy of the retained events, oldest first.
  std::vector<QueryEvent> Events() const;

  /// Retained events of one query, oldest first.
  std::vector<QueryEvent> EventsForQuery(int64_t query_id) const;

  /// Total events ever recorded (not capped by the ring capacity).
  int64_t events_recorded() const;

  size_t capacity() const { return capacity_; }

 private:
  const Clock* clock_;
  const size_t capacity_;

  mutable std::mutex mu_;
  std::deque<QueryEvent> events_;
  std::map<int64_t, std::string> trace_ids_;  // query id -> trace id
  std::map<int64_t, std::string> groups_;     // query id -> resource group
  int64_t next_sequence_ = 0;
  int64_t last_timestamp_ = -1;
};

}  // namespace presto

#endif  // PRESTO_CLUSTER_QUERY_JOURNAL_H_
