#include "presto/cluster/query_journal.h"

#include <algorithm>
#include <sstream>

namespace presto {

const char* QueryEventKindToString(QueryEventKind kind) {
  switch (kind) {
    case QueryEventKind::kCreated:
      return "created";
    case QueryEventKind::kPlanned:
      return "planned";
    case QueryEventKind::kScheduled:
      return "scheduled";
    case QueryEventKind::kStageFinished:
      return "stage_finished";
    case QueryEventKind::kCompleted:
      return "completed";
    case QueryEventKind::kFailed:
      return "failed";
    case QueryEventKind::kSlowQuery:
      return "slow_query";
    case QueryEventKind::kTaskRetried:
      return "task_retried";
    case QueryEventKind::kWorkerBlacklisted:
      return "worker_blacklisted";
    case QueryEventKind::kRestarted:
      return "query_restarted";
    case QueryEventKind::kQueued:
      return "query_queued";
    case QueryEventKind::kAdmitted:
      return "query_admitted";
    case QueryEventKind::kKilledMemory:
      return "query_killed_memory";
    case QueryEventKind::kOperatorSpilled:
      return "operator_spilled";
    case QueryEventKind::kShed:
      return "query_shed";
    case QueryEventKind::kTimeoutQueued:
      return "query_timeout_queued";
    case QueryEventKind::kDegraded:
      return "query_degraded";
    case QueryEventKind::kTaskSpeculated:
      return "task_speculated";
    case QueryEventKind::kWorkerDrained:
      return "worker_drained";
    case QueryEventKind::kWorkerReinstated:
      return "worker_reinstated";
  }
  return "unknown";
}

std::string QueryEvent::ToString() const {
  std::ostringstream out;
  out << "[" << timestamp_nanos << "] query " << query_id;
  if (!trace_id.empty()) out << " trace=" << trace_id;
  if (!resource_group.empty()) out << " group=" << resource_group;
  out << " " << QueryEventKindToString(kind);
  if (!detail.empty()) {
    out << ": " << detail;
  }
  if (!counters.empty()) {
    out << " {";
    bool first = true;
    for (const auto& [name, value] : counters) {
      if (!first) out << ", ";
      first = false;
      out << name << "=" << value;
    }
    out << "}";
  }
  return out.str();
}

void QueryJournal::Record(int64_t query_id, QueryEventKind kind,
                          std::string detail,
                          std::map<std::string, int64_t> counters) {
  std::lock_guard<std::mutex> lock(mu_);
  QueryEvent event;
  event.query_id = query_id;
  event.kind = kind;
  // Strictly increasing even when the (simulated) clock stands still, so
  // created < planned < scheduled < completed always holds by timestamp.
  event.timestamp_nanos = std::max(clock_->NowNanos(), last_timestamp_ + 1);
  last_timestamp_ = event.timestamp_nanos;
  event.sequence = next_sequence_++;
  auto trace_it = trace_ids_.find(query_id);
  if (trace_it != trace_ids_.end()) event.trace_id = trace_it->second;
  auto group_it = groups_.find(query_id);
  if (group_it != groups_.end()) event.resource_group = group_it->second;
  event.detail = std::move(detail);
  event.counters = std::move(counters);
  events_.push_back(std::move(event));
  while (events_.size() > capacity_) {
    events_.pop_front();
  }
}

void QueryJournal::SetTraceId(int64_t query_id, std::string trace_id) {
  std::lock_guard<std::mutex> lock(mu_);
  trace_ids_[query_id] = std::move(trace_id);
  // Bounded: query ids are assigned monotonically, so pruning the smallest
  // keys drops the oldest queries.
  while (trace_ids_.size() > 1024) trace_ids_.erase(trace_ids_.begin());
}

void QueryJournal::SetResourceGroup(int64_t query_id, std::string group) {
  std::lock_guard<std::mutex> lock(mu_);
  groups_[query_id] = std::move(group);
  while (groups_.size() > 1024) groups_.erase(groups_.begin());
}

std::string QueryJournal::TraceIdFor(int64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = trace_ids_.find(query_id);
  return it == trace_ids_.end() ? "" : it->second;
}

std::vector<QueryEvent> QueryJournal::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<QueryEvent>(events_.begin(), events_.end());
}

std::vector<QueryEvent> QueryJournal::EventsForQuery(int64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryEvent> out;
  for (const auto& event : events_) {
    if (event.query_id == query_id) out.push_back(event);
  }
  return out;
}

int64_t QueryJournal::events_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_sequence_;
}

}  // namespace presto
