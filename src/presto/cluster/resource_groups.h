#ifndef PRESTO_CLUSTER_RESOURCE_GROUPS_H_
#define PRESTO_CLUSTER_RESOURCE_GROUPS_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "presto/common/metrics.h"
#include "presto/common/status.h"
#include "presto/planner/session.h"

namespace presto {

/// One admission group in the Presto-style resource-group tree ("Serving
/// Hybrid-Cloud SQL Interactive Queries at Twitter" is the blueprint:
/// interactive tenants must never starve behind batch). Every query resolves
/// to exactly one group; the group bounds how many of its queries run at
/// once, how many may wait, how much worker memory its queries may reserve
/// together, and how the coordinator degrades it under pressure.
struct ResourceGroupConfig {
  std::string name;
  /// Deficit-weighted round-robin share: when several groups have queued
  /// queries, admissions are interleaved proportionally to weight.
  int weight = 1;
  /// Max queries of this group running concurrently (its quota).
  int hard_concurrency = 4;
  /// Max queries waiting in this group's queue; arrivals beyond it are shed
  /// with kRejected (overload protection — the gateway does not blind-retry).
  int max_queued = 64;
  /// Group memory cap as a fraction of worker memory; the group's pool layer
  /// (worker -> group -> query) enforces it at reservation time. 1.0 = no
  /// cap at the group level.
  double memory_fraction = 1.0;
  /// Queued-time deadline: a query that waited this long is shed with
  /// kRejected instead of going stale in the queue. 0 = wait forever (the
  /// per-query query_timeout_millis still applies).
  int64_t queued_timeout_millis = 0;
  /// Soft degradation: under worker memory pressure the coordinator shrinks
  /// this group's task_threads to 1 before the low-memory killer fires.
  bool degradable = false;
};

struct ResourceGroupsOptions {
  /// Off = one unbounded FIFO group gated only by the admission high-water
  /// mark (the pre-resource-groups behavior, and the bench's FIFO baseline).
  bool enabled = false;
  /// Global running-query cap across all groups.
  int total_concurrency = 16;
  std::vector<ResourceGroupConfig> groups;
  /// Group used when neither the resource_group session property nor the
  /// session's group name matches a configured group.
  std::string default_group;
};

/// The stock three-tenant tree: `interactive` (high weight, wide quota,
/// never degraded), `batch` (narrow quota, shallow queue, degradable),
/// `adhoc` (default catch-all).
ResourceGroupsOptions DefaultResourceGroupTree();

/// Weighted-fair admission across resource groups. Replaces the single FIFO
/// admission queue: each group has its own FIFO, and a deficit-weighted
/// round-robin picks which group's head runs whenever slots free up, so a
/// saturated batch queue cannot starve interactive arrivals.
///
/// Thread-safe. Callers hold an admission slot from a successful
/// TryAdmit/Wait until Release. The memory gate (the coordinator's
/// high-water check) applies to every admission, grouped or not.
class ResourceGroupManager {
 public:
  /// `memory_gate` returns true while new queries may be admitted (reserved
  /// worker memory below the high-water mark); checked under the manager
  /// lock, so it must be cheap and lock-free. `metrics` (not owned) receives
  /// the per-group counters and queue-wait histograms.
  ResourceGroupManager(ResourceGroupsOptions options, MetricsRegistry* metrics,
                       std::function<bool()> memory_gate);

  /// The group this session's queries belong to: the resource_group session
  /// property if it names a configured group, else the session's group name,
  /// else the configured default.
  const ResourceGroupConfig& Resolve(const Session& session) const;

  const ResourceGroupConfig* Find(const std::string& name) const;

  /// Attempts admission. Outcomes:
  ///  - OK with *queued=false: admitted; the caller holds a slot.
  ///  - OK with *queued=true: the query is parked in the group queue (its
  ///    DRR position is fixed here, not at Wait()); the caller MUST call
  ///    Wait() next — the parked entry lives until Wait() returns.
  ///  - kRejected: shed — the group queue is full (or deeper than the
  ///    session's query_queue_max override, whichever is smaller).
  Status TryAdmit(const std::string& group, int64_t query_id,
                  int64_t session_queue_max, bool* queued);

  /// Blocks until the queued query is admitted (OK), shed by the group's
  /// queued-time deadline (kRejected), or past its own query deadline
  /// (kDeadlineExceeded). Must follow a TryAdmit that queued.
  Status Wait(const std::string& group, int64_t query_id,
              int64_t deadline_steady_nanos);

  /// Returns the admission slot taken by TryAdmit/Wait.
  void Release(const std::string& group);

  /// Wakes waiters promptly (e.g. when a query finishes or memory drains);
  /// waiters also self-poll every 10ms for pool-level releases that have no
  /// coordinator hook.
  void NotifyCapacity();

  // -- introspection (reconciliation tests, bench accounting) ---------------
  int64_t running(const std::string& group) const;
  int64_t queued(const std::string& group) const;
  int64_t total_running() const;
  std::vector<std::string> GroupNames() const;

  bool enabled() const { return options_.enabled; }
  const ResourceGroupsOptions& options() const { return options_; }

 private:
  struct Waiter {
    int64_t query_id = 0;
    bool admitted = false;
    int64_t enqueued_steady_nanos = 0;
  };

  struct Group {
    ResourceGroupConfig config;
    /// FIFO of parked queries, in TryAdmit order. Entries are owned by
    /// `waiters` (below) so a waiter outlives promotion until its Wait()
    /// call collects the slot.
    std::deque<Waiter*> queue;
    std::map<int64_t, std::unique_ptr<Waiter>> waiters;  // by query id
    int64_t running = 0;
    int64_t deficit = 0;
    MetricsRegistry::Counter* queued_counter = nullptr;
    MetricsRegistry::Counter* admitted_counter = nullptr;
    MetricsRegistry::Counter* shed_counter = nullptr;
  };

  /// Deficit-weighted round-robin: while global slots are free and the
  /// memory gate is open, admit from the eligible (non-empty queue, below
  /// hard_concurrency) group with the largest deficit, decrementing it per
  /// admission; when every eligible group is out of deficit, replenish each
  /// by its weight. One queued group therefore gets admissions proportional
  /// to weight, and an empty group's unused share is not banked.
  void PromoteLocked();

  Group* FindGroupLocked(const std::string& name);

  ResourceGroupsOptions options_;
  MetricsRegistry* metrics_;
  std::function<bool()> memory_gate_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Stable addresses: groups are fixed at construction.
  std::map<std::string, Group> groups_;
  std::vector<Group*> drr_order_;  // configured order, for deterministic ties
  int64_t total_running_ = 0;
};

}  // namespace presto

#endif  // PRESTO_CLUSTER_RESOURCE_GROUPS_H_
