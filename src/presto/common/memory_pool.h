#ifndef PRESTO_COMMON_MEMORY_POOL_H_
#define PRESTO_COMMON_MEMORY_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "presto/common/metrics.h"
#include "presto/common/status.h"
#include "presto/common/trace.h"

namespace presto {

class FileSystem;
class MemoryArbiter;

/// Hierarchical memory accounting. A pool tree mirrors the execution tree —
/// worker -> query -> task -> operator — and every allocation-ish event
/// (hash-table growth, sort buffers, exchange queues, cache entries)
/// reserves estimated bytes from its leaf pool. A reservation propagates to
/// every ancestor and is checked against each level's capacity, so both
/// per-query caps (session property query_max_memory) and the per-worker cap
/// are enforced at reservation time, before the memory is actually used.
///
/// This is accounting, not allocation: operators still use ordinary
/// containers and report their EstimateBytes()-style footprint. The tree is
/// lock-free — reserved bytes and peaks are per-pool atomics, and a failed
/// reservation unwinds the partial walk — so reservation on the hot path is
/// one relaxed CAS per tree level.
///
/// Lifetime: children hold a shared_ptr to their parent, so a leaf pool held
/// by an operator keeps the whole chain alive. Destroying a pool with a
/// residual reservation (failure-path backstop; a MemoryConsumer releases
/// normally) returns the residue to its ancestors.
///
/// A reservation that fails is not retried here: operators reserve through a
/// MemoryConsumer (below), whose failed reservations go to the worker's
/// MemoryArbiter. The root pool tells its arbiter about every
/// release, which costs one relaxed atomic load while nobody waits.
///
/// Counters (root's registry, may be null): memory.reserved.bytes is the
/// cumulative bytes ever reserved anywhere in the tree (monotonic; current
/// usage is reserved() on the root).
class MemoryPool : public std::enable_shared_from_this<MemoryPool> {
 public:
  static constexpr int64_t kUnlimited = 0;

  /// Creates a root (worker-level) pool. `capacity_bytes` of kUnlimited
  /// disables the cap at this level.
  static std::shared_ptr<MemoryPool> CreateRoot(
      std::string name, int64_t capacity_bytes = kUnlimited,
      MetricsRegistry* metrics = nullptr);

  /// Creates a child pool; reservations against the child count against this
  /// pool (and its ancestors) too.
  std::shared_ptr<MemoryPool> AddChild(std::string name,
                                       int64_t capacity_bytes = kUnlimited);

  ~MemoryPool();

  /// Reserves `bytes` against this pool and every ancestor. On failure
  /// nothing is reserved and the returned kResourceExhausted names the
  /// exhausted pool; if `failed_pool` is non-null it is set to that pool,
  /// which scopes the arbiter's response (the query's, the tenant's or
  /// every consumer).
  Status Reserve(int64_t bytes, const MemoryPool** failed_pool = nullptr);

  /// Returns `bytes` previously reserved through this pool.
  void Release(int64_t bytes);

  const std::string& name() const { return name_; }
  int64_t capacity_bytes() const { return capacity_bytes_; }
  /// Bytes currently reserved through this pool (including descendants).
  int64_t reserved_bytes() const {
    return reserved_.load(std::memory_order_relaxed);
  }
  /// High-water mark of reserved_bytes().
  int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  MemoryPool* parent() const { return parent_.get(); }

 private:
  friend class MemoryArbiter;  // sets arbiter_ on the root
  MemoryPool(std::string name, int64_t capacity_bytes,
             std::shared_ptr<MemoryPool> parent, MetricsRegistry* metrics);

  void UpdatePeak(int64_t reserved_now);

  const std::string name_;
  const int64_t capacity_bytes_;  // kUnlimited = no cap at this level
  const std::shared_ptr<MemoryPool> parent_;
  std::atomic<int64_t> reserved_{0};
  std::atomic<int64_t> peak_{0};
  MetricsRegistry::Counter* reserved_counter_ = nullptr;  // root only
  MemoryArbiter* arbiter_ = nullptr;                      // root only
};

/// One query's memory: its pools, its kill flag and deadline, and its spill
/// area. The coordinator registers it with the worker's arbiter while the
/// query runs; operators reach it through ExecutionLimits::query_memory.
struct QueryMemory {
  int64_t query_id = 0;
  std::string group;                   // admission (resource) group name
  std::shared_ptr<MemoryPool> query;   // worker [-> group.<name>] -> query.<id>
  std::shared_ptr<MemoryPool> user;    // capped at query_max_memory
  std::shared_ptr<MemoryPool> system;  // exchange buffers (uncapped)
  std::atomic<bool> killed{false};     // set by the arbiter's kill path
  int64_t deadline_steady_nanos = 0;   // bounds arbiter waits; 0 = none
  FileSystem* spill_fs = nullptr;      // null = spill disabled
  std::string spill_dir;
  MemoryArbiter* arbiter = nullptr;
};

/// The classified status of a query the arbiter killed.
Status QueryKilledStatus();

/// One reservation under a task pool: a join build, or a revocable state
/// (an aggregation chain's tables, a sort buffer); or, in the query's system
/// pool, one buffered exchange page.
/// Reservations move in quantum steps (kQuantum unless constructed
/// otherwise), so a growing consumer touches the shared pool tree once per
/// quantum rather than once per page. A growth the
/// pool tree refuses goes to the query's arbiter.
///
/// Lock order: the arbiter's mutex, then a consumer's mu(). The owner holds
/// mu() only while it folds one page into the revocable state; it never
/// holds it while calling Reserve or Unregister.
class MemoryConsumer {
 public:
  static constexpr int64_t kQuantum = 1 << 20;

  /// `quantum` is the reservation step; 1 reserves exact byte counts (one
  /// buffered exchange page).
  explicit MemoryConsumer(int64_t quantum = kQuantum) : quantum_(quantum) {}
  MemoryConsumer(const MemoryConsumer&) = delete;  // the arbiter holds `this`
  MemoryConsumer& operator=(const MemoryConsumer&) = delete;
  /// Unregisters and releases the whole reservation.
  ~MemoryConsumer();

  /// Accounts under `pool`. `query` (may be null) routes refused growth to
  /// its arbiter; `metrics` (may be null) receives memory.revoked.bytes.
  /// Until Init every call is a no-op (memory accounting off).
  ///
  /// `state_bytes` estimates the state Reserve() reserves. With `revoke`,
  /// which spills that state, and a query that spills, the consumer is
  /// revocable until Unregister, ranked by the estimate published here and
  /// at every Reserve(). Both run under mu(), on whichever thread needs the
  /// memory.
  void Init(std::shared_ptr<MemoryPool> pool,
            std::shared_ptr<QueryMemory> query, MetricsRegistry* metrics,
            std::function<int64_t()> state_bytes = nullptr,
            std::function<Status()> revoke = nullptr);
  /// Leaves the arbiter before the output phase, then settles what
  /// revocations on other threads left: their spill time and bytes move to
  /// the calling thread's blocked-time cell, and a failed one returns its
  /// error. Idempotent.
  Status Unregister();

  /// Guards the revocable state.
  std::mutex& mu() { return mu_; }

  /// Moves the reservation to `bytes`. Shrinking always succeeds; a growth
  /// that fails keeps the old reservation and returns kResourceExhausted (or
  /// kDeadlineExceeded when the query deadline passed while waiting).
  Status Reserve(int64_t bytes);
  /// Reserve of a registered consumer: the target is state_bytes(), read
  /// under mu(), so an estimate a revocation made stale is never reserved.
  Status Reserve() { return Reserve(kStateBytes); }

 private:
  friend class MemoryArbiter;
  static constexpr int64_t kStateBytes = -1;

  // Requires mu_. Moves the reservation to `bytes` (kStateBytes: the state
  // estimate), leaving `margin` free on top of a growth; on refusal sets
  // `failed` (may be null without a margin) and keeps the old reservation.
  Status SetLocked(int64_t bytes, int64_t margin, const MemoryPool** failed);

  const int64_t quantum_;
  std::shared_ptr<MemoryPool> pool_;
  std::shared_ptr<QueryMemory> query_;
  MetricsRegistry::Counter* revoked_counter_ = nullptr;
  std::function<int64_t()> state_bytes_;
  std::function<Status()> revoke_;
  bool registered_ = false;  // owner thread only
  std::mutex mu_;
  int64_t bytes_ = 0;                 // guarded by mu_
  BlockedCounters carried_;           // guarded by mu_
  Status error_;                      // guarded by mu_
  std::atomic<int64_t> estimate_{0};  // last state_bytes(), for ranking
};

/// The worker's memory arbiter: every reservation that fails comes here.
/// It revokes registered consumers under the pool that refused, largest
/// estimated state first, until the request fits with kMargin to spare. The
/// refused pool scopes the victims: the query's own consumers at `user`, the
/// tenant's at `group.<name>`, every consumer at `worker`. Only at the
/// worker cap, once revocation cannot free enough, does it kill the query
/// with the largest reservation (one victim at a time); the requester then
/// waits on pool releases and query exits, bounded by its query deadline.
class MemoryArbiter {
 public:
  /// Called under the arbiter's lock when the kill path picks `victim`.
  using KillListener = std::function<void(
      const QueryMemory& victim, const QueryMemory& requester, int64_t bytes)>;

  static constexpr int64_t kMargin = MemoryConsumer::kQuantum;

  /// Arbitrates for the root pool `worker`, whose releases now wake waiters.
  explicit MemoryArbiter(std::shared_ptr<MemoryPool> worker,
                         KillListener on_kill = nullptr);
  MemoryArbiter(const MemoryArbiter&) = delete;  // the worker pool holds `this`
  MemoryArbiter& operator=(const MemoryArbiter&) = delete;
  /// Detaches from the worker pool.
  ~MemoryArbiter();

  /// Makes `query` a kill candidate until RemoveQuery.
  void AddQuery(QueryMemory* query);
  /// Forgets `query` (it has exited) and wakes waiters.
  void RemoveQuery(QueryMemory* query);

  /// Called by the root pool on every release.
  void OnRelease() {
    if (waiters_.load(std::memory_order_relaxed) > 0) wake_cv_.notify_all();
  }

 private:
  friend class MemoryConsumer;

  Status Arbitrate(MemoryConsumer& requester, int64_t bytes,
                   const MemoryPool* failed);
  Status Fits(MemoryConsumer& requester, int64_t bytes, int64_t margin,
              const MemoryPool** failed);
  MemoryConsumer* LargestUnder(const MemoryPool* scope);
  Status Revoke(MemoryConsumer& victim, MemoryConsumer& requester);
  QueryMemory* KillLargest(const QueryMemory& requester, int64_t bytes);

  const std::shared_ptr<MemoryPool> worker_;
  const KillListener on_kill_;
  std::mutex mu_;  // serializes arbitration and guards the registries
  std::vector<MemoryConsumer*> consumers_;
  std::vector<QueryMemory*> queries_;
  std::atomic<int> waiters_{0};  // kill waiters
  std::condition_variable wake_cv_;  // releases, kills and query exits
};

/// Process-wide pool that metadata caches (footer / file-list / file-handle)
/// charge their entries to, so cache memory is visible alongside query
/// memory. Uncapped by default; individual caches enforce their own byte
/// capacities via weighted LRU eviction.
std::shared_ptr<MemoryPool> ProcessCachePool();

}  // namespace presto

#endif  // PRESTO_COMMON_MEMORY_POOL_H_
