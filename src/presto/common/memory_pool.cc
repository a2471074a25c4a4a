#include "presto/common/memory_pool.h"

#include <algorithm>
#include <chrono>

#include "presto/common/clock.h"

namespace presto {

std::shared_ptr<MemoryPool> MemoryPool::CreateRoot(std::string name,
                                                   int64_t capacity_bytes,
                                                   MetricsRegistry* metrics) {
  return std::shared_ptr<MemoryPool>(
      new MemoryPool(std::move(name), capacity_bytes, nullptr, metrics));
}

std::shared_ptr<MemoryPool> MemoryPool::AddChild(std::string name,
                                                 int64_t capacity_bytes) {
  return std::shared_ptr<MemoryPool>(new MemoryPool(
      std::move(name), capacity_bytes, shared_from_this(), nullptr));
}

MemoryPool::MemoryPool(std::string name, int64_t capacity_bytes,
                       std::shared_ptr<MemoryPool> parent,
                       MetricsRegistry* metrics)
    : name_(std::move(name)),
      capacity_bytes_(capacity_bytes),
      parent_(std::move(parent)) {
  if (metrics != nullptr) {
    reserved_counter_ = metrics->FindOrRegister("memory.reserved.bytes");
  }
}

MemoryPool::~MemoryPool() {
  // Backstop for failure paths that dropped a pool without releasing: hand
  // the residue back to the ancestors so the worker pool doesn't leak
  // phantom reservation. (A MemoryConsumer releases before this.)
  int64_t residue = reserved_.load(std::memory_order_relaxed);
  if (residue > 0 && parent_ != nullptr) parent_->Release(residue);
}

void MemoryPool::UpdatePeak(int64_t reserved_now) {
  int64_t peak = peak_.load(std::memory_order_relaxed);
  while (reserved_now > peak &&
         !peak_.compare_exchange_weak(peak, reserved_now,
                                      std::memory_order_relaxed)) {
  }
}

Status MemoryPool::Reserve(int64_t bytes, const MemoryPool** failed_pool) {
  if (bytes <= 0) return Status::OK();
  // Walk leaf -> root, reserving at each level; on a cap violation unwind
  // the levels already charged so a failed reservation is a no-op.
  for (MemoryPool* p = this; p != nullptr; p = p->parent_.get()) {
    int64_t cur = p->reserved_.load(std::memory_order_relaxed);
    while (true) {
      if (p->capacity_bytes_ != kUnlimited && cur + bytes > p->capacity_bytes_) {
        for (MemoryPool* c = this; c != p; c = c->parent_.get()) {
          c->reserved_.fetch_sub(bytes, std::memory_order_relaxed);
        }
        if (failed_pool != nullptr) *failed_pool = p;
        return Status::ResourceExhausted(
            "memory pool '" + p->name_ + "' exceeded: requested " +
            std::to_string(bytes) + " bytes, reserved " + std::to_string(cur) +
            " of " + std::to_string(p->capacity_bytes_));
      }
      if (p->reserved_.compare_exchange_weak(cur, cur + bytes,
                                             std::memory_order_relaxed)) {
        break;
      }
    }
    p->UpdatePeak(cur + bytes);
    if (p->reserved_counter_ != nullptr) p->reserved_counter_->Add(bytes);
  }
  return Status::OK();
}

void MemoryPool::Release(int64_t bytes) {
  if (bytes <= 0) return;
  MemoryPool* p = this;
  for (;; p = p->parent_.get()) {
    p->reserved_.fetch_sub(bytes, std::memory_order_relaxed);
    if (p->parent_ == nullptr) break;
  }
  if (p->arbiter_ != nullptr) p->arbiter_->OnRelease();
}

std::shared_ptr<MemoryPool> ProcessCachePool() {
  static std::shared_ptr<MemoryPool> pool =
      MemoryPool::CreateRoot("cache", MemoryPool::kUnlimited);
  return pool;
}

namespace {

// The longest a kill waiter sleeps without a wake-up before re-checking: a
// backstop for a release that notified between a waiter's check and its
// wait (releases notify without taking the arbiter's lock).
constexpr int64_t kWaitTickNanos = 50'000'000;

}  // namespace

Status QueryKilledStatus() {
  return Status::ResourceExhausted(
      "Query killed: worker memory exhausted (low-memory killer)");
}

// -- MemoryConsumer -------------------------------------------------------------

MemoryConsumer::~MemoryConsumer() {
  (void)Unregister();
  if (pool_ != nullptr) pool_->Release(bytes_);
}

void MemoryConsumer::Init(std::shared_ptr<MemoryPool> pool,
                          std::shared_ptr<QueryMemory> query,
                          MetricsRegistry* metrics,
                          std::function<int64_t()> state_bytes,
                          std::function<Status()> revoke) {
  pool_ = std::move(pool);
  query_ = std::move(query);
  if (metrics != nullptr) {
    revoked_counter_ = metrics->FindOrRegister("memory.revoked.bytes");
  }
  state_bytes_ = std::move(state_bytes);
  revoke_ = std::move(revoke);
  if (pool_ == nullptr || revoke_ == nullptr || query_ == nullptr ||
      query_->arbiter == nullptr || query_->spill_fs == nullptr) {
    return;
  }
  estimate_ = state_bytes_();  // nobody else can see this consumer yet
  std::lock_guard<std::mutex> lock(query_->arbiter->mu_);
  query_->arbiter->consumers_.push_back(this);
  registered_ = true;
}

Status MemoryConsumer::Unregister() {
  if (registered_) {
    std::lock_guard<std::mutex> lock(query_->arbiter->mu_);
    std::erase(query_->arbiter->consumers_, this);
    registered_ = false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ThreadBlockedCounters().Accumulate(carried_);
  carried_ = BlockedCounters();
  return error_;
}

Status MemoryConsumer::Reserve(int64_t bytes) {
  if (pool_ == nullptr) return Status::OK();
  const MemoryPool* failed = nullptr;
  Status st;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ThreadBlockedCounters().Accumulate(carried_);
    carried_ = BlockedCounters();
    RETURN_IF_ERROR(error_);
    st = SetLocked(bytes, 0, &failed);
  }
  if (st.ok() || query_ == nullptr || query_->arbiter == nullptr) return st;
  return query_->arbiter->Arbitrate(*this, bytes, failed);
}

Status MemoryConsumer::SetLocked(int64_t bytes, int64_t margin,
                                 const MemoryPool** failed) {
  if (bytes == kStateBytes) {
    bytes = state_bytes_();
    estimate_.store(bytes, std::memory_order_relaxed);
  }
  // Round up to the quantum: shrinks smaller than a quantum are kept (they
  // are reused a page later), and cap accuracy degrades by at most one
  // quantum per consumer.
  bytes = (std::max<int64_t>(bytes, 0) + quantum_ - 1) / quantum_ * quantum_;
  if (bytes <= bytes_) {
    pool_->Release(bytes_ - bytes);
    bytes_ = bytes;
    return Status::OK();
  }
  for (const MemoryPool* p = pool_.get(); margin > 0 && p != nullptr;
       p = p->parent()) {
    if (p->capacity_bytes() != MemoryPool::kUnlimited &&
        p->reserved_bytes() + bytes - bytes_ + margin > p->capacity_bytes()) {
      *failed = p;
      return Status::ResourceExhausted("no margin left in " + p->name());
    }
  }
  RETURN_IF_ERROR(pool_->Reserve(bytes - bytes_, failed));
  bytes_ = bytes;
  return Status::OK();
}

// -- MemoryArbiter --------------------------------------------------------------

MemoryArbiter::MemoryArbiter(std::shared_ptr<MemoryPool> worker,
                             KillListener on_kill)
    : worker_(std::move(worker)), on_kill_(std::move(on_kill)) {
  worker_->arbiter_ = this;
}

MemoryArbiter::~MemoryArbiter() { worker_->arbiter_ = nullptr; }

void MemoryArbiter::AddQuery(QueryMemory* query) {
  std::lock_guard<std::mutex> lock(mu_);
  query->arbiter = this;
  queries_.push_back(query);
}

void MemoryArbiter::RemoveQuery(QueryMemory* query) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase(queries_, query);
  wake_cv_.notify_all();
}

// Two rounds at most: revoke under the refused pool, then (worker cap only)
// kill one query and wait, with the lock released, until the request fits,
// the victim has exited, the requester's own query is killed or its deadline
// passes. A victim that exits without freeing enough earns one more round.
Status MemoryArbiter::Arbitrate(MemoryConsumer& requester, int64_t bytes,
                                const MemoryPool* failed) {
  const QueryMemory& own = *requester.query_;
  std::unique_lock<std::mutex> lock(mu_);
  Status st;
  for (int round = 0; round < 2; ++round) {
    if (own.killed.load(std::memory_order_relaxed)) return QueryKilledStatus();
    while (!Fits(requester, bytes, kMargin, &failed).ok()) {
      MemoryConsumer* victim = LargestUnder(failed);
      if (victim == nullptr) break;
      RETURN_IF_ERROR(Revoke(*victim, requester));
    }
    st = Fits(requester, bytes, 0, &failed);
    if (st.ok() || failed != worker_.get()) return st;
    QueryMemory* victim = KillLargest(
        own, bytes == MemoryConsumer::kStateBytes ? requester.estimate_.load()
                                                  : bytes);
    if (victim == nullptr) break;
    if (victim == &own) return QueryKilledStatus();
    const int64_t victim_id = victim->query_id;
    BlockedTimer waited(BlockedKind::kMemoryWait);
    TraceEventScope span(TraceKind::kMemoryWait, "arbiter_wait");
    waiters_.fetch_add(1);
    bool victim_gone = false;
    int64_t wait_nanos = kWaitTickNanos;
    while (!own.killed.load(std::memory_order_relaxed) &&
           !(st = Fits(requester, bytes, 0, &failed)).ok()) {
      victim_gone = std::none_of(
          queries_.begin(), queries_.end(),
          [victim_id](const QueryMemory* q) { return q->query_id == victim_id; });
      wait_nanos = own.deadline_steady_nanos > 0
                       ? std::min(kWaitTickNanos,
                                  own.deadline_steady_nanos - SteadyNowNanos())
                       : kWaitTickNanos;
      if (victim_gone || wait_nanos <= 0) break;
      wake_cv_.wait_for(lock, std::chrono::nanoseconds(wait_nanos));
    }
    waiters_.fetch_sub(1);
    if (own.killed.load(std::memory_order_relaxed)) return QueryKilledStatus();
    if (wait_nanos <= 0 && !victim_gone) {
      return Status::DeadlineExceeded(
          "query deadline exceeded (query_timeout_millis)");
    }
    if (!victim_gone) return st;
  }
  return st;
}

Status MemoryArbiter::Fits(MemoryConsumer& requester, int64_t bytes,
                           int64_t margin, const MemoryPool** failed) {
  std::lock_guard<std::mutex> lock(requester.mu_);
  return requester.SetLocked(bytes, margin, failed);
}

// Ranks by the estimate each consumer published at its last page, not by
// its reservation: under a cap below one quantum nobody holds any.
MemoryConsumer* MemoryArbiter::LargestUnder(const MemoryPool* scope) {
  MemoryConsumer* largest = nullptr;
  for (MemoryConsumer* c : consumers_) {
    const MemoryPool* p = c->pool_.get();
    while (p != nullptr && p != scope) p = p->parent();
    if (p != nullptr &&
        c->estimate_ > (largest ? largest->estimate_.load() : 0)) {
      largest = c;
    }
  }
  return largest;
}

// The requester revokes itself inline. Revoking anyone else is the
// requester's memory wait, while the spill it causes (I/O time, bytes, runs,
// a failure) is the victim's, handed over through the victim's lock. Either
// way the victim ranks last until its next Reserve() publishes its state.
Status MemoryArbiter::Revoke(MemoryConsumer& victim,
                             MemoryConsumer& requester) {
  std::lock_guard<std::mutex> lock(victim.mu_);
  const int64_t freed = victim.state_bytes_();
  Status st;
  if (&victim == &requester) {
    st = victim.revoke_();
  } else {
    BlockedTimer waited(BlockedKind::kMemoryWait);
    TraceEventScope span(TraceKind::kMemoryWait, "revoke");
    const BlockedCounters before = ThreadBlockedCounters();
    Status revoked = victim.revoke_();
    victim.carried_.Accumulate(ThreadBlockedCounters().Delta(before));
    ThreadBlockedCounters() = before;
    if (victim.error_.ok()) victim.error_ = std::move(revoked);
  }
  (void)victim.SetLocked(MemoryConsumer::kStateBytes, 0, nullptr);
  if (st.ok() && victim.error_.ok() && victim.revoked_counter_ != nullptr) {
    victim.revoked_counter_->Add(freed - victim.estimate_);
  }
  victim.estimate_ = 0;
  return st;
}

// One victim at a time: while a killed query is still registered it is the
// victim, else the query with the largest reservation.
QueryMemory* MemoryArbiter::KillLargest(const QueryMemory& requester,
                                        int64_t bytes) {
  QueryMemory* victim = nullptr;
  for (QueryMemory* q : queries_) {
    if (q->killed.load(std::memory_order_relaxed)) return q;
    if (victim == nullptr ||
        q->query->reserved_bytes() > victim->query->reserved_bytes()) {
      victim = q;
    }
  }
  if (victim == nullptr || victim->query->reserved_bytes() <= 0) return nullptr;
  victim->killed.store(true, std::memory_order_relaxed);
  if (on_kill_) on_kill_(*victim, requester, bytes);
  wake_cv_.notify_all();  // a victim waiting here learns it was killed
  return victim;
}

}  // namespace presto
