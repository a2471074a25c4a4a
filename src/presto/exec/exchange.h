#ifndef PRESTO_EXEC_EXCHANGE_H_
#define PRESTO_EXEC_EXCHANGE_H_

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "presto/common/memory_pool.h"
#include "presto/common/metrics.h"
#include "presto/common/status.h"
#include "presto/vector/page.h"

namespace presto {

/// In-memory exchange between plan fragments, standing in for Presto's
/// HTTP-based shuffle. One exchange per producing fragment; pages are routed
/// into per-partition queues (row-hash routing for hash-partitioned stages,
/// partition 0 for gather) and each consuming task drains exactly one
/// partition.
///
/// The buffer is bounded: the whole exchange shares a byte budget
/// (session property exchange_buffer_bytes) and Push() blocks the producer
/// while the budget is exhausted, so peak buffered bytes never exceed
/// capacity plus one page. Backpressure is released by consumers popping
/// pages, by partition close (ConsumerDone — e.g. a satisfied LIMIT), or by
/// failure.
///
/// Consumers wait on their own partition's condition variable: a pushed
/// page wakes one waiter of the partition it went to, the last
/// ProducerDone() wakes every partition's waiters (end-of-stream), and
/// Fail(), ConsumerDone(), CloseAllPartitions() and a deadline expiry wake
/// everyone. A consumer of one partition therefore sleeps through the
/// traffic of every other partition.
///
/// Counters (per-query registry, may be null): exchange.page.pushed,
/// exchange.byte.pushed, exchange.page.dropped, exchange.producer.blocked,
/// exchange.page.zero_copy, exchange.consumer.wakeups (one per return from
/// a consumer's wait).
class PartitionedExchange {
 public:
  PartitionedExchange(int num_partitions, int64_t capacity_bytes,
                      MetricsRegistry* metrics = nullptr);
  ~PartitionedExchange();

  int num_partitions() const { return static_cast<int>(partitions_.size()); }

  /// Attaches a memory pool (the query's system-memory subtree): every
  /// buffered entry's bytes are reserved, exactly, before it is enqueued and
  /// released when the entry leaves the buffer, so exchange memory is
  /// visible to the worker cap alongside operator memory. A producer
  /// reserves only once the buffer has room for its page: it claims the
  /// bytes in buffered_bytes() first, so the pool's peak never exceeds
  /// peak_buffered_bytes() and equals it with one producer. Each entry
  /// reserves through its own requester-only MemoryConsumer, outside the
  /// exchange lock: with `query` (may be null) a refused reservation goes to
  /// the query's memory arbiter (revoke, kill the largest query, wait up to
  /// the deadline) like any operator's. A reservation that still fails
  /// latches the exchange with the classified error. Must be set before
  /// producers start.
  void SetMemoryPool(std::shared_ptr<MemoryPool> pool,
                     std::shared_ptr<QueryMemory> query = nullptr);

  /// Must be called before producers start.
  void SetProducerCount(int n);

  /// Attempt-id fencing for exactly-once publication: the first attempt of a
  /// producer slot to commit (successfully or as the slot's terminal failure)
  /// wins; every later attempt of the same slot observes false and must
  /// discard its buffered output without touching the exchange. Used by task
  /// retries and straggler speculation — both hold output back
  /// (buffer_output) until they commit.
  bool TryCommitProducer(int slot, int attempt);

  /// Arms a cooperative real-time deadline (SteadyNowNanos epoch, 0 = none).
  /// Producers blocked on backpressure and consumers blocked waiting for
  /// pages wake at the deadline and the exchange latches a "query deadline
  /// exceeded" error, so a hung or fault-looping query can never wedge the
  /// stage scheduler's drain barrier.
  void SetDeadlineNanos(int64_t steady_deadline_nanos);

  /// Enqueues a whole page into one partition; blocks while the exchange is
  /// over budget. Pages pushed after Fail() or into a closed partition are
  /// dropped (counted in exchange.page.dropped). A dictionary column is
  /// charged its nulls and indices plus its rows' share of its base, so
  /// pages that wrap one shared base (join output, filter survivors) are
  /// not each charged the whole base.
  void Push(int partition, Page page);

  /// Routes each row of `page` to partition HashMix64(hash(channels)) %
  /// num_partitions using the typed kernels' batch hashing, then pushes the
  /// per-partition slices (zero-copy dictionary wraps). Routing remixes the
  /// content hash because a consuming task's tables index by its low bits:
  /// routed on `hash % n`, every key a task received would share its low
  /// log2(n) bits and crowd onto 1/n of the table's home slots. A slice's
  /// buffered bytes are its amortized share of the page (indices plus the
  /// page's charge * rows/total), so the fan-out does not multiply
  /// accounted shuffle bytes. When every row lands in one partition —
  /// always true for gather, common for clustered input — the original page
  /// is passed through by shared_ptr without rewrapping (counted in
  /// exchange.page.zero_copy).
  void PushPartitioned(const Page& page, const std::vector<int>& channels);

  /// Marks one producer finished; a partition reaches end-of-stream when all
  /// producers are done and its queue is drained.
  void ProducerDone();

  /// Propagates a task failure to every consumer and unblocks any producer
  /// waiting for buffer space (their pages are dropped from here on).
  void Fail(Status status);

  /// Blocks for the next page of `partition`; nullopt at end-of-stream
  /// (all producers done and queue drained, or the partition was closed).
  Result<std::optional<Page>> Next(int partition);

  /// Consumer-side cancellation: drops everything queued for `partition`,
  /// releases its bytes, and drops future pushes to it. Producers observe
  /// AllConsumersDone() to stop early (LIMIT-style early exit cascades
  /// upstream through this).
  void ConsumerDone(int partition);

  /// Closes every partition (query teardown / failure paths): unblocks all
  /// producers and turns their remaining output into drops.
  void CloseAllPartitions();

  /// True once every partition has been closed by its consumer.
  bool AllConsumersDone() const;

  int64_t buffered_bytes() const;
  /// High-water mark of buffered bytes; stays <= capacity + one page.
  int64_t peak_buffered_bytes() const;
  /// Total bytes accepted into the exchange (drops excluded).
  int64_t bytes_pushed() const;
  int64_t pages_pushed() const;

 private:
  struct Entry {
    Page page;
    int64_t bytes = 0;
    std::unique_ptr<MemoryConsumer> memory;  // holds `bytes`; null unaccounted
  };
  struct Partition {
    std::deque<Entry> pages;
    bool closed = false;
    std::condition_variable consumer_cv;  // page here / end-of-stream / failure
  };

  // Enqueue with precomputed accounted bytes (Push charges the page's shared
  // bytes; PushPartitioned passes each slice's amortized share of them).
  void PushWithBytes(int partition, Page page, int64_t bytes);

  // True when a push to `partition` should be discarded instead of queued.
  bool DropLocked(int partition) const {
    return !status_.ok() || partitions_[partition].closed;
  }

  // Latches `status` and clears buffered pages; caller holds mu_ and must
  // WakeAll() (with or without the lock).
  void FailLocked(Status status);

  // Wakes every blocked producer and every partition's consumers.
  void WakeAll();

  // True when a consumer of `part` has something to return: a page,
  // end-of-stream, or an error (caller holds mu_).
  bool HavePageLocked(const Partition& part) const {
    return !part.pages.empty() || part.closed || producers_ <= 0 ||
           !status_.ok();
  }

  // Blocks on `part`'s condition variable until HavePageLocked(part), and
  // returns how many times the wait returned. A deadline expiry latches the
  // timeout and wakes everyone.
  int64_t WaitForPageLocked(std::unique_lock<std::mutex>& lock,
                            Partition& part);

  // Drops every entry queued for `part`, releasing their bytes (caller
  // holds mu_; releases are lock-free pool atomics, safe under the lock).
  void ClearLocked(Partition& part);

  mutable std::mutex mu_;
  std::condition_variable producer_cv_;  // space freed / close / failure
  std::vector<Partition> partitions_;  // sized once; never moves
  const int64_t capacity_bytes_;
  int64_t buffered_bytes_ = 0;
  int64_t peak_buffered_bytes_ = 0;
  int64_t bytes_pushed_ = 0;
  int64_t pages_pushed_ = 0;
  int open_partitions_ = 0;
  int producers_ = 0;
  int64_t deadline_steady_nanos_ = 0;  // 0 = no deadline
  Status status_;
  std::shared_ptr<MemoryPool> pool_;  // null = exchange memory unaccounted
  std::shared_ptr<QueryMemory> query_;  // routes refusals to its arbiter
  std::map<int, int> committed_slots_;  // producer slot -> winning attempt

  MetricsRegistry::Counter* pages_pushed_counter_ = nullptr;
  MetricsRegistry::Counter* bytes_pushed_counter_ = nullptr;
  MetricsRegistry::Counter* pages_dropped_counter_ = nullptr;
  MetricsRegistry::Counter* producer_blocked_counter_ = nullptr;
  MetricsRegistry::Counter* zero_copy_counter_ = nullptr;
  MetricsRegistry::Counter* consumer_wakeups_counter_ = nullptr;
};

}  // namespace presto

#endif  // PRESTO_EXEC_EXCHANGE_H_
