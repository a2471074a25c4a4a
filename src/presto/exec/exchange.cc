#include "presto/exec/exchange.h"

#include <algorithm>
#include <chrono>

#include "presto/common/clock.h"
#include "presto/common/fault_injection.h"
#include "presto/common/hash.h"
#include "presto/common/trace.h"
#include "presto/exec/kernels/kernels.h"

namespace presto {

namespace {

Status DeadlineStatus() {
  return Status::DeadlineExceeded(
      "query deadline exceeded (query_timeout_millis)");
}

std::chrono::steady_clock::time_point ToTimePoint(int64_t steady_nanos) {
  return std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(steady_nanos));
}

// The partition a row with content hash `hash` (kernels::HashPage) goes to:
// a remix, so routing does not pick the low bits the consumer's tables
// index by.
int PartitionOf(uint64_t hash, int num_partitions) {
  return static_cast<int>(HashMix64(hash) %
                          static_cast<uint64_t>(num_partitions));
}

// Bytes a buffered vector is charged: its EstimateBytes(), except that a
// dictionary pays its nulls and indices plus rows/base-rows of its base.
int64_t SharedVectorBytes(const Vector& vector) {
  if (vector.encoding() != VectorEncoding::kDictionary) {
    return vector.EstimateBytes();
  }
  const auto& dict = static_cast<const DictionaryVector&>(vector);
  const Vector& base = *dict.base();
  const auto rows = static_cast<int64_t>(dict.size());
  const int64_t own = (dict.raw_nulls() != nullptr ? rows : 0) +
                      rows * static_cast<int64_t>(sizeof(int32_t));
  if (base.size() == 0) return own;
  // A dictionary never pays more than its whole base (a nested-loop join's
  // output has more rows than its base).
  const int64_t base_bytes = SharedVectorBytes(base);
  return own + std::min(base_bytes,
                        base_bytes * rows / static_cast<int64_t>(base.size()));
}

int64_t SharedBytes(const Page& page) {
  int64_t bytes = 0;
  for (const VectorPtr& col : page.columns()) bytes += SharedVectorBytes(*col);
  return bytes;
}

}  // namespace

PartitionedExchange::PartitionedExchange(int num_partitions,
                                         int64_t capacity_bytes,
                                         MetricsRegistry* metrics)
    : partitions_(std::max(1, num_partitions)),
      capacity_bytes_(std::max<int64_t>(1, capacity_bytes)) {
  open_partitions_ = static_cast<int>(partitions_.size());
  if (metrics != nullptr) {
    pages_pushed_counter_ = metrics->FindOrRegister("exchange.page.pushed");
    bytes_pushed_counter_ = metrics->FindOrRegister("exchange.byte.pushed");
    pages_dropped_counter_ = metrics->FindOrRegister("exchange.page.dropped");
    producer_blocked_counter_ =
        metrics->FindOrRegister("exchange.producer.blocked");
    zero_copy_counter_ = metrics->FindOrRegister("exchange.page.zero_copy");
    consumer_wakeups_counter_ =
        metrics->FindOrRegister("exchange.consumer.wakeups");
  }
}

// Entries still queued at teardown (e.g. a LIMIT satisfied early) release
// their reservations as they are destroyed.
PartitionedExchange::~PartitionedExchange() = default;

void PartitionedExchange::SetProducerCount(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  producers_ = n;
}

void PartitionedExchange::SetMemoryPool(std::shared_ptr<MemoryPool> pool,
                                        std::shared_ptr<QueryMemory> query) {
  std::lock_guard<std::mutex> lock(mu_);
  pool_ = std::move(pool);
  query_ = std::move(query);
}

void PartitionedExchange::ClearLocked(Partition& part) {
  for (const Entry& entry : part.pages) buffered_bytes_ -= entry.bytes;
  part.pages.clear();
}

void PartitionedExchange::SetDeadlineNanos(int64_t steady_deadline_nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  deadline_steady_nanos_ = steady_deadline_nanos;
}

bool PartitionedExchange::TryCommitProducer(int slot, int attempt) {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_slots_.emplace(slot, attempt).second;
}

void PartitionedExchange::Push(int partition, Page page) {
  const int64_t bytes = SharedBytes(page);
  PushWithBytes(partition, std::move(page), bytes);
}

void PartitionedExchange::PushWithBytes(int partition, Page page,
                                        int64_t bytes) {
  {
    // Chaos hook: a failed shuffle transfer latches the whole exchange, the
    // fail-fast path for intermediate stages (the coordinator restarts the
    // query once when the error is transient).
    Status fault = FaultInjector::Global().Hit("exchange.push");
    if (!fault.ok()) {
      Fail(std::move(fault));
      return;
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (buffered_bytes_ >= capacity_bytes_ && !DropLocked(partition)) {
      if (producer_blocked_counter_ != nullptr) {
        producer_blocked_counter_->Add(1);
      }
      // Backpressure: the producer is genuinely blocked from here on. Time
      // it into the thread's blocked cell (attributed at task level — the
      // push happens outside any operator's Next() frame) and record a span.
      BlockedTimer blocked(BlockedKind::kExchangeWait);
      TraceEventScope span(TraceKind::kExchangeWait, "exchange_produce_wait");
      auto have_room = [this, partition] {
        return buffered_bytes_ < capacity_bytes_ || DropLocked(partition);
      };
      if (deadline_steady_nanos_ > 0) {
        if (!producer_cv_.wait_until(lock, ToTimePoint(deadline_steady_nanos_),
                                     have_room)) {
          // Deadline while blocked on backpressure: latch the timeout so the
          // whole query unwinds instead of wedging this producer forever.
          FailLocked(DeadlineStatus());
          WakeAll();
        }
      } else {
        producer_cv_.wait(lock, have_room);
      }
    }
    if (DropLocked(partition)) {
      if (pages_dropped_counter_ != nullptr) pages_dropped_counter_->Add(1);
      return;
    }
    // The page has room: claim its bytes in the buffer, then reserve them
    // with mu_ released. A refused reservation goes to the memory arbiter
    // and may wait there for another query to die while consumers keep
    // popping, and the arbiter is asked only for pages the buffer will take.
    // pool_ and query_ are fixed before producers start.
    buffered_bytes_ += bytes;
    std::unique_ptr<MemoryConsumer> memory;
    if (pool_ != nullptr) {
      lock.unlock();
      memory = std::make_unique<MemoryConsumer>(/*quantum=*/1);
      memory->Init(pool_, query_, nullptr);
      Status reserved = memory->Reserve(bytes);
      lock.lock();
      if (!reserved.ok() || DropLocked(partition)) {
        buffered_bytes_ -= bytes;
        if (pages_dropped_counter_ != nullptr) pages_dropped_counter_->Add(1);
        // Worker memory exhausted while buffering shuffle data, and the
        // arbiter could not make room: latch the classified error so the
        // whole query unwinds instead of queueing pages the worker has no
        // budget for.
        if (!DropLocked(partition)) FailLocked(std::move(reserved));
        lock.unlock();
        WakeAll();
        return;
      }
    }
    partitions_[partition].pages.push_back(
        Entry{std::move(page), bytes, std::move(memory)});
    peak_buffered_bytes_ = std::max(peak_buffered_bytes_, buffered_bytes_);
    bytes_pushed_ += bytes;
    pages_pushed_ += 1;
  }
  if (pages_pushed_counter_ != nullptr) pages_pushed_counter_->Add(1);
  if (bytes_pushed_counter_ != nullptr) bytes_pushed_counter_->Add(bytes);
  // One page feeds one consumer: wake one waiter of this partition only.
  // partitions_ never resizes, so the reference outlives the lock.
  partitions_[partition].consumer_cv.notify_one();
}

void PartitionedExchange::PushPartitioned(const Page& page,
                                          const std::vector<int>& channels) {
  if (page.num_rows() == 0) return;
  if (num_partitions() == 1 || channels.empty()) {
    if (zero_copy_counter_ != nullptr) zero_copy_counter_->Add(1);
    Push(0, page);
    return;
  }
  std::vector<uint64_t> hashes;
  kernels::HashPage(page, channels, &hashes);
  std::vector<std::vector<int32_t>> rows(partitions_.size());
  const int n = num_partitions();
  for (size_t r = 0; r < hashes.size(); ++r) {
    rows[PartitionOf(hashes[r], n)].push_back(static_cast<int32_t>(r));
  }
  int only = -1;
  for (size_t p = 0; p < rows.size(); ++p) {
    if (rows[p].empty()) continue;
    only = only == -1 ? static_cast<int>(p) : -2;
  }
  if (only >= 0) {
    // Every row hashed to one partition (clustered input): pass the page
    // through as-is — the consumer shares the producer's vectors.
    if (zero_copy_counter_ != nullptr) zero_copy_counter_->Add(1);
    Push(only, page);
    return;
  }
  const int64_t base_bytes = SharedBytes(page);
  const auto total_rows = static_cast<int64_t>(page.num_rows());
  for (size_t p = 0; p < rows.size(); ++p) {
    if (rows[p].empty()) continue;
    // Zero-copy for flat columns: each partition slice is a dictionary wrap
    // over the original page's vectors. Account each slice its row-share of
    // the base page plus its own indices — the wraps share one base, so
    // charging every slice the full base would multiply shuffle bytes by
    // the fan-out.
    const auto slice_rows = static_cast<int64_t>(rows[p].size());
    int64_t bytes =
        slice_rows * static_cast<int64_t>(sizeof(int32_t)) +
        base_bytes * slice_rows / total_rows;
    PushWithBytes(static_cast<int>(p), page.WrapRows(rows[p]), bytes);
  }
}

void PartitionedExchange::ProducerDone() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (--producers_ > 0) return;
  }
  // The last producer finished: every partition reaches end-of-stream once
  // drained, so every waiting consumer must see it.
  for (Partition& part : partitions_) part.consumer_cv.notify_all();
}

void PartitionedExchange::FailLocked(Status status) {
  if (status_.ok()) status_ = std::move(status);
  // The error wins over buffered pages; release their bytes so any blocked
  // producer wakes into the drop path.
  for (Partition& partition : partitions_) ClearLocked(partition);
}

void PartitionedExchange::WakeAll() {
  producer_cv_.notify_all();
  for (Partition& part : partitions_) part.consumer_cv.notify_all();
}

void PartitionedExchange::Fail(Status status) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    FailLocked(std::move(status));
  }
  WakeAll();
}

int64_t PartitionedExchange::WaitForPageLocked(
    std::unique_lock<std::mutex>& lock, Partition& part) {
  // Nothing buffered: this consumer blocks on upstream producers. The wait
  // lands in the pulling operator's Next() frame (RemoteSource / morsel
  // exchange source), so it attributes to that operator.
  BlockedTimer blocked(BlockedKind::kExchangeWait);
  TraceEventScope span(TraceKind::kExchangeWait, "exchange_consume_wait");
  int64_t wakeups = 0;
  while (!HavePageLocked(part)) {
    ++wakeups;
    if (deadline_steady_nanos_ <= 0) {
      part.consumer_cv.wait(lock);
    } else if (part.consumer_cv.wait_until(
                   lock, ToTimePoint(deadline_steady_nanos_)) ==
                   std::cv_status::timeout &&
               !HavePageLocked(part)) {
      FailLocked(DeadlineStatus());
      WakeAll();
    }
  }
  return wakeups;
}

Result<std::optional<Page>> PartitionedExchange::Next(int partition) {
  Entry entry;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Partition& part = partitions_[partition];
    if (!HavePageLocked(part)) {
      const int64_t wakeups = WaitForPageLocked(lock, part);
      if (consumer_wakeups_counter_ != nullptr) {
        consumer_wakeups_counter_->Add(wakeups);
      }
    }
    if (!status_.ok()) return status_;
    if (part.pages.empty()) return std::optional<Page>();  // end-of-stream
    entry = std::move(part.pages.front());
    part.pages.pop_front();
    buffered_bytes_ -= entry.bytes;
    entry.memory.reset();
  }
  producer_cv_.notify_all();
  return std::optional<Page>(std::move(entry.page));
}

void PartitionedExchange::ConsumerDone(int partition) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Partition& part = partitions_[partition];
    if (part.closed) return;
    part.closed = true;
    --open_partitions_;
    ClearLocked(part);
  }
  WakeAll();
}

void PartitionedExchange::CloseAllPartitions() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Partition& part : partitions_) {
      if (part.closed) continue;
      part.closed = true;
      --open_partitions_;
      ClearLocked(part);
    }
  }
  WakeAll();
}

bool PartitionedExchange::AllConsumersDone() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_partitions_ == 0;
}

int64_t PartitionedExchange::buffered_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffered_bytes_;
}

int64_t PartitionedExchange::peak_buffered_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_buffered_bytes_;
}

int64_t PartitionedExchange::bytes_pushed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_pushed_;
}

int64_t PartitionedExchange::pages_pushed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_pushed_;
}

}  // namespace presto
