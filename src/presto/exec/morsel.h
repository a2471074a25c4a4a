#ifndef PRESTO_EXEC_MORSEL_H_
#define PRESTO_EXEC_MORSEL_H_

#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "presto/common/metrics.h"
#include "presto/common/thread_pool.h"
#include "presto/connector/connector.h"
#include "presto/exec/exchange.h"
#include "presto/exec/operators.h"
#include "presto/vector/page.h"

namespace presto {

/// Thread-safe source of cache-sized row batches ("morsels") shared by the
/// operator chains of one task. Each chain pulls its next morsel from the
/// shared source whenever it finishes one, so work distributes itself: a
/// chain stuck on an expensive morsel simply claims fewer, and a fast chain
/// drains the tail (the scheduling half of morsel-driven parallelism; the
/// work-stealing pool supplies the threads). A single-chain task is the same
/// thing with one puller.
class MorselSource {
 public:
  virtual ~MorselSource() = default;

  /// Next morsel, or nullopt when the source is exhausted. Thread-safe;
  /// morsels are handed out exactly once. Adds the scan-side work accrued
  /// since the previous call (by any chain) to `*scan`, so every increment
  /// is handed out exactly once and the chains' folds sum to the true
  /// totals. Non-scan sources add nothing.
  virtual Result<std::optional<Page>> NextMorsel(ScanSourceStats* scan) = 0;
};

/// Morsels from a leaf scan: the task's split batch is opened split by split
/// and each page is handed out as one morsel (pages larger than kMorselRows
/// are sliced into zero-copy row-range wraps first). The lock is held across
/// the page source's NextPage(), which reads and decodes the page, so the
/// chains of one task decode one page at a time; filtering, projection and
/// aggregation of the morsel run outside it.
class SplitMorselSource final : public MorselSource {
 public:
  /// Target morsel size: chains load-balance at this cache-friendly
  /// granularity.
  static constexpr size_t kMorselRows = 65536;

  SplitMorselSource(Connector* connector, AcceptedPushdown pushdown,
                    std::vector<SplitPtr> splits)
      : connector_(connector),
        pushdown_(std::move(pushdown)),
        splits_(std::move(splits)) {}

  Result<std::optional<Page>> NextMorsel(ScanSourceStats* scan) override;

 private:
  Result<std::optional<Page>> NextMorselLocked();

  Connector* connector_;
  AcceptedPushdown pushdown_;
  std::vector<SplitPtr> splits_;

  std::mutex mu_;
  size_t next_split_ = 0;
  std::unique_ptr<ConnectorPageSource> source_;
  std::vector<Page> chunks_;  // slices of an oversized page
  size_t next_chunk_ = 0;
  ScanSourceStats finished_sources_;  // stats of closed page sources
  ScanSourceStats handed_out_;        // totals already handed to chains
};

/// Morsels from one partition of an upstream exchange. PartitionedExchange's
/// consumer side is already thread-safe and pages arrive morsel-sized (the
/// producer chunked them), so this is a thin adapter.
class ExchangeMorselSource final : public MorselSource {
 public:
  ExchangeMorselSource(PartitionedExchange* exchange, int partition)
      : exchange_(exchange), partition_(partition) {}

  Result<std::optional<Page>> NextMorsel(ScanSourceStats* /*scan*/) override {
    return exchange_->Next(partition_);
  }

 private:
  PartitionedExchange* exchange_;
  int partition_;
};

/// The one leaf operator: pulls from a (possibly shared) morsel source.
/// Stamped with the plan node id of its table scan / remote source, so the
/// per-chain stats merge back into that node's record and EXPLAIN ANALYZE
/// totals reconcile exactly (each morsel is counted by exactly one chain).
/// Scan work is folded after every morsel, so a scan abandoned early (LIMIT)
/// still reports what it read.
class MorselScanOperator final : public Operator {
 public:
  /// `metrics` (may be null) receives the lakefile.* reader counters; table
  /// scans pass the query registry, remote sources pass null.
  MorselScanOperator(std::shared_ptr<MorselSource> source,
                     MetricsRegistry* metrics);

 protected:
  Result<std::optional<Page>> NextInternal() override;

 private:
  std::shared_ptr<MorselSource> source_;
  std::array<MetricsRegistry::Counter*, 6> scan_counters_{};
};

/// Runs `body(0) .. body(parallelism-1)` with the calling thread as the
/// first runner and pool threads as optional helpers. Runner slots are
/// claimed one at a time, so completion never depends on a helper actually
/// starting: if the pool is busy (or null) the caller claims every slot
/// itself. Returns the first non-OK status. `body` must be safe to call
/// concurrently for distinct indices.
Status RunParallel(WorkStealingPool* pool, int parallelism,
                   const std::function<Status(int)>& body);

}  // namespace presto

#endif  // PRESTO_EXEC_MORSEL_H_
