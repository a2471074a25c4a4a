#ifndef PRESTO_EXEC_EXCHANGE_SPOOL_H_
#define PRESTO_EXEC_EXCHANGE_SPOOL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "presto/common/memory_pool.h"
#include "presto/common/metrics.h"
#include "presto/exec/block_file.h"
#include "presto/fs/file_system.h"
#include "presto/vector/page.h"

namespace presto {

/// Worker-local spooled copy of an exchange's output (Presto's fault-tolerant
/// "materialized" exchange): every page accepted into a partition is also
/// appended, as one snappy-compressed block, to that partition's block file
/// (exec/block_file.h; header and column types written at the partition's
/// first append). When a downstream task is lost mid-stage, the coordinator
/// re-runs just that task against the spool instead of restarting the whole
/// query: the spool is the complete history of its input partition. Replay
/// reads back exactly the bytes and blocks the spool remembers writing, and a
/// block that fails its checks fails the replay instead of yielding rows.
///
/// Spooling is insurance, never the query's critical path: any write failure
/// (fault injection, disk trouble, byte budget, memory pressure) marks the
/// partition broken and spooling stops — the recovery ladder then falls
/// through to whole-query restart, but the running query is unaffected.
/// Spooled file bytes (compressed blocks and file headers) are charged to the
/// attached pool (the query's system subtree) and capped by `budget_bytes`.
///
/// Counters (per-query registry, may be null): exchange.spool.page.written,
/// exchange.spool.byte.written, exchange.spool.byte.raw,
/// exchange.spool.byte.read, exchange.spool.page.replayed,
/// exchange.spool.partition.broken.
class ExchangeSpool {
 public:
  ExchangeSpool(FileSystem* fs, std::string dir, int num_partitions,
                MetricsRegistry* metrics, std::shared_ptr<MemoryPool> pool,
                int64_t budget_bytes);
  /// Deletes the spool files (best effort) and releases the pool charge.
  ~ExchangeSpool();

  ExchangeSpool(const ExchangeSpool&) = delete;
  ExchangeSpool& operator=(const ExchangeSpool&) = delete;

  int num_partitions() const { return static_cast<int>(partitions_.size()); }

  /// Appends one page to the partition's spool. On any failure the partition
  /// is marked broken (further appends are dropped) and the error returned —
  /// callers treat it as degraded recovery coverage, not a query failure.
  Status Append(int partition, const Page& page);

  /// Closes the partition's writer; no further appends are accepted. Called
  /// implicitly by OpenReader.
  Status Seal(int partition);

  /// True once an append to the partition failed: its spool is incomplete
  /// and must never be replayed (a partial replay would silently drop rows).
  bool broken(int partition) const;

  int64_t pages_spooled(int partition) const;
  int64_t bytes_spooled() const;

  /// Sequential reader over one sealed partition, page by page.
  class Reader {
   public:
    /// Next replayed page, or nullopt at end of spool.
    Result<std::optional<Page>> Next();

   private:
    friend class ExchangeSpool;
    std::unique_ptr<BlockFileReader> blocks_;  // null = empty partition
    MetricsRegistry::Counter* pages_replayed_counter_ = nullptr;
  };

  /// Seals the partition and opens a reader positioned at its first page.
  /// Fails on a broken partition — replaying an incomplete spool would be
  /// silent data loss, the one outcome recovery must never produce.
  Result<std::unique_ptr<Reader>> OpenReader(int partition);

 private:
  struct Partition {
    std::unique_ptr<BlockFile> file;  // null until the first append
    bool sealed = false;
    bool broken = false;
    int64_t pages = 0;
  };

  /// Why an append to `part` is refused (broken or sealed), or OK.
  static Status Refusal(const Partition& part);
  /// Marks the partition broken: it is incomplete and must never replay.
  void BreakLocked(Partition* part);
  std::string PartitionPath(int partition) const;
  Status AppendBlockLocked(Partition* part, int partition, const Page& page,
                           const EncodedBlock& block);

  FileSystem* fs_;
  const std::string dir_;
  std::shared_ptr<MemoryPool> pool_;  // charged the spooled file bytes
  const int64_t budget_bytes_;

  mutable std::mutex mu_;
  std::vector<Partition> partitions_;
  int64_t bytes_spooled_ = 0;
  int64_t pool_reserved_ = 0;

  MetricsRegistry::Counter* pages_written_counter_ = nullptr;
  MetricsRegistry::Counter* bytes_written_counter_ = nullptr;
  MetricsRegistry::Counter* bytes_raw_counter_ = nullptr;
  MetricsRegistry::Counter* bytes_read_counter_ = nullptr;
  MetricsRegistry::Counter* pages_replayed_counter_ = nullptr;
  MetricsRegistry::Counter* partition_broken_counter_ = nullptr;
};

}  // namespace presto

#endif  // PRESTO_EXEC_EXCHANGE_SPOOL_H_
