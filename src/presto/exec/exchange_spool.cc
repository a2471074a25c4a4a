#include "presto/exec/exchange_spool.h"

#include "presto/common/fault_injection.h"
#include "presto/common/trace.h"

namespace presto {

ExchangeSpool::ExchangeSpool(FileSystem* fs, std::string dir,
                             int num_partitions, MetricsRegistry* metrics,
                             std::shared_ptr<MemoryPool> pool,
                             int64_t budget_bytes)
    : fs_(fs),
      dir_(std::move(dir)),
      pool_(std::move(pool)),
      budget_bytes_(budget_bytes > 0 ? budget_bytes : INT64_MAX),
      partitions_(std::max(1, num_partitions)) {
  if (metrics != nullptr) {
    pages_written_counter_ =
        metrics->FindOrRegister("exchange.spool.page.written");
    bytes_written_counter_ =
        metrics->FindOrRegister("exchange.spool.byte.written");
    bytes_raw_counter_ = metrics->FindOrRegister("exchange.spool.byte.raw");
    bytes_read_counter_ = metrics->FindOrRegister("exchange.spool.byte.read");
    pages_replayed_counter_ =
        metrics->FindOrRegister("exchange.spool.page.replayed");
    partition_broken_counter_ =
        metrics->FindOrRegister("exchange.spool.partition.broken");
  }
}

ExchangeSpool::~ExchangeSpool() {
  // Each partition's BlockFile deletes its file.
  if (pool_ != nullptr && pool_reserved_ > 0) pool_->Release(pool_reserved_);
}

Status ExchangeSpool::Refusal(const Partition& part) {
  if (!part.broken && !part.sealed) return Status::OK();
  return Status::Unavailable(std::string("exchange spool partition is ") +
                             (part.broken ? "broken" : "sealed"));
}

void ExchangeSpool::BreakLocked(Partition* part) {
  part->broken = true;
  if (part->file != nullptr) (void)part->file->Close();
  if (partition_broken_counter_ != nullptr) partition_broken_counter_->Add(1);
}

std::string ExchangeSpool::PartitionPath(int partition) const {
  return dir_ + "/part-" + std::to_string(partition) + ".spool";
}

Status ExchangeSpool::Append(int partition, const Page& page) {
  if (page.empty()) return Status::OK();
  // The whole append (encode + compress + write) counts as spill I/O for
  // blocked-time attribution and records a spool-write span.
  BlockedTimer blocked(BlockedKind::kSpillIo);
  TraceEventScope span(TraceKind::kSpoolWrite, "spool_write_page");
  {
    std::lock_guard<std::mutex> lock(mu_);
    RETURN_IF_ERROR(Refusal(partitions_[partition]));
  }
  // Encode, compress and checksum outside the spool-wide lock: every
  // producer task of a stage tees through one spool, and compression
  // dominates the append, so doing it under mu_ would serialize the
  // producers. Only numbering, the write and accounting need the lock.
  Status st = FaultInjector::Global().Hit("exchange.spool.write");
  EncodedBlock block;
  if (st.ok()) st = EncodeBlock(page, CompressionKind::kSnappy, &block);
  std::lock_guard<std::mutex> lock(mu_);
  Partition& part = partitions_[partition];
  // A concurrent poison/seal may have won while this append compressed;
  // nothing was written, so the append neither breaks the partition nor
  // double-counts it.
  RETURN_IF_ERROR(Refusal(part));
  if (st.ok()) st = AppendBlockLocked(&part, partition, page, block);
  if (!st.ok()) {
    // One failed append poisons the partition: its spool is now incomplete,
    // and an incomplete spool replayed later would silently drop rows. The
    // coordinator's recovery ladder falls through to restart-once instead.
    BreakLocked(&part);
  } else {
    span.SetArg("bytes", block.size());
  }
  return st;
}

Status ExchangeSpool::AppendBlockLocked(Partition* part, int partition,
                                        const Page& page,
                                        const EncodedBlock& block) {
  int64_t bytes = block.size();
  if (part->file == nullptr) {
    part->file = std::make_unique<BlockFile>(fs_, PartitionPath(partition));
    RETURN_IF_ERROR(part->file->Create(page));
    bytes += static_cast<int64_t>(part->file->size());  // the header
  }
  if (bytes_spooled_ + bytes > budget_bytes_) {
    return Status::ResourceExhausted(
        "exchange spool byte budget exceeded (exchange_spool_budget_bytes)");
  }
  if (pool_ != nullptr) {
    RETURN_IF_ERROR(pool_->Reserve(bytes));
    pool_reserved_ += bytes;
  }
  RETURN_IF_ERROR(part->file->Append(block));
  bytes_spooled_ += bytes;
  part->pages += 1;
  if (pages_written_counter_ != nullptr) pages_written_counter_->Add(1);
  if (bytes_written_counter_ != nullptr) bytes_written_counter_->Add(bytes);
  if (bytes_raw_counter_ != nullptr) bytes_raw_counter_->Add(block.raw_bytes);
  return Status::OK();
}

Status ExchangeSpool::Seal(int partition) {
  std::lock_guard<std::mutex> lock(mu_);
  Partition& part = partitions_[partition];
  if (part.sealed) return Status::OK();
  part.sealed = true;
  Status st = part.file == nullptr ? Status::OK() : part.file->Close();
  if (!st.ok()) BreakLocked(&part);
  return st;
}

bool ExchangeSpool::broken(int partition) const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitions_[partition].broken;
}

int64_t ExchangeSpool::pages_spooled(int partition) const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitions_[partition].pages;
}

int64_t ExchangeSpool::bytes_spooled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_spooled_;
}

Result<std::unique_ptr<ExchangeSpool::Reader>> ExchangeSpool::OpenReader(
    int partition) {
  RETURN_IF_ERROR(Seal(partition));
  BlockFile* file = nullptr;  // null = nothing was ever spooled
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Partition& part = partitions_[partition];
    if (part.broken) {
      return Status::Unavailable(
          "exchange spool partition is broken; replay unavailable");
    }
    file = part.file.get();
  }
  auto reader = std::unique_ptr<Reader>(new Reader());
  reader->pages_replayed_counter_ = pages_replayed_counter_;
  if (file == nullptr) return reader;  // an empty stream
  // Sealed: no append touches the file any more.
  BlockedTimer blocked(BlockedKind::kSpillIo);
  TraceEventScope span(TraceKind::kSpoolRead, "spool_open_partition");
  RETURN_IF_ERROR(FaultInjector::Global().Hit("exchange.spool.read"));
  ASSIGN_OR_RETURN(auto readers,
                   file->Read({file->Blocks()}, bytes_read_counter_));
  reader->blocks_ = std::move(readers.front());
  return reader;
}

Result<std::optional<Page>> ExchangeSpool::Reader::Next() {
  if (blocks_ == nullptr || blocks_->AtEnd()) return std::optional<Page>();
  BlockedTimer blocked(BlockedKind::kSpillIo);
  TraceEventScope span(TraceKind::kSpoolRead, "spool_read_page");
  RETURN_IF_ERROR(FaultInjector::Global().Hit("exchange.spool.read"));
  int64_t bytes = 0;
  ASSIGN_OR_RETURN(std::optional<Page> page, blocks_->Next(&bytes));
  if (pages_replayed_counter_ != nullptr) pages_replayed_counter_->Add(1);
  span.SetArg("bytes", bytes);
  return page;
}

}  // namespace presto
