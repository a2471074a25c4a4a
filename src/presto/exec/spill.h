#ifndef PRESTO_EXEC_SPILL_H_
#define PRESTO_EXEC_SPILL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "presto/common/bytes.h"
#include "presto/common/metrics.h"
#include "presto/fs/file_system.h"
#include "presto/vector/page.h"

namespace presto {

/// Self-describing page block in the spill column encoding, shared by spill
/// runs and the exchange spool: varint num_rows, varint num_columns, per
/// column a Type::ToString() string followed by the typed/boxed column data.
/// (SpillFile runs factor the types into a per-run header instead; the spool
/// appends pages incrementally, so each block carries its own types.)
Status SerializeSpillPage(const Page& page, ByteBuffer* out);
Result<Page> DeserializeSpillPage(ByteReader* reader);

/// Revocable-memory spill area for a single operator. When an operator's
/// memory reservation fails, it revokes itself: the in-memory state is
/// sorted (aggregation: by key hash; ORDER BY: by the sort keys), written out
/// as one run file, and memory is released; on output the sorted runs are
/// merge-read back. Runs live behind the `fs` layer
/// (LocalFileSystem in production, MemoryFileSystem in tests) so the fault
/// injector's spill.write / spill.read points cover disk trouble the same
/// way they cover connector I/O.
///
/// Run file format (columnar, self-describing):
///   header:  u32 magic, varint num_columns, per column a Type::ToString()
///            string (parsed back on read)
///   blocks:  varint block_bytes, then one page: varint num_rows, per
///            column u8 tag (typed flat or boxed), nulls, then raw typed
///            data or per-row serialized Values
///   trailer: varint 0 (end of run)
///
/// Counters (per-query registry, may be null): spill.run.written,
/// spill.byte.written, spill.byte.read. A run read to its end adds exactly
/// its written bytes to spill.byte.read.
class SpillFile {
 public:
  SpillFile(FileSystem* fs, std::string path, MetricsRegistry* metrics);

  /// Writes `pages` (already in run order) as one run and closes the file.
  /// All pages must share the column types of the first.
  Status WriteRun(const std::vector<Page>& pages);

  /// Bytes written by WriteRun.
  int64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

  /// Sequential page reader over a written run.
  class Reader {
   public:
    /// Returns the next page, or nullopt at end of run.
    Result<std::optional<Page>> Next();

   private:
    friend class SpillFile;
    /// Counts `bytes` of the run as read. Header, blocks and end marker all
    /// count, so a run read to its end reads exactly bytes_written().
    void CountRead(int64_t bytes);

    std::shared_ptr<RandomAccessFile> file_;
    std::vector<TypePtr> types_;
    uint64_t offset_ = 0;
    MetricsRegistry::Counter* bytes_read_counter_ = nullptr;
  };

  Result<std::unique_ptr<Reader>> OpenReader() const;

  /// Deletes the run file (best effort; called by the owning Spiller).
  void Remove();

 private:
  FileSystem* fs_;
  std::string path_;
  int64_t bytes_written_ = 0;
  MetricsRegistry::Counter* runs_written_counter_ = nullptr;
  MetricsRegistry::Counter* bytes_written_counter_ = nullptr;
  MetricsRegistry::Counter* bytes_read_counter_ = nullptr;
};

/// Owns the spill files of one operator instance: hands out uniquely named
/// run files under `<dir>/` and deletes them all on destruction.
class Spiller {
 public:
  Spiller(FileSystem* fs, std::string dir, MetricsRegistry* metrics);
  ~Spiller();

  Spiller(const Spiller&) = delete;
  Spiller& operator=(const Spiller&) = delete;

  /// Spills `pages` (already in run order) as one run.
  Status SpillRun(const std::vector<Page>& pages);

  int num_runs() const { return static_cast<int>(runs_.size()); }
  int64_t total_bytes() const { return total_bytes_; }

  /// Opens a reader per run, in spill order.
  Result<std::vector<std::unique_ptr<SpillFile::Reader>>> OpenAllRuns() const;

 private:
  FileSystem* fs_;
  std::string dir_;
  MetricsRegistry* metrics_;
  std::vector<std::unique_ptr<SpillFile>> runs_;
  int64_t total_bytes_ = 0;
};

/// One input of a k-way merge: a spill run read back page by page, or the
/// pages of a run that never left memory.
class MergeSource {
 public:
  explicit MergeSource(std::unique_ptr<SpillFile::Reader> reader)
      : reader_(std::move(reader)) {}
  explicit MergeSource(std::vector<Page> pages)
      : memory_pages_(std::move(pages)) {}

  /// Moves page() to the run's next non-empty page; false at end of run.
  Result<bool> NextPage();
  const Page& page() const { return page_; }

 private:
  std::unique_ptr<SpillFile::Reader> reader_;  // null for a memory run
  std::vector<Page> memory_pages_;
  size_t memory_index_ = 0;
  Page page_;
};

/// Streaming k-way merge over sorted spill runs plus one final in-memory
/// run (the ORDER BY spill). `Comparator(page_a, row_a, page_b, row_b)`
/// returns <0, 0, >0 and must match the order the runs were written in. A
/// binary heap ordered by (comparator, source index) yields the rows one at a
/// time in O(log runs) comparisons each; equal rows come lowest source first,
/// so the merge is stable in run order. Callers batch rows back into pages.
class SpillMergeCursor {
 public:
  using Comparator = std::function<int(const Page&, size_t, const Page&, size_t)>;

  SpillMergeCursor(std::vector<std::unique_ptr<SpillFile::Reader>> readers,
                   std::vector<Page> in_memory_run, Comparator cmp);

  /// Positions on the smallest remaining row. Returns false at end of data.
  Result<bool> Advance();

  /// Current row (valid after Advance() returned true).
  const Page& page() const { return sources_[heap_[0]].source.page(); }
  size_t row() const { return sources_[heap_[0]].row; }

 private:
  struct Source {
    explicit Source(MergeSource s) : source(std::move(s)) {}
    MergeSource source;
    size_t row = 0;
  };

  bool Less(size_t a, size_t b) const;

  std::vector<Source> sources_;
  std::vector<size_t> heap_;  // source indices; heap_[0] is the current row
  Comparator cmp_;
  bool started_ = false;
};

/// Streaming k-way merge over runs ordered by the 64-bit content hash of
/// their leading `num_keys` columns (kernels::HashPage; row order breaks
/// ties), the aggregation spill. A binary heap on (current hash, source
/// index) merges the runs; the merged stream is cut into batches, each
/// ending only at a hash change, so all rows of one key land in one batch
/// and a batch can be aggregated on its own. Equal keys must hash equally
/// in every run, which holds for content hashes (FlatVector::HashAt folds
/// -0.0 into 0.0 and every NaN into one NaN) and not for hashes of interned
/// ids. The working set is one
/// page per run plus the batch.
class HashOrderedMerge {
 public:
  /// Rows [begin, end) of one run page, with the page's key hashes.
  struct Slice {
    Page page;
    std::shared_ptr<const std::vector<uint64_t>> hashes;
    size_t begin = 0;
    size_t end = 0;
  };

  HashOrderedMerge(std::vector<std::unique_ptr<SpillFile::Reader>> readers,
                   std::vector<std::vector<Page>> memory_runs,
                   size_t num_keys);

  /// The next batch: at least `min_rows` rows unless the runs end first,
  /// then up to the next hash change. Slices come in source order, so each
  /// key's rows fold in run order. Empty at end of data.
  Result<std::vector<Slice>> NextBatch(size_t min_rows);

 private:
  struct Source {
    explicit Source(MergeSource s) : source(std::move(s)) {}
    MergeSource source;
    std::shared_ptr<const std::vector<uint64_t>> hashes;
    size_t row = 0;
    size_t slice_begin = 0;
    bool exhausted = false;
  };
  struct HeapEntry {
    uint64_t hash = 0;
    uint32_t source = 0;
    bool operator<(const HeapEntry& o) const {
      return hash != o.hash ? hash < o.hash : source < o.source;
    }
  };

  /// Loads the source's next page and hashes its keys; false at end of run.
  Result<bool> LoadPage(Source* s);

  std::vector<Source> sources_;
  std::vector<HeapEntry> heap_;  // heap_[0] is the smallest current row
  std::vector<int> key_channels_;
  bool started_ = false;
};

}  // namespace presto

#endif  // PRESTO_EXEC_SPILL_H_
