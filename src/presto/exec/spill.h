#ifndef PRESTO_EXEC_SPILL_H_
#define PRESTO_EXEC_SPILL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "presto/common/metrics.h"
#include "presto/exec/block_file.h"
#include "presto/fs/file_system.h"
#include "presto/vector/page.h"

namespace presto {

/// Revocable-memory spill area for a single operator. When an operator's
/// memory reservation fails, it revokes itself: the in-memory state is
/// sorted (aggregation: by key hash; ORDER BY: by the sort keys), written out
/// as one run, and memory is released; on output the sorted runs are
/// merge-read back. All runs of one operator go to one block file,
/// `<dir>/spill-<seq>.blk`, created at the first run and deleted on
/// destruction; each run is an extent of it. The file lives behind the `fs`
/// layer (LocalFileSystem in production, MemoryFileSystem in tests) so the
/// fault injector's spill.write / spill.read points cover disk trouble the
/// same way they cover connector I/O.
///
/// Counters (per-query registry, may be null): spill.run.written (runs, not
/// files), spill.byte.written, spill.byte.read. Runs read to their ends add
/// exactly the written bytes, file header included, to spill.byte.read.
class Spiller {
 public:
  /// Spills to `<dir>/spill-<seq>.blk`, `seq` unique in the process.
  Spiller(FileSystem* fs, const std::string& dir, MetricsRegistry* metrics);

  /// Spills `pages` (already in run order, at least one) as one run. All
  /// pages of all runs share the column types of the first run's first page.
  Status SpillRun(const std::vector<Page>& pages);

  int num_runs() const { return static_cast<int>(runs_.size()); }
  int64_t total_bytes() const { return static_cast<int64_t>(file_.size()); }

  /// Closes the file and opens a reader per run, in spill order. The readers
  /// share one file handle, so one thread must drive them all. SpillRun
  /// fails afterwards.
  Result<std::vector<std::unique_ptr<BlockFileReader>>> OpenAllRuns();

 private:
  BlockFile file_;
  std::vector<BlockExtent> runs_;
  MetricsRegistry::Counter* runs_written_counter_ = nullptr;
  MetricsRegistry::Counter* bytes_written_counter_ = nullptr;
  MetricsRegistry::Counter* bytes_read_counter_ = nullptr;
};

/// One input of a k-way merge: a spill run read back page by page, or the
/// pages of a run that never left memory. Reading a spilled run counts as
/// spill I/O and hits the spill.read fault point once per block and once at
/// the end of the run.
class MergeSource {
 public:
  explicit MergeSource(std::unique_ptr<BlockFileReader> reader)
      : reader_(std::move(reader)) {}
  explicit MergeSource(std::vector<Page> pages)
      : memory_pages_(std::move(pages)) {}

  /// Moves page() to the run's next non-empty page; false at end of run.
  Result<bool> NextPage();
  const Page& page() const { return page_; }

 private:
  std::unique_ptr<BlockFileReader> reader_;  // null for a memory run
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

  SpillMergeCursor(std::vector<std::unique_ptr<BlockFileReader>> readers,
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

  HashOrderedMerge(std::vector<std::unique_ptr<BlockFileReader>> readers,
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
