#ifndef PRESTO_LAKEFILE_READER_H_
#define PRESTO_LAKEFILE_READER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "presto/connector/pushdown.h"
#include "presto/fs/file_system.h"
#include "presto/lakefile/format.h"
#include "presto/lakefile/shred.h"
#include "presto/vector/page.h"

namespace presto {
namespace lakefile {

/// Feature toggles of the brand-new reader (Sections V.D–V.I). Disabling
/// individual toggles is how the ablation benches isolate each optimization;
/// all-on is the production configuration.
struct ReaderOptions {
  bool nested_column_pruning = true;  // read only required leaf columns
  bool predicate_pushdown = true;     // skip row groups via footer min/max
  bool dictionary_pushdown = true;    // skip row groups via dictionary pages
  bool page_skipping = true;          // skip data pages via per-page min/max (v2)
  bool lazy_reads = true;             // materialize projected cols for matching rows only
  bool vectorized = true;             // batch level/value decode
};

/// A single conjunct of a pushed-down scan predicate, bound to a leaf path
/// (maxrep==0 scalar leaves only, e.g. "base.city_id"). This is the same
/// struct the connector layer negotiates (`column` holds the dotted leaf
/// path), so accepted conjuncts flow into the reader without translation.
using LeafPredicate = SimplePredicate;

/// What to read: projected top-level columns (with optional nested pruning
/// to specific leaf paths) plus an AND-of-conjuncts predicate.
struct ScanSpec {
  /// Top-level field names in output order.
  std::vector<std::string> columns;
  /// Pruned leaf paths (dotted, e.g. "base.city_id"). Empty = all leaves of
  /// every projected column. Ignored when nested_column_pruning is off.
  std::vector<std::string> required_leaves;
  std::vector<LeafPredicate> predicates;
};

/// Observed work counters, reported by the reader benches and surfaced
/// through the scan operator into EXPLAIN ANALYZE / lakefile.* metrics.
struct ReaderStats {
  int64_t row_groups_total = 0;
  int64_t row_groups_scanned = 0;
  int64_t row_groups_skipped_stats = 0;
  int64_t row_groups_skipped_dictionary = 0;
  /// Page-granular pruning (format v2 multi-page chunks). Every data page of
  /// a chunk a scanned row group touches is counted once, by its final
  /// state: read + skipped_stats + skipped_lazy == total.
  int64_t pages_total = 0;          // data pages of all chunks examined
  int64_t pages_read = 0;           // pages actually read and decompressed
  int64_t pages_skipped_stats = 0;  // skipped via per-page min/max / null count
  int64_t pages_skipped_lazy = 0;   // skipped because no selected row needs them
  /// Rows excluded from late materialization of projected columns.
  int64_t rows_pruned_late = 0;
  /// Predicate row-evaluations answered on dictionary codes (no value
  /// materialization).
  int64_t dict_code_filter_hits = 0;
  int64_t bytes_read = 0;
  int64_t values_decoded = 0;
  int64_t rows_output = 0;
};

/// The brand-new reader: nested column pruning, columnar reads, predicate
/// pushdown, dictionary pushdown, lazy reads, vectorized decoding.
class NativeLakeFileReader {
 public:
  /// `footer` may come from a footer cache; when null it is parsed from the
  /// file tail.
  static Result<std::unique_ptr<NativeLakeFileReader>> Open(
      std::shared_ptr<RandomAccessFile> file, ReaderOptions options,
      std::shared_ptr<const FileFooter> footer = nullptr);

  /// Reads the next row group, returning only rows matching the predicate.
  /// Column types are pruned when nested_column_pruning is on. Returns
  /// nullopt after the last row group.
  Result<std::optional<Page>> NextBatch(const ScanSpec& spec);

  /// Output type of one projected column under this spec (pruning applied).
  Result<TypePtr> OutputColumnType(const ScanSpec& spec,
                                   const std::string& column) const;

  const FileFooter& footer() const { return *footer_; }
  const ReaderStats& stats() const { return stats_; }
  void ResetPosition() { next_group_ = 0; }

 private:
  NativeLakeFileReader(std::shared_ptr<RandomAccessFile> file,
                       std::shared_ptr<const FileFooter> footer,
                       ReaderOptions options)
      : file_(std::move(file)), footer_(std::move(footer)), options_(options) {}

  std::shared_ptr<RandomAccessFile> file_;
  std::shared_ptr<const FileFooter> footer_;
  ReaderOptions options_;
  size_t next_group_ = 0;
  ReaderStats stats_;
};

/// The original open-source reader baseline (Section V.C): reads ALL leaves
/// of every requested top-level column (no nested pruning, no stats or
/// dictionary skipping), materializes row-based records value by value, then
/// transforms the rows into columnar blocks. Predicates are left to the
/// engine.
class LegacyLakeFileReader {
 public:
  static Result<std::unique_ptr<LegacyLakeFileReader>> Open(
      std::shared_ptr<RandomAccessFile> file,
      std::shared_ptr<const FileFooter> footer = nullptr);

  /// Reads the next row group in full (all rows, full column types).
  Result<std::optional<Page>> NextBatch(const std::vector<std::string>& columns);

  const FileFooter& footer() const { return *footer_; }
  const ReaderStats& stats() const { return stats_; }

 private:
  LegacyLakeFileReader(std::shared_ptr<RandomAccessFile> file,
                       std::shared_ptr<const FileFooter> footer)
      : file_(std::move(file)), footer_(std::move(footer)) {}

  std::shared_ptr<RandomAccessFile> file_;
  std::shared_ptr<const FileFooter> footer_;
  size_t next_group_ = 0;
  ReaderStats stats_;
};

/// Parses a footer from the tail of a lakefile opened for random access
/// (two reads: the fixed trailer, then the footer body).
Result<FileFooter> ReadFooter(RandomAccessFile* file);

/// Applies nested column pruning to one column type: keeps only ROW fields
/// with at least one required leaf underneath (containers are kept whole).
/// `required_leaves` are dotted paths rooted at `column`; an empty list (or
/// no required leaf under the column) returns the full type.
Result<TypePtr> PruneColumnType(const std::string& column, const TypePtr& type,
                                const std::vector<std::string>& required_leaves);

}  // namespace lakefile
}  // namespace presto

#endif  // PRESTO_LAKEFILE_READER_H_
