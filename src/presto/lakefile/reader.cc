#include "presto/lakefile/reader.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>

#include "presto/common/fault_injection.h"
#include "presto/common/trace.h"
#include "presto/vector/vector_builder.h"

namespace presto {
namespace lakefile {

namespace {

// ===========================================================================
// Low-level decoding
// ===========================================================================

// Vectorized level decode: whole RLE runs at a time (memset-style fills).
Status DecodeLevelsVectorized(ByteReader* reader, size_t count,
                              std::vector<uint8_t>* out) {
  out->resize(count);
  size_t filled = 0;
  while (filled < count) {
    ASSIGN_OR_RETURN(uint64_t run, reader->ReadVarint());
    ASSIGN_OR_RETURN(uint8_t value, reader->ReadU8());
    if (filled + run > count) return Status::Corruption("level run overflow");
    std::memset(out->data() + filled, value, run);
    filled += run;
  }
  return Status::OK();
}

// Per-entry level decode: re-enters the RLE state machine for every single
// entry (the per-triplet overhead the vectorized reader removes).
Status DecodeLevelsScalar(ByteReader* reader, size_t count,
                          std::vector<uint8_t>* out) {
  out->resize(count);
  uint64_t run_remaining = 0;
  uint8_t run_value = 0;
  for (size_t i = 0; i < count; ++i) {
    if (run_remaining == 0) {
      ASSIGN_OR_RETURN(run_remaining, reader->ReadVarint());
      ASSIGN_OR_RETURN(run_value, reader->ReadU8());
      if (run_remaining == 0) return Status::Corruption("empty level run");
    }
    (*out)[i] = run_value;
    --run_remaining;
  }
  if (run_remaining != 0) return Status::Corruption("level run underflow");
  return Status::OK();
}

Status DecodeLevels(ByteReader* reader, size_t count, bool vectorized,
                    std::vector<uint8_t>* out) {
  return vectorized ? DecodeLevelsVectorized(reader, count, out)
                    : DecodeLevelsScalar(reader, count, out);
}

// Decoded dictionary page of one column chunk (pages share it).
struct Dictionary {
  bool present = false;
  std::vector<int64_t> ints;
  std::vector<std::string> strings;

  size_t cardinality() const {
    return std::max(ints.size(), strings.size());
  }
};

// One raw data page: header plus decompressed body (rep | def | values).
struct RawPage {
  PageHeader header;
  std::vector<uint8_t> body;
};

Result<std::vector<uint8_t>> ReadRegion(RandomAccessFile* file, uint64_t offset,
                                        size_t n, ReaderStats* stats) {
  std::vector<uint8_t> bytes(n);
  // Scan I/O is blocked time: attribute it like exchange/spill waits so
  // EXPLAIN ANALYZE and traces show where a scan-bound query sits.
  BlockedTimer timer(BlockedKind::kScanIo);
  size_t done = 0;
  while (done < n) {
    ASSIGN_OR_RETURN(size_t got,
                     file->Read(offset + done, n - done, bytes.data() + done));
    if (got == 0) return Status::Corruption("unexpected EOF in lakefile");
    done += got;
  }
  stats->bytes_read += static_cast<int64_t>(n);
  return bytes;
}

Result<std::pair<PageHeader, std::vector<uint8_t>>> ParsePage(
    ByteReader* reader, CompressionKind compression) {
  ASSIGN_OR_RETURN(PageHeader header, DeserializePageHeader(reader));
  if (header.compressed_bytes > reader->remaining()) {
    return Status::Corruption("page body exceeds chunk bounds");
  }
  ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                   Decompress(compression, reader->current(),
                              header.compressed_bytes));
  RETURN_IF_ERROR(reader->Skip(header.compressed_bytes));
  if (body.size() !=
      static_cast<size_t>(header.rep_bytes) + header.def_bytes + header.value_bytes) {
    return Status::Corruption("page body size mismatch");
  }
  return std::make_pair(header, std::move(body));
}

// Reads the dictionary page of a chunk when present (dictionary pushdown
// probe, code-bitmap filtering, and value materialization all share it).
Result<Dictionary> MaybeReadDictionary(RandomAccessFile* file, const Leaf& leaf,
                                       const ColumnChunkMeta& meta,
                                       CompressionKind compression,
                                       ReaderStats* stats) {
  Dictionary dict;
  if (meta.encoding != PageEncoding::kDictionary) return dict;
  ASSIGN_OR_RETURN(std::vector<uint8_t> raw,
                   ReadRegion(file, meta.dictionary_offset,
                              meta.dictionary_bytes, stats));
  ByteReader reader(raw.data(), raw.size());
  ASSIGN_OR_RETURN(auto page, ParsePage(&reader, compression));
  dict.present = true;
  ByteReader values(page.second.data(), page.second.size());
  if (leaf.type->kind() == TypeKind::kVarchar) {
    dict.strings.reserve(page.first.num_entries);
    for (uint32_t i = 0; i < page.first.num_entries; ++i) {
      ASSIGN_OR_RETURN(std::string s, values.ReadString());
      dict.strings.push_back(std::move(s));
    }
  } else {
    dict.ints.resize(page.first.num_entries);
    RETURN_IF_ERROR(values.ReadRaw(dict.ints.data(),
                                   page.first.num_entries * sizeof(int64_t)));
  }
  return dict;
}

// ===========================================================================
// Stage 1 — PageReader: iterates one chunk's data pages, range-reading and
// decompressing only the pages the caller asks for. v1 chunks (no footer
// page list) synthesize a single page covering the whole chunk, so the
// page-granular pipeline handles both format versions uniformly.
// ===========================================================================

class PageReader {
 public:
  PageReader(RandomAccessFile* file, const ColumnChunkMeta& meta,
             uint64_t group_rows, CompressionKind compression,
             ReaderStats* stats)
      : file_(file), meta_(meta), compression_(compression), stats_(stats) {
    if (!meta.pages.empty()) {
      pages_ = meta.pages;
    } else {
      DataPageMeta page;
      page.offset = meta.dictionary_bytes;  // data follows the dict page
      page.total_bytes = meta.total_bytes - meta.dictionary_bytes;
      page.num_entries = meta.num_entries;
      page.num_rows = group_rows;
      page.first_row = 0;
      page.null_count = meta.null_count;
      page.has_stats = meta.has_stats;
      page.min = meta.min;
      page.max = meta.max;
      pages_.push_back(std::move(page));
    }
  }

  size_t num_pages() const { return pages_.size(); }
  const DataPageMeta& page_meta(size_t i) const { return pages_[i]; }

  /// Reads and decompresses page `i`. Fault point `lakefile.page.read`
  /// mirrors connector.split.read: an armed injector turns page reads into
  /// classified I/O errors so chaos tests can prove a failed page never
  /// produces wrong results.
  Result<RawPage> Read(size_t i) {
    RETURN_IF_ERROR(FaultInjector::Global().Hit("lakefile.page.read"));
    const DataPageMeta& pm = pages_[i];
    ASSIGN_OR_RETURN(std::vector<uint8_t> raw,
                     ReadRegion(file_, meta_.offset + pm.offset, pm.total_bytes,
                                stats_));
    ByteReader reader(raw.data(), raw.size());
    ASSIGN_OR_RETURN(auto parsed, ParsePage(&reader, compression_));
    if (parsed.first.num_entries != pm.num_entries) {
      return Status::Corruption("page entry count mismatch in " +
                                meta_.leaf_path);
    }
    return RawPage{parsed.first, std::move(parsed.second)};
  }

 private:
  RandomAccessFile* file_;
  const ColumnChunkMeta& meta_;
  CompressionKind compression_;
  ReaderStats* stats_;
  std::vector<DataPageMeta> pages_;
};

// ===========================================================================
// Stage 2 — LevelDecoder: rep/def levels of one page.
// ===========================================================================

struct PageLevels {
  std::vector<uint8_t> rep;  // empty for unrepeated leaves
  std::vector<uint8_t> def;
};

Result<PageLevels> DecodePageLevels(const Leaf& leaf, const RawPage& page,
                                    bool vectorized) {
  PageLevels levels;
  const PageHeader& header = page.header;
  ByteReader rep_reader(page.body.data(), header.rep_bytes);
  ByteReader def_reader(page.body.data() + header.rep_bytes, header.def_bytes);
  if (leaf.max_rep > 0) {
    RETURN_IF_ERROR(
        DecodeLevels(&rep_reader, header.num_entries, vectorized, &levels.rep));
  }
  RETURN_IF_ERROR(
      DecodeLevels(&def_reader, header.num_entries, vectorized, &levels.def));
  return levels;
}

// ===========================================================================
// Stage 3 — TypedDecoder: value decode of one page, appended into a
// DecodedLeaf. `selected_entries` (page-relative, sorted) materializes only
// those entries (late materialization); skipped values are never copied.
// ===========================================================================

// The value section of a page body (after its rep and def levels).
ByteReader ValueReader(const RawPage& page) {
  const PageHeader& header = page.header;
  return ByteReader(page.body.data() + header.rep_bytes + header.def_bytes,
                    header.value_bytes);
}

// Appends one page's selected entries to a DecodedLeaf, one method per value
// encoding. Entries are walked in order so variable-width values can be
// skipped without being copied.
struct PageValueDecoder {
  const Leaf& leaf;
  const PageLevels& levels;
  const std::vector<int32_t>* selection;  // null: every entry
  DecodedLeaf* out;
  ReaderStats* stats;
  ByteReader values;

  Status DictionaryCoded(const Dictionary& dict) {
    const bool strings = leaf.type->kind() == TypeKind::kVarchar;
    return ForEachValue([&](bool selected) -> Status {
      ASSIGN_OR_RETURN(uint64_t index, values.ReadVarint());
      if (!selected) return Status::OK();
      if (index >= dict.cardinality()) {
        return Status::Corruption("dictionary index out of range");
      }
      if (strings) {
        out->strings.push_back(dict.strings[index]);
      } else {
        out->ints.push_back(dict.ints[index]);
      }
      return Status::OK();
    });
  }

  Status Varchar() {
    return ForEachValue([&](bool selected) -> Status {
      ASSIGN_OR_RETURN(uint64_t len, values.ReadVarint());
      if (len > values.remaining()) {
        return Status::Corruption("string value exceeds page bounds");
      }
      if (!selected) return values.Skip(len);  // lazy: never copied
      std::string s(len, '\0');
      RETURN_IF_ERROR(values.ReadRaw(s.data(), len));
      out->strings.push_back(std::move(s));
      return Status::OK();
    });
  }

  Status Boolean() {
    return ForEachValue([&](bool selected) -> Status {
      ASSIGN_OR_RETURN(uint8_t b, values.ReadU8());
      if (selected) out->bools.push_back(b);
      return Status::OK();
    });
  }

  // 8-byte values (BIGINT-class and DOUBLE): a dense page is one bulk copy;
  // otherwise the fixed width allows O(1) skips.
  Status FixedWidth(bool vectorized) {
    const bool is_double = leaf.type->kind() == TypeKind::kDouble;
    const size_t width = 8;
    const size_t total_values = values.remaining() / width;
    if (selection == nullptr && vectorized &&
        levels.def.size() == total_values) {
      out->def.insert(out->def.end(), levels.def.begin(), levels.def.end());
      out->rep.insert(out->rep.end(), levels.rep.begin(), levels.rep.end());
      void* dest = is_double ? static_cast<void*>(Grow(&out->doubles, total_values))
                             : static_cast<void*>(Grow(&out->ints, total_values));
      RETURN_IF_ERROR(values.ReadRaw(dest, total_values * width));
      stats->values_decoded += static_cast<int64_t>(total_values);
      return Status::OK();
    }
    size_t value_index = 0;
    return ForEachValue([&](bool selected) -> Status {
      size_t my_index = value_index++;
      if (!selected) return Status::OK();
      RETURN_IF_ERROR(values.Seek(my_index * width));
      if (is_double) {
        ASSIGN_OR_RETURN(double v, values.ReadDouble());
        out->doubles.push_back(v);
      } else {
        ASSIGN_OR_RETURN(int64_t v, values.ReadI64());
        out->ints.push_back(v);
      }
      return Status::OK();
    });
  }

  template <typename T>
  static T* Grow(std::vector<T>* v, size_t n) {
    size_t base = v->size();
    v->resize(base + n);
    return v->data() + base;
  }

  // Walks the page's entries in order. A selected entry appends its levels;
  // every entry with a value calls on_value(selected), which consumes the
  // value and appends it when selected.
  template <typename F>
  Status ForEachValue(F&& on_value) {
    size_t cursor = 0;
    for (size_t e = 0; e < levels.def.size(); ++e) {
      bool selected = true;
      if (selection != nullptr) {
        selected = cursor < selection->size() &&
                   (*selection)[cursor] == static_cast<int32_t>(e);
        if (selected) ++cursor;
      }
      if (selected) {
        out->def.push_back(levels.def[e]);
        if (leaf.max_rep > 0) out->rep.push_back(levels.rep[e]);
      }
      if (levels.def[e] != leaf.max_def) continue;
      RETURN_IF_ERROR(on_value(selected));
      if (selected) ++stats->values_decoded;
    }
    return Status::OK();
  }
};

Status DecodePageValues(const Leaf& leaf, const Dictionary& dict,
                        const RawPage& page, const PageLevels& levels,
                        bool vectorized,
                        const std::vector<int32_t>* selected_entries,
                        DecodedLeaf* out, ReaderStats* stats) {
  PageValueDecoder decoder{leaf, levels, selected_entries,
                           out,  stats,  ValueReader(page)};
  if (dict.present) return decoder.DictionaryCoded(dict);
  switch (leaf.type->kind()) {
    case TypeKind::kVarchar:
      return decoder.Varchar();
    case TypeKind::kBoolean:
      return decoder.Boolean();
    default:
      return decoder.FixedWidth(vectorized);
  }
}

// ===========================================================================
// Predicates
// ===========================================================================

bool CompareMatches(LeafPredicate::Op op, int cmp) {
  switch (op) {
    case LeafPredicate::Op::kEq:
      return cmp == 0;
    case LeafPredicate::Op::kNe:
      return cmp != 0;
    case LeafPredicate::Op::kLt:
      return cmp < 0;
    case LeafPredicate::Op::kLe:
      return cmp <= 0;
    case LeafPredicate::Op::kGt:
      return cmp > 0;
    case LeafPredicate::Op::kGe:
      return cmp >= 0;
    case LeafPredicate::Op::kIn:
      return cmp == 0;
  }
  return false;
}

/// Can any value in [min, max] satisfy the predicate? Shared by row-group
/// (chunk stats) and page (per-page stats) skipping.
bool RangeMayMatch(bool has_stats, const Value& min, const Value& max,
                   const LeafPredicate& pred) {
  if (!has_stats) return true;
  switch (pred.op) {
    case LeafPredicate::Op::kEq:
      return pred.values[0].Compare(min) >= 0 &&
             pred.values[0].Compare(max) <= 0;
    case LeafPredicate::Op::kIn: {
      for (const Value& v : pred.values) {
        if (v.Compare(min) >= 0 && v.Compare(max) <= 0) return true;
      }
      return false;
    }
    case LeafPredicate::Op::kNe:
      // Only skippable when every value equals the operand.
      return !(min.Compare(max) == 0 && min.Compare(pred.values[0]) == 0);
    case LeafPredicate::Op::kLt:
      return min.Compare(pred.values[0]) < 0;
    case LeafPredicate::Op::kLe:
      return min.Compare(pred.values[0]) <= 0;
    case LeafPredicate::Op::kGt:
      return max.Compare(pred.values[0]) > 0;
    case LeafPredicate::Op::kGe:
      return max.Compare(pred.values[0]) >= 0;
  }
  return true;
}

bool PageMayMatch(const DataPageMeta& page, const LeafPredicate& pred) {
  // An all-NULL page can never satisfy a conjunct (NULL never matches),
  // so it is skippable even without min/max stats.
  if (page.null_count == static_cast<int64_t>(page.num_entries)) return false;
  return RangeMayMatch(page.has_stats, page.min, page.max, pred);
}

/// Does any dictionary value satisfy an equality/IN predicate?
bool DictionaryMayMatch(const Dictionary& dict, const Leaf& leaf,
                        const LeafPredicate& pred) {
  if (pred.op != LeafPredicate::Op::kEq && pred.op != LeafPredicate::Op::kIn) {
    return true;
  }
  if (leaf.type->kind() == TypeKind::kVarchar) {
    for (const std::string& v : dict.strings) {
      for (const Value& operand : pred.values) {
        if (operand.is_string() && operand.string_value() == v) return true;
      }
    }
    return false;
  }
  for (int64_t v : dict.ints) {
    for (const Value& operand : pred.values) {
      if (operand.is_int() && operand.int_value() == v) return true;
    }
  }
  return false;
}

template <typename T>
int ThreeWay(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// Whether any operand of the conjunct matches; `compare(operand)` is the
/// value's three-way comparison with it.
template <typename Compare>
bool AnyOperandMatches(const LeafPredicate& pred, Compare&& compare) {
  return std::any_of(pred.values.begin(), pred.values.end(),
                     [&](const Value& o) { return CompareMatches(pred.op, compare(o)); });
}

/// Evaluates one conjunct over a decoded (maxrep==0) leaf; clears the `mask`
/// bits (one per entry) of entries that do not match.
void ApplyPredicate(const DecodedLeaf& leaf, const LeafPredicate& pred,
                    uint8_t* mask) {
  const int max_def = leaf.leaf.max_def;
  size_t value_cursor = 0;
  for (size_t e = 0; e < leaf.def.size(); ++e) {
    bool has_value = leaf.def[e] == max_def;
    if (!has_value) {
      mask[e] = 0;  // NULL never matches
      continue;
    }
    size_t v = value_cursor++;
    if (mask[e] == 0) continue;
    bool matches = false;
    switch (leaf.leaf.type->kind()) {
      case TypeKind::kVarchar:
        matches = AnyOperandMatches(pred, [&](const Value& o) {
          return leaf.strings[v].compare(o.string_value());
        });
        break;
      case TypeKind::kDouble:
        matches = AnyOperandMatches(pred, [&](const Value& o) {
          return ThreeWay(leaf.doubles[v], o.AsDouble());
        });
        break;
      case TypeKind::kBoolean:
        matches = AnyOperandMatches(pred, [&](const Value& o) {
          return static_cast<int>(leaf.bools[v] != 0) -
                 static_cast<int>(o.bool_value());
        });
        break;
      default:
        matches = AnyOperandMatches(pred, [&](const Value& o) {
          return ThreeWay(leaf.ints[v], o.is_int() ? o.int_value()
                                                   : static_cast<int64_t>(o.AsDouble()));
        });
        break;
    }
    if (!matches) mask[e] = 0;
  }
  // A fully-consumed cursor is not required: trailing entries without values
  // were already masked out above.
}

/// Translates a predicate into a per-dictionary-code match bitmap: the
/// conjunct is evaluated once per distinct value instead of once per row, and
/// rows are then filtered by testing their codes — no value materialization.
/// Implemented by running ApplyPredicate over the dictionary itself (each
/// code is one "row" of a synthetic dense leaf).
std::vector<uint8_t> BuildCodeBitmap(const Leaf& leaf, const Dictionary& dict,
                                     const LeafPredicate& pred) {
  DecodedLeaf dl;
  dl.leaf = leaf;
  size_t cardinality = dict.cardinality();
  dl.def.assign(cardinality, static_cast<uint8_t>(leaf.max_def));
  if (leaf.type->kind() == TypeKind::kVarchar) {
    dl.strings = dict.strings;
  } else {
    dl.ints = dict.ints;
  }
  std::vector<uint8_t> bitmap(cardinality, 1);
  ApplyPredicate(dl, pred, bitmap.data());
  return bitmap;
}

// ===========================================================================
// Stage 4 — ColumnReader: one leaf column chunk of one row group. It owns
// the chunk's PageReader, its dictionary (decoded at most once) and one state
// per data page. The filter stage and the projection stage both go through
// it, so a page is fetched from the file at most once per row group, and
// Tally counts each page once, by its final state.
// ===========================================================================

enum class PageState : uint8_t { kUntouched, kSkippedStats, kSkippedLazy, kRead };

using Conjuncts = std::vector<const LeafPredicate*>;

// What the column readers of one scan share.
struct ScanContext {
  RandomAccessFile* file;
  CompressionKind compression;
  const ReaderOptions& options;
  ReaderStats* stats;
};

class ColumnReader {
 public:
  // Validates the footer's page list before anything indexes with it.
  static Result<std::unique_ptr<ColumnReader>> Open(
      const ScanContext& ctx, const Leaf& leaf, const ColumnChunkMeta& chunk,
      uint64_t group_rows, bool projected) {
    std::unique_ptr<ColumnReader> reader(
        new ColumnReader(ctx, leaf, chunk, group_rows, projected));
    RETURN_IF_ERROR(reader->ValidatePages(group_rows));
    return reader;
  }

  // Read on first use; a PLAIN chunk has none (`present` false) and costs
  // no read.
  Result<const Dictionary*> dictionary() {
    if (!dict_.has_value()) {
      ASSIGN_OR_RETURN(dict_, MaybeReadDictionary(ctx_.file, leaf_, chunk_,
                                                  ctx_.compression, ctx_.stats));
    }
    return &*dict_;
  }

  // Clears the mask bits of rows the conjuncts on this leaf reject. A page is
  // not read when an earlier filter leaf already rejected all its rows, or
  // when its stats exclude a conjunct; dictionary pages are filtered on codes.
  Status Filter(const Conjuncts& preds, std::vector<uint8_t>* mask) {
    ASSIGN_OR_RETURN(const Dictionary* dict, dictionary());
    std::vector<std::vector<uint8_t>> code_bitmaps;
    if (dict->present) {
      for (const LeafPredicate* pred : preds) {
        code_bitmaps.push_back(BuildCodeBitmap(leaf_, *dict, *pred));
      }
    }
    for (size_t i = 0; i < pages_.size(); ++i) {
      const DataPageMeta& pm = page_reader_.page_meta(i);
      uint8_t* rows = mask->data() + pm.first_row;
      uint8_t* rows_end = rows + pm.num_rows;
      if (std::find(rows, rows_end, 1) == rows_end) {
        pages_[i].state = PageState::kSkippedLazy;
        continue;
      }
      if (ctx_.options.page_skipping &&
          !std::all_of(preds.begin(), preds.end(), [&](const LeafPredicate* p) {
            return PageMayMatch(pm, *p);
          })) {
        std::fill(rows, rows_end, 0);
        pages_[i].state = PageState::kSkippedStats;
        continue;
      }
      ASSIGN_OR_RETURN(DataPage* page, Fetch(i));
      if (dict->present) {
        RETURN_IF_ERROR(FilterCodes(*page, code_bitmaps, rows));
      } else {
        DecodedLeaf values;
        values.leaf = leaf_;
        RETURN_IF_ERROR(Decode(*page, nullptr, &values));
        for (const LeafPredicate* pred : preds) ApplyPredicate(values, *pred, rows);
      }
      if (!projected_) page->Release();
    }
    return Status::OK();
  }

  // Decodes this leaf's projected entries: every page when `selection` is
  // null, else only the pages holding a selected row and only those rows.
  Status Project(const std::vector<int32_t>* selection, DecodedLeaf* out) {
    RETURN_IF_ERROR(dictionary().status());
    out->leaf = leaf_;
    std::vector<int32_t> page_rows;  // page-relative selected rows
    std::vector<int32_t> entries;    // ...as entries of a repeated leaf
    for (size_t i = 0; i < pages_.size(); ++i) {
      const DataPageMeta& pm = page_reader_.page_meta(i);
      const auto first = static_cast<int32_t>(pm.first_row);
      if (selection != nullptr) {
        auto begin = std::lower_bound(selection->begin(), selection->end(), first);
        auto end = std::lower_bound(begin, selection->end(),
                                    first + static_cast<int32_t>(pm.num_rows));
        if (begin == end) {  // no selected row falls in this page
          if (pages_[i].state == PageState::kUntouched) {
            pages_[i].state = PageState::kSkippedLazy;
          }
          continue;
        }
        page_rows.clear();
        for (auto it = begin; it != end; ++it) page_rows.push_back(*it - first);
      }
      ASSIGN_OR_RETURN(DataPage* page, Fetch(i));
      const std::vector<int32_t>* page_selection = nullptr;
      if (selection != nullptr) {
        page_selection = leaf_.max_rep == 0
                             ? &page_rows  // entry index == page-relative row
                             : RowEntries(page->levels.rep, page_rows, &entries);
      }
      RETURN_IF_ERROR(Decode(*page, page_selection, out));
      page->Release();
    }
    return Status::OK();
  }

  // An untouched page was needed by no stage (e.g. no row was selected).
  void Tally() const {
    ReaderStats& s = *ctx_.stats;
    s.pages_total += static_cast<int64_t>(pages_.size());
    for (const DataPage& page : pages_) {
      ++(page.state == PageState::kRead           ? s.pages_read
         : page.state == PageState::kSkippedStats ? s.pages_skipped_stats
                                                  : s.pages_skipped_lazy);
    }
  }

 private:
  struct DataPage {
    PageState state = PageState::kUntouched;
    std::optional<RawPage> raw;  // kept from the filter stage for projection
    PageLevels levels;

    void Release() {
      raw.reset();
      levels = PageLevels();
    }
  };

  ColumnReader(const ScanContext& ctx, const Leaf& leaf,
               const ColumnChunkMeta& chunk, uint64_t group_rows, bool projected)
      : ctx_(ctx),
        leaf_(leaf),
        chunk_(chunk),
        projected_(projected),
        page_reader_(ctx.file, chunk, group_rows, ctx.compression, ctx.stats),
        pages_(page_reader_.num_pages()) {}

  // Footer page metadata is untrusted: the filter mask is indexed by
  // first_row + r for r < num_rows, and an unrepeated leaf's entries by row.
  Status ValidatePages(uint64_t group_rows) const {
    uint64_t next_row = 0;
    for (size_t i = 0; i < page_reader_.num_pages(); ++i) {
      const DataPageMeta& pm = page_reader_.page_meta(i);
      if (pm.first_row != next_row || pm.num_rows > group_rows - next_row) {
        return Status::Corruption("pages do not tile the row group in " +
                                  leaf_.path);
      }
      if (leaf_.max_rep == 0 && pm.num_entries != pm.num_rows) {
        return Status::Corruption(
            "page entry count differs from its row count in " + leaf_.path);
      }
      next_row += pm.num_rows;
    }
    if (next_row != group_rows) {
      return Status::Corruption("pages do not cover the row group in " +
                                leaf_.path);
    }
    return Status::OK();
  }

  // Reads, decompresses and level-decodes page `i` the first time a stage
  // asks for it; a later ask in the same row group reuses it. A page is only
  // released after its leaf's last stage has used it.
  Result<DataPage*> Fetch(size_t i) {
    DataPage& page = pages_[i];
    if (page.raw.has_value()) return &page;
    ASSIGN_OR_RETURN(RawPage raw, page_reader_.Read(i));
    ASSIGN_OR_RETURN(page.levels,
                     DecodePageLevels(leaf_, raw, ctx_.options.vectorized));
    // A repeated leaf's rows expand to entries at their rep-level row
    // starts, so the page must start a row and hold num_rows starts.
    const std::vector<uint8_t>& rep = page.levels.rep;
    if (leaf_.max_rep > 0 &&
        (static_cast<uint64_t>(std::count(rep.begin(), rep.end(), 0)) !=
             page_reader_.page_meta(i).num_rows ||
         (!rep.empty() && rep[0] != 0))) {
      return Status::Corruption("page row starts differ from its row count in " +
                                leaf_.path);
    }
    page.raw = std::move(raw);
    page.state = PageState::kRead;
    return &page;
  }

  Status Decode(const DataPage& page, const std::vector<int32_t>* selection,
                DecodedLeaf* out) {
    return DecodePageValues(leaf_, *dict_, *page.raw, page.levels,
                            ctx_.options.vectorized, selection, out, ctx_.stats);
  }

  // Evaluates the conjuncts on a dictionary page's codes: no value is
  // materialized. Entries are rows here (filter leaves are unrepeated).
  Status FilterCodes(const DataPage& page,
                     const std::vector<std::vector<uint8_t>>& bitmaps,
                     uint8_t* rows) {
    ByteReader codes = ValueReader(*page.raw);
    for (size_t r = 0; r < page.levels.def.size(); ++r) {
      const bool has_value = page.levels.def[r] == leaf_.max_def;
      uint64_t code = 0;
      if (has_value) {
        ASSIGN_OR_RETURN(code, codes.ReadVarint());
      }
      if (rows[r] == 0) continue;
      if (!has_value) {
        rows[r] = 0;  // NULL never matches a pushed conjunct
        continue;
      }
      for (const std::vector<uint8_t>& bitmap : bitmaps) {
        if (code >= bitmap.size()) {
          return Status::Corruption("dictionary code out of range in " +
                                    leaf_.path);
        }
        ++ctx_.stats->dict_code_filter_hits;
        if (bitmap[code] == 0) {
          rows[r] = 0;
          break;
        }
      }
    }
    return Status::OK();
  }

  // The entries of the given page-relative rows of a repeated leaf: each row
  // runs from its rep-level start to the next one.
  static const std::vector<int32_t>* RowEntries(const std::vector<uint8_t>& rep,
                                                const std::vector<int32_t>& rows,
                                                std::vector<int32_t>* entries) {
    std::vector<int32_t> starts;
    for (size_t e = 0; e < rep.size(); ++e) {
      if (rep[e] == 0) starts.push_back(static_cast<int32_t>(e));
    }
    starts.push_back(static_cast<int32_t>(rep.size()));
    entries->clear();
    for (int32_t row : rows) {
      for (int32_t e = starts[row]; e < starts[row + 1]; ++e) entries->push_back(e);
    }
    return entries;
  }

  const ScanContext& ctx_;
  const Leaf& leaf_;
  const ColumnChunkMeta& chunk_;
  const bool projected_;
  PageReader page_reader_;
  std::optional<Dictionary> dict_;
  std::vector<DataPage> pages_;
};

// ===========================================================================
// Column resolution and the per-row-group scan
// ===========================================================================

bool AnyLeafUnder(const std::set<std::string>& required, const std::string& prefix) {
  auto it = required.lower_bound(prefix);
  if (it == required.end()) return false;
  return *it == prefix || it->rfind(prefix + ".", 0) == 0;
}

Result<TypePtr> PruneType(const std::string& prefix, const TypePtr& type,
                          const std::set<std::string>& required) {
  switch (type->kind()) {
    case TypeKind::kRow: {
      std::vector<std::string> names;
      std::vector<TypePtr> children;
      for (size_t i = 0; i < type->NumChildren(); ++i) {
        std::string child_prefix = prefix + "." + type->field_name(i);
        if (!AnyLeafUnder(required, child_prefix)) continue;
        ASSIGN_OR_RETURN(TypePtr child,
                         PruneType(child_prefix, type->child(i), required));
        names.push_back(type->field_name(i));
        children.push_back(std::move(child));
      }
      if (children.empty()) {
        return Status::InvalidArgument("no required leaves under " + prefix);
      }
      return Type::Row(std::move(names), std::move(children));
    }
    // Containers are kept whole once any leaf under them is required.
    case TypeKind::kArray:
    case TypeKind::kMap:
    default:
      return type;
  }
}

// The one column resolver: finds a top-level field of the file schema and
// prunes it to `required_leaves` (empty: the full field type).
Result<TypePtr> ResolveColumnType(const Type& schema, const std::string& column,
                                  const std::vector<std::string>& required_leaves) {
  auto field = schema.FindField(column);
  if (!field.has_value()) {
    return Status::NotFound("no column '" + column + "' in file schema");
  }
  return PruneColumnType(column, schema.child(*field), required_leaves);
}

// The leaves nested column pruning keeps; none (whole columns) when off.
const std::vector<std::string>& RequiredLeaves(const ScanSpec& spec,
                                               const ReaderOptions& options) {
  static const std::vector<std::string> kWholeColumns;
  return options.nested_column_pruning ? spec.required_leaves : kWholeColumns;
}

const ColumnChunkMeta* FindChunk(const RowGroupMeta& group,
                                 const std::string& path) {
  for (const ColumnChunkMeta& chunk : group.columns) {
    if (chunk.leaf_path == path) return &chunk;
  }
  return nullptr;
}

// What one ScanSpec reads from every row group: each touched leaf once (the
// filter leaves first, in predicate order), its conjuncts and whether it is
// projected, and each output column's type and leaves.
struct ScanPlan {
  struct LeafScan {
    Leaf leaf;
    Conjuncts preds;
    bool projected = false;
  };
  std::vector<LeafScan> leaves;
  std::vector<TypePtr> column_types;
  std::vector<std::vector<size_t>> column_leaves;  // indices into `leaves`

  size_t Touch(const Leaf& leaf) {
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (leaves[i].leaf.path == leaf.path) return i;
    }
    leaves.push_back({leaf, {}, false});
    return leaves.size() - 1;
  }
};

Result<ScanPlan> ResolveScan(const Type& schema, const ScanSpec& spec,
                             const std::vector<std::string>& required_leaves) {
  ScanPlan plan;
  ASSIGN_OR_RETURN(std::vector<Leaf> all, EnumerateLeaves(schema));
  for (const LeafPredicate& pred : spec.predicates) {
    auto leaf = std::find_if(all.begin(), all.end(), [&](const Leaf& l) {
      return l.path == pred.column;
    });
    if (leaf == all.end() || leaf->max_rep != 0) {
      return Status::InvalidArgument("predicate leaf must be non-repeated: " +
                                     pred.column);
    }
    plan.leaves[plan.Touch(*leaf)].preds.push_back(&pred);
  }
  for (const std::string& column : spec.columns) {
    ASSIGN_OR_RETURN(TypePtr type,
                     ResolveColumnType(schema, column, required_leaves));
    ASSIGN_OR_RETURN(std::vector<Leaf> leaves, EnumerateFieldLeaves(column, type));
    std::vector<size_t> indices;
    for (const Leaf& leaf : leaves) {
      indices.push_back(plan.Touch(leaf));
      plan.leaves[indices.back()].projected = true;
    }
    plan.column_types.push_back(std::move(type));
    plan.column_leaves.push_back(std::move(indices));
  }
  return plan;
}

// The rows of a group the filter kept, and how projection materializes them.
// Below ~7/8 selectivity it decodes only the selected rows ("lazy"); at or
// above it, decoding densely and emitting a zero-copy selection-vector wrap
// is cheaper than per-row gathering.
struct Selection {
  std::vector<int32_t> rows;
  bool all = false;
  bool lazy = false;
  bool wrap = false;

  Selection(const std::vector<uint8_t>& mask, bool lazy_reads) {
    for (size_t i = 0; i < mask.size(); ++i) {
      if (mask[i] != 0) rows.push_back(static_cast<int32_t>(i));
    }
    all = rows.size() == mask.size();
    wrap = lazy_reads && !all && rows.size() * 8 >= mask.size() * 7;
    lazy = lazy_reads && !all && !wrap;
  }
};

// One row group under one ScanPlan: a ColumnReader per touched leaf chunk.
class RowGroupScan {
 public:
  RowGroupScan(const ScanContext& ctx, const RowGroupMeta& group,
               const ScanPlan& plan)
      : ctx_(ctx), group_(group), plan_(plan) {}

  Status Open() {
    // Selection vectors index the group's rows as int32.
    if (group_.num_rows > static_cast<uint64_t>(INT32_MAX)) {
      return Status::Corruption("row group row count out of range");
    }
    for (const ScanPlan::LeafScan& scan : plan_.leaves) {
      const ColumnChunkMeta* chunk = FindChunk(group_, scan.leaf.path);
      if (chunk == nullptr) {
        return Status::NotFound("leaf not present in file: " + scan.leaf.path);
      }
      ASSIGN_OR_RETURN(std::unique_ptr<ColumnReader> reader,
                       ColumnReader::Open(ctx_, scan.leaf, *chunk,
                                          group_.num_rows, scan.projected));
      readers_.push_back(std::move(reader));
    }
    return Status::OK();
  }

  // Dictionary pushdown: false when an equality/IN conjunct matches no value
  // of its chunk's dictionary.
  Result<bool> DictionariesMayMatch() {
    if (!ctx_.options.dictionary_pushdown) return true;
    for (size_t i = 0; i < readers_.size(); ++i) {
      const ScanPlan::LeafScan& scan = plan_.leaves[i];
      if (scan.preds.empty()) continue;
      ASSIGN_OR_RETURN(const Dictionary* dict, readers_[i]->dictionary());
      if (!dict->present) continue;
      for (const LeafPredicate* pred : scan.preds) {
        if (!DictionaryMayMatch(*dict, scan.leaf, *pred)) return false;
      }
    }
    return true;
  }

  // Filter stage, selection, projection stage and assembly. Returns nullopt
  // when no row of the group survives the filter.
  Result<std::optional<Page>> Read() {
    std::vector<uint8_t> mask(group_.num_rows, 1);
    for (size_t i = 0; i < readers_.size(); ++i) {
      if (plan_.leaves[i].preds.empty()) continue;
      RETURN_IF_ERROR(readers_[i]->Filter(plan_.leaves[i].preds, &mask));
    }
    Selection selection(mask, ctx_.options.lazy_reads);
    if (selection.lazy) {
      ctx_.stats->rows_pruned_late +=
          static_cast<int64_t>(mask.size() - selection.rows.size());
    }
    if (selection.rows.empty()) return std::optional<Page>();
    std::vector<DecodedLeaf> decoded(readers_.size());
    for (size_t i = 0; i < readers_.size(); ++i) {
      if (!plan_.leaves[i].projected) continue;
      RETURN_IF_ERROR(readers_[i]->Project(
          selection.lazy ? &selection.rows : nullptr, &decoded[i]));
    }
    ASSIGN_OR_RETURN(Page page, Assemble(decoded, selection));
    ctx_.stats->rows_output += static_cast<int64_t>(page.num_rows());
    return std::optional<Page>(std::move(page));
  }

  void Tally() const {
    for (const auto& reader : readers_) reader->Tally();
  }

 private:
  Result<Page> Assemble(const std::vector<DecodedLeaf>& decoded,
                        const Selection& selection) const {
    const size_t rows = selection.lazy ? selection.rows.size() : group_.num_rows;
    std::vector<VectorPtr> columns;
    for (size_t c = 0; c < plan_.column_types.size(); ++c) {
      std::vector<const DecodedLeaf*> leaves;
      for (size_t i : plan_.column_leaves[c]) leaves.push_back(&decoded[i]);
      ASSIGN_OR_RETURN(VectorPtr column,
                       AssembleColumn(plan_.column_types[c], leaves, rows));
      columns.push_back(std::move(column));
    }
    Page page(std::move(columns), rows);
    if (selection.lazy || selection.all) return page;
    // High selectivity: zero-copy selection-vector wrap. With lazy reads
    // disabled entirely, fall back to the materializing row slice.
    return selection.wrap ? page.WrapRows(selection.rows)
                          : page.SliceRows(selection.rows);
  }

  const ScanContext& ctx_;
  const RowGroupMeta& group_;
  const ScanPlan& plan_;
  std::vector<std::unique_ptr<ColumnReader>> readers_;
};

// Row-group pushdown on footer min/max: false when a conjunct's chunk stats
// exclude every value.
Result<bool> ChunkStatsMayMatch(const RowGroupMeta& group, const ScanSpec& spec) {
  for (const LeafPredicate& pred : spec.predicates) {
    const ColumnChunkMeta* chunk = FindChunk(group, pred.column);
    if (chunk == nullptr) {
      return Status::InvalidArgument("predicate on unknown leaf " + pred.column);
    }
    if (!RangeMayMatch(chunk->has_stats, chunk->min, chunk->max, pred)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<TypePtr> PruneColumnType(const std::string& column, const TypePtr& type,
                                const std::vector<std::string>& required_leaves) {
  if (required_leaves.empty() || type->kind() != TypeKind::kRow) return type;
  std::set<std::string> required(required_leaves.begin(), required_leaves.end());
  if (!AnyLeafUnder(required, column)) return type;
  return PruneType(column, type, required);
}

// ===========================================================================
// Footer reading
// ===========================================================================

Result<FileFooter> ReadFooter(RandomAccessFile* file) {
  ASSIGN_OR_RETURN(uint64_t size, file->Size());
  size_t trailer = sizeof(uint32_t) + kMagicLen;
  if (size < trailer + kMagicLen) {
    return Status::Corruption("file too small to be a lakefile");
  }
  uint8_t tail[sizeof(uint32_t) + kMagicLen];
  ASSIGN_OR_RETURN(size_t got, file->Read(size - trailer, trailer, tail));
  if (got != trailer) return Status::Corruption("short read of lakefile trailer");
  if (std::memcmp(tail + sizeof(uint32_t), kMagic, kMagicLen) != 0) {
    return Status::Corruption("bad lakefile magic");
  }
  uint32_t footer_len;
  std::memcpy(&footer_len, tail, sizeof(uint32_t));
  if (footer_len + trailer + kMagicLen > size) {
    return Status::Corruption("bad lakefile footer length");
  }
  std::vector<uint8_t> footer_bytes(footer_len);
  ASSIGN_OR_RETURN(size_t footer_got, file->Read(size - trailer - footer_len,
                                                 footer_len, footer_bytes.data()));
  if (footer_got != footer_len) return Status::Corruption("short footer read");
  return DeserializeFooter(footer_bytes.data(), footer_bytes.size());
}

// ===========================================================================
// NativeLakeFileReader
// ===========================================================================

Result<std::unique_ptr<NativeLakeFileReader>> NativeLakeFileReader::Open(
    std::shared_ptr<RandomAccessFile> file, ReaderOptions options,
    std::shared_ptr<const FileFooter> footer) {
  if (footer == nullptr) {
    ASSIGN_OR_RETURN(FileFooter parsed, ReadFooter(file.get()));
    footer = std::make_shared<const FileFooter>(std::move(parsed));
  }
  auto reader = std::unique_ptr<NativeLakeFileReader>(
      new NativeLakeFileReader(std::move(file), std::move(footer), options));
  reader->stats_.row_groups_total =
      static_cast<int64_t>(reader->footer_->row_groups.size());
  return reader;
}

Result<TypePtr> NativeLakeFileReader::OutputColumnType(
    const ScanSpec& spec, const std::string& column) const {
  return ResolveColumnType(*footer_->schema, column,
                           RequiredLeaves(spec, options_));
}

Result<std::optional<Page>> NativeLakeFileReader::NextBatch(const ScanSpec& spec) {
  if (next_group_ >= footer_->row_groups.size()) return std::optional<Page>();
  ASSIGN_OR_RETURN(ScanPlan plan, ResolveScan(*footer_->schema, spec,
                                              RequiredLeaves(spec, options_)));
  const ScanContext ctx{file_.get(), footer_->compression, options_, &stats_};
  while (next_group_ < footer_->row_groups.size()) {
    const RowGroupMeta& group = footer_->row_groups[next_group_++];
    if (options_.predicate_pushdown) {
      ASSIGN_OR_RETURN(bool may_match, ChunkStatsMayMatch(group, spec));
      if (!may_match) {
        ++stats_.row_groups_skipped_stats;
        continue;
      }
    }
    RowGroupScan scan(ctx, group, plan);
    RETURN_IF_ERROR(scan.Open());
    ASSIGN_OR_RETURN(bool may_match, scan.DictionariesMayMatch());
    if (!may_match) {
      ++stats_.row_groups_skipped_dictionary;
      continue;
    }
    ++stats_.row_groups_scanned;
    // Every page of every touched chunk is tallied once, by its final state,
    // also when the scan of the group fails part way.
    Result<std::optional<Page>> page = scan.Read();
    scan.Tally();
    if (!page.ok() || page->has_value()) return page;
  }
  return std::optional<Page>();
}

// ===========================================================================
// LegacyLakeFileReader
// ===========================================================================

namespace {

// Row-at-a-time record assembler: per-leaf entry/value cursors advanced one
// record at a time — "reads all Parquet data row by row using the open
// source Parquet library".
class RecordAssembler {
 public:
  explicit RecordAssembler(std::vector<DecodedLeaf> decoded)
      : decoded_(std::move(decoded)),
        entry_cursor_(decoded_.size(), 0),
        value_cursor_(decoded_.size(), 0) {}

  Result<Value> NextRecordColumn(const TypePtr& type, size_t* leaf_cursor) {
    return AssembleValue(type, 0, leaf_cursor, /*first_entry=*/true);
  }

 private:
  // Peeks current def of a leaf.
  uint8_t CurrentDef(size_t leaf) const {
    return decoded_[leaf].def[entry_cursor_[leaf]];
  }

  // Consumes one entry from every leaf in [first, last).
  Result<Value> TakeScalar(size_t leaf, int base_def) {
    const DecodedLeaf& d = decoded_[leaf];
    uint8_t def = d.def[entry_cursor_[leaf]];
    ++entry_cursor_[leaf];
    if (def < d.leaf.max_def) return Value::Null();
    size_t v = value_cursor_[leaf]++;
    (void)base_def;
    switch (d.leaf.type->kind()) {
      case TypeKind::kVarchar:
        return Value::String(d.strings[v]);
      case TypeKind::kDouble:
        return Value::Double(d.doubles[v]);
      case TypeKind::kBoolean:
        return Value::Bool(d.bools[v] != 0);
      default:
        return Value::Int(d.ints[v]);
    }
  }

  // Consumes one entry per leaf of the subtree rooted at `type`, building a
  // Value (or NULL). `first_entry` true means rep has already been aligned.
  Result<Value> AssembleValue(const TypePtr& type, int base_def,
                              size_t* leaf_cursor, bool first_entry) {
    switch (type->kind()) {
      case TypeKind::kRow: {
        size_t probe = *leaf_cursor;
        bool is_null = CurrentDef(probe) <= base_def;
        Value::RowData fields;
        for (size_t f = 0; f < type->NumChildren(); ++f) {
          ASSIGN_OR_RETURN(Value v, AssembleValue(type->child(f), base_def + 1,
                                                  leaf_cursor, first_entry));
          fields.push_back(std::move(v));
        }
        if (is_null) return Value::Null();
        return Value::Row(std::move(fields));
      }
      case TypeKind::kArray:
        return AssembleArray(type, base_def, leaf_cursor, first_entry);
      case TypeKind::kMap:
        return AssembleMap(type, base_def, leaf_cursor, first_entry);
      default: {
        size_t leaf = (*leaf_cursor)++;
        return TakeScalar(leaf, base_def);
      }
    }
  }

  Result<Value> AssembleArray(const TypePtr& type, int base_def,
                              size_t* leaf_cursor, bool first_entry) {
    size_t probe = *leaf_cursor;
    uint8_t d0 = CurrentDef(probe);
    if (d0 <= base_def + 1) {
      ASSIGN_OR_RETURN(Value ignored,
                       AssembleValue(type->element(), base_def + 2,
                                     leaf_cursor, first_entry));
      (void)ignored;
      return d0 <= base_def ? Value::Null() : Value::Array({});
    }
    Value::RowData elements;
    size_t saved = *leaf_cursor;
    do {
      *leaf_cursor = saved;
      ASSIGN_OR_RETURN(Value elem, AssembleValue(type->element(), base_def + 2,
                                                 leaf_cursor, false));
      elements.push_back(std::move(elem));
    } while (Repeats(probe));
    return Value::Array(std::move(elements));
  }

  Result<Value> AssembleMap(const TypePtr& type, int base_def,
                            size_t* leaf_cursor, bool first_entry) {
    size_t probe = *leaf_cursor;
    uint8_t d0 = CurrentDef(probe);
    if (d0 <= base_def + 1) {
      ASSIGN_OR_RETURN(Value k, AssembleValue(type->map_key(), base_def + 2,
                                              leaf_cursor, first_entry));
      ASSIGN_OR_RETURN(Value v, AssembleValue(type->map_value(), base_def + 2,
                                              leaf_cursor, first_entry));
      (void)k;
      (void)v;
      return d0 <= base_def ? Value::Null() : Value::Map({});
    }
    Value::MapData entries;
    size_t saved = *leaf_cursor;
    do {
      *leaf_cursor = saved;
      ASSIGN_OR_RETURN(Value k, AssembleValue(type->map_key(), base_def + 2,
                                              leaf_cursor, false));
      ASSIGN_OR_RETURN(Value v, AssembleValue(type->map_value(), base_def + 2,
                                              leaf_cursor, false));
      entries.emplace_back(std::move(k), std::move(v));
    } while (Repeats(probe));
    return Value::Map(std::move(entries));
  }

  // Whether the next entry of the probe leaf repeats the current container
  // (rep==1) rather than starting a new record.
  bool Repeats(size_t probe) const {
    const DecodedLeaf& pd = decoded_[probe];
    return entry_cursor_[probe] < pd.def.size() &&
           pd.rep[entry_cursor_[probe]] != 0;
  }

  std::vector<DecodedLeaf> decoded_;
  std::vector<size_t> entry_cursor_;
  std::vector<size_t> value_cursor_;
};

}  // namespace

Result<std::unique_ptr<LegacyLakeFileReader>> LegacyLakeFileReader::Open(
    std::shared_ptr<RandomAccessFile> file,
    std::shared_ptr<const FileFooter> footer) {
  if (footer == nullptr) {
    ASSIGN_OR_RETURN(FileFooter parsed, ReadFooter(file.get()));
    footer = std::make_shared<const FileFooter>(std::move(parsed));
  }
  auto reader = std::unique_ptr<LegacyLakeFileReader>(
      new LegacyLakeFileReader(std::move(file), std::move(footer)));
  reader->stats_.row_groups_total =
      static_cast<int64_t>(reader->footer_->row_groups.size());
  return reader;
}

Result<std::optional<Page>> LegacyLakeFileReader::NextBatch(
    const std::vector<std::string>& columns) {
  if (next_group_ >= footer_->row_groups.size()) return std::optional<Page>();
  const RowGroupMeta& group = footer_->row_groups[next_group_++];
  ++stats_.row_groups_scanned;

  // Step 1: read ALL leaves of every requested column from disk (no nested
  // pruning, no skipping), decoding value-at-a-time (non-vectorized).
  std::vector<TypePtr> column_types;
  std::vector<DecodedLeaf> flat_decoded;
  for (const std::string& column : columns) {
    ASSIGN_OR_RETURN(TypePtr type,
                     ResolveColumnType(*footer_->schema, column, {}));
    ASSIGN_OR_RETURN(std::vector<Leaf> leaves, EnumerateFieldLeaves(column, type));
    for (const Leaf& leaf : leaves) {
      const ColumnChunkMeta* chunk = FindChunk(group, leaf.path);
      if (chunk == nullptr) {
        return Status::Corruption("missing chunk for leaf " + leaf.path);
      }
      ASSIGN_OR_RETURN(Dictionary dict,
                       MaybeReadDictionary(file_.get(), leaf, *chunk,
                                           footer_->compression, &stats_));
      PageReader pages(file_.get(), *chunk, group.num_rows, footer_->compression,
                       &stats_);
      stats_.pages_total += static_cast<int64_t>(pages.num_pages());
      DecodedLeaf decoded;
      decoded.leaf = leaf;
      for (size_t i = 0; i < pages.num_pages(); ++i) {
        ASSIGN_OR_RETURN(RawPage raw, pages.Read(i));
        ++stats_.pages_read;
        ASSIGN_OR_RETURN(PageLevels levels,
                         DecodePageLevels(leaf, raw, /*vectorized=*/false));
        RETURN_IF_ERROR(DecodePageValues(leaf, dict, raw, levels,
                                         /*vectorized=*/false, nullptr,
                                         &decoded, &stats_));
      }
      flat_decoded.push_back(std::move(decoded));
    }
    column_types.push_back(std::move(type));
  }

  // Step 2: transform row-based records into columnar blocks.
  RecordAssembler assembler(std::move(flat_decoded));
  std::vector<VectorBuilder> builders;
  builders.reserve(column_types.size());
  for (const TypePtr& type : column_types) builders.emplace_back(type);
  for (uint64_t r = 0; r < group.num_rows; ++r) {
    size_t leaf_cursor = 0;
    for (size_t c = 0; c < column_types.size(); ++c) {
      ASSIGN_OR_RETURN(Value v,
                       assembler.NextRecordColumn(column_types[c], &leaf_cursor));
      RETURN_IF_ERROR(builders[c].Append(v));
    }
  }
  std::vector<VectorPtr> vectors;
  vectors.reserve(builders.size());
  for (VectorBuilder& b : builders) vectors.push_back(b.Build());
  stats_.rows_output += static_cast<int64_t>(group.num_rows);
  return std::optional<Page>(Page(std::move(vectors), group.num_rows));
}

}  // namespace lakefile
}  // namespace presto
