#include "presto/exec/spill.h"

#include <algorithm>
#include <atomic>

#include "presto/common/bytes.h"
#include "presto/common/fault_injection.h"
#include "presto/common/trace.h"
#include "presto/exec/kernels/kernels.h"
#include "presto/expr/serialization.h"
#include "presto/vector/vector_builder.h"

namespace presto {
namespace {

constexpr uint32_t kSpillMagic = 0x53504C31;  // "SPL1"

// Column encodings inside a spill block.
constexpr uint8_t kTagInt64 = 0;   // BIGINT / INTEGER / TIMESTAMP
constexpr uint8_t kTagDouble = 1;
constexpr uint8_t kTagBool = 2;
constexpr uint8_t kTagString = 3;
constexpr uint8_t kTagBoxed = 4;   // per-row SerializeValue (complex types)

// Uniquifies run file names across concurrently spilling operators (task
// retries can run two attempts of the same partition at once).
std::atomic<uint64_t> g_spill_file_seq{0};

template <typename T>
void WriteTypedColumn(const FlatVector<T>& vec, uint8_t tag, ByteBuffer* out) {
  out->PutU8(tag);
  size_t n = vec.size();
  out->PutU8(vec.has_nulls() ? 1 : 0);
  if (vec.has_nulls()) out->PutRaw(vec.raw_nulls(), n);
  if constexpr (std::is_same_v<T, std::string>) {
    for (size_t i = 0; i < n; ++i) out->PutString(vec.ValueAt(i));
  } else {
    out->PutRaw(vec.values().data(), n * sizeof(T));
  }
}

Status WriteColumn(const VectorPtr& raw, ByteBuffer* out) {
  ASSIGN_OR_RETURN(VectorPtr flat, Vector::Flatten(raw));
  TypeKind kind = flat->type()->kind();
  if (IsIntegerLike(kind)) {
    WriteTypedColumn(static_cast<const FlatVector<int64_t>&>(*flat), kTagInt64,
                     out);
  } else if (kind == TypeKind::kDouble) {
    WriteTypedColumn(static_cast<const FlatVector<double>&>(*flat), kTagDouble,
                     out);
  } else if (kind == TypeKind::kBoolean) {
    WriteTypedColumn(static_cast<const FlatVector<uint8_t>&>(*flat), kTagBool,
                     out);
  } else if (kind == TypeKind::kVarchar) {
    WriteTypedColumn(static_cast<const FlatVector<std::string>&>(*flat),
                     kTagString, out);
  } else {
    out->PutU8(kTagBoxed);
    for (size_t i = 0; i < flat->size(); ++i) {
      SerializeValue(flat->GetValue(i), out);
    }
  }
  return Status::OK();
}

template <typename T>
Result<VectorPtr> ReadTypedColumn(const TypePtr& type, size_t num_rows,
                                  ByteReader* reader) {
  ASSIGN_OR_RETURN(uint8_t has_nulls, reader->ReadU8());
  std::vector<uint8_t> nulls;
  if (has_nulls != 0) {
    nulls.resize(num_rows);
    RETURN_IF_ERROR(reader->ReadRaw(nulls.data(), num_rows));
  }
  std::vector<T> values;
  if constexpr (std::is_same_v<T, std::string>) {
    values.reserve(num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      ASSIGN_OR_RETURN(std::string s, reader->ReadString());
      values.push_back(std::move(s));
    }
  } else {
    values.resize(num_rows);
    RETURN_IF_ERROR(reader->ReadRaw(values.data(), num_rows * sizeof(T)));
  }
  return std::static_pointer_cast<Vector>(
      std::make_shared<FlatVector<T>>(type, std::move(values),
                                      std::move(nulls)));
}

Result<VectorPtr> ReadColumn(const TypePtr& type, size_t num_rows,
                             ByteReader* reader) {
  ASSIGN_OR_RETURN(uint8_t tag, reader->ReadU8());
  switch (tag) {
    case kTagInt64:
      return ReadTypedColumn<int64_t>(type, num_rows, reader);
    case kTagDouble:
      return ReadTypedColumn<double>(type, num_rows, reader);
    case kTagBool:
      return ReadTypedColumn<uint8_t>(type, num_rows, reader);
    case kTagString:
      return ReadTypedColumn<std::string>(type, num_rows, reader);
    case kTagBoxed: {
      VectorBuilder builder(type);
      for (size_t i = 0; i < num_rows; ++i) {
        ASSIGN_OR_RETURN(Value v, DeserializeValue(reader));
        RETURN_IF_ERROR(builder.Append(v));
      }
      return builder.Build();
    }
    default:
      return Status::Corruption("spill: unknown column tag " +
                                std::to_string(tag));
  }
}

// Restores a binary min-heap under `less` after its top entry grew (the
// merges' one step per row: advance the smallest source, sift it down).
template <typename T, typename Less>
void SiftDownTop(std::vector<T>* heap, Less less) {
  size_t n = heap->size();
  size_t i = 0;
  while (true) {
    size_t smallest = i;
    size_t left = 2 * i + 1;
    size_t right = left + 1;
    if (left < n && less((*heap)[left], (*heap)[smallest])) smallest = left;
    if (right < n && less((*heap)[right], (*heap)[smallest])) smallest = right;
    if (smallest == i) return;
    std::swap((*heap)[i], (*heap)[smallest]);
    i = smallest;
  }
}

}  // namespace

Status SerializeSpillPage(const Page& page, ByteBuffer* out) {
  out->PutVarint(page.num_rows());
  out->PutVarint(page.num_columns());
  for (size_t c = 0; c < page.num_columns(); ++c) {
    out->PutString(page.column(c)->type()->ToString());
    RETURN_IF_ERROR(WriteColumn(page.column(c), out));
  }
  return Status::OK();
}

Result<Page> DeserializeSpillPage(ByteReader* reader) {
  ASSIGN_OR_RETURN(uint64_t num_rows, reader->ReadVarint());
  ASSIGN_OR_RETURN(uint64_t num_columns, reader->ReadVarint());
  std::vector<VectorPtr> columns;
  columns.reserve(num_columns);
  for (uint64_t c = 0; c < num_columns; ++c) {
    ASSIGN_OR_RETURN(std::string text, reader->ReadString());
    ASSIGN_OR_RETURN(TypePtr type, Type::Parse(text));
    ASSIGN_OR_RETURN(VectorPtr col, ReadColumn(type, num_rows, reader));
    columns.push_back(std::move(col));
  }
  return Page(std::move(columns), num_rows);
}

SpillFile::SpillFile(FileSystem* fs, std::string path, MetricsRegistry* metrics)
    : fs_(fs), path_(std::move(path)) {
  if (metrics != nullptr) {
    runs_written_counter_ = metrics->FindOrRegister("spill.run.written");
    bytes_written_counter_ = metrics->FindOrRegister("spill.byte.written");
    bytes_read_counter_ = metrics->FindOrRegister("spill.byte.read");
  }
}

Status SpillFile::WriteRun(const std::vector<Page>& pages) {
  // The entire run write (serialization + appends) counts as spill I/O in
  // the writing thread's blocked cell; the bytes feed per-operator
  // spill_write_bytes through the Next() wrapper's cell snapshot.
  BlockedTimer blocked(BlockedKind::kSpillIo);
  TraceEventScope span(TraceKind::kSpillWrite, "spill_write_run");
  RETURN_IF_ERROR(FaultInjector::Global().Hit("spill.write"));
  ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                   fs_->OpenForWrite(path_));

  ByteBuffer buf;
  buf.PutU32(kSpillMagic);
  ByteBuffer header;
  size_t num_columns = pages.empty() ? 0 : pages[0].num_columns();
  header.PutVarint(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    header.PutString(pages[0].column(c)->type()->ToString());
  }
  buf.PutU32(static_cast<uint32_t>(header.size()));
  buf.PutRaw(header.data(), header.size());
  RETURN_IF_ERROR(file->Append(buf.bytes()));
  bytes_written_ += static_cast<int64_t>(buf.size());

  for (const Page& page : pages) {
    if (page.empty()) continue;
    RETURN_IF_ERROR(FaultInjector::Global().Hit("spill.write"));
    ByteBuffer block;
    block.PutVarint(page.num_rows());
    for (size_t c = 0; c < page.num_columns(); ++c) {
      RETURN_IF_ERROR(WriteColumn(page.column(c), &block));
    }
    ByteBuffer framed;
    framed.PutU32(static_cast<uint32_t>(block.size()));
    framed.PutRaw(block.data(), block.size());
    RETURN_IF_ERROR(file->Append(framed.bytes()));
    bytes_written_ += static_cast<int64_t>(framed.size());
  }

  ByteBuffer end;
  end.PutU32(0);
  RETURN_IF_ERROR(file->Append(end.bytes()));
  bytes_written_ += static_cast<int64_t>(end.size());
  RETURN_IF_ERROR(file->Close());

  if (runs_written_counter_ != nullptr) runs_written_counter_->Add(1);
  if (bytes_written_counter_ != nullptr) {
    bytes_written_counter_->Add(bytes_written_);
  }
  AddThreadSpillWriteBytes(bytes_written_);
  span.SetArg("bytes", bytes_written_);
  return Status::OK();
}

Result<std::unique_ptr<SpillFile::Reader>> SpillFile::OpenReader() const {
  BlockedTimer blocked(BlockedKind::kSpillIo);
  TraceEventScope span(TraceKind::kSpillRead, "spill_open_run");
  RETURN_IF_ERROR(FaultInjector::Global().Hit("spill.read"));
  ASSIGN_OR_RETURN(std::shared_ptr<RandomAccessFile> file,
                   fs_->OpenForRead(path_));
  auto reader = std::unique_ptr<Reader>(new Reader());
  reader->file_ = std::move(file);
  reader->bytes_read_counter_ = bytes_read_counter_;

  uint8_t fixed[8];
  ASSIGN_OR_RETURN(size_t n, reader->file_->Read(0, sizeof(fixed), fixed));
  if (n < sizeof(fixed)) return Status::Corruption("spill: truncated header");
  ByteReader head(fixed, sizeof(fixed));
  ASSIGN_OR_RETURN(uint32_t magic, head.ReadU32());
  if (magic != kSpillMagic) return Status::Corruption("spill: bad magic");
  ASSIGN_OR_RETURN(uint32_t header_len, head.ReadU32());

  std::vector<uint8_t> header_bytes(header_len);
  ASSIGN_OR_RETURN(n, reader->file_->Read(8, header_len, header_bytes.data()));
  if (n < header_len) return Status::Corruption("spill: truncated header");
  ByteReader header(header_bytes);
  ASSIGN_OR_RETURN(uint64_t num_columns, header.ReadVarint());
  for (uint64_t c = 0; c < num_columns; ++c) {
    ASSIGN_OR_RETURN(std::string text, header.ReadString());
    ASSIGN_OR_RETURN(TypePtr type, Type::Parse(text));
    reader->types_.push_back(std::move(type));
  }
  reader->offset_ = 8 + header_len;
  reader->CountRead(reader->offset_);
  return reader;
}

Result<std::optional<Page>> SpillFile::Reader::Next() {
  // Per-block read+decode: cheap enough not to span individually, but every
  // nanosecond counts as spill I/O (the merge loop lives inside an
  // operator's Next() frame, so the cell delta attributes there).
  BlockedTimer blocked(BlockedKind::kSpillIo);
  RETURN_IF_ERROR(FaultInjector::Global().Hit("spill.read"));
  uint8_t len_bytes[4];
  ASSIGN_OR_RETURN(size_t n, file_->Read(offset_, 4, len_bytes));
  if (n < 4) return Status::Corruption("spill: truncated block length");
  ByteReader len_reader(len_bytes, 4);
  ASSIGN_OR_RETURN(uint32_t block_len, len_reader.ReadU32());
  offset_ += 4;
  if (block_len == 0) {
    CountRead(4);  // the end marker
    return std::optional<Page>();
  }

  std::vector<uint8_t> block(block_len);
  ASSIGN_OR_RETURN(n, file_->Read(offset_, block_len, block.data()));
  if (n < block_len) return Status::Corruption("spill: truncated block");
  offset_ += block_len;
  CountRead(static_cast<int64_t>(block_len) + 4);

  ByteReader reader(block);
  ASSIGN_OR_RETURN(uint64_t num_rows, reader.ReadVarint());
  std::vector<VectorPtr> columns;
  columns.reserve(types_.size());
  for (const TypePtr& type : types_) {
    ASSIGN_OR_RETURN(VectorPtr col, ReadColumn(type, num_rows, &reader));
    columns.push_back(std::move(col));
  }
  return std::optional<Page>(Page(std::move(columns), num_rows));
}

void SpillFile::Reader::CountRead(int64_t bytes) {
  if (bytes_read_counter_ != nullptr) bytes_read_counter_->Add(bytes);
  AddThreadSpillReadBytes(bytes);
}

void SpillFile::Remove() {
  Status st = fs_->DeleteFile(path_);
  (void)st;  // best effort: a vanished spill file is fine on teardown
}

Spiller::Spiller(FileSystem* fs, std::string dir, MetricsRegistry* metrics)
    : fs_(fs), dir_(std::move(dir)), metrics_(metrics) {}

Spiller::~Spiller() {
  for (auto& run : runs_) run->Remove();
}

Status Spiller::SpillRun(const std::vector<Page>& pages) {
  uint64_t seq = g_spill_file_seq.fetch_add(1, std::memory_order_relaxed);
  std::string path = dir_ + "/run-" + std::to_string(runs_.size()) + "-" +
                     std::to_string(seq) + ".spill";
  auto file = std::make_unique<SpillFile>(fs_, std::move(path), metrics_);
  RETURN_IF_ERROR(file->WriteRun(pages));
  total_bytes_ += file->bytes_written();
  runs_.push_back(std::move(file));
  return Status::OK();
}

Result<std::vector<std::unique_ptr<SpillFile::Reader>>> Spiller::OpenAllRuns()
    const {
  std::vector<std::unique_ptr<SpillFile::Reader>> readers;
  readers.reserve(runs_.size());
  for (const auto& run : runs_) {
    ASSIGN_OR_RETURN(std::unique_ptr<SpillFile::Reader> reader,
                     run->OpenReader());
    readers.push_back(std::move(reader));
  }
  return readers;
}

Result<bool> MergeSource::NextPage() {
  while (true) {
    if (reader_ != nullptr) {
      ASSIGN_OR_RETURN(std::optional<Page> page, reader_->Next());
      if (!page.has_value()) return false;
      page_ = std::move(*page);
    } else {
      if (memory_index_ >= memory_pages_.size()) return false;
      page_ = std::move(memory_pages_[memory_index_++]);
    }
    if (!page_.empty()) return true;
  }
}

// A binary min-heap of source indices; heap_[0] is the current row. Advance
// moves the top source one row forward and restores the heap with one
// sift-down, so each row costs O(log runs) comparator calls.
SpillMergeCursor::SpillMergeCursor(
    std::vector<std::unique_ptr<SpillFile::Reader>> readers,
    std::vector<Page> in_memory_run, Comparator cmp)
    : cmp_(std::move(cmp)) {
  for (auto& reader : readers) {
    sources_.emplace_back(MergeSource(std::move(reader)));
  }
  if (!in_memory_run.empty()) {
    sources_.emplace_back(MergeSource(std::move(in_memory_run)));
  }
}

bool SpillMergeCursor::Less(size_t a, size_t b) const {
  const Source& sa = sources_[a];
  const Source& sb = sources_[b];
  int cmp = cmp_(sa.source.page(), sa.row, sb.source.page(), sb.row);
  return cmp != 0 ? cmp < 0 : a < b;
}

Result<bool> SpillMergeCursor::Advance() {
  if (!started_) {
    started_ = true;
    for (size_t i = 0; i < sources_.size(); ++i) {
      ASSIGN_OR_RETURN(bool loaded, sources_[i].source.NextPage());
      if (loaded) heap_.push_back(i);
    }
    std::make_heap(heap_.begin(), heap_.end(),
                   [this](size_t a, size_t b) { return Less(b, a); });
    return !heap_.empty();
  }
  if (heap_.empty()) return false;
  Source& top = sources_[heap_[0]];
  if (++top.row >= top.source.page().num_rows()) {
    top.row = 0;
    ASSIGN_OR_RETURN(bool loaded, top.source.NextPage());
    if (!loaded) {
      heap_[0] = heap_.back();
      heap_.pop_back();
    }
  }
  SiftDownTop(&heap_, [this](size_t a, size_t b) { return Less(a, b); });
  return !heap_.empty();
}

HashOrderedMerge::HashOrderedMerge(
    std::vector<std::unique_ptr<SpillFile::Reader>> readers,
    std::vector<std::vector<Page>> memory_runs, size_t num_keys) {
  for (auto& reader : readers) {
    sources_.emplace_back(MergeSource(std::move(reader)));
  }
  for (auto& run : memory_runs) {
    if (!run.empty()) sources_.emplace_back(MergeSource(std::move(run)));
  }
  for (size_t k = 0; k < num_keys; ++k) {
    key_channels_.push_back(static_cast<int>(k));
  }
}

Result<bool> HashOrderedMerge::LoadPage(Source* s) {
  s->row = 0;
  s->slice_begin = 0;
  ASSIGN_OR_RETURN(bool loaded, s->source.NextPage());
  if (!loaded) {
    s->exhausted = true;
    s->hashes.reset();
    return false;
  }
  auto hashes = std::make_shared<std::vector<uint64_t>>();
  kernels::HashPage(s->source.page(), key_channels_, hashes.get());
  s->hashes = std::move(hashes);
  return true;
}

Result<std::vector<HashOrderedMerge::Slice>> HashOrderedMerge::NextBatch(
    size_t min_rows) {
  if (!started_) {
    started_ = true;
    for (size_t i = 0; i < sources_.size(); ++i) {
      ASSIGN_OR_RETURN(bool loaded, LoadPage(&sources_[i]));
      if (loaded) {
        heap_.push_back({(*sources_[i].hashes)[0], static_cast<uint32_t>(i)});
      }
    }
    std::make_heap(heap_.begin(), heap_.end(),
                   [](const HeapEntry& a, const HeapEntry& b) { return b < a; });
  }
  // (source index, slice); a source whose page ends inside the batch
  // contributes one slice per page.
  std::vector<std::pair<uint32_t, Slice>> slices;
  size_t rows = 0;
  uint64_t last_hash = 0;
  while (!heap_.empty()) {
    HeapEntry& top = heap_[0];
    if (rows > 0 && rows >= min_rows && top.hash != last_hash) break;
    last_hash = top.hash;
    ++rows;
    Source& s = sources_[top.source];
    if (++s.row < s.source.page().num_rows()) {
      top.hash = (*s.hashes)[s.row];
    } else {
      slices.push_back(
          {top.source, Slice{s.source.page(), s.hashes, s.slice_begin, s.row}});
      ASSIGN_OR_RETURN(bool loaded, LoadPage(&s));
      if (loaded) {
        top.hash = (*s.hashes)[0];
      } else {
        heap_[0] = heap_.back();
        heap_.pop_back();
      }
    }
    SiftDownTop(&heap_, std::less<HeapEntry>());
  }
  for (size_t i = 0; i < sources_.size(); ++i) {
    Source& s = sources_[i];
    if (s.exhausted || s.row == s.slice_begin) continue;
    slices.push_back({static_cast<uint32_t>(i),
                      Slice{s.source.page(), s.hashes, s.slice_begin, s.row}});
    s.slice_begin = s.row;
  }
  std::stable_sort(slices.begin(), slices.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Slice> batch;
  batch.reserve(slices.size());
  for (auto& entry : slices) batch.push_back(std::move(entry.second));
  return batch;
}

}  // namespace presto
