#include "presto/exec/spill.h"

#include <algorithm>
#include <atomic>

#include "presto/common/fault_injection.h"
#include "presto/common/trace.h"
#include "presto/exec/kernels/kernels.h"

namespace presto {
namespace {

// Uniquifies spill file names across concurrently spilling operators (task
// retries can run two attempts of the same partition at once).
std::atomic<uint64_t> g_spill_file_seq{0};

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

Spiller::Spiller(FileSystem* fs, const std::string& dir,
                 MetricsRegistry* metrics)
    : file_(fs, dir + "/spill-" + std::to_string(g_spill_file_seq++) + ".blk") {
  if (metrics != nullptr) {
    runs_written_counter_ = metrics->FindOrRegister("spill.run.written");
    bytes_written_counter_ = metrics->FindOrRegister("spill.byte.written");
    bytes_read_counter_ = metrics->FindOrRegister("spill.byte.read");
  }
}

Status Spiller::SpillRun(const std::vector<Page>& pages) {
  // The entire run write (serialization + appends) counts as spill I/O in
  // the writing thread's blocked cell; the bytes feed per-operator
  // spill_write_bytes through the Next() wrapper's cell snapshot.
  BlockedTimer blocked(BlockedKind::kSpillIo);
  TraceEventScope span(TraceKind::kSpillWrite, "spill_write_run");
  RETURN_IF_ERROR(FaultInjector::Global().Hit("spill.write"));
  if (pages.empty()) return Status::InvalidArgument("spill run has no pages");
  const int64_t before = total_bytes();
  if (before == 0) RETURN_IF_ERROR(file_.Create(pages[0]));
  // After OpenAllRuns the file is closed, so appending to it fails.
  BlockExtent run = file_.Tail();
  EncodedBlock block;
  for (const Page& page : pages) {
    if (page.empty()) continue;
    RETURN_IF_ERROR(FaultInjector::Global().Hit("spill.write"));
    RETURN_IF_ERROR(EncodeBlock(page, &block));
    RETURN_IF_ERROR(file_.Append(block));
  }
  run.end = file_.size();
  runs_.push_back(run);

  const int64_t bytes = total_bytes() - before;
  if (runs_written_counter_ != nullptr) runs_written_counter_->Add(1);
  if (bytes_written_counter_ != nullptr) bytes_written_counter_->Add(bytes);
  AddThreadSpillWriteBytes(bytes);
  span.SetArg("bytes", bytes);
  return Status::OK();
}

Result<std::vector<std::unique_ptr<BlockFileReader>>> Spiller::OpenAllRuns() {
  BlockedTimer blocked(BlockedKind::kSpillIo);
  TraceEventScope span(TraceKind::kSpillRead, "spill_open_runs");
  for (size_t r = 0; r < runs_.size(); ++r) {
    RETURN_IF_ERROR(FaultInjector::Global().Hit("spill.read"));
  }
  ASSIGN_OR_RETURN(auto readers, file_.Read(runs_, bytes_read_counter_));
  AddThreadSpillReadBytes(static_cast<int64_t>(file_.Blocks().begin));
  return readers;
}

Result<bool> MergeSource::NextPage() {
  while (true) {
    if (reader_ != nullptr) {
      // Per-block read+decode: cheap enough not to span individually, but
      // every nanosecond counts as spill I/O (the merge loop lives inside an
      // operator's Next() frame, so the cell delta attributes there).
      BlockedTimer blocked(BlockedKind::kSpillIo);
      RETURN_IF_ERROR(FaultInjector::Global().Hit("spill.read"));
      int64_t bytes = 0;
      ASSIGN_OR_RETURN(std::optional<Page> page, reader_->Next(&bytes));
      AddThreadSpillReadBytes(bytes);
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
    std::vector<std::unique_ptr<BlockFileReader>> readers,
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
    std::vector<std::unique_ptr<BlockFileReader>> readers,
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
