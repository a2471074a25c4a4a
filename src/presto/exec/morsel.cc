#include "presto/exec/morsel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>

#include "presto/common/trace.h"

namespace presto {

Result<std::optional<Page>> SplitMorselSource::NextMorsel(
    ScanSourceStats* scan) {
  std::lock_guard<std::mutex> lock(mu_);
  Result<std::optional<Page>> page = NextMorselLocked();
  ScanSourceStats total = finished_sources_;
  if (source_ != nullptr) total.Accumulate(source_->scan_stats());
  scan->Accumulate(total.Delta(handed_out_));
  handed_out_ = total;
  return page;
}

Result<std::optional<Page>> SplitMorselSource::NextMorselLocked() {
  while (true) {
    if (next_chunk_ < chunks_.size()) {
      return std::optional<Page>(chunks_[next_chunk_++]);
    }
    if (source_ == nullptr) {
      if (next_split_ >= splits_.size()) return std::optional<Page>();
      ASSIGN_OR_RETURN(source_, connector_->CreatePageSource(
                                    splits_[next_split_++], pushdown_));
    }
    ASSIGN_OR_RETURN(std::optional<Page> page, source_->NextPage());
    if (!page.has_value()) {
      finished_sources_.Accumulate(source_->scan_stats());
      source_.reset();
      continue;
    }
    size_t n = page->num_rows();
    if (n == 0) continue;
    if (n <= kMorselRows) return page;
    // Slice an oversized page into morsel-sized zero-copy row-range wraps.
    chunks_.clear();
    next_chunk_ = 0;
    std::vector<int32_t> rows;
    for (size_t start = 0; start < n; start += kMorselRows) {
      size_t end = std::min(n, start + kMorselRows);
      rows.resize(end - start);
      for (size_t i = start; i < end; ++i) {
        rows[i - start] = static_cast<int32_t>(i);
      }
      chunks_.push_back(page->WrapRows(rows));
    }
  }
}

MorselScanOperator::MorselScanOperator(std::shared_ptr<MorselSource> source,
                                       MetricsRegistry* metrics)
    : source_(std::move(source)) {
  if (metrics == nullptr) return;
  // Same order as the deltas bumped in NextInternal.
  static constexpr const char* kNames[] = {
      "lakefile.pages.read",           "lakefile.pages.skipped_stats",
      "lakefile.pages.skipped_lazy",   "lakefile.rows.pruned_late",
      "lakefile.dict_code.filter_hits", "lakefile.bytes.read"};
  for (size_t i = 0; i < scan_counters_.size(); ++i) {
    scan_counters_[i] = metrics->FindOrRegister(kNames[i]);
  }
}

Result<std::optional<Page>> MorselScanOperator::NextInternal() {
  ScanSourceStats d;
  Result<std::optional<Page>> page = source_->NextMorsel(&d);
  stats_.scan_row_groups_total += d.row_groups_total;
  stats_.scan_row_groups_skipped += d.row_groups_skipped;
  stats_.scan_pages_total += d.pages_total;
  stats_.scan_pages_read += d.pages_read;
  stats_.scan_pages_skipped_stats += d.pages_skipped_stats;
  stats_.scan_pages_skipped_lazy += d.pages_skipped_lazy;
  stats_.scan_rows_pruned_late += d.rows_pruned_late;
  stats_.scan_dict_code_hits += d.dict_code_filter_hits;
  stats_.scan_bytes_read += d.bytes_read;
  const int64_t deltas[] = {d.pages_read,          d.pages_skipped_stats,
                            d.pages_skipped_lazy,  d.rows_pruned_late,
                            d.dict_code_filter_hits, d.bytes_read};
  for (size_t i = 0; i < scan_counters_.size(); ++i) {
    if (scan_counters_[i] != nullptr && deltas[i] != 0) {
      scan_counters_[i]->Add(deltas[i]);
    }
  }
  return page;
}

Status RunParallel(WorkStealingPool* pool, int parallelism,
                   const std::function<Status(int)>& body) {
  if (parallelism <= 1) return parallelism == 1 ? body(0) : Status::OK();

  // Claim protocol: every runner (caller or helper) claims slots until none
  // remain. A helper that reaches the front of the pool's queue after the
  // caller claimed everything finds no slot and exits without touching
  // `body`, so the caller can safely return as soon as next_ == parallelism
  // and running_ == 0 — no handshake with unstarted helpers is needed.
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    int next = 0;
    int running = 0;
    int parallelism = 0;
    const std::function<Status(int)>* body = nullptr;
    Status error;

    bool TryClaim(int* slot) {
      std::lock_guard<std::mutex> lock(mu);
      if (next >= parallelism) return false;
      *slot = next++;
      ++running;
      return true;
    }
    void FinishSlot(Status st) {
      std::lock_guard<std::mutex> lock(mu);
      if (error.ok() && !st.ok()) error = std::move(st);
      if (--running == 0) cv.notify_all();
    }
  };
  auto shared = std::make_shared<Shared>();
  shared->parallelism = parallelism;
  shared->body = &body;

  auto drain = [](const std::shared_ptr<Shared>& s) {
    int slot = 0;
    while (s->TryClaim(&slot)) s->FinishSlot((*s->body)(slot));
  };

  // Blocked-time carry: helper threads accumulate their cells' deltas
  // (spill I/O, memory waits, exchange waits incurred while running `body`)
  // here, and the caller folds the total into its own cell after the join.
  // That preserves the cumulative attribution rule across the fan-out — the
  // operator whose Next() frame ran RunParallel absorbs the helpers' blocked
  // time exactly as if it had run every slot itself. Only the Submit path is
  // instrumented (the caller's own drain already writes its own cell), so
  // nothing is counted twice.
  struct Carry {
    std::atomic<int64_t> nanos[kNumBlockedKinds] = {};
    std::atomic<int64_t> spill_write_bytes{0};
    std::atomic<int64_t> spill_read_bytes{0};
  };
  auto carry = std::make_shared<Carry>();

  // Helper slots measure their cell delta around each body call and publish
  // it to the carry *before* FinishSlot, so the caller's cv join below
  // happens-after every contribution.
  auto helper_drain = [carry](const std::shared_ptr<Shared>& s) {
    int slot = 0;
    while (s->TryClaim(&slot)) {
      BlockedCounters before = ThreadBlockedCounters();
      Status st = (*s->body)(slot);
      BlockedCounters delta = ThreadBlockedCounters().Delta(before);
      for (int k = 0; k < kNumBlockedKinds; ++k) {
        carry->nanos[k].fetch_add(delta.nanos[k], std::memory_order_relaxed);
      }
      carry->spill_write_bytes.fetch_add(delta.spill_write_bytes,
                                         std::memory_order_relaxed);
      carry->spill_read_bytes.fetch_add(delta.spill_read_bytes,
                                        std::memory_order_relaxed);
      s->FinishSlot(std::move(st));
    }
  };

  int helpers = parallelism - 1;
  if (pool != nullptr) {
    helpers = std::min<int>(helpers, static_cast<int>(pool->num_threads()));
    for (int i = 0; i < helpers; ++i) {
      if (!pool->Submit([shared, helper_drain] { helper_drain(shared); })) {
        break;
      }
    }
  }
  drain(shared);

  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait(lock, [&] {
    return shared->running == 0 && shared->next >= shared->parallelism;
  });
  lock.unlock();
  BlockedCounters carried;
  for (int k = 0; k < kNumBlockedKinds; ++k) {
    carried.nanos[k] = carry->nanos[k].load(std::memory_order_relaxed);
  }
  carried.spill_write_bytes =
      carry->spill_write_bytes.load(std::memory_order_relaxed);
  carried.spill_read_bytes =
      carry->spill_read_bytes.load(std::memory_order_relaxed);
  ThreadBlockedCounters().Accumulate(carried);
  return shared->error;
}

}  // namespace presto
