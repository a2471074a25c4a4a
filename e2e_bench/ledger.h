// Arithmetic of the end-to-end benchmark, kept free of engine state so the
// self-test can check it on hand-built inputs: the percentile rule, open-loop
// latency accounting from due times, span self time and interval unions, and
// the answer rule for rows that arrive while a query runs.

#ifndef E2E_BENCH_LEDGER_H_
#define E2E_BENCH_LEDGER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "presto/common/trace.h"

namespace e2e {

/// A percentile is reported as supported only when at least this many
/// samples lie beyond it (so p95 needs 200 samples, p50 needs 20).
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of the q-quantile of n samples.
inline size_t NearestRank(size_t n, double q) {
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, std::max<size_t>(n, 1));
}

inline bool PercentileSupported(size_t n, double q) {
  return n > 0 && n - NearestRank(n, q) >= kMinSamplesBeyond;
}

/// Nearest-rank percentile: the smallest sample with at least q of the
/// samples at or below it. 0 for an empty input.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), q) - 1];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// One open-loop request: when it was due, when the sender got to it, and
/// when its reply arrived (steady-clock nanoseconds).
struct OpenLoopTiming {
  int64_t due_nanos = 0;
  int64_t sent_nanos = 0;
  int64_t done_nanos = 0;

  /// Latency charged to the request: from its due time, so a stalled
  /// sender's backlog shows up in every request it delayed.
  double LatencyMillis() const {
    return static_cast<double>(done_nanos - due_nanos) / 1e6;
  }
  /// How late the generator dispatched it.
  double LagMillis() const {
    return static_cast<double>(sent_nanos - due_nanos) / 1e6;
  }
};

/// Due time of arrival `index` of a fixed-rate stream starting at
/// `start_nanos` with `rate_per_s` arrivals per second.
inline int64_t DueNanos(int64_t start_nanos, double rate_per_s,
                        int64_t index) {
  return start_nanos +
         static_cast<int64_t>(static_cast<double>(index) * 1e9 / rate_per_s);
}

/// Total length of the union of [start, end) intervals.
inline int64_t UnionNanos(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (open && start <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = start;
    cur_end = end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

inline int64_t SpanDuration(const presto::TraceSpan& span) {
  return span.end_nanos > span.start_nanos ? span.end_nanos - span.start_nanos
                                           : 0;
}

/// Self time of every closed span: its duration minus the part of it that
/// its closed children cover (children clipped to the parent, overlaps
/// counted once). Keyed by span id.
inline std::map<int64_t, int64_t> SpanSelfNanos(
    const std::vector<presto::TraceSpan>& spans) {
  std::map<int64_t, const presto::TraceSpan*> by_id;
  for (const presto::TraceSpan& span : spans) by_id[span.id] = &span;
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const presto::TraceSpan& span : spans) {
    auto parent = by_id.find(span.parent_id);
    if (parent == by_id.end() || span.end_nanos == 0) continue;
    const presto::TraceSpan& p = *parent->second;
    const int64_t start = std::max(span.start_nanos, p.start_nanos);
    const int64_t end = p.end_nanos == 0
                            ? span.end_nanos
                            : std::min(span.end_nanos, p.end_nanos);
    if (end > start) children[span.parent_id].emplace_back(start, end);
  }
  std::map<int64_t, int64_t> self;
  for (const presto::TraceSpan& span : spans) {
    if (span.end_nanos == 0) continue;
    auto it = children.find(span.id);
    const int64_t covered = it == children.end() ? 0 : UnionNanos(it->second);
    self[span.id] = std::max<int64_t>(0, SpanDuration(span) - covered);
  }
  return self;
}

/// What a query may see of a partition that is written while it runs:
/// every batch whose commit finished before dispatch, at most the batches
/// whose commit had started before the reply, and whole batches only.
struct OpenPartitionWindow {
  int64_t committed_before_dispatch = 0;  // batches
  int64_t started_before_completion = 0;  // batches
  int64_t batch_rows = 1;
};

/// Batches visible to a query that counted `rows`, or -1 when the count is
/// not a committed prefix the window allows.
inline int64_t VisibleBatches(int64_t rows, const OpenPartitionWindow& window) {
  if (window.batch_rows <= 0 || rows < 0 || rows % window.batch_rows != 0) {
    return -1;
  }
  const int64_t batches = rows / window.batch_rows;
  if (batches < window.committed_before_dispatch ||
      batches > window.started_before_completion) {
    return -1;
  }
  return batches;
}

}  // namespace e2e

#endif  // E2E_BENCH_LEDGER_H_
