#ifndef PRESTO_COMMON_TRACE_H_
#define PRESTO_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "presto/common/clock.h"
#include "presto/common/status.h"

namespace presto {

// ---------------------------------------------------------------------------
// Blocked-time attribution
// ---------------------------------------------------------------------------
//
// Every thread owns one always-on cell of blocked-time counters. Deep layers
// (exchange waits, spill I/O, memory-arbiter waits, admission queueing) bump
// the cell of whatever thread they block; the non-virtual Operator::Next()
// wrapper snapshots the cell around NextInternal() and folds the delta into
// that operator's OperatorStats. Like wall/cpu time the attribution is
// cumulative: a parent operator's breakdown includes time spent in children
// pulled on the same thread. Work fanned out to pool threads (morsel chains)
// is carried back into the submitting thread's cell by RunParallel so the
// same cumulative rule holds across threads.
//
// The cell is plain (non-atomic) state: only its owning thread writes it.

enum class BlockedKind : int {
  kExchangeWait = 0,  // blocked producing into / consuming from an exchange
  kSpillIo = 1,       // spill run write/read/merge I/O
  kMemoryWait = 2,    // waiting on the memory arbiter for a reservation
  kQueued = 3,        // admission-queue wait (query level only)
  kScanIo = 4,        // scan-side file reads (lakefile page/dictionary/footer)
};
inline constexpr int kNumBlockedKinds = 5;

struct BlockedCounters {
  int64_t nanos[kNumBlockedKinds] = {};
  int64_t spill_write_bytes = 0;
  int64_t spill_read_bytes = 0;

  BlockedCounters Delta(const BlockedCounters& since) const {
    BlockedCounters d;
    for (int i = 0; i < kNumBlockedKinds; ++i) {
      d.nanos[i] = nanos[i] - since.nanos[i];
    }
    d.spill_write_bytes = spill_write_bytes - since.spill_write_bytes;
    d.spill_read_bytes = spill_read_bytes - since.spill_read_bytes;
    return d;
  }

  void Accumulate(const BlockedCounters& d) {
    for (int i = 0; i < kNumBlockedKinds; ++i) nanos[i] += d.nanos[i];
    spill_write_bytes += d.spill_write_bytes;
    spill_read_bytes += d.spill_read_bytes;
  }
};

/// The calling thread's blocked-time cell.
BlockedCounters& ThreadBlockedCounters();

/// RAII: times one blocking section into the calling thread's cell.
/// Construct only once it is known the caller will actually block — the
/// non-blocking fast paths should never pay the clock reads.
class BlockedTimer {
 public:
  explicit BlockedTimer(BlockedKind kind)
      : kind_(kind), start_nanos_(SteadyNowNanos()) {}
  ~BlockedTimer() { ThreadBlockedCounters().nanos[static_cast<int>(kind_)] += ElapsedNanos(); }
  int64_t ElapsedNanos() const { return SteadyNowNanos() - start_nanos_; }

  BlockedTimer(const BlockedTimer&) = delete;
  BlockedTimer& operator=(const BlockedTimer&) = delete;

 private:
  BlockedKind kind_;
  int64_t start_nanos_;
};

inline void AddThreadSpillWriteBytes(int64_t bytes) {
  ThreadBlockedCounters().spill_write_bytes += bytes;
}
inline void AddThreadSpillReadBytes(int64_t bytes) {
  ThreadBlockedCounters().spill_read_bytes += bytes;
}

// ---------------------------------------------------------------------------
// Span recording
// ---------------------------------------------------------------------------

enum class TraceKind : int {
  kQuery = 0,
  kAdmission = 1,     // admission-queue wait
  kStage = 2,
  kTask = 3,          // one task attempt (name carries the attempt number)
  kRetryBackoff = 4,  // backoff sleep between leaf-task attempts
  kChain = 5,         // one morsel chain consumed by an operator
  kOperator = 6,
  kExchangeWait = 7,  // one blocking exchange produce/consume wait
  kSpillWrite = 8,
  kSpillRead = 9,
  kMemoryWait = 10,   // one arbiter wait loop
  kScanDecode = 11,   // one scan NextBatch: page reads + decode of one batch
  kSpeculation = 14,  // a duplicate attempt launched for a straggling task
};

const char* TraceKindName(TraceKind kind);

struct TraceSpan {
  int64_t id = 0;         // 1-based; 0 means "no span"
  int64_t parent_id = 0;  // 0 for the root (query) span
  TraceKind kind = TraceKind::kQuery;
  std::string name;
  int64_t start_nanos = 0;  // steady clock
  int64_t end_nanos = 0;    // 0 while open
  int64_t tid = 0;          // small per-recorder thread index
  std::map<std::string, int64_t> args;
};

/// Per-query span sink. One recorder lives for the duration of a traced
/// query; every thread that touches the query appends to it. Storage is
/// sharded by span id so concurrent operator chains do not contend on one
/// mutex, and capped so a runaway plan cannot grow without bound (BeginSpan
/// returns 0 past the cap and all 0-id operations are no-ops).
class TraceRecorder {
 public:
  explicit TraceRecorder(int64_t max_spans = 1 << 16)
      : max_spans_(max_spans), start_nanos_(SteadyNowNanos()) {}

  /// Opens a span; returns its id (0 if the recorder is full).
  int64_t BeginSpan(TraceKind kind, const std::string& name,
                    int64_t parent_id);

  /// Closes a span. No-op for id 0 or an already-closed span.
  void EndSpan(int64_t id);

  /// Attaches/overwrites one integer argument on an open or closed span.
  void SetArg(int64_t id, const std::string& key, int64_t value);

  /// Closes the span and attaches all args in one lock acquisition.
  void EndSpanWithArgs(int64_t id,
                       const std::vector<std::pair<std::string, int64_t>>& args);

  /// Steady-clock nanos of recorder creation — the trace's time origin.
  int64_t start_nanos() const { return start_nanos_; }

  int64_t dropped_spans() const {
    return dropped_spans_.load(std::memory_order_relaxed);
  }

  /// All spans recorded so far, sorted by id. Open spans are returned with
  /// end_nanos == 0; callers rendering them should treat that as "still
  /// running at snapshot time".
  std::vector<TraceSpan> Snapshot() const;

  /// Renders the snapshot as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps relative to the trace origin) loadable in
  /// chrome://tracing and Perfetto. `pid` labels the process column with
  /// the query id; `trace_id` is echoed into otherData.
  std::string ToChromeTraceJson(int64_t pid, const std::string& trace_id) const;

 private:
  static constexpr int kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::deque<TraceSpan> spans;
    std::map<int64_t, size_t> index;  // span id -> position in `spans`
  };
  Shard& ShardFor(int64_t id) { return shards_[id % kShards]; }
  const Shard& ShardFor(int64_t id) const { return shards_[id % kShards]; }
  int64_t TidFor(std::thread::id id);

  const int64_t max_spans_;
  const int64_t start_nanos_;
  std::atomic<int64_t> next_id_{1};
  std::atomic<int64_t> dropped_spans_{0};
  Shard shards_[kShards];
  mutable std::mutex tid_mu_;
  std::map<std::thread::id, int64_t> tids_;
};

// ---------------------------------------------------------------------------
// Thread-local trace context
// ---------------------------------------------------------------------------
//
// Instrumented code finds "the current recorder and enclosing span" through
// a thread-local context rather than plumbing both through every call. The
// coordinator installs the context on the thread running a task body; scopes
// nest (operator spans swap themselves in during NextInternal) and restore
// on destruction. A null recorder means tracing is off for this thread.

struct TraceContext {
  TraceRecorder* recorder = nullptr;
  int64_t span_id = 0;  // enclosing span; parent for new spans
};

TraceContext& ThreadTraceContext();

/// RAII: installs {recorder, span} as the thread's context, restoring the
/// previous context on destruction.
class TraceContextScope {
 public:
  TraceContextScope(TraceRecorder* recorder, int64_t span_id)
      : saved_(ThreadTraceContext()) {
    ThreadTraceContext() = TraceContext{recorder, span_id};
  }
  ~TraceContextScope() { ThreadTraceContext() = saved_; }

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

/// RAII: records one kind-specific span (exchange wait, spill I/O, memory
/// wait) under the thread's current context, if tracing is on. Cheap when
/// off: a thread-local load and a null check.
class TraceEventScope {
 public:
  TraceEventScope(TraceKind kind, const char* name) {
    TraceContext& ctx = ThreadTraceContext();
    if (ctx.recorder != nullptr) {
      recorder_ = ctx.recorder;
      id_ = recorder_->BeginSpan(kind, name, ctx.span_id);
    }
  }
  ~TraceEventScope() {
    if (recorder_ != nullptr) recorder_->EndSpan(id_);
  }

  void SetArg(const std::string& key, int64_t value) {
    if (recorder_ != nullptr) recorder_->SetArg(id_, key, value);
  }

  TraceEventScope(const TraceEventScope&) = delete;
  TraceEventScope& operator=(const TraceEventScope&) = delete;

 private:
  TraceRecorder* recorder_ = nullptr;
  int64_t id_ = 0;
};

// ---------------------------------------------------------------------------
// Chrome trace JSON validation
// ---------------------------------------------------------------------------

struct ChromeTraceEvent {
  std::string name;
  std::string cat;
  std::string ph;
  int64_t ts_micros = 0;
  int64_t dur_micros = 0;
  int64_t pid = 0;
  int64_t tid = 0;
  std::map<std::string, int64_t> args;
};

struct ChromeTrace {
  std::vector<ChromeTraceEvent> events;
  std::string trace_id;
};

/// Minimal validating parser for the JSON ToChromeTraceJson() emits (strict
/// JSON subset: objects, arrays, strings, integer numbers). Used by tests
/// and scripts/check.sh to prove dumps round-trip.
Result<ChromeTrace> ParseChromeTraceJson(const std::string& json);

}  // namespace presto

#endif  // PRESTO_COMMON_TRACE_H_
