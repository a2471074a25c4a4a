#!/usr/bin/env bash
# Full verification: regular build + tests, then sanitizer passes over the
# test suite — ThreadSanitizer for the concurrency-heavy layers (partitioned
# exchanges, worker pools, metrics shards, query journal) and
# AddressSanitizer for the page/exchange ownership handoffs.
#
# Usage: scripts/check.sh [--tsan-only|--asan-only]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
MODE="${1:-}"

# Function-size gate: no function body in src/presto/ may span more than 150
# lines (lambdas count toward the function that holds them), so neither the
# coordinator's query run nor the lakefile reader's scan can grow back into
# one long frame. The tier-1 ctest runs the same check (FunctionSizeGate).
echo "== function size (src/presto/) =="
find src/presto -name '*.cc' -print0 | sort -z | xargs -0 python3 scripts/function_size.py

if [[ "$MODE" != "--tsan-only" && "$MODE" != "--asan-only" ]]; then
  echo "== regular build =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  echo "== regular tests =="
  (cd build && ctest --output-on-failure)
  # Determinism gate: the whole suite in parallel, repeated. Test processes
  # share /tmp and every coordinator numbers its queries from 1, so a spill
  # path that is not private to its coordinator shows up here as a wrong
  # answer.
  echo "== regular tests, parallel, until-fail:20 =="
  (cd build && ctest -j"$JOBS" --repeat until-fail:20 --output-on-failure)
fi

# Chaos stage: an amplified fault-injection sweep on top of the normal suite
# (which already runs each chaos test once at default settings). Seeds and
# iteration counts are env knobs so CI can rotate fault schedules:
#   PRESTO_CHAOS_SEED   base seed for fault schedules (default 20260806)
#   PRESTO_CHAOS_ITERS  fault-schedule iterations     (default 8 here)
# ExchangeWakeupTest rides along: per-partition consumer waits with one
# wakeup per page, where a missed notify would hang a consumer and a racing
# Fail / ConsumerDone / deadline would lose or duplicate a page.
CHAOS_FILTER='ChaosQueryTest.*:QueryTimeoutTest.*:ExchangeFaultFuzzTest.*'
CHAOS_FILTER="$CHAOS_FILTER:ExchangeWakeupTest.*"
CHAOS_SEED="${PRESTO_CHAOS_SEED:-20260806}"
CHAOS_ITERS="${PRESTO_CHAOS_ITERS:-8}"

# Memory-pressure stage: the spill / admission / low-memory-killer paths all
# run with tiny query_max_memory caps, so re-running them under the
# sanitizers shakes out races in reservation walks, the memory arbiter's
# cross-thread revocation and kill wait (MemoryArbiterTest drives them over a
# bare pool tree), and the killer's cross-thread cancellation (SpillDifferentialTest also holds the
# ROW-key, 65-key, adapter and NaN-key group-bys). The acceptance-scale spill
# test is shrunk for sanitizer speed (full 10M rows runs in the regular suite).
# The block-file corruption sweeps (their own binary, block_file_tests) run
# here too, so every length check is exercised under ASan and the merges
# that share one spill file handle under TSan.
MEMORY_FILTER='MemoryPoolTest.*:MemoryArbiterTest.*'
MEMORY_FILTER="$MEMORY_FILTER:SpillDifferentialTest.*:SpillLargeScaleTest.*"
MEMORY_FILTER="$MEMORY_FILTER:SpillMergeTest.*:SpillIsolationTest.*"
MEMORY_FILTER="$MEMORY_FILTER:AdmissionTest.*:LowMemoryKillerTest.*"
MEMORY_FILTER="$MEMORY_FILTER:ExchangeMemoryTest.*:MemoryCountersTest.*"
MEMORY_FILTER="$MEMORY_FILTER:SpillerTest.*:CompressionTest.*"
MEMORY_SCALE_ROWS="${PRESTO_SPILL_SCALE_ROWS:-2000000}"

# Morsel stage: the work-stealing pool and the differential tests that drive
# parallel operator chains at 2 and 8 threads — the paths where a hot-path
# lock would hide and a missed happens-before would race (thread-local radix
# tables merged at finalize, claim-slot protocol, batched reservations) —
# plus the aggregation/join differential against the reference evaluator,
# and the selection kernels and Project forwarding, which index raw column
# arrays through selection vectors.
MORSEL_FILTER='WorkStealingPoolTest.*:RunParallelTest.*:MorselDifferentialTest.*'
MORSEL_FILTER="$MORSEL_FILTER:KernelDifferentialTest.*"
MORSEL_FILTER="$MORSEL_FILTER:SelectionKernelDifferentialTest.*:ProjectForwardingTest.*"

# Lazy-scan stage: the v2 page reader (page skipping, dictionary-code
# predicates, late materialization), the legacy-vs-lazy differential sweep,
# the page-read chaos iteration, and the scan-stats plumbing through morsel
# chains into EXPLAIN ANALYZE — the handoffs where a stale selection vector
# or a racing stats fold would hide.
LAZY_SCAN_FILTER='LakeFilePagesTest.*:LakeFileTest.LazyReadsDecodeOnlyMatchingRows'
LAZY_SCAN_FILTER="$LAZY_SCAN_FILTER:DifferentialTest.*"
LAZY_SCAN_FILTER="$LAZY_SCAN_FILTER:ChaosQueryTest.LazyScanPageReadFaultsNeverCorruptResults"
LAZY_SCAN_FILTER="$LAZY_SCAN_FILTER:ObservabilityTest.ExplainAnalyzeShowsLazyScanStatsAndEnforcedPushdown"

# Workload stage: resource-group admission under concurrency — the DRR
# promotion loop racing TryAdmit/Wait/Release from many session threads, the
# group memory-pool layer, gateway shed failover, and the chaos worker-kill
# reconciliation. Plus a --quick pass of the multi-tenant workload driver
# (ratio floors are skipped under sanitizers; accounting reconciliation and
# the zero-interactive-shed floor still hold).
WORKLOAD_FILTER='ResourceGroupManagerTest.*:WorkloadClusterTest.*'
WORKLOAD_FILTER="$WORKLOAD_FILTER:GatewayShedTest.*:WorkloadChaosTest.*"

# Tracing stage: a traced spilling query recorded from many threads at once
# (span shards, blocked-time carry across the morsel pool, lazy operator-span
# opening) plus the Chrome trace JSON round-trip validation — the spots where
# a recorder race or a context-scope leak would hide.
TRACE_FILTER='TraceTest.*:TraceClusterTest.*'

# Recovery stage: the stage-level recovery ladder — a lost task's restart
# racing exchange consumers, attempt-id fencing under concurrent speculative
# commits, graceful drain racing in-flight submits, and probation heartbeats
# racing the scheduler. These paths hand pages and task slots across threads
# at failure boundaries, exactly where a use-after-free or a missed
# happens-before would hide.
RECOVERY_FILTER='ExchangeFenceTest.*:RecoveryClusterTest.*'
RECOVERY_FILTER="$RECOVERY_FILTER:WorkerDrainTest.*"
RECOVERY_FILTER="$RECOVERY_FILTER:ChaosQueryTest.RetryBackoffHonorsQueryDeadline"
RECOVERY_FILTER="$RECOVERY_FILTER:WorkloadChaosTest.RestartOnceReentersGroupQueueAndReconciles"

if [[ "$MODE" != "--asan-only" ]]; then
  echo "== tsan build =="
  cmake -B build-tsan -S . -DPRESTO_TSAN=ON >/dev/null
  cmake --build build-tsan -j "$JOBS"
  echo "== tsan tests =="
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      PRESTO_SPILL_SCALE_ROWS="$MEMORY_SCALE_ROWS" ctest --output-on-failure)
  echo "== tsan chaos (seed=$CHAOS_SEED iters=$CHAOS_ITERS) =="
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      PRESTO_CHAOS_SEED="$CHAOS_SEED" PRESTO_CHAOS_ITERS="$CHAOS_ITERS" \
      ./tests/presto_tests --gtest_filter="$CHAOS_FILTER")
  echo "== tsan memory pressure (scale_rows=$MEMORY_SCALE_ROWS) =="
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      PRESTO_SPILL_SCALE_ROWS="$MEMORY_SCALE_ROWS" \
      ./tests/presto_tests --gtest_filter="$MEMORY_FILTER")
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" ./tests/block_file_tests)
  echo "== tsan morsel parallelism =="
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      ./tests/presto_tests --gtest_filter="$MORSEL_FILTER")
  echo "== tsan tracing =="
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      ./tests/presto_tests --gtest_filter="$TRACE_FILTER")
  echo "== tsan lazy scan =="
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      ./tests/presto_tests --gtest_filter="$LAZY_SCAN_FILTER")
  echo "== tsan workload =="
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      ./tests/presto_tests --gtest_filter="$WORKLOAD_FILTER")
  echo "== tsan recovery =="
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      ./tests/presto_tests --gtest_filter="$RECOVERY_FILTER")
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      ./bench/bench_workload /tmp/BENCH_workload_tsan.json --quick)
fi

if [[ "$MODE" != "--tsan-only" ]]; then
  echo "== asan build =="
  cmake -B build-asan -S . -DPRESTO_ASAN=ON >/dev/null
  cmake --build build-asan -j "$JOBS"
  echo "== asan tests =="
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1" \
      PRESTO_SPILL_SCALE_ROWS="$MEMORY_SCALE_ROWS" ctest --output-on-failure)
  echo "== asan chaos (seed=$CHAOS_SEED iters=$CHAOS_ITERS) =="
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1" \
      PRESTO_CHAOS_SEED="$CHAOS_SEED" PRESTO_CHAOS_ITERS="$CHAOS_ITERS" \
      ./tests/presto_tests --gtest_filter="$CHAOS_FILTER")
  echo "== asan memory pressure (scale_rows=$MEMORY_SCALE_ROWS) =="
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1" \
      PRESTO_SPILL_SCALE_ROWS="$MEMORY_SCALE_ROWS" \
      ./tests/presto_tests --gtest_filter="$MEMORY_FILTER")
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1" ./tests/block_file_tests)
  echo "== asan morsel parallelism =="
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1" \
      ./tests/presto_tests --gtest_filter="$MORSEL_FILTER")
  echo "== asan tracing =="
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1" \
      ./tests/presto_tests --gtest_filter="$TRACE_FILTER")
  echo "== asan lazy scan =="
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1" \
      ./tests/presto_tests --gtest_filter="$LAZY_SCAN_FILTER")
  echo "== asan workload =="
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1" \
      ./tests/presto_tests --gtest_filter="$WORKLOAD_FILTER")
  echo "== asan recovery =="
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1" \
      ./tests/presto_tests --gtest_filter="$RECOVERY_FILTER")
  (cd build-asan && ASAN_OPTIONS="halt_on_error=1" \
      ./bench/bench_workload /tmp/BENCH_workload_asan.json --quick)
fi

echo "OK: requested suites passed"
