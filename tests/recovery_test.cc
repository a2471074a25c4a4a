// Stage-level recovery: the recovery ladder, straggler speculation with
// attempt-id fencing, graceful worker drain, and blacklist probation.
//
// The ladder under test (DESIGN.md "Fault tolerance"):
//   1. leaf-task retry        — transient leaf failures, surgical
//   2. straggler speculation  — slow tasks, duplicate attempt races the fence
//   3. restart-once           — everything else that is still transient,
//                               a lost intermediate task included
//
// Each rung must hand off to the next without ever returning wrong results.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "presto/cluster/cluster.h"
#include "presto/common/fault_injection.h"
#include "presto/common/random.h"
#include "presto/connectors/memory/memory_connector.h"
#include "presto/exec/exchange.h"
#include "presto/vector/vector_builder.h"

namespace presto {
namespace {

// Disarms the global injector on scope exit so a failing assertion cannot
// leak an armed fault schedule into the next test.
struct InjectorGuard {
  InjectorGuard() { FaultInjector::Global().Reset(); }
  ~InjectorGuard() { FaultInjector::Global().Reset(); }
};

std::vector<std::string> SortedRows(const QueryResult& result) {
  std::vector<std::string> rows;
  for (const Page& page : result.pages) {
    for (size_t r = 0; r < page.num_rows(); ++r) {
      std::string row;
      for (size_t c = 0; c < page.num_columns(); ++c) {
        row += page.column(c)->GetValue(r).ToString() + "|";
      }
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool JournalHasEvent(const Coordinator& coordinator, QueryEventKind kind) {
  for (const QueryEvent& event : coordinator.journal().Events()) {
    if (event.kind == kind) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// PartitionedExchange attempt fencing (no cluster)
// ---------------------------------------------------------------------------

TEST(ExchangeFenceTest, FirstAttemptToCommitASlotWins) {
  PartitionedExchange exchange(2, 1 << 20);
  exchange.SetProducerCount(2);
  // Original attempt 0 and speculative attempt 100 race; exactly one commits.
  EXPECT_TRUE(exchange.TryCommitProducer(/*slot=*/0, /*attempt=*/0));
  EXPECT_FALSE(exchange.TryCommitProducer(0, 100));
  EXPECT_FALSE(exchange.TryCommitProducer(0, 1));
  // Slots fence independently; a speculative winner blocks the original.
  EXPECT_TRUE(exchange.TryCommitProducer(1, 100));
  EXPECT_FALSE(exchange.TryCommitProducer(1, 0));
}

// ---------------------------------------------------------------------------
// Cluster-level recovery ladder
// ---------------------------------------------------------------------------

// Shared fixture: 3 workers, fact/dim tables for multi-stage join/group-by
// plans whose intermediate stages give recovery something to lose.
class RecoveryClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    cluster_ = std::make_unique<PrestoCluster>("recovery", 3, 2);
    auto memory = std::make_shared<MemoryConnector>();
    TypePtr facts = Type::Row({"k", "v"}, {Type::Bigint(), Type::Bigint()});
    TypePtr dim = Type::Row({"key", "w"}, {Type::Bigint(), Type::Bigint()});
    ASSERT_TRUE(memory->CreateTable("raw", "facts", facts).ok());
    ASSERT_TRUE(memory->CreateTable("raw", "dim", dim).ok());
    Random rng(4711);
    for (int p = 0; p < 6; ++p) {
      size_t n = 400;
      std::vector<int64_t> k(n), v(n);
      for (size_t i = 0; i < n; ++i) {
        k[i] = static_cast<int64_t>(rng.NextBelow(40));
        v[i] = static_cast<int64_t>(rng.NextBelow(1000));
      }
      ASSERT_TRUE(memory
                      ->AppendPage("raw", "facts",
                                   Page({MakeBigintVector(std::move(k)),
                                         MakeBigintVector(std::move(v))}))
                      .ok());
    }
    std::vector<int64_t> key(40), w(40);
    for (size_t i = 0; i < key.size(); ++i) {
      key[i] = static_cast<int64_t>(i);
      w[i] = static_cast<int64_t>(i % 7);
    }
    ASSERT_TRUE(memory
                    ->AppendPage("raw", "dim",
                                 Page({MakeBigintVector(std::move(key)),
                                       MakeBigintVector(std::move(w))}))
                    .ok());
    ASSERT_TRUE(cluster_->catalogs().RegisterCatalog("mem", memory).ok());
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  Result<QueryResult> Run(const std::string& sql,
                          std::map<std::string, std::string> props) {
    Session session;
    session.properties = std::move(props);
    return cluster_->Execute(sql, session);
  }

  static std::string JoinSql() {
    return "SELECT d.w, count(*), sum(f.v) FROM mem.raw.facts f "
           "JOIN mem.raw.dim d ON f.k = d.key GROUP BY d.w";
  }

  std::unique_ptr<PrestoCluster> cluster_;
};

// A lost intermediate task is recovered by restarting the query once: its
// upstream partitions are already partially consumed, so only a whole run
// can replay them.
TEST_F(RecoveryClusterTest, StageLossWithoutSpoolStillRestartsOnce) {
  InjectorGuard guard;
  auto reference = Run(JoinSql(), {});
  ASSERT_TRUE(reference.ok());

  FaultInjector::Global().ArmScripted("worker.task.stage", {1});
  auto result = Run(JoinSql(), {{"query_max_task_retries", "1"},
                                {"task_retry_backoff_millis", "1"}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SortedRows(*result), SortedRows(*reference));
  EXPECT_TRUE(
      JournalHasEvent(cluster_->coordinator(), QueryEventKind::kRestarted));
}

// Killing a worker half-way through the staged join yields exact results
// with at most one restart — a lost leaf retries, a lost stage task restarts
// the query — and the fleet keeps serving.
TEST_F(RecoveryClusterTest, WorkerKillMidJoinRestartsAtMostOnce) {
  InjectorGuard guard;
  // The fault-free run counts the worker.kill evaluations (one per task
  // page boundary), so the kill lands half-way through the query.
  FaultInjector::Global().ArmProbabilistic("worker.kill", 0.0);
  auto reference = Run(JoinSql(), {});
  ASSERT_TRUE(reference.ok());
  const int64_t kill_at = std::max<int64_t>(
      2, FaultInjector::Global().CallCount("worker.kill") / 2);

  FaultInjector::Global().Reset();
  FaultInjector::Global().ArmScripted("worker.kill", {kill_at});
  auto result = Run(JoinSql(), {{"query_max_task_retries", "2"},
                                {"task_retry_backoff_millis", "1"}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SortedRows(*result), SortedRows(*reference));
  EXPECT_GE(FaultInjector::Global().InjectedCount("worker.kill"), 1)
      << "the kill never fired";
  EXPECT_LE(cluster_->coordinator().metrics().Get("query.restarted"), 1);

  // The fleet keeps serving after losing the worker.
  auto again = Run(JoinSql(), {});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(SortedRows(*again), SortedRows(*reference));
}

// Straggler speculation: a deterministically-stalled first attempt gets a
// duplicate; exactly one attempt commits through the fence (exact rows, and
// the speculative outcome counters reconcile with launches).
TEST_F(RecoveryClusterTest, StragglerSpeculationIsExactlyOnce) {
  InjectorGuard guard;
  const std::string sql =
      "SELECT k, count(*), sum(v) FROM mem.raw.facts GROUP BY k";
  auto reference = Run(sql, {});
  ASSERT_TRUE(reference.ok());

  // Single-stage keeps every task a leaf, so the scripted stall can only
  // land on a speculatable task.
  FaultInjector::Global().ArmScripted("worker.task.straggle", {1});
  auto result = Run(sql, {{"multi_stage_execution", "false"},
                          {"speculative_execution", "true"},
                          {"speculation_quantile", "0.5"}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SortedRows(*result), SortedRows(*reference))
      << "speculation duplicated or dropped rows";

  const int64_t launched = result->exec_metrics["task.speculative.launched"];
  EXPECT_GE(launched, 1) << "the stalled task was never speculated";
  // Every duplicate attempt resolves to exactly one outcome.
  EXPECT_EQ(launched, result->exec_metrics["task.speculative.won"] +
                          result->exec_metrics["task.speculative.wasted"] +
                          result->exec_metrics["task.speculative.failed"]);
  EXPECT_TRUE(
      JournalHasEvent(cluster_->coordinator(), QueryEventKind::kTaskSpeculated));

  // Row reconciliation via EXPLAIN ANALYZE-style stats: the winning attempt's
  // output matches the fault-free reference exactly (checked above), and a
  // re-run without faults agrees.
  auto clean = Run(sql, {{"speculative_execution", "true"}});
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(SortedRows(*clean), SortedRows(*reference));
}

// A retry budget of 100 or more lets a leaf retry reach the attempt id a
// speculative duplicate uses; that retry must still own the task's failure
// path. The one leaf task fails attempts 0 through 100, so the first run
// fails once the budget is spent and the restarted run succeeds. Had the
// last retry been taken for a duplicate, its failure would never close the
// producer slot and the run would hang until the query deadline.
TEST_F(RecoveryClusterTest, RetryAtSpeculativeAttemptIdStaysARetry) {
  InjectorGuard guard;
  const std::string sql = "SELECT count(*), sum(w) FROM mem.raw.dim";
  auto reference = Run(sql, {});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::vector<int64_t> failing_calls;
  for (int64_t call = 1; call <= 101; ++call) failing_calls.push_back(call);
  FaultInjector::Global().ArmScripted("worker.task.body", failing_calls);
  auto result = Run(sql, {{"multi_stage_execution", "false"},
                          {"query_max_task_retries", "100"},
                          {"task_retry_backoff_millis", "0"},
                          {"query_timeout_millis", "10000"}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_tasks, 1) << "the test needs a single leaf task";
  EXPECT_EQ(SortedRows(*result), SortedRows(*reference));
  EXPECT_EQ(result->exec_metrics["task.retry.count"], 100);
  EXPECT_EQ(cluster_->coordinator().metrics().Get("query.restarted"), 1);
  EXPECT_EQ(result->exec_metrics["task.speculative.won"] +
                result->exec_metrics["task.speculative.failed"],
            0);
}

// Graceful shrink under load: DrainWorker() stops new placements, lets
// in-flight queries finish, and journals the drain — no query sees an error.
TEST_F(RecoveryClusterTest, DrainWorkerUnderLoadCompletesAllQueries) {
  InjectorGuard guard;
  const std::string sql = JoinSql();
  auto reference = Run(sql, {});
  ASSERT_TRUE(reference.ok());
  const auto expected = SortedRows(*reference);

  std::string victim = cluster_->coordinator().ActiveWorkers().front()->id();
  std::atomic<int> failures{0};
  std::vector<std::thread> load;
  for (int t = 0; t < 3; ++t) {
    load.emplace_back([&] {
      for (int q = 0; q < 3; ++q) {
        auto result = Run(sql, {});
        if (!result.ok() || SortedRows(*result) != expected) {
          ++failures;
          ADD_FAILURE() << "query failed during drain: "
                        << (result.ok() ? "wrong rows"
                                        : result.status().ToString());
        }
      }
    });
  }
  Status drained = cluster_->coordinator().DrainWorker(victim);
  for (auto& t : load) t.join();
  ASSERT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_EQ(failures.load(), 0);

  const Coordinator& coordinator = cluster_->coordinator();
  EXPECT_EQ(coordinator.metrics().Get("worker.drained"), 1);
  EXPECT_TRUE(JournalHasEvent(coordinator, QueryEventKind::kWorkerDrained));
  EXPECT_EQ(coordinator.ActiveWorkers().size(), 2u);
  for (const auto& worker : coordinator.ActiveWorkers()) {
    EXPECT_NE(worker->id(), victim);
  }
  // Draining the same worker again is a classified no-op, not a hang.
  EXPECT_FALSE(cluster_->coordinator().DrainWorker(victim).ok());
  EXPECT_FALSE(cluster_->coordinator().DrainWorker("no-such-worker").ok());

  // The shrunken fleet still answers exactly.
  auto after = Run(sql, {});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(SortedRows(*after), expected);
}

// With every worker drained no worker accepts a task, so every task — leaf
// and stage first attempts, retries and speculative duplicates —
// runs on a query-owned thread, and the answer stays exact.
TEST_F(RecoveryClusterTest, AllWorkersDrainedRunsOnQueryThreads) {
  InjectorGuard guard;
  auto reference = Run(JoinSql(), {});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  Coordinator& coordinator = cluster_->coordinator();
  for (const auto& worker : coordinator.ActiveWorkers()) {
    ASSERT_TRUE(coordinator.DrainWorker(worker->id()).ok());
  }
  ASSERT_TRUE(coordinator.ActiveWorkers().empty());
  for (const char* retries : {"0", "2"}) {
    auto result = Run(JoinSql(), {{"exchange_buffer_bytes", "1024"},
                                  {"speculative_execution", "true"},
                                  {"query_max_task_retries", retries}});
    ASSERT_TRUE(result.ok()) << retries << ": " << result.status().ToString();
    EXPECT_EQ(SortedRows(*result), SortedRows(*reference))
        << "query_max_task_retries=" << retries;
  }
}

// Blacklist probation: a dead-listed worker that comes back is re-admitted
// only after sustained heartbeat recovery, journaled as worker_reinstated.
TEST_F(RecoveryClusterTest, BlacklistedWorkerReinstatedAfterProbation) {
  InjectorGuard guard;
  const std::string sql =
      "SELECT k, count(*), sum(v) FROM mem.raw.facts GROUP BY k";
  Coordinator& coordinator = cluster_->coordinator();

  // Crash a worker mid-task (scripted kill) so the retry's liveness sweep
  // blacklists it. The pre-chaos fleet snapshot keeps a handle on the victim
  // — once blacklisted it no longer appears in ActiveWorkers().
  auto fleet = coordinator.ActiveWorkers();
  ASSERT_EQ(fleet.size(), 3u);
  FaultInjector::Global().ArmScripted("worker.kill", {2});
  auto result = Run(sql, {{"multi_stage_execution", "false"},
                          {"query_max_task_retries", "2"},
                          {"task_retry_backoff_millis", "1"}});
  FaultInjector::Global().Reset();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(coordinator.BlacklistedWorkers().size(), 1u);
  std::shared_ptr<Worker> victim;
  for (const auto& worker : fleet) {
    if (worker->id() == coordinator.BlacklistedWorkers().front()) {
      victim = worker;
    }
  }
  ASSERT_NE(victim, nullptr);
  ASSERT_EQ(victim->state(), WorkerState::kDead);

  // Probing while the worker is still dead never re-admits it.
  EXPECT_EQ(coordinator.ProbeBlacklistedWorkers(), 0);
  EXPECT_EQ(coordinator.BlacklistedWorkers().size(), 1u);

  // The process restarts on the same host — but one good heartbeat is not
  // enough: re-admission takes kProbationProbes consecutive successes.
  ASSERT_TRUE(victim->Revive().ok());
  for (int probe = 1; probe < Coordinator::kProbationProbes; ++probe) {
    EXPECT_EQ(coordinator.ProbeBlacklistedWorkers(), 0)
        << "reinstated after only " << probe << " probes";
    EXPECT_EQ(coordinator.BlacklistedWorkers().size(), 1u);
    // Still quarantined: scheduling keeps ignoring it.
    for (const auto& worker : coordinator.ActiveWorkers()) {
      EXPECT_NE(worker->id(), victim->id());
    }
  }
  EXPECT_EQ(coordinator.ProbeBlacklistedWorkers(), 1);
  EXPECT_TRUE(coordinator.BlacklistedWorkers().empty());
  EXPECT_GE(coordinator.metrics().Get("worker.reinstated"), 1);
  EXPECT_TRUE(JournalHasEvent(coordinator, QueryEventKind::kWorkerReinstated));
  bool scheduled_again = false;
  for (const auto& worker : coordinator.ActiveWorkers()) {
    scheduled_again = scheduled_again || worker->id() == victim->id();
  }
  EXPECT_TRUE(scheduled_again) << "reinstated worker still not schedulable";

  // A flapping host restarts probation: one failed probe resets the streak.
  FaultInjector::Global().ArmScripted("worker.kill", {2});
  auto flaky = Run(sql, {{"multi_stage_execution", "false"},
                         {"query_max_task_retries", "2"},
                         {"task_retry_backoff_millis", "1"}});
  FaultInjector::Global().Reset();
  ASSERT_TRUE(flaky.ok()) << flaky.status().ToString();
  ASSERT_EQ(coordinator.BlacklistedWorkers().size(), 1u);
  std::shared_ptr<Worker> flapper;
  for (const auto& worker : fleet) {
    if (worker->id() == coordinator.BlacklistedWorkers().front()) {
      flapper = worker;
    }
  }
  ASSERT_NE(flapper, nullptr);
  ASSERT_TRUE(flapper->Revive().ok());
  EXPECT_EQ(coordinator.ProbeBlacklistedWorkers(), 0);
  EXPECT_EQ(coordinator.ProbeBlacklistedWorkers(), 0);
  flapper->Kill();  // flap
  EXPECT_EQ(coordinator.ProbeBlacklistedWorkers(), 0);  // streak resets
  ASSERT_TRUE(flapper->Revive().ok());
  EXPECT_EQ(coordinator.ProbeBlacklistedWorkers(), 0);
  EXPECT_EQ(coordinator.ProbeBlacklistedWorkers(), 0);
  EXPECT_EQ(coordinator.ProbeBlacklistedWorkers(), 1);
  EXPECT_TRUE(coordinator.BlacklistedWorkers().empty());
}

// Worker::Drain() directly: refuses double-drain, completes in-flight tasks,
// and Revive() only resurrects the dead.
TEST(WorkerDrainTest, DrainWaitsForInFlightTasksAndRefusesNewOnes) {
  Worker worker("drain-test", 2);
  std::atomic<bool> release{false};
  std::atomic<int> completed{0};
  ASSERT_TRUE(worker.SubmitTask([&] {
    while (!release.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
    ++completed;
  }));
  std::thread drainer([&] { ASSERT_TRUE(worker.Drain().ok()); });
  // The drain is blocked on the running task; new work is already refused.
  while (worker.state() == WorkerState::kActive) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(worker.SubmitTask([] {}));
  EXPECT_FALSE(worker.SubmitDedicatedTask([] {}));
  EXPECT_EQ(completed.load(), 0) << "drain returned before the task finished";
  release.store(true);
  drainer.join();
  EXPECT_EQ(worker.state(), WorkerState::kShutDown);
  EXPECT_EQ(completed.load(), 1);
  EXPECT_EQ(worker.active_tasks(), 0);
  // Double drain and reviving a non-dead worker are classified errors.
  EXPECT_FALSE(worker.Drain().ok());
  EXPECT_FALSE(worker.Revive().ok());
}

}  // namespace
}  // namespace presto
