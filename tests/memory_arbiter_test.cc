// MemoryArbiter over a bare pool tree: fake revocable consumers whose state
// is a number, no cluster. Covers victim ranking, the scope a refused pool
// sets, revocation before killing, and the kill path's wait.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "presto/common/clock.h"
#include "presto/common/memory_pool.h"
#include "presto/common/metrics.h"
#include "presto/common/trace.h"
#include "presto/fs/memory_file_system.h"

namespace presto {
namespace {

constexpr int64_t kMiB = MemoryConsumer::kQuantum;

// A spilling query under `parent` with a user pool capped at `user_cap`.
// The fake consumers never write, so the spill area is never touched.
std::shared_ptr<QueryMemory> AddQuery(MemoryArbiter* arbiter,
                                      MemoryPool* parent, int64_t id,
                                      int64_t user_cap = MemoryPool::kUnlimited) {
  static MemoryFileSystem spill_fs;
  auto q = std::make_shared<QueryMemory>();
  q->query_id = id;
  q->spill_fs = &spill_fs;
  q->query = parent->AddChild("query." + std::to_string(id));
  q->user = q->query->AddChild("user", user_cap);
  q->system = q->query->AddChild("system");
  arbiter->AddQuery(q.get());
  return q;
}

// A revocable consumer whose state is `state` bytes; revoking it appends
// its name to `log` and empties it.
struct FakeState {
  FakeState(std::string name, const std::shared_ptr<QueryMemory>& query,
            std::vector<std::string>* log, int64_t state_bytes,
            MetricsRegistry* metrics = nullptr)
      : name(std::move(name)),
        state(state_bytes),
        pool(query->user->AddChild(this->name)) {
    memory.Init(pool, query, metrics,
                [this] { return state; },
                [this, log] {
                  log->push_back(this->name);
                  state = 0;
                  return Status::OK();
                });
  }
  std::string name;
  int64_t state;  // guarded by memory.mu()
  std::shared_ptr<MemoryPool> pool;  // the consumer's own leaf pool
  MemoryConsumer memory;
};

TEST(MemoryArbiterTest, RevokesTheLargestConsumerFirst) {
  auto worker = MemoryPool::CreateRoot("worker", 100 * kMiB);
  MemoryArbiter arbiter(worker);
  auto q = AddQuery(&arbiter, worker.get(), 1, 10 * kMiB);
  std::vector<std::string> log;
  FakeState a("a", q, &log, 3 * kMiB);
  FakeState b("b", q, &log, 5 * kMiB);
  ASSERT_TRUE(a.memory.Reserve().ok());
  ASSERT_TRUE(b.memory.Reserve().ok());
  EXPECT_EQ(q->user->reserved_bytes(), 8 * kMiB);

  // 8 + 3 MiB exceeds the 10 MiB query cap: revoking b alone leaves the
  // request and the margin room, so a keeps its state.
  FakeState r("r", q, &log, 3 * kMiB);
  ASSERT_TRUE(r.memory.Reserve().ok());
  EXPECT_EQ(log, std::vector<std::string>({"b"}));
  EXPECT_EQ(b.pool->reserved_bytes(), 0);
  EXPECT_EQ(a.pool->reserved_bytes(), 3 * kMiB);
  EXPECT_EQ(r.pool->reserved_bytes(), 3 * kMiB);
  EXPECT_EQ(q->user->reserved_bytes(), 6 * kMiB);
  EXPECT_FALSE(q->killed.load());
  arbiter.RemoveQuery(q.get());
}

// Under a cap below one quantum nobody holds a reservation, so the ranking
// must come from the state estimates. The requester is a candidate too and
// revokes itself once it is the largest left; the smallest is spared.
TEST(MemoryArbiterTest, RanksByEstimateWhenNoConsumerHoldsAReservation) {
  auto worker = MemoryPool::CreateRoot("worker", 100 * kMiB);
  MemoryArbiter arbiter(worker);
  auto q = AddQuery(&arbiter, worker.get(), 1, 64 << 10);
  std::vector<std::string> log;
  FakeState small("small", q, &log, 100 << 10);
  FakeState big("big", q, &log, 300 << 10);
  FakeState requester("requester", q, &log, 200 << 10);
  ASSERT_TRUE(requester.memory.Reserve().ok());
  EXPECT_EQ(log, std::vector<std::string>({"big", "requester"}));
  EXPECT_EQ(q->user->reserved_bytes(), 0);

  // A build side cannot be revoked: every state goes, then it fails.
  MemoryConsumer build;
  build.Init(q->user->AddChild("build"), q, nullptr);
  Status st = build.Reserve(1);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(log, std::vector<std::string>({"big", "requester", "small"}));
  EXPECT_FALSE(q->killed.load());
  arbiter.RemoveQuery(q.get());
}

TEST(MemoryArbiterTest, GroupCapFailureStaysInsideTheTenant) {
  auto worker = MemoryPool::CreateRoot("worker", 100 * kMiB);
  MemoryArbiter arbiter(worker);
  auto tenant = worker->AddChild("group.batch", 8 * kMiB);
  auto other = worker->AddChild("group.interactive");
  auto q1 = AddQuery(&arbiter, tenant.get(), 1);
  auto q2 = AddQuery(&arbiter, tenant.get(), 2);
  auto q3 = AddQuery(&arbiter, other.get(), 3);
  std::vector<std::string> log;
  FakeState outsider("outsider", q3, &log, 20 * kMiB);
  FakeState a("a", q1, &log, 3 * kMiB);
  FakeState b("b", q2, &log, 4 * kMiB);
  for (FakeState* s : {&outsider, &a, &b}) ASSERT_TRUE(s->memory.Reserve().ok());

  MemoryConsumer build;
  build.Init(q1->user->AddChild("build"), q1, nullptr);
  ASSERT_TRUE(build.Reserve(2 * kMiB).ok());
  EXPECT_EQ(log, std::vector<std::string>({"b"}))
      << "the tenant's largest state goes, not the larger outsider";

  // More than the whole tenant cap: the tenant's state is revoked, the
  // request fails, and nobody outside the tenant is touched or killed.
  Status st = build.Reserve(9 * kMiB);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(log, std::vector<std::string>({"b", "a"}));
  EXPECT_EQ(outsider.pool->reserved_bytes(), 20 * kMiB);
  for (auto* q : {q1.get(), q2.get(), q3.get()}) {
    EXPECT_FALSE(q->killed.load()) << q->query_id;
    arbiter.RemoveQuery(q);
  }
}

// At the worker cap another query's revocable state goes before anyone is
// killed. The revocation is charged to the victim: the spill it caused
// leaves the requester's blocked-time cell and reaches the victim's when
// the victim settles, and memory.revoked.bytes counts the freed estimate.
TEST(MemoryArbiterTest, WorkerCapRevokesAnotherQueryBeforeKilling) {
  auto worker = MemoryPool::CreateRoot("worker", 10 * kMiB);
  int kills = 0;
  MemoryArbiter arbiter(worker, [&kills](const QueryMemory&,
                                         const QueryMemory&, int64_t) {
    ++kills;
  });
  auto q1 = AddQuery(&arbiter, worker.get(), 1);
  auto q2 = AddQuery(&arbiter, worker.get(), 2);
  MetricsRegistry q1_metrics;
  int64_t victim_state = 6 * kMiB - 100;
  auto victim_pool = q1->user->AddChild("agg");
  MemoryConsumer victim;
  victim.Init(victim_pool, q1, &q1_metrics,
              [&] { return victim_state; },
              [&] {
                AddThreadSpillWriteBytes(4096);
                victim_state = 0;
                return Status::OK();
              });
  ASSERT_TRUE(victim.Reserve().ok());

  const BlockedCounters before = ThreadBlockedCounters();
  MemoryConsumer build;
  build.Init(q2->user->AddChild("build"), q2, nullptr);
  ASSERT_TRUE(build.Reserve(6 * kMiB).ok());
  EXPECT_EQ(kills, 0);
  EXPECT_FALSE(q1->killed.load());
  EXPECT_EQ(victim_pool->reserved_bytes(), 0);
  EXPECT_EQ(q1_metrics.Get("memory.revoked.bytes"), 6 * kMiB - 100);
  BlockedCounters charged = ThreadBlockedCounters().Delta(before);
  EXPECT_EQ(charged.spill_write_bytes, 0) << "the requester did not spill";
  EXPECT_GE(charged.nanos[static_cast<int>(BlockedKind::kMemoryWait)], 0);

  ASSERT_TRUE(victim.Unregister().ok());
  charged = ThreadBlockedCounters().Delta(before);
  EXPECT_EQ(charged.spill_write_bytes, 4096) << "the victim's spill settles";
  arbiter.RemoveQuery(q1.get());
  arbiter.RemoveQuery(q2.get());
}

// The kill path: nothing is revocable, so the largest query is killed and
// the requester waits on the victim's release — here 2.5 s, longer than a
// fixed retry window would allow.
TEST(MemoryArbiterTest, KillWaiterOutlastsASlowVictim) {
  auto worker = MemoryPool::CreateRoot("worker", 10 * kMiB);
  std::vector<int64_t> victims;
  MemoryArbiter arbiter(worker, [&victims](const QueryMemory& victim,
                                           const QueryMemory&, int64_t) {
    victims.push_back(victim.query_id);
  });
  auto hog = AddQuery(&arbiter, worker.get(), 1);
  auto small = AddQuery(&arbiter, worker.get(), 2);
  MemoryConsumer held;
  held.Init(hog->user->AddChild("build"), hog, nullptr);
  ASSERT_TRUE(held.Reserve(8 * kMiB).ok());

  std::thread victim([&] {
    while (!hog->killed.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2500));
    ASSERT_TRUE(held.Reserve(0).ok());
    arbiter.RemoveQuery(hog.get());
  });
  auto build_pool = small->user->AddChild("build");
  MemoryConsumer build;
  build.Init(build_pool, small, nullptr);
  const int64_t start = SteadyNowNanos();
  Status st = build.Reserve(4 * kMiB);
  const int64_t waited_ms = (SteadyNowNanos() - start) / 1'000'000;
  victim.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(waited_ms, 2500);
  EXPECT_EQ(victims, std::vector<int64_t>({1}));
  EXPECT_FALSE(small->killed.load());
  EXPECT_EQ(build_pool->reserved_bytes(), 4 * kMiB);
  arbiter.RemoveQuery(small.get());
}

TEST(MemoryArbiterTest, QueryDeadlineBoundsTheKillWait) {
  auto worker = MemoryPool::CreateRoot("worker", 10 * kMiB);
  MemoryArbiter arbiter(worker);
  auto hog = AddQuery(&arbiter, worker.get(), 1);
  auto small = AddQuery(&arbiter, worker.get(), 2);
  MemoryConsumer held;
  held.Init(hog->user->AddChild("build"), hog, nullptr);
  ASSERT_TRUE(held.Reserve(8 * kMiB).ok());

  small->deadline_steady_nanos = SteadyNowNanos() + 300'000'000;
  auto build_pool = small->user->AddChild("build");
  MemoryConsumer build;
  build.Init(build_pool, small, nullptr);
  Status st = build.Reserve(4 * kMiB);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_GE(SteadyNowNanos(), small->deadline_steady_nanos);
  EXPECT_TRUE(hog->killed.load()) << "the hog was the victim";
  EXPECT_EQ(build_pool->reserved_bytes(), 0);

  // The requester's own query is the largest: it is killed, not waited on.
  auto only = AddQuery(&arbiter, worker.get(), 3);
  arbiter.RemoveQuery(hog.get());
  ASSERT_TRUE(held.Reserve(0).ok());
  MemoryConsumer greedy;
  greedy.Init(only->user->AddChild("build"), only, nullptr);
  ASSERT_TRUE(greedy.Reserve(9 * kMiB).ok());
  st = greedy.Reserve(12 * kMiB);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_TRUE(only->killed.load());
  arbiter.RemoveQuery(small.get());
  arbiter.RemoveQuery(only.get());
}

}  // namespace
}  // namespace presto
