// Resource groups, weighted-fair admission, and overload protection.
//
// Covers the multi-tenant admission layer end to end: deficit-weighted
// round-robin proportionality and starvation resistance at the
// ResourceGroupManager level, cluster-level load shedding (kRejected) with
// per-group accounting, queued-time deadlines, the query_timeout_millis
// deadline while queued, gateway backoff on shed clusters, a seeded chaos
// workload whose per-group accounting must reconcile exactly, and the
// Prometheus / journal / trace plumbing of the resource_group dimension.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "presto/cluster/cluster.h"
#include "presto/cluster/coordinator.h"
#include "presto/cluster/gateway.h"
#include "presto/cluster/resource_groups.h"
#include "presto/common/clock.h"
#include "presto/common/fault_injection.h"
#include "presto/common/metrics.h"
#include "presto/common/random.h"
#include "presto/common/status.h"
#include "presto/connectors/memory/memory_connector.h"
#include "presto/mysqlite/mysqlite.h"
#include "presto/vector/vector.h"

namespace presto {
namespace {

ResourceGroupConfig MakeGroup(const std::string& name, int weight,
                              int hard_concurrency, int max_queued) {
  ResourceGroupConfig config;
  config.name = name;
  config.weight = weight;
  config.hard_concurrency = hard_concurrency;
  config.max_queued = max_queued;
  return config;
}

// ---------------------------------------------------------------------------
// ResourceGroupManager unit tests (no cluster)
// ---------------------------------------------------------------------------

// Harness around the manager: spawns one thread per queued admission, records
// the order in which admissions are granted (each admitted thread immediately
// releases its slot, so with total_concurrency=1 the grant order is exactly
// the DRR promotion order). The recorded order only equals the promotion
// order if at most one waiter is admitted at a time — serialize either with
// total_concurrency=1 or a one-token memory gate refilled by `post_record`
// (which runs after the admission is recorded, before Release).
class AdmissionOrderHarness {
 public:
  explicit AdmissionOrderHarness(ResourceGroupManager* manager,
                                 std::function<void()> post_record = nullptr)
      : manager_(manager), post_record_(std::move(post_record)) {}

  ~AdmissionOrderHarness() { Join(); }

  void Enqueue(const std::string& group, int64_t query_id) {
    bool queued = false;
    Status st = manager_->TryAdmit(group, query_id, -1, &queued);
    ASSERT_TRUE(st.ok()) << st.ToString();
    if (!queued) {
      // Fast-path admission (no slot contention yet): record and release.
      Record(group, query_id);
      if (post_record_) post_record_();
      manager_->Release(group);
      return;
    }
    threads_.emplace_back([this, group, query_id] {
      Status wait = manager_->Wait(group, query_id, 0);
      EXPECT_TRUE(wait.ok()) << wait.ToString();
      if (wait.ok()) {
        Record(group, query_id);
        if (post_record_) post_record_();
        manager_->Release(group);
      }
    });
  }

  void Join() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

  std::vector<std::pair<std::string, int64_t>> Order() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  void Record(const std::string& group, int64_t query_id) {
    std::lock_guard<std::mutex> lock(mu_);
    order_.emplace_back(group, query_id);
  }

  ResourceGroupManager* manager_;
  std::function<void()> post_record_;
  std::mutex mu_;
  std::vector<std::pair<std::string, int64_t>> order_;
  std::vector<std::thread> threads_;
};

void WaitForQueued(ResourceGroupManager& manager, const std::string& group,
                   int64_t count) {
  for (int i = 0; i < 2000 && manager.queued(group) < count; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(manager.queued(group), count)
      << "group " << group << " never reached " << count << " waiters";
}

// Weighted-fair proportionality: with interactive:batch weights 8:1 and both
// queues saturated, the first DRR cycle grants interactive 8 of the first 9
// slots (ties break in configured order, so the cycle is 8 interactive then 1
// batch).
TEST(ResourceGroupManagerTest, WeightedFairProportionalAdmission) {
  ResourceGroupsOptions options;
  options.enabled = true;
  options.total_concurrency = 1;  // serialize admissions: order == DRR order
  options.default_group = "interactive";
  options.groups = {MakeGroup("interactive", 8, 100, 100),
                    MakeGroup("batch", 1, 100, 100)};
  MetricsRegistry metrics;
  ResourceGroupManager manager(std::move(options), &metrics, [] { return true; });

  // Occupy the single global slot so everything below queues.
  bool queued = false;
  ASSERT_TRUE(manager.TryAdmit("interactive", 1000, -1, &queued).ok());
  ASSERT_FALSE(queued);

  AdmissionOrderHarness harness(&manager);
  for (int64_t i = 0; i < 8; ++i) harness.Enqueue("batch", i);
  for (int64_t i = 10; i < 18; ++i) harness.Enqueue("interactive", i);
  WaitForQueued(manager, "batch", 8);
  WaitForQueued(manager, "interactive", 8);

  manager.Release("interactive");  // open the floodgate
  harness.Join();

  auto order = harness.Order();
  ASSERT_EQ(order.size(), 16u);
  int interactive_in_first_nine = 0;
  for (size_t i = 0; i < 9; ++i) {
    if (order[i].first == "interactive") ++interactive_in_first_nine;
  }
  EXPECT_EQ(interactive_in_first_nine, 8)
      << "weights 8:1 must grant interactive 8 of the first 9 admissions";

  EXPECT_EQ(manager.total_running(), 0);
  EXPECT_EQ(manager.queued("interactive"), 0);
  EXPECT_EQ(manager.queued("batch"), 0);
  EXPECT_EQ(metrics.Get("group.interactive.admitted"), 9);  // blocker + 8
  EXPECT_EQ(metrics.Get("group.batch.admitted"), 8);
}

// Starvation differential: a late interactive arrival behind a deep batch
// backlog is admitted first under weighted-fair groups, and dead last under
// the single-FIFO (groups disabled) admission it replaces.
TEST(ResourceGroupManagerTest, LateInteractiveArrivalDoesNotStarve) {
  constexpr int64_t kLateArrival = 99;

  // Weighted-fair: the late interactive query jumps the batch backlog.
  {
    ResourceGroupsOptions options;
    options.enabled = true;
    options.total_concurrency = 1;
    options.default_group = "interactive";
    options.groups = {MakeGroup("interactive", 8, 100, 100),
                      MakeGroup("batch", 1, 100, 100)};
    MetricsRegistry metrics;
    ResourceGroupManager manager(std::move(options), &metrics,
                                 [] { return true; });
    bool queued = false;
    ASSERT_TRUE(manager.TryAdmit("batch", 1000, -1, &queued).ok());
    ASSERT_FALSE(queued);

    AdmissionOrderHarness harness(&manager);
    for (int64_t i = 0; i < 6; ++i) harness.Enqueue("batch", i);
    WaitForQueued(manager, "batch", 6);
    harness.Enqueue("interactive", kLateArrival);
    WaitForQueued(manager, "interactive", 1);

    manager.Release("batch");
    harness.Join();
    auto order = harness.Order();
    ASSERT_EQ(order.size(), 7u);
    EXPECT_EQ(order.front().second, kLateArrival)
        << "weighted-fair admission must not starve interactive behind batch";
  }

  // Single FIFO (disabled): strict arrival order, the late query waits out
  // the entire backlog.
  {
    ResourceGroupsOptions options;  // enabled = false
    MetricsRegistry metrics;
    ResourceGroupManager manager(std::move(options), &metrics,
                                 [] { return true; });
    ASSERT_FALSE(manager.enabled());
    // The disabled manager never caps concurrency, so simulate the busy
    // cluster with a token-bucket memory gate: each token admits exactly one
    // query (every PromoteLocked iteration re-checks the gate), and the
    // admitted thread mints the next token only after recording its place —
    // otherwise one gate opening admits the whole queue in a single sweep
    // and the recorded order is scheduler wake order, not admission order.
    std::atomic<int> tokens{0};
    MetricsRegistry gated_metrics;
    ResourceGroupManager fifo(ResourceGroupsOptions(), &gated_metrics,
                              [&] { return tokens.fetch_sub(1) > 0; });

    AdmissionOrderHarness harness(&fifo, [&] { tokens.store(1); });
    for (int64_t i = 0; i < 6; ++i) harness.Enqueue("default", i);
    WaitForQueued(fifo, "default", 6);
    harness.Enqueue("default", kLateArrival);
    WaitForQueued(fifo, "default", 7);

    tokens.store(1);
    fifo.NotifyCapacity();
    harness.Join();
    auto order = harness.Order();
    ASSERT_EQ(order.size(), 7u);
    EXPECT_EQ(order.back().second, kLateArrival)
        << "FIFO admission serves strictly in arrival order";
  }
}

// Queue-depth overload protection: admissions beyond hard_concurrency +
// max_queued shed with kRejected (not kResourceExhausted), and only the
// overloaded group pays.
TEST(ResourceGroupManagerTest, QueueDepthOverflowShedsWithRejected) {
  ResourceGroupsOptions options;
  options.enabled = true;
  options.total_concurrency = 100;
  options.default_group = "interactive";
  options.groups = {MakeGroup("interactive", 8, 100, 100),
                    MakeGroup("batch", 1, 2, 3)};
  MetricsRegistry metrics;
  std::atomic<bool> gate_open{true};
  ResourceGroupManager manager(std::move(options), &metrics,
                               [&] { return gate_open.load(); });

  bool queued = false;
  // Fill batch's run quota...
  for (int64_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(manager.TryAdmit("batch", i, -1, &queued).ok());
    ASSERT_FALSE(queued);
  }
  // ...then its queue (TryAdmit counts these toward the depth even before
  // Wait() parks them)...
  for (int64_t i = 2; i < 5; ++i) {
    ASSERT_TRUE(manager.TryAdmit("batch", i, -1, &queued).ok());
    ASSERT_TRUE(queued);
  }
  // ...and the next arrival is shed.
  Status shed = manager.TryAdmit("batch", 5, -1, &queued);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kRejected) << shed.ToString();
  EXPECT_NE(shed.message().find("load shed"), std::string::npos);
  EXPECT_EQ(metrics.Get("group.batch.shed"), 1);
  EXPECT_EQ(metrics.Get("group.interactive.shed"), 0);

  // Interactive is untouched by batch's overload.
  ASSERT_TRUE(manager.TryAdmit("interactive", 50, -1, &queued).ok());
  EXPECT_FALSE(queued);
  manager.Release("interactive");
  manager.Release("batch");
  manager.Release("batch");
}

// ---------------------------------------------------------------------------
// Cluster-level tests
// ---------------------------------------------------------------------------

class WorkloadClusterTest : public ::testing::Test {
 protected:
  void MakeCluster(CoordinatorOptions options) {
    cluster_ = std::make_unique<PrestoCluster>("workload", 2, 2, options);
    auto memory = std::make_shared<MemoryConnector>();
    ASSERT_TRUE(
        memory->CreateTable("raw", "t", Type::Row({"x"}, {Type::Bigint()}))
            .ok());
    ASSERT_TRUE(
        memory->AppendPage("raw", "t", Page({MakeBigintVector({1, 2, 3})}))
            .ok());
    ASSERT_TRUE(cluster_->catalogs().RegisterCatalog("mem", memory).ok());
  }

  Result<QueryResult> Run(const std::string& group,
                          std::map<std::string, std::string> props = {}) {
    Session session;
    session.properties = std::move(props);
    if (!group.empty()) session.properties["resource_group"] = group;
    return cluster_->Execute("SELECT sum(x) FROM mem.raw.t", session);
  }

  bool JournalHas(QueryEventKind kind, const std::string& group = "") {
    for (const QueryEvent& event : cluster_->coordinator().journal().Events()) {
      if (event.kind == kind &&
          (group.empty() || event.resource_group == group)) {
        return true;
      }
    }
    return false;
  }

  std::unique_ptr<PrestoCluster> cluster_;
};

// A group's queued-time deadline sheds the queued query with kRejected and a
// query_shed journal event; the per-query deadline (query_timeout_millis)
// instead exits with the classified timeout and a query_timeout_queued event.
TEST_F(WorkloadClusterTest, QueuedTimeoutsShedAndJournal) {
  CoordinatorOptions options;
  options.worker_memory_bytes = 16 << 20;
  options.admission_high_water = 0.5;
  options.resource_groups.enabled = true;
  options.resource_groups.total_concurrency = 8;
  options.resource_groups.default_group = "interactive";
  auto batch = MakeGroup("batch", 1, 2, 16);
  batch.queued_timeout_millis = 30;
  options.resource_groups.groups = {MakeGroup("interactive", 8, 4, 16), batch};
  MakeCluster(options);

  Coordinator& coordinator = cluster_->coordinator();
  // Hold worker memory above the high-water mark so everything queues.
  ASSERT_TRUE(coordinator.worker_pool()->Reserve(10 << 20).ok());

  // Group queued-time deadline: shed with kRejected.
  auto shed = Run("batch");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kRejected)
      << shed.status().ToString();
  EXPECT_NE(shed.status().message().find("queued-time deadline"),
            std::string::npos)
      << shed.status().ToString();
  EXPECT_TRUE(JournalHas(QueryEventKind::kShed, "batch"));
  EXPECT_GE(coordinator.metrics().Get("group.batch.shed"), 1);
  EXPECT_GE(coordinator.metrics().Get("query.shed"), 1);

  // Per-query deadline while queued: classified timeout + journal event.
  auto timed_out = Run("interactive", {{"query_timeout_millis", "50"}});
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded)
      << timed_out.status().ToString();
  EXPECT_NE(timed_out.status().message().find(
                "query deadline exceeded (query_timeout_millis) while queued"),
            std::string::npos)
      << timed_out.status().ToString();
  EXPECT_TRUE(JournalHas(QueryEventKind::kTimeoutQueued, "interactive"));
  EXPECT_GE(coordinator.metrics().Get("query.timeout.queued"), 1);

  // Interactive never shed anything.
  EXPECT_EQ(coordinator.metrics().Get("group.interactive.shed"), 0);

  coordinator.worker_pool()->Release(10 << 20);
  auto ok = Run("interactive");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(coordinator.resource_groups().total_running(), 0);
}

// The resource_group dimension shows up everywhere the operator looks:
// journal events, the Prometheus exposition, and the trace's root query span.
TEST_F(WorkloadClusterTest, GroupDimensionInJournalMetricsAndTrace) {
  CoordinatorOptions options;
  options.resource_groups = DefaultResourceGroupTree();
  MakeCluster(options);

  auto traced = Run("interactive", {{"query_trace", "true"}});
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  auto batch = Run("batch");
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  // Journal events carry the group.
  bool saw_interactive = false;
  for (const QueryEvent& event : cluster_->coordinator().journal().Events()) {
    if (event.query_id == traced->query_id) {
      EXPECT_EQ(event.resource_group, "interactive") << event.ToString();
      saw_interactive = true;
    }
  }
  EXPECT_TRUE(saw_interactive);

  // The root query span is labeled with the group.
  bool root_labeled = false;
  for (const TraceSpan& span : traced->trace_spans) {
    if (span.parent_id == 0 &&
        span.name.find("group=interactive") != std::string::npos) {
      root_labeled = true;
    }
  }
  EXPECT_TRUE(root_labeled) << "root span not labeled with the resource group";

  // Prometheus exposition includes the per-group counters (sanitized names).
  std::string exposition = cluster_->RenderMetricsText();
  EXPECT_NE(exposition.find("group_interactive_admitted"), std::string::npos);
  EXPECT_NE(exposition.find("group_batch_admitted"), std::string::npos);
  EXPECT_NE(exposition.find("group_interactive_queue_wait_micros"),
            std::string::npos)
      << "queue-wait histogram missing from the exposition";
}

// Gateway overload handling: a cluster that load-sheds (kRejected) is not
// blind-failovered as "sick" — the gateway backs off with jitter, counts
// gateway.route.shed, keeps the cluster healthy, and serves the query from
// the next cluster.
TEST(GatewayShedTest, BacksOffAndFailsOverWithoutHealthPenalty) {
  // Cluster A sheds everything: zero concurrency, zero queue depth.
  CoordinatorOptions shed_all;
  shed_all.resource_groups.enabled = true;
  shed_all.resource_groups.total_concurrency = 0;
  shed_all.resource_groups.default_group = "adhoc";
  shed_all.resource_groups.groups = {MakeGroup("adhoc", 1, 0, 0)};
  PrestoCluster cluster_a("cluster-a", 1, 2, shed_all);
  PrestoCluster cluster_b("cluster-b", 1, 2);
  for (PrestoCluster* cluster : {&cluster_a, &cluster_b}) {
    auto memory = std::make_shared<MemoryConnector>();
    ASSERT_TRUE(
        memory->CreateTable("raw", "t", Type::Row({"x"}, {Type::Bigint()}))
            .ok());
    ASSERT_TRUE(
        memory->AppendPage("raw", "t", Page({MakeBigintVector({7, 8})})).ok());
    ASSERT_TRUE(cluster->catalogs().RegisterCatalog("mem", memory).ok());
  }

  mysqlite::MySqlLite routing_db;
  PrestoGateway gateway(&routing_db, /*unhealthy_threshold=*/3,
                        /*overload_backoff_millis=*/2);
  ASSERT_TRUE(gateway.RegisterCluster("cluster-a", &cluster_a).ok());
  ASSERT_TRUE(gateway.RegisterCluster("cluster-b", &cluster_b).ok());
  ASSERT_TRUE(gateway.SetDefaultRoute("cluster-a").ok());

  auto result = gateway.Submit("SELECT sum(x) FROM mem.raw.t", Session());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_rows, 1);

  EXPECT_GE(gateway.metrics().Get("gateway.route.shed"), 1);
  EXPECT_GE(gateway.metrics().Get("gateway.query.overload_failover"), 1);
  // Shed is overload, not sickness: cluster A keeps its health.
  EXPECT_TRUE(gateway.IsClusterHealthy("cluster-a"));
  EXPECT_TRUE(gateway.IsClusterHealthy("cluster-b"));
  EXPECT_GE(cluster_a.coordinator().metrics().Get("group.adhoc.shed"), 1);
}

// Seeded chaos under a concurrent multi-tenant workload: a worker is killed
// mid-workload; with retries armed the workload completes (or fails
// classified), and afterwards every group's slot/queue accounting reconciles
// to exactly zero with no leaked worker memory.
TEST(WorkloadChaosTest, WorkerKillMidWorkloadReconcilesGroupAccounting) {
  FaultInjector::Global().Reset();
  CoordinatorOptions options;
  options.resource_groups = DefaultResourceGroupTree();
  options.journal_capacity = 1 << 16;
  PrestoCluster cluster("workload-chaos", 3, 2, options);
  auto memory = std::make_shared<MemoryConnector>();
  TypePtr facts = Type::Row({"k", "v"}, {Type::Bigint(), Type::Bigint()});
  ASSERT_TRUE(memory->CreateTable("raw", "facts", facts).ok());
  Random rng(4207);
  for (int p = 0; p < 4; ++p) {
    size_t n = 300;
    std::vector<int64_t> k(n), v(n);
    for (size_t i = 0; i < n; ++i) {
      k[i] = static_cast<int64_t>(rng.NextBelow(20));
      v[i] = static_cast<int64_t>(rng.NextBelow(1000));
    }
    ASSERT_TRUE(memory
                    ->AppendPage("raw", "facts",
                                 Page({MakeBigintVector(std::move(k)),
                                       MakeBigintVector(std::move(v))}))
                    .ok());
  }
  ASSERT_TRUE(cluster.catalogs().RegisterCatalog("mem", memory).ok());

  // Kill the worker hosting the 5th dispatched task, mid-workload.
  FaultInjector::Global().ArmScripted("worker.kill", {5});

  const std::vector<std::string> groups = {"interactive", "batch", "adhoc"};
  std::atomic<int> ok_count{0}, classified{0}, unclassified{0};
  std::vector<std::thread> sessions;
  for (int s = 0; s < 6; ++s) {
    sessions.emplace_back([&, s] {
      Session session;
      session.properties["resource_group"] = groups[s % groups.size()];
      session.properties["query_max_task_retries"] = "2";
      session.properties["task_retry_backoff_millis"] = "1";
      session.properties["query_timeout_millis"] = "30000";
      for (int q = 0; q < 4; ++q) {
        auto result = cluster.Execute(
            "SELECT k, count(*), sum(v) FROM mem.raw.facts GROUP BY k",
            session);
        if (result.ok()) {
          ++ok_count;
        } else if (IsRetryableStatus(result.status()) ||
                   result.status().code() == StatusCode::kRejected ||
                   result.status().code() == StatusCode::kResourceExhausted) {
          ++classified;
        } else {
          ++unclassified;
          ADD_FAILURE() << "unclassified workload failure: "
                        << result.status().ToString();
        }
      }
    });
  }
  for (auto& t : sessions) t.join();
  FaultInjector::Global().Reset();

  EXPECT_EQ(unclassified.load(), 0);
  EXPECT_GT(ok_count.load(), 0) << "the whole workload failed";

  // Accounting reconciles exactly: no leaked slots, queues, or memory.
  ResourceGroupManager& manager = cluster.coordinator().resource_groups();
  EXPECT_EQ(manager.total_running(), 0);
  const MetricsRegistry& metrics = cluster.coordinator().metrics();
  for (const std::string& group : groups) {
    EXPECT_EQ(manager.running(group), 0) << group;
    EXPECT_EQ(manager.queued(group), 0) << group;
    // Every admission released its slot: admitted == completed, per group.
    EXPECT_EQ(metrics.Get("group." + group + ".admitted"),
              metrics.Get("group." + group + ".completed"))
        << group;
  }
  EXPECT_EQ(cluster.coordinator().worker_pool()->reserved_bytes(), 0);

  // The cluster still serves queries after the chaos.
  Session session;
  session.properties["resource_group"] = "interactive";
  auto after = cluster.Execute("SELECT count(*) FROM mem.raw.facts", session);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

// Restart-once × resource groups: a transient intermediate-stage failure
// restarts the query, and the restarted run re-enters its group's DRR queue
// (release + re-admit) instead of riding the first run's slot — so per-group
// admitted == completed reconciles exactly through the restart.
TEST(WorkloadChaosTest, RestartOnceReentersGroupQueueAndReconciles) {
  FaultInjector::Global().Reset();
  CoordinatorOptions options;
  options.resource_groups = DefaultResourceGroupTree();
  PrestoCluster cluster("workload-restart", 3, 2, options);
  auto memory = std::make_shared<MemoryConnector>();
  TypePtr facts = Type::Row({"k", "v"}, {Type::Bigint(), Type::Bigint()});
  ASSERT_TRUE(memory->CreateTable("raw", "facts", facts).ok());
  Random rng(2026);
  for (int p = 0; p < 4; ++p) {
    size_t n = 300;
    std::vector<int64_t> k(n), v(n);
    for (size_t i = 0; i < n; ++i) {
      k[i] = static_cast<int64_t>(rng.NextBelow(20));
      v[i] = static_cast<int64_t>(rng.NextBelow(1000));
    }
    ASSERT_TRUE(memory
                    ->AppendPage("raw", "facts",
                                 Page({MakeBigintVector(std::move(k)),
                                       MakeBigintVector(std::move(v))}))
                    .ok());
  }
  ASSERT_TRUE(cluster.catalogs().RegisterCatalog("mem", memory).ok());

  Session session;
  session.properties["resource_group"] = "interactive";
  const std::string sql =
      "SELECT k, count(*), sum(v) FROM mem.raw.facts GROUP BY k";
  auto reference = cluster.Execute(sql, session);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // A latched shuffle transfer escapes leaf retry (the stage's upstream
  // partitions are already partially consumed), so recovery is the
  // restart-once rung.
  FaultInjector::Global().ArmScripted("exchange.push", {1});
  session.properties["query_max_task_retries"] = "1";
  session.properties["task_retry_backoff_millis"] = "1";
  auto result = cluster.Execute(sql, session);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->pages.size(), reference->pages.size());
  EXPECT_EQ(result->total_rows, reference->total_rows);

  const Coordinator& coordinator = cluster.coordinator();
  bool restarted = false;
  for (const QueryEvent& event : coordinator.journal().Events()) {
    restarted = restarted || event.kind == QueryEventKind::kRestarted;
  }
  EXPECT_TRUE(restarted);
  EXPECT_EQ(coordinator.metrics().Get("query.restarted"), 1);

  // The restart cost one extra admission cycle, and it reconciles: every
  // admission (including the re-admission) was paired with a completion.
  ResourceGroupManager& manager = cluster.coordinator().resource_groups();
  EXPECT_EQ(manager.total_running(), 0);
  EXPECT_EQ(manager.running("interactive"), 0);
  EXPECT_EQ(manager.queued("interactive"), 0);
  const MetricsRegistry& metrics = coordinator.metrics();
  EXPECT_GE(metrics.Get("group.interactive.admitted"), 3);
  EXPECT_EQ(metrics.Get("group.interactive.admitted"),
            metrics.Get("group.interactive.completed"));
  EXPECT_EQ(cluster.coordinator().worker_pool()->reserved_bytes(), 0);
}

}  // namespace
}  // namespace presto
