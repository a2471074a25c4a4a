#include "presto/cluster/resource_groups.h"

#include <algorithm>
#include <chrono>

#include "presto/common/clock.h"

namespace presto {

ResourceGroupsOptions DefaultResourceGroupTree() {
  ResourceGroupsOptions options;
  options.enabled = true;
  options.total_concurrency = 12;
  options.default_group = "adhoc";
  ResourceGroupConfig interactive;
  interactive.name = "interactive";
  interactive.weight = 8;
  interactive.hard_concurrency = 8;
  interactive.max_queued = 64;
  interactive.memory_fraction = 0.5;
  interactive.degradable = false;
  ResourceGroupConfig batch;
  batch.name = "batch";
  batch.weight = 2;
  batch.hard_concurrency = 2;
  batch.max_queued = 16;
  batch.memory_fraction = 0.5;
  batch.queued_timeout_millis = 30'000;
  batch.degradable = true;
  ResourceGroupConfig adhoc;
  adhoc.name = "adhoc";
  adhoc.weight = 1;
  adhoc.hard_concurrency = 4;
  adhoc.max_queued = 32;
  adhoc.memory_fraction = 0.5;
  adhoc.queued_timeout_millis = 60'000;
  adhoc.degradable = true;
  options.groups = {interactive, batch, adhoc};
  return options;
}

namespace {

// Disabled mode: one unbounded FIFO group. Concurrency is effectively
// uncapped (the pre-resource-groups coordinator never limited running
// queries, only memory), and the queue depth defers to the session's
// query_queue_max override.
ResourceGroupsOptions SingleFifoGroup() {
  ResourceGroupsOptions options;
  options.enabled = false;
  options.total_concurrency = 1 << 30;
  options.default_group = "default";
  ResourceGroupConfig all;
  all.name = "default";
  all.weight = 1;
  all.hard_concurrency = 1 << 30;
  all.max_queued = 1 << 30;
  options.groups = {all};
  return options;
}

}  // namespace

ResourceGroupManager::ResourceGroupManager(ResourceGroupsOptions options,
                                           MetricsRegistry* metrics,
                                           std::function<bool()> memory_gate)
    : options_(options.enabled ? std::move(options) : SingleFifoGroup()),
      metrics_(metrics),
      memory_gate_(std::move(memory_gate)) {
  if (options_.groups.empty()) {
    options_.groups = DefaultResourceGroupTree().groups;
  }
  for (const ResourceGroupConfig& config : options_.groups) {
    Group& group = groups_[config.name];
    group.config = config;
    group.queued_counter =
        metrics_->FindOrRegister("group." + config.name + ".queued");
    group.admitted_counter =
        metrics_->FindOrRegister("group." + config.name + ".admitted");
    group.shed_counter =
        metrics_->FindOrRegister("group." + config.name + ".shed");
  }
  // DRR visits groups in configured order so weight ties break
  // deterministically.
  for (const ResourceGroupConfig& config : options_.groups) {
    drr_order_.push_back(&groups_[config.name]);
  }
  if (options_.default_group.empty() || Find(options_.default_group) == nullptr) {
    options_.default_group = options_.groups.front().name;
  }
}

const ResourceGroupConfig* ResourceGroupManager::Find(
    const std::string& name) const {
  auto it = groups_.find(name);
  return it == groups_.end() ? nullptr : &it->second.config;
}

const ResourceGroupConfig& ResourceGroupManager::Resolve(
    const Session& session) const {
  std::string wanted = session.Property("resource_group", "");
  if (const ResourceGroupConfig* config = Find(wanted)) return *config;
  if (const ResourceGroupConfig* config = Find(session.group)) return *config;
  return *Find(options_.default_group);
}

ResourceGroupManager::Group* ResourceGroupManager::FindGroupLocked(
    const std::string& name) {
  auto it = groups_.find(name);
  return it == groups_.end() ? nullptr : &it->second;
}

void ResourceGroupManager::PromoteLocked() {
  while (total_running_ < options_.total_concurrency && memory_gate_()) {
    std::vector<Group*> eligible;
    bool any_deficit = false;
    for (Group* group : drr_order_) {
      if (group->queue.empty()) continue;
      if (group->running >= group->config.hard_concurrency) continue;
      eligible.push_back(group);
      any_deficit = any_deficit || group->deficit > 0;
    }
    if (eligible.empty()) return;
    if (!any_deficit) {
      for (Group* group : eligible) group->deficit += group->config.weight;
    }
    Group* pick = eligible.front();
    for (Group* group : eligible) {
      if (group->deficit > pick->deficit) pick = group;
    }
    Waiter* waiter = pick->queue.front();
    pick->queue.pop_front();
    waiter->admitted = true;
    ++pick->running;
    ++total_running_;
    --pick->deficit;
    pick->admitted_counter->Add(1);
  }
}

Status ResourceGroupManager::TryAdmit(const std::string& group,
                                      int64_t query_id,
                                      int64_t session_queue_max,
                                      bool* queued) {
  *queued = false;
  std::lock_guard<std::mutex> lock(mu_);
  Group* g = FindGroupLocked(group);
  if (g == nullptr) {
    return Status::Internal("unknown resource group: " + group);
  }
  // Fast path: an empty queue, free quota everywhere, and an open memory
  // gate admit immediately. A non-empty queue forces new arrivals behind the
  // waiters — otherwise late arrivals would starve the queue forever.
  if (g->queue.empty() &&
      g->running < g->config.hard_concurrency &&
      total_running_ < options_.total_concurrency && memory_gate_()) {
    ++g->running;
    ++total_running_;
    g->admitted_counter->Add(1);
    // A zero-wait sample: immediate admissions count in the queue-wait
    // distribution too, so its percentiles describe all admissions.
    metrics_->RecordHistogram("group." + group + ".queue_wait.micros", 0);
    return Status::OK();
  }
  int64_t queue_cap = g->config.max_queued;
  if (session_queue_max >= 0) {
    queue_cap = std::min<int64_t>(queue_cap, session_queue_max);
  }
  if (static_cast<int64_t>(g->queue.size()) >= queue_cap) {
    g->shed_counter->Add(1);
    return Status::Rejected(
        "resource group '" + group + "' queue full: " +
        std::to_string(g->queue.size()) + " queries already queued (cap " +
        std::to_string(queue_cap) + "); load shed");
  }
  // Park here, not in Wait(): the query's DRR position is its arrival
  // order, and the depth cap above can never be overshot by arrivals racing
  // between TryAdmit and Wait.
  auto waiter = std::make_unique<Waiter>();
  waiter->query_id = query_id;
  waiter->enqueued_steady_nanos = SteadyNowNanos();
  g->queue.push_back(waiter.get());
  g->waiters[query_id] = std::move(waiter);
  g->queued_counter->Add(1);
  *queued = true;
  return Status::OK();
}

Status ResourceGroupManager::Wait(const std::string& group, int64_t query_id,
                                  int64_t deadline_steady_nanos) {
  const std::string wait_metric = "group." + group + ".queue_wait.micros";
  std::unique_lock<std::mutex> lock(mu_);
  Group* g = FindGroupLocked(group);
  if (g == nullptr) {
    return Status::Internal("unknown resource group: " + group);
  }
  auto it = g->waiters.find(query_id);
  if (it == g->waiters.end()) {
    return Status::Internal("Wait() without a queued TryAdmit: query " +
                            std::to_string(query_id));
  }
  Waiter* waiter = it->second.get();
  const int64_t group_timeout_nanos =
      g->config.queued_timeout_millis > 0
          ? g->config.queued_timeout_millis * 1'000'000
          : 0;
  // Poll as well as wait on the cv: worker memory is also released by
  // operators mid-query (pool atomics have no coordinator hook), so a 10ms
  // re-promotion keeps admission prompt without coupling pools to this lock.
  while (true) {
    PromoteLocked();
    if (waiter->admitted) {
      metrics_->RecordHistogram(
          wait_metric,
          (SteadyNowNanos() - waiter->enqueued_steady_nanos) / 1000);
      g->waiters.erase(query_id);  // promotion already popped the queue entry
      return Status::OK();
    }
    const int64_t now = SteadyNowNanos();
    const int64_t waited = now - waiter->enqueued_steady_nanos;
    Status exit = Status::OK();
    if (deadline_steady_nanos > 0 && now >= deadline_steady_nanos) {
      exit = Status::DeadlineExceeded(
          "query deadline exceeded (query_timeout_millis) while queued for "
          "admission");
    } else if (group_timeout_nanos > 0 && waited >= group_timeout_nanos) {
      g->shed_counter->Add(1);
      exit = Status::Rejected(
          "resource group '" + group + "' queued-time deadline exceeded (" +
          std::to_string(g->config.queued_timeout_millis) +
          "ms); load shed");
    }
    if (!exit.ok()) {
      // Safe: promotion happens only under mu_, held since the admitted
      // check above, so the waiter is still parked in the queue.
      g->queue.erase(std::find(g->queue.begin(), g->queue.end(), waiter));
      g->waiters.erase(query_id);
      metrics_->RecordHistogram(wait_metric, waited / 1000);
      return exit;
    }
    cv_.wait_for(lock, std::chrono::milliseconds(10));
  }
}

void ResourceGroupManager::Release(const std::string& group) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Group* g = FindGroupLocked(group);
    if (g == nullptr) return;
    --g->running;
    --total_running_;
    PromoteLocked();
  }
  cv_.notify_all();
}

void ResourceGroupManager::NotifyCapacity() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    PromoteLocked();
  }
  cv_.notify_all();
}

int64_t ResourceGroupManager::running(const std::string& group) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second.running;
}

int64_t ResourceGroupManager::queued(const std::string& group) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = groups_.find(group);
  return it == groups_.end() ? 0
                             : static_cast<int64_t>(it->second.queue.size());
}

int64_t ResourceGroupManager::total_running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_running_;
}

std::vector<std::string> ResourceGroupManager::GroupNames() const {
  std::vector<std::string> out;
  for (const auto& [name, group] : groups_) out.push_back(name);
  return out;
}

}  // namespace presto
