#include "presto/exec/operators.h"

#include <algorithm>
#include <functional>
#include <mutex>

#include "presto/common/clock.h"
#include "presto/common/thread_pool.h"
#include "presto/exec/kernels/kernels.h"
#include "presto/exec/kernels/selection.h"
#include "presto/exec/morsel.h"
#include "presto/exec/spill.h"
#include "presto/vector/vector_builder.h"

namespace presto {

Result<std::optional<Page>> Operator::Next() {
  if (deadline_steady_nanos_ > 0 && SteadyNowNanos() >= deadline_steady_nanos_) {
    return Status::DeadlineExceeded(
        "query deadline exceeded (query_timeout_millis)");
  }
  if (kill_flag_ != nullptr &&
      kill_flag_->killed.load(std::memory_order_relaxed)) {
    return QueryKilledStatus();
  }
  if (!collect_stats_) {
    // Row/page counts stay on (the engine and tests rely on them);
    // only the clock reads and byte estimation are skipped.
    ASSIGN_OR_RETURN(std::optional<Page> page, NextInternal());
    if (page.has_value()) {
      stats_.output_rows += static_cast<int64_t>(page->num_rows());
      stats_.output_pages += 1;
    }
    return page;
  }
  // Lazily open this instance's trace span at the first stats-collecting
  // Next() under a live context: by then the enclosing (parent/task/chain)
  // span is installed, so the tree nests naturally with the pull order.
  if (trace_recorder_ == nullptr && trace_span_id_ == 0) {
    TraceContext& ctx = ThreadTraceContext();
    if (ctx.recorder != nullptr) {
      trace_recorder_ = ctx.recorder;
      trace_span_id_ = trace_recorder_->BeginSpan(
          TraceKind::kOperator,
          stats_.operator_type + "#" + std::to_string(stats_.plan_node_id),
          ctx.span_id);
    }
  }
  // Children pulled inside NextInternal parent their spans under this one.
  TraceContextScope trace_scope(trace_recorder_, trace_span_id_);
  Stopwatch wall;
  int64_t cpu_start = CpuStopwatch::NowNanos();
  BlockedCounters blocked_start = ThreadBlockedCounters();
  Result<std::optional<Page>> result = NextInternal();
  stats_.wall_nanos += wall.ElapsedNanos();
  stats_.cpu_nanos += CpuStopwatch::NowNanos() - cpu_start;
  BlockedCounters delta = ThreadBlockedCounters().Delta(blocked_start);
  stats_.exchange_wait_nanos +=
      delta.nanos[static_cast<int>(BlockedKind::kExchangeWait)];
  stats_.spill_io_nanos += delta.nanos[static_cast<int>(BlockedKind::kSpillIo)];
  stats_.memory_wait_nanos +=
      delta.nanos[static_cast<int>(BlockedKind::kMemoryWait)];
  stats_.queued_nanos += delta.nanos[static_cast<int>(BlockedKind::kQueued)];
  stats_.scan_io_nanos += delta.nanos[static_cast<int>(BlockedKind::kScanIo)];
  stats_.spill_write_bytes += delta.spill_write_bytes;
  stats_.spill_read_bytes += delta.spill_read_bytes;
  if (!result.ok()) {
    FinishTraceSpan();
    return result;
  }
  const std::optional<Page>& page = result.value();
  if (page.has_value()) {
    stats_.output_rows += static_cast<int64_t>(page->num_rows());
    stats_.output_pages += 1;
    stats_.output_bytes += page->EstimateBytes();
  } else {
    FinishTraceSpan();
  }
  return result;
}

void Operator::FinishTraceSpan() {
  if (trace_recorder_ == nullptr) return;
  TraceRecorder* recorder = trace_recorder_;
  trace_recorder_ = nullptr;  // idempotent: exhaustion then destruction
  recorder->EndSpanWithArgs(
      trace_span_id_,
      {{"plan_node_id", stats_.plan_node_id},
       {"output_rows", stats_.output_rows},
       {"wall_nanos", stats_.wall_nanos},
       {"cpu_nanos", stats_.cpu_nanos},
       {"exchange_wait_nanos", stats_.exchange_wait_nanos},
       {"spill_io_nanos", stats_.spill_io_nanos},
       {"memory_wait_nanos", stats_.memory_wait_nanos},
       {"queued_nanos", stats_.queued_nanos},
       {"scan_io_nanos", stats_.scan_io_nanos},
       {"spill_write_bytes", stats_.spill_write_bytes},
       {"spill_read_bytes", stats_.spill_read_bytes},
       {"scan_pages_read", stats_.scan_pages_read},
       {"scan_pages_skipped",
        stats_.scan_pages_skipped_stats + stats_.scan_pages_skipped_lazy},
       {"scan_rows_pruned_late", stats_.scan_rows_pruned_late}});
}

void Operator::Arm(const ExecutionLimits& limits) {
  collect_stats_ = limits.collect_stats;
  deadline_steady_nanos_ = limits.deadline_steady_nanos;
  kill_flag_ = limits.query_memory;
}

Status Operator::RunChains(WorkStealingPool* pool, int n, const char* name,
                           const std::function<Status(int)>& fn) {
  return RunParallel(pool, n, [&](int i) {
    int64_t chain_span = 0;
    if (trace_recorder_ != nullptr) {
      chain_span = trace_recorder_->BeginSpan(
          TraceKind::kChain, name + std::to_string(i), trace_span_id_);
    }
    TraceContextScope scope(trace_recorder_, chain_span);
    Status st = fn(i);
    if (trace_recorder_ != nullptr) trace_recorder_->EndSpan(chain_span);
    return st;
  });
}

void Operator::CollectStats(std::vector<OperatorStats>* out) const {
  OperatorStats s = stats_;
  if (children_.empty()) {
    // Leaves (scan, values, remote source) pass pages through: what they
    // read is what they emit.
    s.input_rows = s.output_rows;
    s.input_bytes = s.output_bytes;
    s.input_pages = s.output_pages;
  } else {
    for (const Operator* child : children_) {
      const OperatorStats& c = child->stats();
      s.input_rows += c.output_rows;
      s.input_bytes += c.output_bytes;
      s.input_pages += c.output_pages;
    }
  }
  s.num_instances = 1;
  out->push_back(std::move(s));
  for (const Operator* child : children_) child->CollectStats(out);
}

namespace {

// Pre-registered hot-path counter bump: a single relaxed atomic add, no
// lock or name lookup per page (counters are resolved once at operator
// construction via MetricsRegistry::FindOrRegister).
void Bump(MetricsRegistry::Counter* counter, int64_t delta) {
  if (counter != nullptr && delta != 0) counter->Add(delta);
}

// The query's counter `name`, or null when the query keeps no counters.
MetricsRegistry::Counter* CounterFor(const ExecutionLimits& limits,
                                     const char* name) {
  return limits.metrics ? limits.metrics->FindOrRegister(name) : nullptr;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// Accounts one operator (or aggregation chain) under the task pool; a no-op
// while memory accounting is off (no task pool). A state the operator can
// spill passes `state_bytes`, what Reserve() reserves, and `revoke`, which
// makes it revocable when the query spills.
void InitMemory(MemoryConsumer* memory, const ExecutionLimits& limits,
                const std::string& name,
                std::function<int64_t()> state_bytes = nullptr,
                std::function<Status()> revoke = nullptr) {
  if (limits.task_pool == nullptr) return;
  memory->Init(limits.task_pool->AddChild(name), limits.query_memory,
               limits.metrics, std::move(state_bytes), std::move(revoke));
}

// A spill run writer under the query's spill area.
std::unique_ptr<Spiller> NewSpiller(const QueryMemory& query,
                                    MetricsRegistry* metrics) {
  return std::make_unique<Spiller>(query.spill_fs, query.spill_dir, metrics);
}


// Rows per spill-run page: a k-way merge holds one such page per run
// instead of one table-sized page. Also the fewest rows an aggregation
// spill merge batch folds.
constexpr size_t kRunPageRows = 4096;

// Splits `page` into kRunPageRows-row slices.
std::vector<Page> ChunkPage(const Page& page, size_t chunk_rows = kRunPageRows) {
  std::vector<Page> out;
  size_t n = page.num_rows();
  for (size_t start = 0; start < n; start += chunk_rows) {
    size_t count = std::min(chunk_rows, n - start);
    std::vector<int32_t> rows(count);
    for (size_t i = 0; i < count; ++i) {
      rows[i] = static_cast<int32_t>(start + i);
    }
    out.push_back(page.SliceRows(rows));
  }
  return out;
}

// Concatenates flat scalar parts of one type.
template <typename T>
VectorPtr ConcatFlat(const TypePtr& type, const std::vector<VectorPtr>& parts) {
  std::vector<T> values;
  std::vector<uint8_t> nulls;
  bool any_null = false;
  for (const VectorPtr& part : parts) {
    const auto* flat = static_cast<const FlatVector<T>*>(part.get());
    for (size_t i = 0; i < flat->size(); ++i) {
      values.push_back(flat->ValueAt(i));
      bool is_null = flat->IsNull(i);
      nulls.push_back(is_null ? 1 : 0);
      any_null = any_null || is_null;
    }
  }
  if (!any_null) nulls.clear();
  return std::make_shared<FlatVector<T>>(type, std::move(values),
                                         std::move(nulls));
}

// Concatenates vectors of the same type (fast paths for flat scalars).
Result<VectorPtr> ConcatVectors(const TypePtr& type,
                                const std::vector<VectorPtr>& parts) {
  if (parts.size() == 1) return parts[0];
  bool all_flat_scalar = type->IsScalar();
  for (const VectorPtr& part : parts) {
    if (part->encoding() != VectorEncoding::kFlat) all_flat_scalar = false;
  }
  if (all_flat_scalar) {
    switch (type->kind()) {
      case TypeKind::kDouble:
        return ConcatFlat<double>(type, parts);
      case TypeKind::kVarchar:
        return ConcatFlat<std::string>(type, parts);
      case TypeKind::kBoolean:
        return ConcatFlat<uint8_t>(type, parts);
      default:  // integer-like
        return ConcatFlat<int64_t>(type, parts);
    }
  }
  // Generic path (nested types, mixed encodings).
  VectorBuilder builder(type);
  for (const VectorPtr& part : parts) {
    for (size_t i = 0; i < part->size(); ++i) {
      RETURN_IF_ERROR(builder.Append(part->GetValue(i)));
    }
  }
  return builder.Build();
}

// Concatenates pages (types derived from the given output variables).
Result<Page> ConcatPages(const std::vector<VariablePtr>& variables,
                         const std::vector<Page>& pages) {
  size_t rows = 0;
  for (const Page& page : pages) rows += page.num_rows();
  std::vector<VectorPtr> columns;
  for (size_t c = 0; c < variables.size(); ++c) {
    std::vector<VectorPtr> parts;
    for (const Page& page : pages) {
      if (page.num_rows() == 0) continue;
      ASSIGN_OR_RETURN(VectorPtr flat, Vector::Flatten(page.column(c)));
      parts.push_back(std::move(flat));
    }
    if (parts.empty()) {
      ASSIGN_OR_RETURN(VectorPtr empty,
                       MakeAllNullVector(variables[c]->type(), 0));
      columns.push_back(std::move(empty));
    } else {
      ASSIGN_OR_RETURN(VectorPtr merged,
                       ConcatVectors(variables[c]->type(), parts));
      columns.push_back(std::move(merged));
    }
  }
  return Page(std::move(columns), rows);
}

// ---------------------------------------------------------------------------
// Leaf operators
// ---------------------------------------------------------------------------

class ValuesOperator final : public Operator {
 public:
  ValuesOperator(std::vector<VariablePtr> outputs,
                 const std::vector<std::vector<Value>>* rows)
      : outputs_(std::move(outputs)), rows_(rows) {}

 protected:
  Result<std::optional<Page>> NextInternal() override {
    if (done_) return std::optional<Page>();
    done_ = true;
    std::vector<VectorBuilder> builders;
    for (const VariablePtr& v : outputs_) builders.emplace_back(v->type());
    for (const auto& row : *rows_) {
      for (size_t c = 0; c < row.size(); ++c) {
        RETURN_IF_ERROR(builders[c].Append(row[c]));
      }
    }
    std::vector<VectorPtr> columns;
    for (auto& b : builders) columns.push_back(b.Build());
    return std::optional<Page>(Page(std::move(columns), rows_->size()));
  }

 private:
  std::vector<VariablePtr> outputs_;
  const std::vector<std::vector<Value>>* rows_;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Row-preserving operators
// ---------------------------------------------------------------------------

class FilterOperator final : public Operator {
 public:
  FilterOperator(OperatorPtr child, ExprPtr predicate,
                 std::map<std::string, int> layout, FunctionRegistry* functions)
      : child_(std::move(child)),
        predicate_(std::move(predicate)),
        layout_(std::move(layout)),
        functions_(functions) {
    AddChild(child_.get());
  }

 protected:
  Result<std::optional<Page>> NextInternal() override {
    while (true) {
      ASSIGN_OR_RETURN(std::optional<Page> page, child_->Next());
      if (!page.has_value()) return std::optional<Page>();
      ASSIGN_OR_RETURN(std::vector<int32_t> rows,
                       EvalPredicate(*predicate_, *page, layout_, functions_));
      if (rows.empty()) continue;
      // Surviving rows travel as a selection vector (dictionary wrap) rather
      // than a materialized copy; lazy columns load only the selected rows.
      Page out = rows.size() == page->num_rows() ? std::move(*page)
                                                 : page->WrapRows(rows);
      return std::optional<Page>(std::move(out));
    }
  }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  std::map<std::string, int> layout_;
  FunctionRegistry* functions_;
};

class ProjectOperator final : public Operator {
 public:
  ProjectOperator(OperatorPtr child, std::vector<ProjectNode::Assignment> assignments,
                  std::map<std::string, int> layout, FunctionRegistry* functions)
      : child_(std::move(child)),
        assignments_(std::move(assignments)),
        layout_(std::move(layout)),
        functions_(functions) {
    AddChild(child_.get());
    for (const ProjectNode::Assignment& a : assignments_) {
      const RowExpression& e = *a.expression;
      auto it = e.expression_kind() == ExpressionKind::kVariableReference
                    ? layout_.find(
                          static_cast<const VariableReferenceExpression&>(e)
                              .name())
                    : layout_.end();
      forwarded_.push_back(it == layout_.end() ? -1 : it->second);
    }
  }

 protected:
  Result<std::optional<Page>> NextInternal() override {
    ASSIGN_OR_RETURN(std::optional<Page> page, child_->Next());
    if (!page.has_value()) return std::optional<Page>();
    std::vector<VectorPtr> columns;
    columns.reserve(assignments_.size());
    for (size_t i = 0; i < assignments_.size(); ++i) {
      VectorPtr column;
      if (forwarded_[i] >= 0) {
        // A bare column passes on as it is (lazy columns load whole, as the
        // evaluator would load them), unless it is a dictionary selecting
        // fewer than half of its base's rows: forwarded, that base would stay
        // alive, and be charged, in every operator or exchange that holds
        // the page, at more than twice the bytes of the rows it carries.
        ASSIGN_OR_RETURN(column,
                         kernels::PrepareColumn(page->column(forwarded_[i])));
        if (column->encoding() == VectorEncoding::kDictionary &&
            2 * column->size() <
                static_cast<const DictionaryVector&>(*column).base()->size()) {
          ASSIGN_OR_RETURN(column, Vector::Flatten(column));
        }
      } else {
        ASSIGN_OR_RETURN(column,
                         Evaluator::EvalExpression(*assignments_[i].expression,
                                                   *page, layout_, functions_));
      }
      columns.push_back(std::move(column));
    }
    return std::optional<Page>(Page(std::move(columns), page->num_rows()));
  }

 private:
  OperatorPtr child_;
  std::vector<ProjectNode::Assignment> assignments_;
  std::map<std::string, int> layout_;
  FunctionRegistry* functions_;
  // Per assignment: the input channel a bare column reference forwards,
  // else -1 (evaluated).
  std::vector<int> forwarded_;
};

class LimitOperator final : public Operator {
 public:
  LimitOperator(OperatorPtr child, int64_t count)
      : child_(std::move(child)), remaining_(count) {
    AddChild(child_.get());
  }

 protected:
  Result<std::optional<Page>> NextInternal() override {
    if (remaining_ <= 0) return std::optional<Page>();
    ASSIGN_OR_RETURN(std::optional<Page> page, child_->Next());
    if (!page.has_value()) return std::optional<Page>();
    if (static_cast<int64_t>(page->num_rows()) > remaining_) {
      std::vector<int32_t> rows(remaining_);
      for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int32_t>(i);
      *page = page->WrapRows(rows);
    }
    remaining_ -= static_cast<int64_t>(page->num_rows());
    return page;
  }

 private:
  OperatorPtr child_;
  int64_t remaining_;
};

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

class HashAggregationOperator final : public Operator {
 public:
  struct AggSpec {
    const AggregateFunction* function;
    std::vector<int> arg_channels;
    TypePtr output_type;
  };

  /// `chains` feed the aggregation (one, or the task's replicated morsel
  /// chains): each chain consumes into its own thread-local
  /// radix-partitioned state, merged partition-wise after every chain
  /// finishes — the hot consume path never takes a lock.
  HashAggregationOperator(std::vector<OperatorPtr> chains,
                          std::vector<int> key_channels,
                          std::vector<TypePtr> key_types,
                          std::vector<AggSpec> aggs, AggregationStep step,
                          const ExecutionLimits& limits)
      : chains_(std::move(chains)),
        key_channels_(std::move(key_channels)),
        key_types_(std::move(key_types)),
        aggs_(std::move(aggs)),
        step_(step) {
    for (const OperatorPtr& chain : chains_) AddChild(chain.get());
    kernel_pages_counter_ = CounterFor(limits, "exec.agg.kernel_pages");
    fallback_pages_counter_ = CounterFor(limits, "exec.agg.fallback_pages");
    hash_probes_counter_ = CounterFor(limits, "exec.agg.hash_probes");
    groups_created_counter_ = CounterFor(limits, "exec.agg.groups_created");
    table_bytes_counter_ = CounterFor(limits, "exec.agg.table_bytes");
    for (const TypePtr& t : key_types_) key_kinds_.push_back(t->kind());
    for (size_t k = 0; k < key_channels_.size(); ++k) {
      inter_key_channels_.push_back(static_cast<int>(k));
    }
    radix_target_bits_ = key_channels_.empty() ? 0 : kRadixBits;
    metrics_ = limits.metrics;
    query_memory_ = limits.query_memory;
    morsel_pool_ = limits.morsel_pool;
    size_t num_chains = chains_.size();
    for (size_t i = 0; i < num_chains; ++i) {
      auto s = std::make_unique<LocalState>();
      s->chain = chains_[i].get();
      s->parts.push_back(MakePartition());
      InitMemory(&s->memory, limits,
                 num_chains == 1 ? "op.HashAggregation"
                                 : "op.HashAggregation.t" + std::to_string(i),
                 [this, st = s.get()] { return EstimateStateBytes(*st); },
                 [this, st = s.get()] { return SpillPartial(*st); });
      locals_.push_back(std::move(s));
    }
    for (const auto& g : locals_[0]->parts[0].grouped) {
      if (!g->columnar()) uses_adapter_ = true;
    }
  }

 protected:
  Result<std::optional<Page>> NextInternal() override {
    if (!consumed_) {
      consumed_ = true;
      RETURN_IF_ERROR(ConsumeAllChains());
      if (spiller_ != nullptr && spiller_->num_runs() > 0) {
        // Spilled: every chain's state is a run by now, so the hash-ordered
        // merge replaces the cross-chain table merge.
        ASSIGN_OR_RETURN(std::vector<std::unique_ptr<BlockFileReader>> readers,
                         spiller_->OpenAllRuns());
        merge_ = std::make_unique<HashOrderedMerge>(
            std::move(readers), std::vector<std::vector<Page>>(),
            key_channels_.size());
      } else if (locals_.size() > 1) {
        RETURN_IF_ERROR(MergeLocalStates());
      }
    }
    if (merge_ != nullptr) return NextMergedPage();
    return ProduceOutput();
  }

 private:
  /// One radix partition of a chain's state: a cache-sized normalized-key
  /// table plus its grouped accumulators.
  struct KernelPartition {
    std::unique_ptr<kernels::NormalizedKeyTable> table;
    std::vector<std::unique_ptr<kernels::GroupedAccumulator>> grouped;
  };

  /// Per-chain state: everything a consuming thread touches is confined to
  /// its own LocalState (tables, scratch, memory reservation, counters).
  /// The chain holds memory.mu() while it folds a page, because the memory
  /// arbiter may revoke (spill) the state from another thread in between;
  /// the state is registered as revocable until the chains join. Counters
  /// fold into the operator's stats after that.
  struct LocalState {
    Operator* chain = nullptr;
    // 2^radix_bits partitions routed by the high hash bits; starts at one
    // partition and upgrades past kRadixUpgradeGroups.
    int radix_bits = 0;
    std::vector<KernelPartition> parts;
    // Chain-confined scratch.
    std::vector<int32_t> group_ids;
    std::vector<uint64_t> hash_scratch;
    std::vector<std::vector<int32_t>> part_rows;
    // Accounting & counters.
    MemoryConsumer memory;
    int64_t kernel_pages = 0;
    int64_t fallback_pages = 0;
    int64_t spilled_bytes = 0;
    int64_t spilled_runs = 0;
  };

  KernelPartition MakePartition() const {
    KernelPartition part;
    part.table = std::make_unique<kernels::NormalizedKeyTable>(key_kinds_);
    for (const AggSpec& agg : aggs_) {
      part.grouped.push_back(
          kernels::MakeGroupedAccumulator(*agg.function, agg.output_type));
    }
    return part;
  }

  Status ConsumeAllChains() {
    Status st = RunChains(morsel_pool_, static_cast<int>(locals_.size()),
                          "chain#",
                          [this](int i) { return ConsumeChain(*locals_[i]); });
    // Nothing is revoked from here on; revocations other threads made
    // settle into this thread's blocked-time cell.
    int64_t total_groups = 0;
    int64_t table_bytes = 0;
    for (const auto& s : locals_) {
      Status unregistered = s->memory.Unregister();
      if (st.ok()) st = std::move(unregistered);
      for (const KernelPartition& part : s->parts) {
        total_groups += static_cast<int64_t>(part.table->num_groups());
        table_bytes += part.table->EstimateBytes();
      }
    }
    // A spilled aggregation merges from its runs anyway: its remainders
    // become runs too, so its output phase holds no reservation that the
    // rest of the query (a final aggregation downstream) would need.
    for (size_t i = 0; st.ok() && spiller_ != nullptr && i < locals_.size();
         ++i) {
      st = SpillPartial(*locals_[i]);
      if (st.ok()) st = locals_[i]->memory.Reserve(0);
    }
    // Fold per-chain counters into the shared stats record after the chains
    // join; consuming threads never touch stats_ directly.
    for (const auto& s : locals_) {
      stats_.kernel_pages += s->kernel_pages;
      stats_.fallback_pages += s->fallback_pages;
      stats_.spilled_bytes += s->spilled_bytes;
      stats_.spilled_runs += s->spilled_runs;
    }
    RecordPeakBuffered(total_groups);
    Bump(table_bytes_counter_, table_bytes);
    return st;
  }

  Status ConsumeChain(LocalState& s) {
    while (true) {
      ASSIGN_OR_RETURN(std::optional<Page> page, s.chain->Next());
      if (!page.has_value()) return Status::OK();
      {
        std::lock_guard<std::mutex> lock(s.memory.mu());
        RETURN_IF_ERROR(ConsumePage(s, *page));
      }
      RETURN_IF_ERROR(s.memory.Reserve());
    }
  }

  Status ConsumePage(LocalState& s, const Page& page) {
    size_t n = page.num_rows();
    // Load lazy columns / simplify encodings once per page; dictionaries
    // stay dictionaries (kernels gather through the indices).
    std::vector<VectorPtr> columns = page.columns();
    for (int c : key_channels_) {
      ASSIGN_OR_RETURN(columns[c], kernels::PrepareColumn(columns[c]));
    }
    for (const AggSpec& agg : aggs_) {
      for (int c : agg.arg_channels) {
        ASSIGN_OR_RETURN(columns[c], kernels::PrepareColumn(columns[c]));
      }
    }
    Page prepared(std::move(columns), n);
    // Pages folded row-at-a-time by any adapter count as fallback pages.
    if (uses_adapter_) {
      s.fallback_pages += 1;
      Bump(fallback_pages_counter_, 1);
    } else {
      s.kernel_pages += 1;
      Bump(kernel_pages_counter_, 1);
    }
    if (s.radix_bits == 0) {
      RETURN_IF_ERROR(ConsumeIntoPartition(&s, s.parts[0], prepared,
                                           key_channels_,
                                           /*merge_mode=*/false));
      if (radix_target_bits_ > 0 &&
          s.parts[0].table->num_groups() >= kRadixUpgradeGroups) {
        RETURN_IF_ERROR(UpgradeRadix(s));
      }
      return Status::OK();
    }
    return RouteToPartitions(s, prepared, key_channels_, /*merge_mode=*/false);
  }

  // Feeds `page` into one partition's table and accumulators. In merge mode
  // the page is an intermediate-state page ([keys..., intermediates...]) and
  // every aggregate folds via MergeBatch; otherwise the page is raw input
  // and the step decides. `s` supplies reusable scratch when the caller has
  // a chain-confined state (finalize-time merges pass null).
  Status ConsumeIntoPartition(LocalState* s, KernelPartition& part,
                              const Page& page, const std::vector<int>& keys,
                              bool merge_mode) {
    size_t n = page.num_rows();
    size_t groups_before = part.table->num_groups();
    std::vector<int32_t> scratch_ids;
    std::vector<int32_t>& gids = s != nullptr ? s->group_ids : scratch_ids;
    gids.clear();
    ASSIGN_OR_RETURN(int64_t probes,
                     part.table->MapRows(page, keys,
                                         /*insert_missing=*/true,
                                         /*skip_null_keys=*/false, &gids));
    Bump(hash_probes_counter_, probes);
    Bump(groups_created_counter_,
         static_cast<int64_t>(part.table->num_groups() - groups_before));
    for (auto& g : part.grouped) g->EnsureGroups(part.table->num_groups());
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (merge_mode) {
        RETURN_IF_ERROR(part.grouped[a]->MergeBatch(
            page.column(keys.size() + a), gids.data(), n));
      } else if (step_ == AggregationStep::kFinal) {
        RETURN_IF_ERROR(part.grouped[a]->MergeBatch(
            page.column(aggs_[a].arg_channels[0]), gids.data(), n));
      } else {
        std::vector<VectorPtr> args;
        for (int c : aggs_[a].arg_channels) args.push_back(page.column(c));
        RETURN_IF_ERROR(part.grouped[a]->AddBatch(args, gids.data(), n));
      }
    }
    return Status::OK();
  }

  // Routes each row of `page` to its radix partition — the high bits of the
  // raw content hash; the exchange routes on a remix of it, so a consuming
  // task's keys still spread over every radix partition and table slot —
  // and consumes each partition's rows as a zero-copy row wrap.
  Status RouteToPartitions(LocalState& s, const Page& page,
                           const std::vector<int>& keys, bool merge_mode) {
    size_t n = page.num_rows();
    kernels::HashPage(page, keys, &s.hash_scratch);
    size_t num_parts = s.parts.size();
    s.part_rows.resize(num_parts);
    for (auto& rows : s.part_rows) rows.clear();
    int shift = 64 - s.radix_bits;
    for (size_t i = 0; i < n; ++i) {
      s.part_rows[s.hash_scratch[i] >> shift].push_back(
          static_cast<int32_t>(i));
    }
    for (size_t p = 0; p < num_parts; ++p) {
      if (s.part_rows[p].empty()) continue;
      if (s.part_rows[p].size() == n) {
        RETURN_IF_ERROR(
            ConsumeIntoPartition(&s, s.parts[p], page, keys, merge_mode));
      } else {
        Page sub = page.WrapRows(s.part_rows[p]);
        RETURN_IF_ERROR(
            ConsumeIntoPartition(&s, s.parts[p], sub, keys, merge_mode));
      }
    }
    return Status::OK();
  }

  // Builds one partition's groups as a [keys..., aggregates...] page, one
  // row per group. Intermediate states are the common currency of radix
  // upgrade, cross-chain merge and spill runs; output pages carry final
  // values unless this is the partial step.
  Result<std::optional<Page>> BuildPartitionPage(KernelPartition& part,
                                                 bool intermediate) {
    size_t rows = part.table->num_groups();
    if (rows == 0) return std::optional<Page>();
    ASSIGN_OR_RETURN(std::vector<VectorPtr> columns,
                     part.table->BuildKeyColumns(key_types_));
    for (auto& g : part.grouped) {
      ASSIGN_OR_RETURN(VectorPtr column, g->Build(intermediate));
      columns.push_back(std::move(column));
    }
    return std::optional<Page>(Page(std::move(columns), rows));
  }

  // Once a chain's table crosses the upgrade threshold, cache misses start
  // to dominate, so the state re-hashes into 2^kRadixBits cache-sized
  // partitions. Carried groups re-enter through the intermediate-merge path:
  // each folds into a zero-initialized fresh accumulator, which is bit-exact
  // (0 + S == S), so results never depend on when the upgrade happens.
  Status UpgradeRadix(LocalState& s) {
    ASSIGN_OR_RETURN(std::optional<Page> carried,
                     BuildPartitionPage(s.parts[0], /*intermediate=*/true));
    s.radix_bits = radix_target_bits_;
    s.parts.clear();
    for (int p = 0; p < (1 << s.radix_bits); ++p) {
      s.parts.push_back(MakePartition());
    }
    if (carried.has_value()) {
      RETURN_IF_ERROR(RouteToPartitions(s, *carried, inter_key_channels_,
                                        /*merge_mode=*/true));
    }
    return Status::OK();
  }

  // Cross-chain finalize: every chain's state folds into locals_[0]
  // partition-wise, each partition by (potentially) a different pool thread.
  // Partitions are radix-disjoint, so no two merge tasks touch the same
  // table.
  // A keyless (global) aggregation has one partition and one group per
  // chain, folded the same way.
  Status MergeLocalStates() {
    int target_bits = 0;
    for (const auto& s : locals_) {
      target_bits = std::max(target_bits, s->radix_bits);
    }
    for (const auto& s : locals_) {
      // A chain still on one table re-partitions like a radix upgrade
      // (target_bits > 0 is always radix_target_bits_).
      if (s->radix_bits < target_bits) RETURN_IF_ERROR(UpgradeRadix(*s));
    }
    size_t num_parts = locals_[0]->parts.size();
    RETURN_IF_ERROR(RunParallel(
        morsel_pool_, static_cast<int>(num_parts), [this](int p) -> Status {
          for (size_t t = 1; t < locals_.size(); ++t) {
            ASSIGN_OR_RETURN(std::optional<Page> page,
                             BuildPartitionPage(locals_[t]->parts[p],
                                                /*intermediate=*/true));
            if (!page.has_value()) continue;
            RETURN_IF_ERROR(ConsumeIntoPartition(
                nullptr, locals_[0]->parts[p], *page, inter_key_channels_,
                /*merge_mode=*/true));
          }
          return Status::OK();
        }));
    // The extra chains' states are dead now: drop them, release their
    // reservations, and re-reserve the first chain's (merged) footprint.
    for (size_t t = 1; t < locals_.size(); ++t) {
      ResetState(*locals_[t]);
      RETURN_IF_ERROR(locals_[t]->memory.Reserve(0));
    }
    return locals_[0]->memory.Reserve(EstimateStateBytes(*locals_[0]));
  }

  Result<std::optional<Page>> ProduceOutput() {
    LocalState& s = *locals_[0];
    if (key_channels_.empty() && !global_group_ensured_) {
      // Global aggregations emit exactly one row even over empty input.
      global_group_ensured_ = true;
      s.parts[0].table->EnsureGlobalGroup();
      for (auto& g : s.parts[0].grouped) {
        g->EnsureGroups(s.parts[0].table->num_groups());
      }
    }
    while (produce_partition_ < s.parts.size()) {
      ASSIGN_OR_RETURN(
          std::optional<Page> page,
          BuildPartitionPage(s.parts[produce_partition_++],
                             /*intermediate=*/step_ == AggregationStep::kPartial));
      if (page.has_value()) return page;
    }
    return std::optional<Page>();
  }

  // -- Memory accounting & revocable spill ----------------------------------

  // Estimated in-memory footprint of one chain's hash table state. The
  // key tables self-report; grouped accumulator state is a fixed-width
  // per-group approximation.
  int64_t EstimateStateBytes(const LocalState& s) const {
    int64_t total = 0;
    for (const KernelPartition& part : s.parts) {
      total += part.table->EstimateBytes() +
               static_cast<int64_t>(part.table->num_groups()) * 32 *
                   static_cast<int64_t>(aggs_.size() + 1);
    }
    return total;
  }

  // Materializes one chain's groups as a run: [keys..., intermediates...]
  // pages of at most kRunPageRows rows in the order spill and merge agree on,
  // the 64-bit content hash of the key columns with row index breaking ties.
  // The merge recomputes each page's hashes with the same kernels::HashPage.
  // (The tables' own group hashes cannot serve: they hash interned string
  // ids, which differ per chain.) Radix partitions hold disjoint ranges of
  // that hash's top bits, in partition order, so sorting each partition on
  // its own yields the whole run's order.
  Result<std::vector<Page>> BuildRun(LocalState& s) {
    std::vector<Page> run;
    std::vector<std::pair<uint64_t, int32_t>> order;
    std::vector<int32_t> rows;
    for (KernelPartition& part : s.parts) {
      ASSIGN_OR_RETURN(std::optional<Page> page,
                       BuildPartitionPage(part, /*intermediate=*/true));
      if (!page.has_value()) continue;
      const size_t n = page->num_rows();
      kernels::HashPage(*page, inter_key_channels_, &s.hash_scratch);
      order.resize(n);
      for (size_t i = 0; i < n; ++i) {
        order[i] = {s.hash_scratch[i], static_cast<int32_t>(i)};
      }
      std::sort(order.begin(), order.end());
      for (size_t start = 0; start < n; start += kRunPageRows) {
        rows.clear();
        for (size_t i = start; i < std::min(n, start + kRunPageRows); ++i) {
          rows.push_back(order[i].second);
        }
        run.push_back(page->SliceRows(rows));
      }
    }
    return run;
  }

  // Revokes one chain (the memory arbiter calls it under s.memory.mu(), on
  // whichever thread needs the memory): writes its hash-ordered intermediate
  // state as one spill run and starts empty tables. Ordering and state
  // rebuilding are chain-local; only the spiller append is shared, so it
  // hides behind a mutex. Spill spans nest under this operator's span.
  Status SpillPartial(LocalState& s) {
    TraceContextScope trace_scope(trace_recorder_, trace_span_id_);
    ASSIGN_OR_RETURN(std::vector<Page> run, BuildRun(s));
    if (run.empty()) return Status::OK();
    int64_t delta = 0;
    {
      std::lock_guard<std::mutex> lock(spill_mu_);
      if (spiller_ == nullptr) spiller_ = NewSpiller(*query_memory_, metrics_);
      int64_t before = spiller_->total_bytes();
      RETURN_IF_ERROR(spiller_->SpillRun(run));
      delta = spiller_->total_bytes() - before;
    }
    s.spilled_bytes += delta;
    s.spilled_runs += 1;
    ResetState(s);
    return Status::OK();
  }

  void ResetState(LocalState& s) {
    size_t num_parts = s.parts.size();
    s.parts.clear();
    for (size_t p = 0; p < num_parts; ++p) s.parts.push_back(MakePartition());
  }

  // Output after a spill: hash batches of the merged runs (every row of a
  // key is in one batch) fold into a fresh state until it holds
  // kRunPageRows groups or the merge ends; the state is emitted as one page
  // and dropped. Batches are hash-disjoint, so no key spans two pages, and
  // the merge holds at most one page of groups plus one batch. Each key's
  // rows fold in run order.
  Result<std::optional<Page>> NextMergedPage() {
    KernelPartition part = MakePartition();
    std::vector<int32_t> rows;
    while (part.table->num_groups() < kRunPageRows) {
      ASSIGN_OR_RETURN(std::vector<HashOrderedMerge::Slice> batch,
                       merge_->NextBatch(kRunPageRows));
      if (batch.empty()) break;
      for (const HashOrderedMerge::Slice& slice : batch) {
        rows.clear();
        for (size_t r = slice.begin; r < slice.end; ++r) {
          rows.push_back(static_cast<int32_t>(r));
        }
        RETURN_IF_ERROR(ConsumeIntoPartition(
            locals_[0].get(), part, slice.page.WrapRows(rows),
            inter_key_channels_, /*merge_mode=*/true));
      }
    }
    return BuildPartitionPage(part,
                              /*intermediate=*/step_ == AggregationStep::kPartial);
  }

  // A chain upgrades from one table to 2^kRadixBits radix partitions once
  // it crosses kRadixUpgradeGroups groups: below that a single table fits in
  // cache and partitioning is pure overhead (a modular-key or global
  // aggregate never upgrades).
  static constexpr int kRadixBits = 5;
  static constexpr size_t kRadixUpgradeGroups = 8192;

  std::vector<OperatorPtr> chains_;
  std::vector<int> key_channels_;
  std::vector<TypePtr> key_types_;
  std::vector<AggSpec> aggs_;
  AggregationStep step_;
  MetricsRegistry::Counter* kernel_pages_counter_ = nullptr;
  MetricsRegistry::Counter* fallback_pages_counter_ = nullptr;
  MetricsRegistry::Counter* hash_probes_counter_ = nullptr;
  MetricsRegistry::Counter* groups_created_counter_ = nullptr;
  MetricsRegistry::Counter* table_bytes_counter_ = nullptr;
  bool consumed_ = false;
  bool global_group_ensured_ = false;
  size_t produce_partition_ = 0;  // output cursor

  std::vector<TypeKind> key_kinds_;
  bool uses_adapter_ = false;  // some aggregate folds row-at-a-time
  std::vector<int> inter_key_channels_;  // 0..num_keys-1 (state pages)
  int radix_target_bits_ = 0;            // 0 = keyless, never partitions

  WorkStealingPool* morsel_pool_ = nullptr;

  // Memory accounting & spill (the spiller is shared across chains).
  MetricsRegistry* metrics_ = nullptr;
  std::shared_ptr<QueryMemory> query_memory_;  // its spill area
  std::mutex spill_mu_;
  std::unique_ptr<Spiller> spiller_;
  std::unique_ptr<HashOrderedMerge> merge_;

  // Per-chain states; locals_[0] belongs to chains_[0] and survives the
  // merge. Declared last so that they are destroyed first: each leaves the
  // memory arbiter before anything its revocation uses is gone.
  std::vector<std::unique_ptr<LocalState>> locals_;
};

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

// A join's probe input and build side: the chains that feed the build (one,
// or the task's replicated morsel chains) and the reservation its rows hold.
class JoinOperator : public Operator {
 protected:
  JoinOperator(OperatorPtr probe, std::vector<OperatorPtr> build_chains,
               std::vector<VariablePtr> build_vars,
               const ExecutionLimits& limits, const char* pool_name)
      : probe_(std::move(probe)),
        build_chains_(std::move(build_chains)),
        build_vars_(std::move(build_vars)),
        max_build_rows_(limits.max_join_build_rows),
        morsel_pool_(limits.morsel_pool) {
    AddChild(probe_.get());
    for (const OperatorPtr& chain : build_chains_) AddChild(chain.get());
    InitMemory(&memory_, limits, pool_name);
  }

  // Drains the build side into one page. Every chain collects its pages
  // thread-locally; only the row count and the reservation are serialized,
  // once per page. Build rows are not revocable: a refused reservation has
  // the memory arbiter revoke other state (or kill, at the worker cap).
  Result<Page> DrainBuildSide() {
    std::vector<std::vector<Page>> chain_pages(build_chains_.size());
    std::mutex mu;
    int64_t build_rows = 0, build_bytes = 0;  // guarded by mu
    RETURN_IF_ERROR(RunChains(
        morsel_pool_, static_cast<int>(build_chains_.size()), "build_chain#",
        [&](int i) -> Status {
          while (true) {
            ASSIGN_OR_RETURN(std::optional<Page> page, build_chains_[i]->Next());
            if (!page.has_value()) return Status::OK();
            const int64_t page_rows = static_cast<int64_t>(page->num_rows());
            const int64_t page_bytes = page->EstimateBytes();
            chain_pages[i].push_back(std::move(*page));
            std::lock_guard<std::mutex> lock(mu);
            build_rows += page_rows;
            if (build_rows > max_build_rows_) {
              // Section XII.C: the error users translate Hive/Spark queries
              // over.
              return Status::ResourceExhausted(
                  "Insufficient Resource: join build side exceeds " +
                  std::to_string(max_build_rows_) +
                  " rows (set session property max_join_build_rows, or "
                  "rewrite the query for Presto-on-Spark)");
            }
            build_bytes += page_bytes;
            RETURN_IF_ERROR(memory_.Reserve(build_bytes));
          }
        }));
    std::vector<Page> pages;
    for (auto& collected : chain_pages) {
      for (Page& page : collected) pages.push_back(std::move(page));
    }
    return ConcatPages(build_vars_, pages);
  }

  OperatorPtr probe_;
  std::vector<OperatorPtr> build_chains_;
  std::vector<VariablePtr> build_vars_;
  int64_t max_build_rows_;
  WorkStealingPool* morsel_pool_;
  MemoryConsumer memory_;
};

// Hash join for equi-criteria joins; the build (right) side is fully
// materialized into a hash table (broadcast-style).
class HashJoinOperator final : public JoinOperator {
 public:
  /// `build_chains` feed the build side (one, or the task's replicated
  /// morsel chains): the chains drain the shared build source in parallel,
  /// then the concatenated rows are radix-partitioned into per-partition
  /// hash tables built in parallel.
  HashJoinOperator(OperatorPtr probe, std::vector<OperatorPtr> build_chains,
                   JoinKind kind,
                   std::vector<int> probe_keys, std::vector<int> build_keys,
                   std::vector<TypeKind> key_kinds,
                   std::vector<VariablePtr> build_vars, ExprPtr filter,
                   std::map<std::string, int> combined_layout,
                   FunctionRegistry* functions, const ExecutionLimits& limits)
      : JoinOperator(std::move(probe), std::move(build_chains),
                     std::move(build_vars), limits, "op.HashJoin"),
        kind_(kind),
        probe_keys_(std::move(probe_keys)),
        build_keys_(std::move(build_keys)),
        key_kinds_(std::move(key_kinds)),
        filter_(std::move(filter)),
        combined_layout_(std::move(combined_layout)),
        functions_(functions) {
    build_rows_counter_ = CounterFor(limits, "exec.join.build_rows");
    hash_probes_counter_ = CounterFor(limits, "exec.join.hash_probes");
    kernel_pages_counter_ = CounterFor(limits, "exec.join.kernel_pages");
    table_bytes_counter_ = CounterFor(limits, "exec.join.table_bytes");
  }

 protected:
  Result<std::optional<Page>> NextInternal() override {
    if (!built_) {
      RETURN_IF_ERROR(BuildTable());
      built_ = true;
      RecordPeakBuffered(null_row_index_);
      int64_t table_bytes = 0;
      for (const BuildPartition& part : parts_) {
        if (part.table != nullptr) table_bytes += part.table->EstimateBytes();
      }
      Bump(table_bytes_counter_, table_bytes);
    }
    while (true) {
      ASSIGN_OR_RETURN(std::optional<Page> page, probe_->Next());
      if (!page.has_value()) return std::optional<Page>();
      ASSIGN_OR_RETURN(std::optional<Page> out, ProbePage(*page));
      if (!out.has_value()) continue;
      return out;
    }
  }

 private:
  Status BuildTable() {
    ASSIGN_OR_RETURN(build_page_, DrainBuildSide());
    // Append one all-null row used to null-extend LEFT-join misses.
    std::vector<VectorPtr> with_null;
    for (size_t c = 0; c < build_vars_.size(); ++c) {
      ASSIGN_OR_RETURN(VectorPtr null_row,
                       MakeAllNullVector(build_vars_[c]->type(), 1));
      ASSIGN_OR_RETURN(VectorPtr merged,
                       ConcatVectors(build_vars_[c]->type(),
                                     {build_page_.column(c), null_row}));
      with_null.push_back(std::move(merged));
    }
    null_row_index_ = static_cast<int32_t>(build_page_.num_rows());
    build_page_ = Page(std::move(with_null), build_page_.num_rows() + 1);
    Bump(build_rows_counter_, null_row_index_);

    // Normalized-key tables map each distinct key to a key id; duplicate
    // build rows chain through head/next_. NULL keys never enter (SQL
    // equality). Chains are threaded in reverse so traversal yields
    // ascending build-row order. Large build sides radix-partition on the
    // high bits of the content hash: each partition's table stays
    // cache-sized and the partitions build in parallel (their row sets are
    // disjoint, so the shared next_ array is written at disjoint indices).
    radix_bits_ = null_row_index_ >= (1 << 16) ? kJoinRadixBits : 0;
    parts_.clear();
    parts_.resize(size_t{1} << radix_bits_);
    if (radix_bits_ > 0) {
      kernels::HashPage(build_page_, build_keys_, &hash_scratch_);
    }
    for (int32_t r = 0; r < null_row_index_; ++r) {
      parts_[radix_bits_ == 0 ? 0 : hash_scratch_[r] >> (64 - radix_bits_)]
          .rows.push_back(r);
    }
    next_.assign(build_page_.num_rows(), -1);
    std::atomic<int64_t> total_probes{0};
    RETURN_IF_ERROR(RunParallel(
        morsel_pool_, static_cast<int>(parts_.size()), [&](int p) -> Status {
          BuildPartition& part = parts_[p];
          part.table = std::make_unique<kernels::NormalizedKeyTable>(key_kinds_);
          if (part.rows.empty()) return Status::OK();
          Page sub = build_page_.WrapRows(part.rows);
          std::vector<int32_t> key_ids;
          ASSIGN_OR_RETURN(int64_t probes,
                           part.table->MapRows(sub, build_keys_,
                                               /*insert_missing=*/true,
                                               /*skip_null_keys=*/true,
                                               &key_ids));
          total_probes.fetch_add(probes, std::memory_order_relaxed);
          part.head.assign(part.table->num_groups(), -1);
          for (size_t idx = part.rows.size(); idx-- > 0;) {
            int32_t k = key_ids[idx];
            if (k == kernels::NormalizedKeyTable::kNoGroup) continue;
            int32_t r = part.rows[idx];
            next_[r] = part.head[k];
            part.head[k] = r;
          }
          return Status::OK();
        }));
    Bump(hash_probes_counter_, total_probes.load(std::memory_order_relaxed));
    return Status::OK();
  }

  // Fills the matching (probe_row, build_row) pairs via the normalized-key
  // tables: one MapRows pass per touched partition, then chain traversal —
  // no per-pair key compare. Each probe row's chain head is first scattered
  // into match_head_ and the pairs are then emitted in probe-row order, so
  // the output does not depend on the partition count.
  Status ProbeKeys(const Page& probe_page, std::vector<int32_t>* probe_rows,
                   std::vector<int32_t>* build_rows) {
    size_t n = probe_page.num_rows();
    std::vector<VectorPtr> columns = probe_page.columns();
    for (int c : probe_keys_) {
      ASSIGN_OR_RETURN(columns[c], kernels::PrepareColumn(columns[c]));
    }
    Page prepared(std::move(columns), n);
    stats_.kernel_pages += 1;
    Bump(kernel_pages_counter_, 1);
    if (radix_bits_ > 0) {
      kernels::HashPage(prepared, probe_keys_, &hash_scratch_);
    }
    probe_part_rows_.resize(parts_.size());
    for (auto& rows : probe_part_rows_) rows.clear();
    for (size_t r = 0; r < n; ++r) {
      probe_part_rows_[radix_bits_ == 0 ? 0
                                        : hash_scratch_[r] >> (64 - radix_bits_)]
          .push_back(static_cast<int32_t>(r));
    }
    match_head_.assign(n, -1);
    for (size_t p = 0; p < parts_.size(); ++p) {
      const std::vector<int32_t>& rows = probe_part_rows_[p];
      if (rows.empty() || parts_[p].head.empty()) continue;
      Page sub = rows.size() == n ? prepared : prepared.WrapRows(rows);
      std::vector<int32_t> key_ids;
      ASSIGN_OR_RETURN(int64_t probes,
                       parts_[p].table->MapRows(sub, probe_keys_,
                                                /*insert_missing=*/false,
                                                /*skip_null_keys=*/true,
                                                &key_ids));
      Bump(hash_probes_counter_, probes);
      for (size_t idx = 0; idx < key_ids.size(); ++idx) {
        if (key_ids[idx] != kernels::NormalizedKeyTable::kNoGroup) {
          match_head_[rows[idx]] = parts_[p].head[key_ids[idx]];
        }
      }
    }
    for (size_t r = 0; r < n; ++r) {
      size_t before = build_rows->size();
      for (int32_t b = match_head_[r]; b >= 0; b = next_[b]) {
        probe_rows->push_back(static_cast<int32_t>(r));
        build_rows->push_back(b);
      }
      if (kind_ == JoinKind::kLeft && build_rows->size() == before) {
        probe_rows->push_back(static_cast<int32_t>(r));
        build_rows->push_back(null_row_index_);
      }
    }
    return Status::OK();
  }

  Result<std::optional<Page>> ProbePage(const Page& probe_page) {
    std::vector<int32_t> probe_rows, build_rows;
    RETURN_IF_ERROR(ProbeKeys(probe_page, &probe_rows, &build_rows));
    if (probe_rows.empty()) return std::optional<Page>();
    Page combined = JoinedPage(probe_page, probe_rows, build_rows);
    if (filter_ == nullptr) return std::optional<Page>(std::move(combined));

    ASSIGN_OR_RETURN(std::vector<int32_t> pass,
                     EvalPredicate(*filter_, combined, combined_layout_, functions_));
    if (kind_ != JoinKind::kLeft) {
      if (pass.empty()) return std::optional<Page>();
      return std::optional<Page>(combined.WrapRows(pass));
    }
    // LEFT join: pairs come grouped by probe row. A row keeps its pairs that
    // pass the filter (and its null extension, if it had no match); a row
    // whose every matched pair fails is null-extended instead.
    std::vector<uint8_t> pass_mask(probe_rows.size(), 0);
    for (int32_t p : pass) pass_mask[p] = 1;
    std::vector<int32_t> out_probe, out_build;
    for (size_t begin = 0, end = 0; begin < probe_rows.size(); begin = end) {
      size_t kept = out_probe.size();
      for (end = begin;
           end < probe_rows.size() && probe_rows[end] == probe_rows[begin];
           ++end) {
        if (pass_mask[end] != 0 || build_rows[end] == null_row_index_) {
          out_probe.push_back(probe_rows[end]);
          out_build.push_back(build_rows[end]);
        }
      }
      if (out_probe.size() == kept) {
        out_probe.push_back(probe_rows[begin]);
        out_build.push_back(null_row_index_);
      }
    }
    return std::optional<Page>(JoinedPage(probe_page, out_probe, out_build));
  }

  // The (probe row, build row) pairs as one page. Pairs travel as selection
  // vectors over the shared probe page / build table rather than
  // materialized copies.
  Page JoinedPage(const Page& probe_page, const std::vector<int32_t>& probe_rows,
                  const std::vector<int32_t>& build_rows) const {
    std::vector<VectorPtr> columns = probe_page.WrapRows(probe_rows).columns();
    Page build_slice = build_page_.WrapRows(build_rows);
    for (const VectorPtr& col : build_slice.columns()) columns.push_back(col);
    return Page(std::move(columns), probe_rows.size());
  }

  // Build sides at or above 2^16 rows radix-partition into 2^kJoinRadixBits
  // cache-sized tables; smaller ones use a single table (partitioning small
  // builds is pure overhead).
  static constexpr int kJoinRadixBits = 4;

  /// One radix partition of the build side: its normalized-key table, the
  /// per-key chain heads, and the (ascending) build rows it owns.
  struct BuildPartition {
    std::unique_ptr<kernels::NormalizedKeyTable> table;
    std::vector<int32_t> head;
    std::vector<int32_t> rows;
  };

  JoinKind kind_;
  std::vector<int> probe_keys_;
  std::vector<int> build_keys_;
  std::vector<TypeKind> key_kinds_;  // one normalized kind per key pair
  ExprPtr filter_;
  std::map<std::string, int> combined_layout_;
  FunctionRegistry* functions_;
  MetricsRegistry::Counter* build_rows_counter_ = nullptr;
  MetricsRegistry::Counter* hash_probes_counter_ = nullptr;
  MetricsRegistry::Counter* kernel_pages_counter_ = nullptr;
  MetricsRegistry::Counter* table_bytes_counter_ = nullptr;

  bool built_ = false;
  Page build_page_;
  int32_t null_row_index_ = 0;

  // Per-partition key id -> chain of build rows (head/next_), ascending;
  // next_ is global (build rows are partition-disjoint).
  int radix_bits_ = 0;
  std::vector<BuildPartition> parts_;
  std::vector<int32_t> next_;
  std::vector<int32_t> match_head_;  // per-probe-row chain head scratch
  std::vector<std::vector<int32_t>> probe_part_rows_;
  std::vector<uint64_t> hash_scratch_;
};

// Nested-loop join for joins without equi criteria (cross joins, st_contains
// joins in their brute-force form).
class NestedLoopJoinOperator final : public JoinOperator {
 public:
  NestedLoopJoinOperator(OperatorPtr probe, std::vector<OperatorPtr> build,
                         JoinKind kind, std::vector<VariablePtr> build_vars,
                         ExprPtr filter,
                         std::map<std::string, int> combined_layout,
                         FunctionRegistry* functions,
                         const ExecutionLimits& limits)
      : JoinOperator(std::move(probe), std::move(build), std::move(build_vars),
                     limits, "op.NestedLoopJoin"),
        kind_(kind),
        filter_(std::move(filter)),
        combined_layout_(std::move(combined_layout)),
        functions_(functions) {}

 protected:
  Result<std::optional<Page>> NextInternal() override {
    if (!built_) {
      ASSIGN_OR_RETURN(build_page_, DrainBuildSide());
      built_ = true;
      RecordPeakBuffered(static_cast<int64_t>(build_page_.num_rows()));
    }
    while (true) {
      if (!current_probe_.has_value()) {
        ASSIGN_OR_RETURN(current_probe_, probe_->Next());
        if (!current_probe_.has_value()) return std::optional<Page>();
        next_build_row_ = 0;
        probe_matched_.assign(current_probe_->num_rows(), 0);
      }
      if (next_build_row_ >= build_page_.num_rows()) {
        // LEFT join: emit unmatched probe rows with a null build side.
        if (kind_ == JoinKind::kLeft) {
          std::vector<int32_t> unmatched;
          for (size_t r = 0; r < current_probe_->num_rows(); ++r) {
            if (probe_matched_[r] == 0) unmatched.push_back(static_cast<int32_t>(r));
          }
          if (!unmatched.empty()) {
            Page probe_slice = current_probe_->SliceRows(unmatched);
            std::vector<VectorPtr> columns = probe_slice.columns();
            for (const VariablePtr& v : build_vars_) {
              ASSIGN_OR_RETURN(VectorPtr nulls,
                               MakeAllNullVector(v->type(), unmatched.size()));
              columns.push_back(std::move(nulls));
            }
            current_probe_.reset();
            Page out(std::move(columns), unmatched.size());
            return std::optional<Page>(std::move(out));
          }
        }
        current_probe_.reset();
        continue;
      }
      // Pair the whole probe page with one build row, replicated without
      // copying via dictionary encoding.
      int32_t b = static_cast<int32_t>(next_build_row_++);
      size_t n = current_probe_->num_rows();
      std::vector<VectorPtr> columns = current_probe_->columns();
      for (const VectorPtr& col : build_page_.columns()) {
        columns.push_back(std::make_shared<DictionaryVector>(
            col, std::vector<int32_t>(n, b)));
      }
      Page combined(std::move(columns), n);
      std::vector<int32_t> pass;
      if (filter_ == nullptr) {
        pass.resize(n);
        for (size_t i = 0; i < n; ++i) pass[i] = static_cast<int32_t>(i);
      } else {
        ASSIGN_OR_RETURN(pass, EvalPredicate(*filter_, combined, combined_layout_,
                                             functions_));
      }
      if (pass.empty()) continue;
      for (int32_t p : pass) probe_matched_[p] = 1;
      Page out = pass.size() == n ? std::move(combined) : combined.WrapRows(pass);
      return std::optional<Page>(std::move(out));
    }
  }

 private:
  JoinKind kind_;
  ExprPtr filter_;
  std::map<std::string, int> combined_layout_;
  FunctionRegistry* functions_;

  bool built_ = false;
  Page build_page_;
  std::optional<Page> current_probe_;
  size_t next_build_row_ = 0;
  std::vector<uint8_t> probe_matched_;
};

// ---------------------------------------------------------------------------
// Sorting
// ---------------------------------------------------------------------------

class SortOperator final : public Operator {
 public:
  SortOperator(OperatorPtr child, std::vector<VariablePtr> output_vars,
               std::vector<int> channels, std::vector<bool> ascending,
               int64_t limit, const ExecutionLimits& limits)
      : child_(std::move(child)),
        output_vars_(std::move(output_vars)),
        channels_(std::move(channels)),
        ascending_(std::move(ascending)),
        limit_(limit) {
    AddChild(child_.get());
    InitMemory(&memory_, limits, "op.Sort", [this] { return buffered_bytes_; },
               [this] { return SpillBuffered(); });
    metrics_ = limits.metrics;
    query_memory_ = limits.query_memory;
  }

 protected:
  Result<std::optional<Page>> NextInternal() override {
    if (!consumed_) {
      consumed_ = true;
      while (true) {
        ASSIGN_OR_RETURN(std::optional<Page> page, child_->Next());
        if (!page.has_value()) break;
        {
          std::lock_guard<std::mutex> lock(memory_.mu());
          buffered_bytes_ += page->EstimateBytes();
          buffered_rows_ += static_cast<int64_t>(page->num_rows());
          RecordPeakBuffered(buffered_rows_);
          pages_.push_back(std::move(*page));
        }
        RETURN_IF_ERROR(memory_.Reserve());
      }
      RETURN_IF_ERROR(memory_.Unregister());
      if (spiller_ != nullptr && spiller_->num_runs() > 0) {
        RETURN_IF_ERROR(StartMerge());
      }
      // Revocations may have come from other threads; their spill volume
      // is folded here, on this operator's thread.
      stats_.spilled_bytes += spilled_bytes_;
      stats_.spilled_runs += spilled_runs_;
    }
    if (merge_ != nullptr) return NextMergedPage();
    if (produced_) return std::optional<Page>();
    produced_ = true;
    ASSIGN_OR_RETURN(std::optional<Page> sorted, SortBuffered());
    if (!sorted.has_value()) return std::optional<Page>();
    if (limit_ >= 0 && static_cast<int64_t>(sorted->num_rows()) > limit_) {
      std::vector<int32_t> head(limit_);
      for (int64_t i = 0; i < limit_; ++i) head[i] = static_cast<int32_t>(i);
      return std::optional<Page>(sorted->SliceRows(head));
    }
    return sorted;
  }

 private:
  // Presto default null ordering: NULLS LAST for ASC, FIRST for DESC. Both
  // the in-memory sort and the spill-run merge use this exact comparator,
  // so runs written sorted merge back in the same global order.
  int CompareSortKeys(const Page& a, size_t a_row, const Page& b,
                      size_t b_row) const {
    for (size_t k = 0; k < channels_.size(); ++k) {
      const Vector& ca = *a.column(channels_[k]);
      const Vector& cb = *b.column(channels_[k]);
      bool null_a = ca.IsNull(a_row);
      bool null_b = cb.IsNull(b_row);
      if (null_a || null_b) {
        if (null_a == null_b) continue;
        bool a_first = ascending_[k] ? !null_a : null_a;
        return a_first ? -1 : 1;
      }
      int cmp = ca.CompareAt(a_row, cb, b_row);
      if (cmp != 0) {
        if (!ascending_[k]) cmp = -cmp;
        return cmp < 0 ? -1 : 1;
      }
    }
    return 0;
  }

  // Concatenates and sorts the buffered pages, consuming them. Returns
  // nullopt when nothing is buffered.
  Result<std::optional<Page>> SortBuffered() {
    ASSIGN_OR_RETURN(Page all, ConcatPages(output_vars_, pages_));
    pages_.clear();
    buffered_rows_ = 0;
    if (all.num_rows() == 0) return std::optional<Page>();
    std::vector<int32_t> order(all.num_rows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
    std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
      return CompareSortKeys(all, a, all, b) < 0;
    });
    return std::optional<Page>(all.SliceRows(order));
  }

  // Revokes the buffer (the memory arbiter calls it under memory_.mu()):
  // writes it as one sorted run.
  Status SpillBuffered() {
    TraceContextScope trace_scope(trace_recorder_, trace_span_id_);
    ASSIGN_OR_RETURN(std::optional<Page> sorted, SortBuffered());
    if (!sorted.has_value()) return Status::OK();
    if (spiller_ == nullptr) spiller_ = NewSpiller(*query_memory_, metrics_);
    int64_t before = spiller_->total_bytes();
    RETURN_IF_ERROR(spiller_->SpillRun(ChunkPage(*sorted)));
    spilled_bytes_ += spiller_->total_bytes() - before;
    spilled_runs_ += 1;
    buffered_bytes_ = 0;
    return Status::OK();
  }

  // A spilled sort spills its last buffer too, so its output phase holds no
  // reservation, and merges the runs.
  Status StartMerge() {
    RETURN_IF_ERROR(SpillBuffered());
    RETURN_IF_ERROR(memory_.Reserve(0));
    ASSIGN_OR_RETURN(std::vector<std::unique_ptr<BlockFileReader>> readers,
                     spiller_->OpenAllRuns());
    merge_ = std::make_unique<SpillMergeCursor>(
        std::move(readers), std::vector<Page>(),
        [this](const Page& a, size_t ar, const Page& b, size_t br) {
          return CompareSortKeys(a, ar, b, br);
        });
    return Status::OK();
  }

  // Emits globally ordered rows from the k-way merge in ~4096-row pages,
  // honoring limit_ across the whole output.
  Result<std::optional<Page>> NextMergedPage() {
    if (merge_done_) return std::optional<Page>();
    std::vector<VectorBuilder> builders;
    for (const VariablePtr& v : output_vars_) builders.emplace_back(v->type());
    size_t rows = 0;
    while (rows < 4096) {
      if (limit_ >= 0 && emitted_ >= limit_) {
        merge_done_ = true;
        break;
      }
      ASSIGN_OR_RETURN(bool more, merge_->Advance());
      if (!more) {
        merge_done_ = true;
        break;
      }
      for (size_t c = 0; c < output_vars_.size(); ++c) {
        RETURN_IF_ERROR(builders[c].Append(
            merge_->page().column(c)->GetValue(merge_->row())));
      }
      ++rows;
      ++emitted_;
    }
    if (rows == 0) return std::optional<Page>();
    std::vector<VectorPtr> columns;
    for (auto& b : builders) columns.push_back(b.Build());
    return std::optional<Page>(Page(std::move(columns), rows));
  }

  OperatorPtr child_;
  std::vector<VariablePtr> output_vars_;
  std::vector<int> channels_;
  std::vector<bool> ascending_;
  int64_t limit_;
  bool consumed_ = false;
  bool produced_ = false;

  // The buffer; guarded by memory_.mu() until consumption ends.
  std::vector<Page> pages_;
  int64_t buffered_bytes_ = 0;
  int64_t buffered_rows_ = 0;

  // Memory accounting & spill.
  MetricsRegistry* metrics_ = nullptr;
  int64_t spilled_bytes_ = 0;  // guarded by memory_.mu() until consumed
  int64_t spilled_runs_ = 0;
  std::shared_ptr<QueryMemory> query_memory_;  // its spill area
  std::unique_ptr<Spiller> spiller_;
  std::unique_ptr<SpillMergeCursor> merge_;
  bool merge_done_ = false;
  int64_t emitted_ = 0;
  // Declared last so that it is destroyed first: the buffer leaves the
  // memory arbiter before anything a revocation uses is gone.
  MemoryConsumer memory_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

std::map<std::string, int> MakeLayout(const std::vector<VariablePtr>& variables) {
  std::map<std::string, int> layout;
  for (size_t i = 0; i < variables.size(); ++i) {
    layout[variables[i]->name()] = static_cast<int>(i);
  }
  return layout;
}

namespace {

const char* OperatorTypeName(PlanNodeKind kind) {
  switch (kind) {
    case PlanNodeKind::kTableScan:
      return "TableScan";
    case PlanNodeKind::kValues:
      return "Values";
    case PlanNodeKind::kFilter:
      return "Filter";
    case PlanNodeKind::kProject:
      return "Project";
    case PlanNodeKind::kAggregate:
      return "HashAggregation";
    case PlanNodeKind::kJoin:
      return "Join";
    case PlanNodeKind::kSort:
      return "Sort";
    case PlanNodeKind::kTopN:
      return "TopN";
    case PlanNodeKind::kLimit:
      return "Limit";
    case PlanNodeKind::kOutput:
      return "Output";
    case PlanNodeKind::kRemoteSource:
      return "RemoteSource";
  }
  return "?";
}

}  // namespace

Result<OperatorPtr> OperatorBuilder::Build(const PlanNodePtr& node) {
  // Output is a pure passthrough with no operator of its own; the stats
  // tree borrows its source's record at render time.
  if (node->kind() == PlanNodeKind::kOutput) {
    return Build(node->sources()[0]);
  }
  ASSIGN_OR_RETURN(OperatorPtr op, BuildNode(node));
  op->SetIdentity(node->id(), OperatorTypeName(node->kind()));
  op->Arm(limits_);
  return op;
}

Result<std::shared_ptr<MorselSource>> OperatorBuilder::MakeMorselSource(
    const PlanNode& leaf) {
  if (leaf.kind() == PlanNodeKind::kTableScan) {
    const auto& scan = static_cast<const TableScanNode&>(leaf);
    if (!scan.accepted().has_value()) {
      return Status::Internal("table scan was not negotiated: " + scan.Label());
    }
    if (splits_ == nullptr) {
      return Status::Internal("no splits provided for leaf fragment");
    }
    ASSIGN_OR_RETURN(Connector * connector,
                     catalogs_->GetConnector(scan.catalog()));
    return std::shared_ptr<MorselSource>(
        new SplitMorselSource(connector, *scan.accepted(), *splits_));
  }
  const auto& remote = static_cast<const RemoteSourceNode&>(leaf);
  auto it = exchanges_->find(remote.fragment_id());
  if (it == exchanges_->end()) {
    return Status::Internal("no exchange for fragment " +
                            std::to_string(remote.fragment_id()));
  }
  // Hash-partitioned upstream: this task consumes its own partition of the
  // exchange; gather upstreams are single-partition.
  int partition =
      remote.source_partitioning() == PartitioningScheme::Kind::kHash
          ? task_partition_ % it->second->num_partitions()
          : 0;
  return std::shared_ptr<MorselSource>(
      new ExchangeMorselSource(it->second, partition));
}

Result<std::vector<OperatorPtr>> OperatorBuilder::BuildParallelChains(
    const PlanNodePtr& node) {
  // Walk through stateless row-preserving nodes; anything stateful (limit,
  // nested aggregation/join/sort) keeps the subtree on one chain, since
  // replicating it would change semantics. A scan without splits has no
  // morsels to share.
  const PlanNode* leaf = node.get();
  while (leaf->kind() == PlanNodeKind::kFilter ||
         leaf->kind() == PlanNodeKind::kProject) {
    leaf = leaf->sources()[0].get();
  }
  const bool replicable =
      leaf->kind() == PlanNodeKind::kRemoteSource ||
      (leaf->kind() == PlanNodeKind::kTableScan && splits_ != nullptr &&
       !splits_->empty());
  if (replicable && limits_.task_threads > 1) {
    ASSIGN_OR_RETURN(morsel_source_override_, MakeMorselSource(*leaf));
  }
  // Every chain is a full copy of the subtree sharing one morsel source, so
  // each page is processed by exactly one chain and the per-node stats of
  // the replicas sum to the single-chain totals.
  const int num_chains =
      morsel_source_override_ != nullptr ? limits_.task_threads : 1;
  std::vector<OperatorPtr> chains;
  for (int i = 0; i < num_chains; ++i) {
    ASSIGN_OR_RETURN(OperatorPtr chain, Build(node));
    chains.push_back(std::move(chain));
  }
  morsel_source_override_.reset();
  return chains;
}

Result<OperatorPtr> OperatorBuilder::BuildNode(const PlanNodePtr& node) {
  switch (node->kind()) {
    case PlanNodeKind::kTableScan:
    case PlanNodeKind::kRemoteSource: {
      // Every leaf is a morsel scan: over the shared source while replicated
      // chains are being built, else over a source of its own.
      std::shared_ptr<MorselSource> source = morsel_source_override_;
      if (source == nullptr) {
        ASSIGN_OR_RETURN(source, MakeMorselSource(*node));
      }
      MetricsRegistry* scan_metrics =
          node->kind() == PlanNodeKind::kTableScan ? limits_.metrics : nullptr;
      return OperatorPtr(
          new MorselScanOperator(std::move(source), scan_metrics));
    }
    case PlanNodeKind::kValues: {
      const auto* values = static_cast<const ValuesNode*>(node.get());
      return OperatorPtr(new ValuesOperator(values->OutputVariables(),
                                            &values->rows()));
    }
    case PlanNodeKind::kFilter: {
      const auto* filter = static_cast<const FilterNode*>(node.get());
      ASSIGN_OR_RETURN(OperatorPtr child, Build(filter->sources()[0]));
      return OperatorPtr(new FilterOperator(
          std::move(child), filter->predicate(),
          MakeLayout(filter->sources()[0]->OutputVariables()), functions_));
    }
    case PlanNodeKind::kProject: {
      const auto* project = static_cast<const ProjectNode*>(node.get());
      ASSIGN_OR_RETURN(OperatorPtr child, Build(project->sources()[0]));
      return OperatorPtr(new ProjectOperator(
          std::move(child), project->assignments(),
          MakeLayout(project->sources()[0]->OutputVariables()), functions_));
    }
    case PlanNodeKind::kLimit: {
      const auto* limit = static_cast<const LimitNode*>(node.get());
      ASSIGN_OR_RETURN(OperatorPtr child, Build(limit->sources()[0]));
      return OperatorPtr(new LimitOperator(std::move(child), limit->count()));
    }
    case PlanNodeKind::kAggregate:
      return BuildAggregate(static_cast<const AggregateNode&>(*node));
    case PlanNodeKind::kJoin:
      return BuildJoin(static_cast<const JoinNode&>(*node));
    case PlanNodeKind::kSort:
    case PlanNodeKind::kTopN:
      return BuildSort(*node);
    case PlanNodeKind::kOutput:
      return Build(node->sources()[0]);
  }
  return Status::Internal("cannot build operator for node: " + node->Label());
}

Result<OperatorPtr> OperatorBuilder::BuildAggregate(const AggregateNode& agg) {
  ASSIGN_OR_RETURN(std::vector<OperatorPtr> chains,
                   BuildParallelChains(agg.sources()[0]));
  auto layout = MakeLayout(agg.sources()[0]->OutputVariables());
  std::vector<int> key_channels;
  std::vector<TypePtr> key_types;
  for (const VariablePtr& key : agg.group_keys()) {
    auto it = layout.find(key->name());
    if (it == layout.end()) {
      return Status::Internal("group key not in input: " + key->name());
    }
    key_channels.push_back(it->second);
    key_types.push_back(key->type());
  }
  std::vector<HashAggregationOperator::AggSpec> specs;
  for (const auto& aggregation : agg.aggregations()) {
    ASSIGN_OR_RETURN(const AggregateFunction* impl,
                     functions_->FindAggregate(aggregation.handle));
    HashAggregationOperator::AggSpec spec;
    spec.function = impl;
    spec.output_type = aggregation.output->type();
    for (const VariablePtr& arg : aggregation.arguments) {
      auto it = layout.find(arg->name());
      if (it == layout.end()) {
        return Status::Internal("aggregate argument not in input: " +
                                arg->name());
      }
      spec.arg_channels.push_back(it->second);
    }
    specs.push_back(std::move(spec));
  }
  return OperatorPtr(new HashAggregationOperator(
      std::move(chains), std::move(key_channels), std::move(key_types),
      std::move(specs), agg.step(), limits_));
}

Result<OperatorPtr> OperatorBuilder::BuildJoin(const JoinNode& join) {
  ASSIGN_OR_RETURN(OperatorPtr probe, Build(join.sources()[0]));
  auto probe_layout = MakeLayout(join.sources()[0]->OutputVariables());
  auto build_layout = MakeLayout(join.sources()[1]->OutputVariables());
  auto combined_layout = MakeLayout(join.OutputVariables());
  std::vector<VariablePtr> build_vars = join.sources()[1]->OutputVariables();
  if (join.criteria().empty()) {
    std::vector<OperatorPtr> build(1);
    ASSIGN_OR_RETURN(build[0], Build(join.sources()[1]));
    return OperatorPtr(new NestedLoopJoinOperator(
        std::move(probe), std::move(build), join.join_kind(),
        std::move(build_vars), join.filter(), std::move(combined_layout),
        functions_, limits_));
  }
  // The build side is merge-friendly (row sets concatenate), so it may
  // consume through replicated morsel chains; the probe side streams on
  // the task thread.
  ASSIGN_OR_RETURN(std::vector<OperatorPtr> build_chains,
                   BuildParallelChains(join.sources()[1]));
  std::vector<int> probe_keys, build_keys;
  std::vector<TypeKind> key_kinds;
  for (const auto& clause : join.criteria()) {
    auto l = probe_layout.find(clause.left->name());
    auto r = build_layout.find(clause.right->name());
    if (l == probe_layout.end() || r == build_layout.end()) {
      return Status::Internal("join criteria not in inputs");
    }
    probe_keys.push_back(l->second);
    build_keys.push_back(r->second);
    // Both sides of a key pair must normalize alike: the same kind, or
    // both integer-like (one int64 slot). The analyzer casts mixed
    // numeric keys to one type, so anything else is a planner bug.
    TypeKind p = clause.left->type()->kind();
    TypeKind b = clause.right->type()->kind();
    if (b != p && !(IsIntegerLike(b) && IsIntegerLike(p))) {
      return Status::Internal(std::string("hash join key kinds differ: ") +
                              TypeKindToString(p) + " probe, " +
                              TypeKindToString(b) + " build");
    }
    key_kinds.push_back(b);
  }
  return OperatorPtr(new HashJoinOperator(
      std::move(probe), std::move(build_chains), join.join_kind(),
      std::move(probe_keys), std::move(build_keys), std::move(key_kinds),
      std::move(build_vars), join.filter(), std::move(combined_layout),
      functions_, limits_));
}

Result<OperatorPtr> OperatorBuilder::BuildSort(const PlanNode& node) {
  std::vector<OrderingTerm> ordering;
  int64_t limit = -1;
  if (node.kind() == PlanNodeKind::kSort) {
    ordering = static_cast<const SortNode&>(node).ordering();
  } else {
    const auto& topn = static_cast<const TopNNode&>(node);
    ordering = topn.ordering();
    limit = topn.count();
  }
  ASSIGN_OR_RETURN(OperatorPtr child, Build(node.sources()[0]));
  auto layout = MakeLayout(node.sources()[0]->OutputVariables());
  std::vector<int> channels;
  std::vector<bool> ascending;
  for (const OrderingTerm& term : ordering) {
    auto it = layout.find(term.variable->name());
    if (it == layout.end()) {
      return Status::Internal("sort key not in input: " + term.variable->name());
    }
    channels.push_back(it->second);
    ascending.push_back(term.ascending);
  }
  return OperatorPtr(new SortOperator(std::move(child),
                                      node.sources()[0]->OutputVariables(),
                                      std::move(channels),
                                      std::move(ascending), limit, limits_));
}

}  // namespace presto
