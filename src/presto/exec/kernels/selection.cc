#include "presto/exec/kernels/selection.h"

#include <functional>
#include <optional>
#include <type_traits>

#include "presto/exec/kernels/kernels.h"
#include "presto/expr/evaluator.h"

namespace presto {

namespace {

using kernels::TypedColumn;

enum class CompareOp { kEq, kNeq, kLt, kLte, kGt, kGte };

std::optional<CompareOp> ParseCompareOp(const std::string& name) {
  if (name == "eq") return CompareOp::kEq;
  if (name == "neq") return CompareOp::kNeq;
  if (name == "lt") return CompareOp::kLt;
  if (name == "lte") return CompareOp::kLte;
  if (name == "gt") return CompareOp::kGt;
  if (name == "gte") return CompareOp::kGte;
  return std::nullopt;
}

// `a op b` == `b Mirror(op) a`, for every double too (NaN fails both).
CompareOp Mirror(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLte:
      return CompareOp::kGte;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGte:
      return CompareOp::kLte;
    default:
      return op;
  }
}

// Calls f with the comparison functor of `op`: the operators the registered
// comparison functions apply.
template <typename F>
void WithCompareOp(CompareOp op, F f) {
  switch (op) {
    case CompareOp::kEq:
      return f(std::equal_to<>());
    case CompareOp::kNeq:
      return f(std::not_equal_to<>());
    case CompareOp::kLt:
      return f(std::less<>());
    case CompareOp::kLte:
      return f(std::less_equal<>());
    case CompareOp::kGt:
      return f(std::greater<>());
    case CompareOp::kGte:
      return f(std::greater_equal<>());
  }
}

// Slot storage shared by both sides of a registered comparison signature:
// kBigint stands for int64 slots (BIGINT and TIMESTAMP, mixed or not).
std::optional<TypeKind> ComparisonStorage(TypeKind a, TypeKind b) {
  auto int_slots = [](TypeKind k) {
    return k == TypeKind::kBigint || k == TypeKind::kTimestamp;
  };
  if (int_slots(a) && int_slots(b)) return TypeKind::kBigint;
  if (a == b && (a == TypeKind::kDouble || a == TypeKind::kVarchar)) return a;
  return std::nullopt;
}

bool InStorage(TypeKind storage, TypeKind kind) {
  return storage == TypeKind::kBigint ? IsIntegerLike(kind) : kind == storage;
}

// A literal's slot value, converted the way MakeConstantVector converts it
// (MatchComparison has checked the value's shape).
template <typename T>
T LiteralSlot(const Value& v) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return v.int_value();
  } else if constexpr (std::is_same_v<T, double>) {
    return v.AsDouble();
  } else {
    return v.string_value();
  }
}

// False for NULL and for values MakeConstantVector's builder refuses.
bool LiteralFits(TypeKind storage, const Value& v) {
  if (storage == TypeKind::kBigint) return v.is_int();
  if (storage == TypeKind::kDouble) return v.is_int() || v.is_double();
  return v.is_string();
}

// A conjunct the selection kernels run: `column op other`, where other is a
// second column (other_column >= 0) or the literal.
struct Comparison {
  CompareOp op;
  TypeKind storage;
  int column;
  int other_column = -1;
  const Value* literal = nullptr;
};

// Matches a conjunct against the covered shapes; nullopt sends it to the
// Evaluator.
std::optional<Comparison> MatchComparison(
    const RowExpression& expr, const std::map<std::string, int>& layout) {
  if (expr.expression_kind() != ExpressionKind::kCall) return std::nullopt;
  const auto& call = static_cast<const CallExpression&>(expr);
  const FunctionHandle& handle = call.handle();
  std::optional<CompareOp> op = ParseCompareOp(handle.name);
  if (!op || call.arguments().size() != 2 ||
      handle.argument_types.size() != 2 ||
      handle.return_type->kind() != TypeKind::kBoolean) {
    return std::nullopt;
  }
  std::optional<TypeKind> storage =
      ComparisonStorage(handle.argument_types[0]->kind(),
                        handle.argument_types[1]->kind());
  if (!storage) return std::nullopt;
  int channels[2] = {-1, -1};
  const Value* literals[2] = {nullptr, nullptr};
  for (int side = 0; side < 2; ++side) {
    const RowExpression& arg = *call.arguments()[side];
    if (!InStorage(*storage, arg.type()->kind())) return std::nullopt;
    if (arg.expression_kind() == ExpressionKind::kVariableReference) {
      auto it = layout.find(
          static_cast<const VariableReferenceExpression&>(arg).name());
      if (it == layout.end()) return std::nullopt;
      channels[side] = it->second;
    } else if (arg.expression_kind() == ExpressionKind::kConstant) {
      const Value& v = static_cast<const ConstantExpression&>(arg).value();
      if (!LiteralFits(*storage, v)) return std::nullopt;
      literals[side] = &v;
    } else {
      return std::nullopt;
    }
  }
  if (channels[0] < 0 && channels[1] < 0) return std::nullopt;
  if (channels[0] < 0) {  // literal op column == column Mirror(op) literal
    return Comparison{Mirror(*op), *storage, channels[1], -1, literals[0]};
  }
  return Comparison{*op, *storage, channels[0], channels[1], literals[1]};
}

// The rows of a page still selected: ascending, `all` standing for
// 0..size-1 until the first refinement materializes it.
struct Selection {
  bool all = true;
  size_t size = 0;
  std::vector<int32_t> rows;
};

// Keeps the selected rows where pass(row) holds, writing survivors over
// the selection in place (each write lands at or before the read).
template <typename Pass>
void Refine(Selection* sel, Pass pass) {
  size_t k = 0;
  if (sel->all) {
    sel->rows.resize(sel->size);
    int32_t* out = sel->rows.data();
    for (size_t r = 0; r < sel->size; ++r) {
      out[k] = static_cast<int32_t>(r);
      k += pass(r) ? 1 : 0;
    }
  } else {
    int32_t* rows = sel->rows.data();
    for (size_t i = 0; i < sel->size; ++i) {
      const int32_t r = rows[i];
      rows[k] = r;
      k += pass(static_cast<size_t>(r)) ? 1 : 0;
    }
  }
  sel->all = false;
  sel->size = k;
  sel->rows.resize(k);
}

// column op literal, one loop per storage shape so the null and dictionary
// tests leave the inner loop when they cannot apply.
template <typename T, typename Cmp>
void SelectVsLiteral(const TypedColumn<T>& c, const T& literal, Cmp cmp,
                     Selection* sel) {
  const T* values = c.values;
  const uint8_t* nulls = c.base_nulls;
  if (c.indices == nullptr) {
    if (nulls == nullptr) {
      return Refine(sel, [&](size_t r) { return cmp(values[r], literal); });
    }
    return Refine(sel, [&](size_t r) {
      return (nulls[r] == 0) & cmp(values[r], literal);
    });
  }
  const int32_t* indices = c.indices;
  if (nulls == nullptr && c.top_nulls == nullptr) {
    return Refine(sel,
                  [&](size_t r) { return cmp(values[indices[r]], literal); });
  }
  return Refine(sel, [&](size_t r) {
    return !c.IsNull(r) && cmp(c.At(r), literal);
  });
}

template <typename T, typename Cmp>
void SelectVsColumn(const TypedColumn<T>& a, const TypedColumn<T>& b,
                    Cmp cmp, Selection* sel) {
  return Refine(sel, [&](size_t r) {
    return !a.IsNull(r) && !b.IsNull(r) && cmp(a.At(r), b.At(r));
  });
}

Result<VectorPtr> PreparedChannel(const Page& page, int channel) {
  if (channel < 0 || static_cast<size_t>(channel) >= page.num_columns()) {
    return Status::Internal("predicate channel out of range");
  }
  return kernels::PrepareColumn(page.column(channel));
}

// Decodes a channel into `out`, which points into `*holder`.
template <typename T>
Status DecodeChannel(const Page& page, int channel, VectorPtr* holder,
                     TypedColumn<T>* out) {
  ASSIGN_OR_RETURN(*holder, PreparedChannel(page, channel));
  if (!kernels::TryDecode<T>(**holder, out)) {
    return Status::Internal("column type " + (*holder)->type()->ToString() +
                            " does not match its comparison");
  }
  return Status::OK();
}

template <typename T>
Status RunComparison(const Comparison& cmp, const Page& page, Selection* sel) {
  VectorPtr holders[2];
  TypedColumn<T> column;
  RETURN_IF_ERROR(DecodeChannel(page, cmp.column, &holders[0], &column));
  if (cmp.other_column >= 0) {
    TypedColumn<T> other;
    RETURN_IF_ERROR(DecodeChannel(page, cmp.other_column, &holders[1], &other));
    WithCompareOp(cmp.op, [&](auto op) {
      return SelectVsColumn(column, other, op, sel);
    });
    return Status::OK();
  }
  const T literal = LiteralSlot<T>(*cmp.literal);
  WithCompareOp(cmp.op, [&](auto op) {
    return SelectVsLiteral(column, literal, op, sel);
  });
  return Status::OK();
}

// Runs an uncovered conjunct through the Evaluator over the columns it
// references, wrapped to the selected rows. Lazy columns load whole (and
// cache) as they would for a whole-page evaluation.
Status RefineByEvaluator(const RowExpression& conjunct, const Page& page,
                         const std::map<std::string, int>& layout,
                         const FunctionRegistry* registry, Selection* sel) {
  VectorPtr result;
  if (sel->all) {
    ASSIGN_OR_RETURN(result,
                     Evaluator::EvalExpression(conjunct, page, layout, registry));
  } else {
    std::vector<std::string> names;
    CollectReferencedVariables(conjunct, &names);
    std::map<std::string, int> sub_layout;
    std::vector<VectorPtr> columns;
    for (const std::string& name : names) {
      auto it = layout.find(name);
      if (it == layout.end() || sub_layout.count(name) > 0) continue;
      ASSIGN_OR_RETURN(VectorPtr column, PreparedChannel(page, it->second));
      sub_layout[name] = static_cast<int>(columns.size());
      columns.push_back(std::move(column));
    }
    Page survivors = Page(std::move(columns), page.num_rows()).WrapRows(sel->rows);
    ASSIGN_OR_RETURN(result, Evaluator::EvalExpression(conjunct, survivors,
                                                       sub_layout, registry));
  }
  // Refine visits the selected rows in order: result row i is the i-th.
  const auto& bools = static_cast<const BoolVector&>(*result);
  size_t i = 0;
  Refine(sel, [&](size_t) {
    const size_t at = i++;
    return !bools.IsNull(at) && bools.ValueAt(at) != 0;
  });
  return Status::OK();
}

void CollectConjuncts(const RowExpression& expr,
                      std::vector<const RowExpression*>* out) {
  if (expr.expression_kind() == ExpressionKind::kSpecialForm) {
    const auto& form = static_cast<const SpecialFormExpression&>(expr);
    if (form.form() == SpecialFormKind::kAnd) {
      for (const ExprPtr& arg : form.arguments()) CollectConjuncts(*arg, out);
      return;
    }
  }
  out->push_back(&expr);
}

}  // namespace

Result<std::vector<int32_t>> EvalPredicate(
    const RowExpression& predicate, const Page& input,
    const std::map<std::string, int>& layout, const FunctionRegistry* registry) {
  if (predicate.type()->kind() != TypeKind::kBoolean) {
    return Status::UserError("predicate must be BOOLEAN, got " +
                             predicate.type()->ToString());
  }
  std::vector<const RowExpression*> conjuncts;
  CollectConjuncts(predicate, &conjuncts);
  Selection sel;
  sel.size = input.num_rows();
  for (const RowExpression* conjunct : conjuncts) {
    if (sel.size == 0) break;
    std::optional<Comparison> cmp = MatchComparison(*conjunct, layout);
    if (!cmp) {
      RETURN_IF_ERROR(
          RefineByEvaluator(*conjunct, input, layout, registry, &sel));
    } else if (cmp->storage == TypeKind::kBigint) {
      RETURN_IF_ERROR(RunComparison<int64_t>(*cmp, input, &sel));
    } else if (cmp->storage == TypeKind::kDouble) {
      RETURN_IF_ERROR(RunComparison<double>(*cmp, input, &sel));
    } else {
      RETURN_IF_ERROR(RunComparison<std::string>(*cmp, input, &sel));
    }
  }
  if (sel.all) {
    sel.rows.resize(sel.size);
    for (size_t r = 0; r < sel.size; ++r) sel.rows[r] = static_cast<int32_t>(r);
  }
  return std::move(sel.rows);
}

}  // namespace presto
