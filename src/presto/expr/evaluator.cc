#include "presto/expr/evaluator.h"

#include <algorithm>

#include "presto/vector/vector_builder.h"

namespace presto {

namespace {

// Three-valued logic cell: 0=false, 1=true, 2=null.
constexpr uint8_t kFalse = 0;
constexpr uint8_t kTrue = 1;
constexpr uint8_t kNull = 2;

uint8_t BoolCell(const Vector& v, size_t row) {
  if (v.IsNull(row)) return kNull;
  return static_cast<const BoolVector&>(v).ValueAt(row) != 0 ? kTrue : kFalse;
}

VectorPtr MakeBoolVectorWithNulls(std::vector<uint8_t> cells) {
  size_t n = cells.size();
  std::vector<uint8_t> values(n), nulls(n, 0);
  bool any_null = false;
  for (size_t i = 0; i < n; ++i) {
    if (cells[i] == kNull) {
      nulls[i] = 1;
      any_null = true;
    } else {
      values[i] = cells[i];
    }
  }
  if (!any_null) nulls.clear();
  return std::make_shared<BoolVector>(Type::Boolean(), std::move(values),
                                      std::move(nulls));
}

// Applies an additional null mask on top of a vector (used for default null
// behaviour of scalar functions and for DEREFERENCE base nulls).
Result<VectorPtr> ApplyNullMask(const VectorPtr& vector,
                                const std::vector<uint8_t>& mask) {
  bool any = std::any_of(mask.begin(), mask.end(), [](uint8_t m) { return m != 0; });
  if (!any) return vector;
  VectorBuilder builder(vector->type());
  for (size_t i = 0; i < vector->size(); ++i) {
    if (mask[i] != 0 || vector->IsNull(i)) {
      builder.AppendNull();
    } else {
      RETURN_IF_ERROR(builder.Append(vector->GetValue(i)));
    }
  }
  return builder.Build();
}

class EvalContext {
 public:
  EvalContext(const Page& page, const std::map<std::string, int>& layout,
              const FunctionRegistry* registry)
      : page_(page), layout_(layout), registry_(registry) {}

  Result<VectorPtr> Eval(const RowExpression& expr) {
    switch (expr.expression_kind()) {
      case ExpressionKind::kConstant: {
        const auto& c = static_cast<const ConstantExpression&>(expr);
        return MakeConstantVector(c.value(), c.type(), page_.num_rows());
      }
      case ExpressionKind::kVariableReference: {
        const auto& var = static_cast<const VariableReferenceExpression&>(expr);
        auto it = layout_.find(var.name());
        if (it == layout_.end()) {
          return Status::Internal("variable not in layout: " + var.name());
        }
        return Vector::Flatten(page_.column(it->second));
      }
      case ExpressionKind::kCall:
        return EvalCall(static_cast<const CallExpression&>(expr));
      case ExpressionKind::kSpecialForm:
        return EvalSpecialForm(static_cast<const SpecialFormExpression&>(expr));
      case ExpressionKind::kLambdaDefinition:
        return Status::UserError(
            "lambda must appear as an argument of a higher-order function");
    }
    return Status::Internal("unknown expression kind");
  }

 private:
  Result<VectorPtr> EvalCall(const CallExpression& call) {
    const std::string& name = call.function_name();
    if (name == "transform" || name == "filter") {
      return EvalHigherOrder(call);
    }
    std::vector<VectorPtr> args;
    args.reserve(call.arguments().size());
    for (const ExprPtr& arg : call.arguments()) {
      ASSIGN_OR_RETURN(VectorPtr v, Eval(*arg));
      args.push_back(std::move(v));
    }
    ASSIGN_OR_RETURN(ScalarFunction fn, registry_->FindScalar(call.handle()));
    if (!fn.default_null_behavior) {
      return fn.impl(args, page_.num_rows());
    }
    // Default null behaviour: null out rows where any argument is null.
    std::vector<uint8_t> mask(page_.num_rows(), 0);
    for (const VectorPtr& arg : args) {
      for (size_t i = 0; i < page_.num_rows(); ++i) {
        if (arg->IsNull(i)) mask[i] = 1;
      }
    }
    ASSIGN_OR_RETURN(VectorPtr result, fn.impl(args, page_.num_rows()));
    return ApplyNullMask(result, mask);
  }

  Result<VectorPtr> EvalHigherOrder(const CallExpression& call) {
    if (call.arguments().size() != 2 ||
        call.arguments()[1]->expression_kind() != ExpressionKind::kLambdaDefinition) {
      return Status::UserError(call.function_name() +
                               " expects (array, lambda) arguments");
    }
    ASSIGN_OR_RETURN(VectorPtr array_any, Eval(*call.arguments()[0]));
    if (array_any->type()->kind() != TypeKind::kArray) {
      return Status::UserError(call.function_name() + " expects an ARRAY");
    }
    const auto* array = static_cast<const ArrayVector*>(array_any.get());
    const auto& lambda = static_cast<const LambdaDefinitionExpression&>(
        *call.arguments()[1]);
    if (lambda.argument_names().size() != 1) {
      return Status::UserError("lambda must take exactly one argument");
    }
    ASSIGN_OR_RETURN(VectorPtr elements, Vector::Flatten(array->elements()));
    // Evaluate the lambda body over the elements vector.
    Page element_page({elements});
    std::map<std::string, int> element_layout{{lambda.argument_names()[0], 0}};
    EvalContext body_context(element_page, element_layout, registry_);
    ASSIGN_OR_RETURN(VectorPtr body_result, body_context.Eval(*lambda.body()));

    size_t n = array->size();
    if (call.function_name() == "transform") {
      std::vector<int32_t> offsets(n), lengths(n);
      std::vector<uint8_t> nulls(n, 0);
      bool any_null = false;
      for (size_t i = 0; i < n; ++i) {
        offsets[i] = array->OffsetAt(i);
        lengths[i] = array->LengthAt(i);
        if (array->IsNull(i)) {
          nulls[i] = 1;
          any_null = true;
        }
      }
      if (!any_null) nulls.clear();
      return VectorPtr(std::make_shared<ArrayVector>(
          Type::Array(body_result->type()), std::move(offsets), std::move(lengths),
          std::move(body_result), std::move(nulls)));
    }
    // filter: keep elements whose predicate is true.
    std::vector<int32_t> kept_rows, offsets(n), lengths(n);
    std::vector<uint8_t> nulls(n, 0);
    bool any_null = false;
    for (size_t i = 0; i < n; ++i) {
      offsets[i] = static_cast<int32_t>(kept_rows.size());
      int32_t kept = 0;
      if (array->IsNull(i)) {
        nulls[i] = 1;
        any_null = true;
      } else {
        for (int32_t j = 0; j < array->LengthAt(i); ++j) {
          int32_t row = array->OffsetAt(i) + j;
          if (BoolCell(*body_result, row) == kTrue) {
            kept_rows.push_back(row);
            ++kept;
          }
        }
      }
      lengths[i] = kept;
    }
    if (!any_null) nulls.clear();
    return VectorPtr(std::make_shared<ArrayVector>(
        array_any->type(), std::move(offsets), std::move(lengths),
        elements->Slice(kept_rows), std::move(nulls)));
  }

  Result<VectorPtr> EvalSpecialForm(const SpecialFormExpression& form) {
    size_t n = page_.num_rows();
    switch (form.form()) {
      case SpecialFormKind::kAnd:
      case SpecialFormKind::kOr: {
        bool is_and = form.form() == SpecialFormKind::kAnd;
        std::vector<uint8_t> acc(n, is_and ? kTrue : kFalse);
        for (const ExprPtr& arg : form.arguments()) {
          ASSIGN_OR_RETURN(VectorPtr v, Eval(*arg));
          for (size_t i = 0; i < n; ++i) {
            uint8_t cell = BoolCell(*v, i);
            if (is_and) {
              // false dominates, then null.
              if (acc[i] == kFalse || cell == kFalse) {
                acc[i] = kFalse;
              } else if (acc[i] == kNull || cell == kNull) {
                acc[i] = kNull;
              }
            } else {
              if (acc[i] == kTrue || cell == kTrue) {
                acc[i] = kTrue;
              } else if (acc[i] == kNull || cell == kNull) {
                acc[i] = kNull;
              }
            }
          }
        }
        return MakeBoolVectorWithNulls(std::move(acc));
      }
      case SpecialFormKind::kNot: {
        ASSIGN_OR_RETURN(VectorPtr v, Eval(*form.arguments()[0]));
        std::vector<uint8_t> cells(n);
        for (size_t i = 0; i < n; ++i) {
          uint8_t cell = BoolCell(*v, i);
          cells[i] = cell == kNull ? kNull : (cell == kTrue ? kFalse : kTrue);
        }
        return MakeBoolVectorWithNulls(std::move(cells));
      }
      case SpecialFormKind::kIsNull: {
        ASSIGN_OR_RETURN(VectorPtr v, Eval(*form.arguments()[0]));
        std::vector<uint8_t> values(n);
        for (size_t i = 0; i < n; ++i) values[i] = v->IsNull(i) ? 1 : 0;
        return MakeBooleanVector(std::move(values));
      }
      case SpecialFormKind::kIn: {
        ASSIGN_OR_RETURN(VectorPtr needle, Eval(*form.arguments()[0]));
        std::vector<VectorPtr> candidates;
        for (size_t a = 1; a < form.arguments().size(); ++a) {
          ASSIGN_OR_RETURN(VectorPtr c, Eval(*form.arguments()[a]));
          candidates.push_back(std::move(c));
        }
        std::vector<uint8_t> cells(n, kFalse);
        for (size_t i = 0; i < n; ++i) {
          if (needle->IsNull(i)) {
            cells[i] = kNull;
            continue;
          }
          for (const VectorPtr& c : candidates) {
            if (!c->IsNull(i) && needle->CompareAt(i, *c, i) == 0) {
              cells[i] = kTrue;
              break;
            }
          }
        }
        return MakeBoolVectorWithNulls(std::move(cells));
      }
      case SpecialFormKind::kIf: {
        ASSIGN_OR_RETURN(VectorPtr cond, Eval(*form.arguments()[0]));
        ASSIGN_OR_RETURN(VectorPtr then_v, Eval(*form.arguments()[1]));
        ASSIGN_OR_RETURN(VectorPtr else_v, Eval(*form.arguments()[2]));
        VectorBuilder builder(form.type());
        for (size_t i = 0; i < n; ++i) {
          const VectorPtr& pick = BoolCell(*cond, i) == kTrue ? then_v : else_v;
          RETURN_IF_ERROR(builder.Append(pick->GetValue(i)));
        }
        return builder.Build();
      }
      case SpecialFormKind::kCoalesce: {
        std::vector<VectorPtr> args;
        for (const ExprPtr& arg : form.arguments()) {
          ASSIGN_OR_RETURN(VectorPtr v, Eval(*arg));
          args.push_back(std::move(v));
        }
        VectorBuilder builder(form.type());
        for (size_t i = 0; i < n; ++i) {
          bool done = false;
          for (const VectorPtr& arg : args) {
            if (!arg->IsNull(i)) {
              RETURN_IF_ERROR(builder.Append(arg->GetValue(i)));
              done = true;
              break;
            }
          }
          if (!done) builder.AppendNull();
        }
        return builder.Build();
      }
      case SpecialFormKind::kDereference: {
        ASSIGN_OR_RETURN(VectorPtr base_any, Eval(*form.arguments()[0]));
        if (base_any->type()->kind() != TypeKind::kRow) {
          return Status::Internal("DEREFERENCE base is not a ROW");
        }
        const auto* base = static_cast<const RowVector*>(base_any.get());
        ASSIGN_OR_RETURN(VectorPtr child,
                         Vector::Flatten(base->child(form.field_index())));
        // Rows where the struct itself is null yield null fields.
        std::vector<uint8_t> mask(n, 0);
        bool any = false;
        for (size_t i = 0; i < n; ++i) {
          if (base->IsNull(i)) {
            mask[i] = 1;
            any = true;
          }
        }
        if (!any) return child;
        return ApplyNullMask(child, mask);
      }
      case SpecialFormKind::kCast: {
        ASSIGN_OR_RETURN(VectorPtr input, Eval(*form.arguments()[0]));
        return EvalCast(*input, form.type());
      }
    }
    return Status::Internal("unknown special form");
  }

  Result<VectorPtr> EvalCast(const Vector& input, const TypePtr& target) {
    size_t n = input.size();
    VectorBuilder builder(target);
    for (size_t i = 0; i < n; ++i) {
      if (input.IsNull(i)) {
        builder.AppendNull();
        continue;
      }
      Value v = input.GetValue(i);
      switch (target->kind()) {
        case TypeKind::kBigint:
        case TypeKind::kInteger:
        case TypeKind::kTimestamp:
          if (v.is_int()) {
            builder.AppendBigint(v.int_value());
          } else if (v.is_double()) {
            builder.AppendBigint(static_cast<int64_t>(v.double_value()));
          } else if (v.is_bool()) {
            builder.AppendBigint(v.bool_value() ? 1 : 0);
          } else if (v.is_string()) {
            char* end = nullptr;
            const std::string& s = v.string_value();
            long long parsed = std::strtoll(s.c_str(), &end, 10);
            if (end == s.c_str() + s.size() && !s.empty()) {
              builder.AppendBigint(parsed);
            } else {
              builder.AppendNull();  // unparseable cast yields NULL
            }
          } else {
            return Status::UserError("cannot cast to " + target->ToString());
          }
          break;
        case TypeKind::kDouble:
          if (v.is_int() || v.is_double()) {
            builder.AppendDouble(v.AsDouble());
          } else if (v.is_string()) {
            char* end = nullptr;
            const std::string& s = v.string_value();
            double parsed = std::strtod(s.c_str(), &end);
            if (end == s.c_str() + s.size() && !s.empty()) {
              builder.AppendDouble(parsed);
            } else {
              builder.AppendNull();
            }
          } else {
            return Status::UserError("cannot cast to DOUBLE");
          }
          break;
        case TypeKind::kVarchar:
          if (v.is_string()) {
            builder.AppendString(v.string_value());
          } else if (v.is_int()) {
            builder.AppendString(std::to_string(v.int_value()));
          } else if (v.is_double()) {
            builder.AppendString(std::to_string(v.double_value()));
          } else if (v.is_bool()) {
            builder.AppendString(v.bool_value() ? "true" : "false");
          } else {
            return Status::UserError("cannot cast to VARCHAR");
          }
          break;
        case TypeKind::kBoolean:
          if (v.is_bool()) {
            builder.AppendBool(v.bool_value());
          } else if (v.is_int()) {
            builder.AppendBool(v.int_value() != 0);
          } else {
            return Status::UserError("cannot cast to BOOLEAN");
          }
          break;
        default:
          return Status::UserError("unsupported cast target: " + target->ToString());
      }
    }
    return builder.Build();
  }

  const Page& page_;
  const std::map<std::string, int>& layout_;
  const FunctionRegistry* registry_;
};

}  // namespace

Result<VectorPtr> MakeConstantVector(const Value& value, const TypePtr& type,
                                     size_t n) {
  // Scalar literals fill typed storage directly; NULLs, nested values and
  // shape mismatches go through the builder (and keep its errors).
  auto fill = [&](auto v) -> VectorPtr {
    using T = decltype(v);
    return std::make_shared<FlatVector<T>>(type, std::vector<T>(n, v),
                                           std::vector<uint8_t>{});
  };
  const TypeKind kind = type->kind();
  if (kind == TypeKind::kBoolean && value.is_bool()) {
    return fill(static_cast<uint8_t>(value.bool_value() ? 1 : 0));
  }
  if (IsIntegerLike(kind) && value.is_int()) return fill(value.int_value());
  if (kind == TypeKind::kDouble && (value.is_int() || value.is_double())) {
    return fill(value.AsDouble());
  }
  if (kind == TypeKind::kVarchar && value.is_string()) {
    return fill(value.string_value());
  }
  VectorBuilder builder(type);
  for (size_t i = 0; i < n; ++i) {
    RETURN_IF_ERROR(builder.Append(value));
  }
  return builder.Build();
}

Result<VectorPtr> Evaluator::Eval(const Page& input) const {
  EvalContext context(input, layout_, registry_);
  return context.Eval(*expr_);
}

Result<VectorPtr> Evaluator::EvalExpression(const RowExpression& expr,
                                            const Page& input,
                                            const std::map<std::string, int>& layout,
                                            const FunctionRegistry* registry) {
  EvalContext context(input, layout, registry);
  return context.Eval(expr);
}

}  // namespace presto
