#include "presto/sql/analyzer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "presto/sql/parser.h"

namespace presto {
namespace sql {

namespace {

// One visible column: table alias + column name + the plan variable.
struct ScopeColumn {
  std::string table_alias;
  std::string column_name;
  VariablePtr variable;
};

struct Scope {
  std::vector<ScopeColumn> columns;

  void Add(const std::string& alias, const std::string& column, VariablePtr var) {
    columns.push_back(ScopeColumn{alias, column, std::move(var)});
  }
};

/// Wraps expr in a CAST when its type differs from target.
ExprPtr CoerceTo(ExprPtr expr, const TypePtr& target) {
  if (expr->type()->Equals(*target)) return expr;
  return SpecialFormExpression::Make(SpecialFormKind::kCast, target, {std::move(expr)});
}

/// Typed AST-to-RowExpression conversion within one scope.
class ExprAnalyzer {
 public:
  ExprAnalyzer(const Scope* scope, FunctionRegistry* functions,
               const std::map<std::string, VariablePtr>* substitutions)
      : scope_(scope), functions_(functions), substitutions_(substitutions) {}

  Result<ExprPtr> Analyze(const AstExpr& ast) {
    // Pre-resolved aggregate / group-key expressions are swapped for their
    // output variables.
    if (substitutions_ != nullptr) {
      auto it = substitutions_->find(ast.ToString());
      if (it != substitutions_->end()) return ExprPtr(it->second);
    }
    switch (ast.kind) {
      case AstExpr::Kind::kLiteral:
        return ConstantExpression::Make(ast.literal, ast.literal_type);
      case AstExpr::Kind::kIdentifier:
        return ResolveIdentifier(ast.parts);
      case AstExpr::Kind::kBinary:
        return AnalyzeBinary(ast);
      case AstExpr::Kind::kUnary:
        return AnalyzeUnary(ast);
      case AstExpr::Kind::kIsNull: {
        ASSIGN_OR_RETURN(ExprPtr inner, Analyze(*ast.args[0]));
        ExprPtr is_null = SpecialFormExpression::Make(
            SpecialFormKind::kIsNull, Type::Boolean(), {std::move(inner)});
        if (!ast.negated) return is_null;
        return SpecialFormExpression::Make(SpecialFormKind::kNot, Type::Boolean(),
                                           {std::move(is_null)});
      }
      case AstExpr::Kind::kIn: {
        ASSIGN_OR_RETURN(ExprPtr needle, Analyze(*ast.args[0]));
        std::vector<ExprPtr> args = {needle};
        for (size_t i = 1; i < ast.args.size(); ++i) {
          ASSIGN_OR_RETURN(ExprPtr item, Analyze(*ast.args[i]));
          args.push_back(CoerceTo(std::move(item), needle->type()));
        }
        ExprPtr in_expr = SpecialFormExpression::Make(SpecialFormKind::kIn,
                                                      Type::Boolean(),
                                                      std::move(args));
        if (!ast.negated) return in_expr;
        return SpecialFormExpression::Make(SpecialFormKind::kNot, Type::Boolean(),
                                           {std::move(in_expr)});
      }
      case AstExpr::Kind::kBetween: {
        // x BETWEEN lo AND hi  ->  x >= lo AND x <= hi
        ASSIGN_OR_RETURN(ExprPtr x, Analyze(*ast.args[0]));
        ASSIGN_OR_RETURN(ExprPtr lo, Analyze(*ast.args[1]));
        ASSIGN_OR_RETURN(ExprPtr hi, Analyze(*ast.args[2]));
        ASSIGN_OR_RETURN(ExprPtr ge, MakeCall("gte", {x, std::move(lo)}));
        ASSIGN_OR_RETURN(ExprPtr le, MakeCall("lte", {x, std::move(hi)}));
        ExprPtr both = SpecialFormExpression::Make(
            SpecialFormKind::kAnd, Type::Boolean(), {std::move(ge), std::move(le)});
        if (!ast.negated) return both;
        return SpecialFormExpression::Make(SpecialFormKind::kNot, Type::Boolean(),
                                           {std::move(both)});
      }
      case AstExpr::Kind::kCast: {
        ASSIGN_OR_RETURN(ExprPtr inner, Analyze(*ast.args[0]));
        return SpecialFormExpression::Make(SpecialFormKind::kCast, ast.cast_type,
                                           {std::move(inner)});
      }
      case AstExpr::Kind::kCall:
        return AnalyzeCall(ast);
      case AstExpr::Kind::kLambda:
        return Status::UserError(
            "lambda must be an argument of transform() or filter()");
    }
    return Status::Internal("unknown AST node");
  }

  /// Resolves a.b.c against the scope: longest table-alias/column prefix,
  /// remaining parts become struct field dereferences.
  Result<ExprPtr> ResolveIdentifier(const std::vector<std::string>& parts) {
    // Lambda parameters shadow everything.
    for (auto it = lambda_bindings_.rbegin(); it != lambda_bindings_.rend(); ++it) {
      if (it->first == parts[0]) {
        ExprPtr base = VariableReferenceExpression::Make(parts[0], it->second);
        return ApplyDereferences(std::move(base), parts, 1);
      }
    }
    if (scope_ == nullptr) {
      return Status::UserError("column '" + parts[0] + "' cannot be resolved");
    }
    // alias.column...
    if (parts.size() >= 2) {
      for (const ScopeColumn& col : scope_->columns) {
        if (col.table_alias == parts[0] && col.column_name == parts[1]) {
          return ApplyDereferences(ExprPtr(col.variable), parts, 2);
        }
      }
    }
    // column... (must be unambiguous)
    const ScopeColumn* found = nullptr;
    for (const ScopeColumn& col : scope_->columns) {
      if (col.column_name == parts[0]) {
        if (found != nullptr) {
          return Status::UserError("column '" + parts[0] + "' is ambiguous");
        }
        found = &col;
      }
    }
    if (found == nullptr) {
      std::string name;
      for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) name += ".";
        name += parts[i];
      }
      return Status::UserError("column '" + name + "' cannot be resolved");
    }
    return ApplyDereferences(ExprPtr(found->variable), parts, 1);
  }

  Result<ExprPtr> MakeCall(const std::string& name, std::vector<ExprPtr> args) {
    std::vector<TypePtr> arg_types;
    for (const ExprPtr& arg : args) arg_types.push_back(arg->type());
    ASSIGN_OR_RETURN(FunctionHandle handle,
                     functions_->ResolveScalar(name, arg_types));
    // Insert coercion casts where the declared parameter types differ.
    for (size_t i = 0; i < args.size(); ++i) {
      args[i] = CoerceTo(std::move(args[i]), handle.argument_types[i]);
    }
    return CallExpression::Make(std::move(handle), std::move(args));
  }

 private:
  static Result<ExprPtr> ApplyDereferences(ExprPtr base,
                                           const std::vector<std::string>& parts,
                                           size_t from) {
    ExprPtr expr = std::move(base);
    for (size_t i = from; i < parts.size(); ++i) {
      ASSIGN_OR_RETURN(expr,
                       SpecialFormExpression::MakeDereference(expr, parts[i]));
    }
    return expr;
  }

  Result<ExprPtr> AnalyzeBinary(const AstExpr& ast) {
    if (ast.op == "AND" || ast.op == "OR") {
      ASSIGN_OR_RETURN(ExprPtr left, Analyze(*ast.args[0]));
      ASSIGN_OR_RETURN(ExprPtr right, Analyze(*ast.args[1]));
      if (left->type()->kind() != TypeKind::kBoolean ||
          right->type()->kind() != TypeKind::kBoolean) {
        return Status::UserError(ast.op + " requires BOOLEAN operands");
      }
      return SpecialFormExpression::Make(
          ast.op == "AND" ? SpecialFormKind::kAnd : SpecialFormKind::kOr,
          Type::Boolean(), {std::move(left), std::move(right)});
    }
    static const std::map<std::string, std::string> kBinaryFns = {
        {"=", "eq"},  {"<>", "neq"}, {"<", "lt"},      {"<=", "lte"},
        {">", "gt"},  {">=", "gte"}, {"+", "plus"},    {"-", "minus"},
        {"*", "multiply"}, {"/", "divide"}, {"%", "modulus"}, {"LIKE", "like"}};
    auto fn = kBinaryFns.find(ast.op);
    if (fn == kBinaryFns.end()) {
      return Status::Internal("unknown binary operator " + ast.op);
    }
    ASSIGN_OR_RETURN(ExprPtr left, Analyze(*ast.args[0]));
    ASSIGN_OR_RETURN(ExprPtr right, Analyze(*ast.args[1]));
    return MakeCall(fn->second, {std::move(left), std::move(right)});
  }

  Result<ExprPtr> AnalyzeUnary(const AstExpr& ast) {
    ASSIGN_OR_RETURN(ExprPtr inner, Analyze(*ast.args[0]));
    if (ast.op == "NOT") {
      if (inner->type()->kind() != TypeKind::kBoolean) {
        return Status::UserError("NOT requires a BOOLEAN operand");
      }
      return SpecialFormExpression::Make(SpecialFormKind::kNot, Type::Boolean(),
                                         {std::move(inner)});
    }
    return MakeCall("negate", {std::move(inner)});
  }

  Result<ExprPtr> AnalyzeCall(const AstExpr& ast) {
    if (functions_->IsAggregateName(ast.call_name)) {
      return Status::UserError("aggregate function " + ast.call_name +
                               " is not allowed here");
    }
    // coalesce()/if() are special forms, not registry functions.
    if (ast.call_name == "coalesce") {
      if (ast.args.empty()) return Status::UserError("coalesce needs arguments");
      std::vector<ExprPtr> args;
      for (const AstExprPtr& arg : ast.args) {
        ASSIGN_OR_RETURN(ExprPtr analyzed, Analyze(*arg));
        args.push_back(std::move(analyzed));
      }
      TypePtr type = args[0]->type();
      for (size_t i = 1; i < args.size(); ++i) {
        args[i] = CoerceTo(std::move(args[i]), type);
      }
      return SpecialFormExpression::Make(SpecialFormKind::kCoalesce, type,
                                         std::move(args));
    }
    if (ast.call_name == "if") {
      if (ast.args.size() != 3) {
        return Status::UserError("if(condition, then, else) takes 3 arguments");
      }
      ASSIGN_OR_RETURN(ExprPtr cond, Analyze(*ast.args[0]));
      if (cond->type()->kind() != TypeKind::kBoolean) {
        return Status::UserError("if() condition must be BOOLEAN");
      }
      ASSIGN_OR_RETURN(ExprPtr then_expr, Analyze(*ast.args[1]));
      ASSIGN_OR_RETURN(ExprPtr else_expr, Analyze(*ast.args[2]));
      TypePtr type = then_expr->type();
      else_expr = CoerceTo(std::move(else_expr), type);
      return SpecialFormExpression::Make(
          SpecialFormKind::kIf, type,
          {std::move(cond), std::move(then_expr), std::move(else_expr)});
    }
    // Higher-order functions: infer the lambda parameter type from the array.
    if ((ast.call_name == "transform" || ast.call_name == "filter") &&
        ast.args.size() == 2 && ast.args[1]->kind == AstExpr::Kind::kLambda) {
      ASSIGN_OR_RETURN(ExprPtr array, Analyze(*ast.args[0]));
      if (array->type()->kind() != TypeKind::kArray) {
        return Status::UserError(ast.call_name + " expects an ARRAY argument");
      }
      const AstExpr& lambda_ast = *ast.args[1];
      if (lambda_ast.lambda_params.size() != 1) {
        return Status::UserError("lambda must take exactly one parameter");
      }
      TypePtr element_type = array->type()->element();
      lambda_bindings_.emplace_back(lambda_ast.lambda_params[0], element_type);
      auto body = Analyze(*lambda_ast.args[0]);
      lambda_bindings_.pop_back();
      RETURN_IF_ERROR(body.status());
      if (ast.call_name == "filter" &&
          (*body)->type()->kind() != TypeKind::kBoolean) {
        return Status::UserError("filter lambda must return BOOLEAN");
      }
      ExprPtr lambda = LambdaDefinitionExpression::Make(
          {lambda_ast.lambda_params[0]}, {element_type}, std::move(*body));
      TypePtr result_type = ast.call_name == "filter"
                                ? array->type()
                                : Type::Array(lambda->type());
      FunctionHandle handle{ast.call_name,
                            {array->type(), lambda->type()},
                            result_type};
      return CallExpression::Make(std::move(handle),
                                  {std::move(array), std::move(lambda)});
    }
    std::vector<ExprPtr> args;
    for (const AstExprPtr& arg : ast.args) {
      ASSIGN_OR_RETURN(ExprPtr analyzed, Analyze(*arg));
      args.push_back(std::move(analyzed));
    }
    return MakeCall(ast.call_name, std::move(args));
  }

  const Scope* scope_;
  FunctionRegistry* functions_;
  const std::map<std::string, VariablePtr>* substitutions_;
  std::vector<std::pair<std::string, TypePtr>> lambda_bindings_;
};

// Walks an AST collecting aggregate call nodes (deduplicated by ToString).
void CollectAggregates(const AstExpr& ast, FunctionRegistry* functions,
                       std::vector<const AstExpr*>* out,
                       std::set<std::string>* seen) {
  if (ast.kind == AstExpr::Kind::kCall &&
      functions->IsAggregateName(ast.call_name)) {
    if (seen->insert(ast.ToString()).second) out->push_back(&ast);
    return;  // no nested aggregates
  }
  for (const AstExprPtr& arg : ast.args) {
    CollectAggregates(*arg, functions, out, seen);
  }
}

// One query's analysis: the relation built so far, its scopes and the SELECT
// outputs, advanced one clause at a time in SQL's logical order.
class QueryAnalysis {
 public:
  QueryAnalysis(const Query& query, const CatalogRegistry* catalogs,
                const Session* session, FunctionRegistry* functions,
                PlanIdAllocator* ids)
      : query_(query),
        catalogs_(catalogs),
        session_(session),
        functions_(functions),
        ids_(*ids) {}

  // ---- FROM / JOIN: build the base relation and scope. ----------------------
  Status From() {
    ASSIGN_OR_RETURN(plan_, Scan(query_.from));
    std::set<std::string> aliases = {query_.from.alias};
    for (const JoinClause& join : query_.joins) {
      if (!aliases.insert(join.table.alias).second) {
        return Status::UserError("duplicate table alias: " + join.table.alias);
      }
      RETURN_IF_ERROR(Join(join));
    }
    return Status::OK();
  }

  // ---- WHERE -----------------------------------------------------------------
  Status Where() {
    if (query_.where == nullptr) return Status::OK();
    ExprAnalyzer expr_analyzer(&scope_, functions_, nullptr);
    ASSIGN_OR_RETURN(ExprPtr predicate, expr_analyzer.Analyze(*query_.where));
    if (predicate->type()->kind() != TypeKind::kBoolean) {
      return Status::UserError("WHERE clause must be BOOLEAN");
    }
    plan_ = std::make_shared<FilterNode>(ids_.NextId(), plan_, std::move(predicate));
    return Status::OK();
  }

  // ---- Aggregation -------------------------------------------------------------
  Status Aggregation() {
    std::vector<const AstExpr*> aggregates;
    std::set<std::string> seen_aggs;
    for (const SelectItem& item : query_.items) {
      if (item.expr != nullptr) {
        CollectAggregates(*item.expr, functions_, &aggregates, &seen_aggs);
      }
    }
    if (query_.having != nullptr) {
      CollectAggregates(*query_.having, functions_, &aggregates, &seen_aggs);
    }
    for (const OrderItem& item : query_.order_by) {
      CollectAggregates(*item.expr, functions_, &aggregates, &seen_aggs);
    }
    has_aggregation_ = !aggregates.empty() || !query_.group_by.empty();
    if (!has_aggregation_) return Status::OK();

    // Pre-projection: group keys and aggregate arguments become columns.
    ASSIGN_OR_RETURN(std::vector<const AstExpr*> group_asts, GroupKeys());
    ExprAnalyzer pre_analyzer(&scope_, functions_, nullptr);
    std::vector<ProjectNode::Assignment> pre_assignments;
    std::vector<VariablePtr> group_vars;
    for (const AstExpr* ast : group_asts) {
      ASSIGN_OR_RETURN(ExprPtr expr, pre_analyzer.Analyze(*ast));
      VariablePtr var = VariableReferenceExpression::Make(
          ids_.NextVariable("groupkey"), expr->type());
      pre_assignments.push_back({var, std::move(expr)});
      group_vars.push_back(var);
      substitutions_[ast->ToString()] = var;
      // Plain column group keys stay resolvable by name post-aggregation.
      if (ast->kind == AstExpr::Kind::kIdentifier) {
        post_scope_.Add(ast->parts.size() >= 2 ? ast->parts[0] : "",
                        ast->parts.back(), var);
      }
    }
    std::vector<AggregateNode::Aggregation> agg_specs;
    for (const AstExpr* ast : aggregates) {
      ASSIGN_OR_RETURN(AggregateNode::Aggregation spec,
                       Aggregate(*ast, &pre_analyzer, &pre_assignments));
      agg_specs.push_back(std::move(spec));
    }
    plan_ = std::make_shared<ProjectNode>(ids_.NextId(), plan_,
                                          std::move(pre_assignments));
    plan_ = std::make_shared<AggregateNode>(ids_.NextId(), plan_,
                                            std::move(group_vars),
                                            std::move(agg_specs),
                                            AggregationStep::kSingle);
    return Status::OK();
  }

  // ---- HAVING ------------------------------------------------------------------
  Status Having() {
    if (query_.having == nullptr) return Status::OK();
    if (!has_aggregation_) {
      return Status::UserError("HAVING requires GROUP BY or aggregates");
    }
    ExprAnalyzer having_analyzer(&select_scope(), functions_, &substitutions_);
    ASSIGN_OR_RETURN(ExprPtr predicate, having_analyzer.Analyze(*query_.having));
    if (predicate->type()->kind() != TypeKind::kBoolean) {
      return Status::UserError("HAVING clause must be BOOLEAN");
    }
    plan_ = std::make_shared<FilterNode>(ids_.NextId(), plan_, std::move(predicate));
    return Status::OK();
  }

  // ---- SELECT list -------------------------------------------------------------
  Status Select() {
    ExprAnalyzer select_analyzer(&select_scope(), functions_, &substitutions_);
    for (const SelectItem& item : query_.items) {
      if (item.star) {
        RETURN_IF_ERROR(SelectStar(item));
        continue;
      }
      ASSIGN_OR_RETURN(ExprPtr expr, select_analyzer.Analyze(*item.expr));
      std::string name = item.alias;
      if (name.empty()) {
        name = item.expr->kind == AstExpr::Kind::kIdentifier
                   ? item.expr->parts.back()
                   : "_col" + std::to_string(output_names_.size());
      }
      VariablePtr out = VariableReferenceExpression::Make(ids_.NextVariable(name),
                                                          expr->type());
      select_assignments_.push_back({out, std::move(expr)});
      output_names_.push_back(name);
      if (!item.alias.empty()) select_aliases_[item.alias] = out;
      select_aliases_[item.expr->ToString()] = out;
    }
    plan_ = std::make_shared<ProjectNode>(ids_.NextId(), plan_,
                                          select_assignments_);
    return Status::OK();
  }

  // ---- DISTINCT: grouping on every select output -------------------------------
  void Distinct() {
    if (!query_.distinct) return;
    std::vector<VariablePtr> distinct_keys;
    for (const ProjectNode::Assignment& a : select_assignments_) {
      distinct_keys.push_back(a.output);
    }
    plan_ = std::make_shared<AggregateNode>(
        ids_.NextId(), plan_, std::move(distinct_keys),
        std::vector<AggregateNode::Aggregation>{}, AggregationStep::kSingle);
  }

  // ---- ORDER BY ----------------------------------------------------------------
  Status OrderBy() {
    if (query_.order_by.empty()) return Status::OK();
    std::vector<OrderingTerm> ordering;
    for (const OrderItem& item : query_.order_by) {
      VariablePtr var;
      // Ordinal?
      if (item.expr->kind == AstExpr::Kind::kLiteral && item.expr->literal.is_int()) {
        int64_t ordinal = item.expr->literal.int_value();
        if (ordinal < 1 ||
            ordinal > static_cast<int64_t>(select_assignments_.size())) {
          return Status::UserError("ORDER BY ordinal out of range");
        }
        var = select_assignments_[ordinal - 1].output;
      } else {
        auto alias_it = select_aliases_.find(item.expr->ToString());
        if (alias_it == select_aliases_.end()) {
          return Status::UserError(
              "ORDER BY expression must appear in the SELECT list: " +
              item.expr->ToString());
        }
        var = alias_it->second;
      }
      ordering.push_back(OrderingTerm{std::move(var), item.ascending});
    }
    plan_ = std::make_shared<SortNode>(ids_.NextId(), plan_, std::move(ordering));
    return Status::OK();
  }

  // ---- LIMIT and output -----------------------------------------------------------
  PlanNodePtr Output() {
    if (query_.limit >= 0) {
      plan_ = std::make_shared<LimitNode>(ids_.NextId(), plan_, query_.limit,
                                          /*partial=*/false);
    }
    std::vector<VariablePtr> outputs;
    for (const ProjectNode::Assignment& a : select_assignments_) {
      outputs.push_back(a.output);
    }
    return std::make_shared<OutputNode>(ids_.NextId(), plan_,
                                        std::move(output_names_),
                                        std::move(outputs));
  }

 private:
  // Scope after aggregation resolves group keys by name only.
  const Scope& select_scope() const {
    return has_aggregation_ ? post_scope_ : scope_;
  }

  Result<PlanNodePtr> Scan(const TableRef& ref) {
    std::string catalog = session_->default_catalog;
    std::string schema = session_->default_schema;
    std::string table;
    if (ref.name_parts.size() == 1) {
      table = ref.name_parts[0];
    } else if (ref.name_parts.size() == 2) {
      schema = ref.name_parts[0];
      table = ref.name_parts[1];
    } else {
      catalog = ref.name_parts[0];
      schema = ref.name_parts[1];
      table = ref.name_parts[2];
    }
    ASSIGN_OR_RETURN(Connector * connector, catalogs_->GetConnector(catalog));
    ASSIGN_OR_RETURN(TypePtr table_schema,
                     connector->GetTableSchema(schema, table));
    std::vector<VariablePtr> outputs;
    std::vector<std::string> column_names;
    for (size_t c = 0; c < table_schema->NumChildren(); ++c) {
      const std::string& column = table_schema->field_name(c);
      VariablePtr var = VariableReferenceExpression::Make(
          ids_.NextVariable(column), table_schema->child(c));
      scope_.Add(ref.alias, column, var);
      outputs.push_back(std::move(var));
      column_names.push_back(column);
    }
    return PlanNodePtr(std::make_shared<TableScanNode>(
        ids_.NextId(), catalog, schema, table, table_schema, std::move(outputs),
        std::move(column_names)));
  }

  Status Join(const JoinClause& join) {
    // Variables visible on the left side before this join.
    std::set<std::string> left_vars;
    for (const VariablePtr& v : plan_->OutputVariables()) {
      left_vars.insert(v->name());
    }
    ASSIGN_OR_RETURN(PlanNodePtr right, Scan(join.table));
    std::set<std::string> right_vars;
    for (const VariablePtr& v : right->OutputVariables()) {
      right_vars.insert(v->name());
    }

    JoinKind kind = join.kind == JoinClause::Kind::kLeft    ? JoinKind::kLeft
                    : join.kind == JoinClause::Kind::kCross ? JoinKind::kCross
                                                            : JoinKind::kInner;
    std::vector<JoinNode::EquiClause> criteria;
    ExprPtr residual;
    // Non-trivial equi keys (e.g. t.base.city_id) are pre-projected so the
    // join can run as a hash join instead of a nested loop.
    std::vector<ProjectNode::Assignment> left_synthetic, right_synthetic;
    if (join.condition != nullptr) {
      ExprAnalyzer expr_analyzer(&scope_, functions_, nullptr);
      ASSIGN_OR_RETURN(ExprPtr condition, expr_analyzer.Analyze(*join.condition));
      if (condition->type()->kind() != TypeKind::kBoolean) {
        return Status::UserError("join condition must be BOOLEAN");
      }
      std::vector<ExprPtr> conjuncts;
      FlattenConjuncts(condition, &conjuncts);
      std::vector<ExprPtr> residual_conjuncts;
      for (const ExprPtr& conjunct : conjuncts) {
        std::optional<JoinNode::EquiClause> clause = AsEquiClause(
            *conjunct, left_vars, right_vars, &left_synthetic, &right_synthetic);
        if (clause.has_value()) {
          criteria.push_back(std::move(*clause));
        } else {
          residual_conjuncts.push_back(conjunct);
        }
      }
      residual = CombineConjuncts(std::move(residual_conjuncts));
    }
    plan_ = WithSynthetic(plan_, std::move(left_synthetic));
    right = WithSynthetic(right, std::move(right_synthetic));
    plan_ = std::make_shared<JoinNode>(ids_.NextId(), kind, plan_, right,
                                       std::move(criteria), std::move(residual));
    return Status::OK();
  }

  // An equality whose sides each reference only one join input becomes an
  // equi clause; a side that is not a bare variable is projected into a
  // synthetic key column.
  std::optional<JoinNode::EquiClause> AsEquiClause(
      const RowExpression& conjunct, const std::set<std::string>& left_vars,
      const std::set<std::string>& right_vars,
      std::vector<ProjectNode::Assignment>* left_synthetic,
      std::vector<ProjectNode::Assignment>* right_synthetic) {
    if (conjunct.expression_kind() != ExpressionKind::kCall) return std::nullopt;
    const auto& call = static_cast<const CallExpression&>(conjunct);
    if (call.function_name() != "eq" || call.arguments().size() != 2) {
      return std::nullopt;
    }
    auto refs_side = [](const RowExpression& expr,
                        const std::set<std::string>& side) {
      std::vector<std::string> vars;
      CollectReferencedVariables(expr, &vars);
      if (vars.empty()) return false;
      for (const std::string& v : vars) {
        if (side.count(v) == 0) return false;
      }
      return true;
    };
    auto side_key = [&](const ExprPtr& expr,
                        std::vector<ProjectNode::Assignment>* synthetic) {
      if (expr->expression_kind() == ExpressionKind::kVariableReference) {
        return std::static_pointer_cast<const VariableReferenceExpression>(expr);
      }
      VariablePtr var = VariableReferenceExpression::Make(
          ids_.NextVariable("joinkey"), expr->type());
      synthetic->push_back({var, expr});
      return var;
    };
    const ExprPtr& a = call.arguments()[0];
    const ExprPtr& b = call.arguments()[1];
    if (refs_side(*a, left_vars) && refs_side(*b, right_vars)) {
      return JoinNode::EquiClause{side_key(a, left_synthetic),
                                  side_key(b, right_synthetic)};
    }
    if (refs_side(*a, right_vars) && refs_side(*b, left_vars)) {
      return JoinNode::EquiClause{side_key(b, left_synthetic),
                                  side_key(a, right_synthetic)};
    }
    return std::nullopt;
  }

  PlanNodePtr WithSynthetic(PlanNodePtr side,
                            std::vector<ProjectNode::Assignment> synthetic) {
    if (synthetic.empty()) return side;
    std::vector<ProjectNode::Assignment> assignments;
    for (const VariablePtr& v : side->OutputVariables()) {
      assignments.push_back({v, ExprPtr(v)});
    }
    for (auto& a : synthetic) assignments.push_back(std::move(a));
    return std::make_shared<ProjectNode>(ids_.NextId(), side,
                                         std::move(assignments));
  }

  // GROUP BY items; ordinals refer to select items.
  Result<std::vector<const AstExpr*>> GroupKeys() const {
    std::vector<const AstExpr*> group_asts;
    for (const AstExprPtr& key : query_.group_by) {
      const AstExpr* ast = key.get();
      if (ast->kind == AstExpr::Kind::kLiteral && ast->literal.is_int()) {
        int64_t ordinal = ast->literal.int_value();
        if (ordinal < 1 || ordinal > static_cast<int64_t>(query_.items.size())) {
          return Status::UserError("GROUP BY ordinal out of range");
        }
        const SelectItem& item = query_.items[ordinal - 1];
        if (item.star || item.expr == nullptr) {
          return Status::UserError("GROUP BY ordinal refers to *");
        }
        ast = item.expr.get();
      }
      group_asts.push_back(ast);
    }
    return group_asts;
  }

  // One aggregate call: its arguments become pre-projected columns, coerced
  // to the resolved function's declared argument types.
  Result<AggregateNode::Aggregation> Aggregate(
      const AstExpr& ast, ExprAnalyzer* pre_analyzer,
      std::vector<ProjectNode::Assignment>* pre_assignments) {
    std::vector<VariablePtr> arg_vars;
    std::vector<TypePtr> arg_types;
    if (!ast.star_arg) {
      for (const AstExprPtr& arg : ast.args) {
        ASSIGN_OR_RETURN(ExprPtr expr, pre_analyzer->Analyze(*arg));
        VariablePtr var = VariableReferenceExpression::Make(
            ids_.NextVariable("aggarg"), expr->type());
        pre_assignments->push_back({var, std::move(expr)});
        arg_types.push_back(var->type());
        arg_vars.push_back(std::move(var));
      }
    }
    std::string agg_name = ast.call_name;
    if (ast.distinct_arg) {
      if (agg_name != "count") {
        return Status::UserError("DISTINCT is only supported in count()");
      }
      agg_name = "count_distinct";
    }
    ASSIGN_OR_RETURN(FunctionHandle handle,
                     functions_->ResolveAggregate(agg_name, arg_types));
    for (size_t i = 0; i < arg_vars.size(); ++i) {
      if (!arg_vars[i]->type()->Equals(*handle.argument_types[i])) {
        VariablePtr coerced = VariableReferenceExpression::Make(
            ids_.NextVariable("aggarg"), handle.argument_types[i]);
        pre_assignments->push_back(
            {coerced, CoerceTo(ExprPtr(arg_vars[i]), handle.argument_types[i])});
        arg_vars[i] = coerced;
      }
    }
    VariablePtr out_var = VariableReferenceExpression::Make(
        ids_.NextVariable(agg_name), handle.return_type);
    substitutions_[ast.ToString()] = out_var;
    return AggregateNode::Aggregation{out_var, std::move(handle),
                                      std::move(arg_vars)};
  }

  Status SelectStar(const SelectItem& item) {
    if (has_aggregation_) {
      return Status::UserError("SELECT * cannot be used with GROUP BY");
    }
    for (const ScopeColumn& col : scope_.columns) {
      if (!item.star_qualifier.empty() && col.table_alias != item.star_qualifier) {
        continue;
      }
      VariablePtr out = VariableReferenceExpression::Make(
          ids_.NextVariable(col.column_name), col.variable->type());
      select_assignments_.push_back({out, ExprPtr(col.variable)});
      output_names_.push_back(col.column_name);
      // Star-expanded columns are ORDER BY-resolvable by (qualified) name.
      select_aliases_.emplace(col.column_name, out);
      select_aliases_.emplace(col.table_alias + "." + col.column_name, out);
    }
    return Status::OK();
  }

  const Query& query_;
  const CatalogRegistry* catalogs_;
  const Session* session_;
  FunctionRegistry* functions_;
  PlanIdAllocator& ids_;
  Scope scope_;
  PlanNodePtr plan_;
  bool has_aggregation_ = false;
  std::map<std::string, VariablePtr> substitutions_;
  Scope post_scope_;  // scope after aggregation (group keys resolvable by name)
  std::vector<ProjectNode::Assignment> select_assignments_;
  std::vector<std::string> output_names_;
  std::map<std::string, VariablePtr> select_aliases_;  // alias/AST -> output var
};

}  // namespace

Result<PlanNodePtr> Analyzer::Analyze(const Query& query) {
  QueryAnalysis analysis(query, catalogs_, session_, functions_, &ids_);
  RETURN_IF_ERROR(analysis.From());
  RETURN_IF_ERROR(analysis.Where());
  RETURN_IF_ERROR(analysis.Aggregation());
  RETURN_IF_ERROR(analysis.Having());
  RETURN_IF_ERROR(analysis.Select());
  analysis.Distinct();
  RETURN_IF_ERROR(analysis.OrderBy());
  return analysis.Output();
}

Result<PlanNodePtr> AnalyzeSql(const std::string& sql,
                               const CatalogRegistry* catalogs,
                               const Session* session) {
  ASSIGN_OR_RETURN(Query query, ParseQuery(sql));
  Analyzer analyzer(catalogs, session);
  return analyzer.Analyze(query);
}

}  // namespace sql
}  // namespace presto
