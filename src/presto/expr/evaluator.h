#ifndef PRESTO_EXPR_EVALUATOR_H_
#define PRESTO_EXPR_EVALUATOR_H_

#include <map>
#include <string>

#include "presto/expr/expression.h"
#include "presto/expr/function_registry.h"
#include "presto/vector/page.h"

namespace presto {

/// Vectorized evaluator for RowExpressions over Pages. The layout maps
/// variable names to input column channels. Lambdas appearing as arguments
/// of the higher-order functions transform() and filter() are evaluated over
/// the element vectors of their array argument.
class Evaluator {
 public:
  Evaluator(ExprPtr expr, std::map<std::string, int> layout,
            const FunctionRegistry* registry = &FunctionRegistry::Default())
      : expr_(std::move(expr)), layout_(std::move(layout)), registry_(registry) {}

  const ExprPtr& expression() const { return expr_; }

  /// Evaluates the expression over all rows of the page.
  Result<VectorPtr> Eval(const Page& input) const;

  /// Evaluates an arbitrary expression against a page with the given layout
  /// (one-shot convenience).
  static Result<VectorPtr> EvalExpression(
      const RowExpression& expr, const Page& input,
      const std::map<std::string, int>& layout,
      const FunctionRegistry* registry = &FunctionRegistry::Default());

 private:
  ExprPtr expr_;
  std::map<std::string, int> layout_;
  const FunctionRegistry* registry_;
};

/// Builds a flat vector holding `n` copies of `value`.
Result<VectorPtr> MakeConstantVector(const Value& value, const TypePtr& type,
                                     size_t n);

}  // namespace presto

#endif  // PRESTO_EXPR_EVALUATOR_H_
