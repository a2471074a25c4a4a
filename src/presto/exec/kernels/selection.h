#ifndef PRESTO_EXEC_KERNELS_SELECTION_H_
#define PRESTO_EXEC_KERNELS_SELECTION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "presto/expr/expression.h"
#include "presto/expr/function_registry.h"
#include "presto/vector/page.h"

namespace presto {

/// Evaluates a boolean predicate and returns the indices of rows where it is
/// true (NULL counts as false, per SQL WHERE semantics). Serves Filter and
/// the residual filters of both joins.
///
/// The predicate runs as a chain of its top-level AND conjuncts over a
/// selection vector: each conjunct sees only the rows that survived the
/// ones before it, and the chain stops once no row is left. A conjunct that
/// is one of the builtin comparisons (eq, neq, lt, lte, gt, gte over BIGINT,
/// TIMESTAMP, DOUBLE or VARCHAR) between a column and a non-NULL literal,
/// on either side, or between two columns, runs as a typed selection
/// kernel: it reads flat and dictionary-over-flat storage in place, keeps
/// the literal a scalar and writes the surviving rows straight into the
/// selection. Every other conjunct runs through the Evaluator over the
/// columns it references, wrapped to the surviving rows. The expression's
/// shape alone picks the path, and both give the Evaluator's answer row for
/// row (same C++ comparison operators, so NaN and -0.0 behave alike).
Result<std::vector<int32_t>> EvalPredicate(
    const RowExpression& predicate, const Page& input,
    const std::map<std::string, int>& layout,
    const FunctionRegistry* registry = &FunctionRegistry::Default());

}  // namespace presto

#endif  // PRESTO_EXEC_KERNELS_SELECTION_H_
