// Row-at-a-time reference evaluator: the differential oracle for the
// columnar aggregation and join operators. GROUP BY folds boxed rows into
// the registry's Accumulators, bucketed by (Value::Hash, Value::Equals);
// equi-joins are nested loops with SQL NULL semantics. It is deliberately
// naive and shares no code with the key tables or grouped kernels it checks.

#ifndef PRESTO_TESTS_REFERENCE_EVAL_H_
#define PRESTO_TESTS_REFERENCE_EVAL_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "presto/cluster/coordinator.h"
#include "presto/expr/function_registry.h"
#include "presto/vector/vector_builder.h"

namespace presto {
namespace reference {

using Row = std::vector<Value>;

/// Boxed rows plus their column types (aggregate resolution needs types).
struct Table {
  std::vector<TypePtr> types;
  std::vector<Row> rows;
};

/// Boxes every row of a query result, e.g. a plain scan of the input table.
inline Table FromResult(const QueryResult& result) {
  Table table{result.column_types, {}};
  for (int64_t r = 0; r < result.total_rows; ++r) {
    table.rows.push_back(result.Row(r));
  }
  return table;
}

/// SQL grouping equality: -0.0 and 0.0 are one key, reported as 0.0, and
/// every NaN payload is one NaN.
inline Value CanonicalKey(const Value& v) {
  if (!v.is_double()) return v;
  if (v.double_value() == 0.0) return Value::Double(0.0);
  if (!std::isnan(v.double_value())) return v;
  return Value::Double(std::numeric_limits<double>::quiet_NaN());
}

/// One aggregate call: registry name and input columns (none for count(*)).
struct Agg {
  std::string name;
  std::vector<int> args;
};

/// GROUP BY `keys` (column indexes). Output rows are [keys..., aggregate
/// finals...]; no keys is a global aggregation, one row even over no input.
inline Result<Table> GroupBy(const Table& input, const std::vector<int>& keys,
                             const std::vector<Agg>& aggs) {
  Table out;
  for (int k : keys) out.types.push_back(input.types[k]);
  std::vector<const AggregateFunction*> functions;
  for (const Agg& agg : aggs) {
    std::vector<TypePtr> arg_types;
    for (int c : agg.args) arg_types.push_back(input.types[c]);
    const FunctionRegistry& registry = FunctionRegistry::Default();
    ASSIGN_OR_RETURN(FunctionHandle handle,
                     registry.ResolveAggregate(agg.name, arg_types));
    ASSIGN_OR_RETURN(const AggregateFunction* function,
                     registry.FindAggregate(handle));
    functions.push_back(function);
    out.types.push_back(handle.return_type);
  }
  std::vector<std::pair<Row, std::vector<std::unique_ptr<Accumulator>>>> groups;
  std::unordered_multimap<uint64_t, size_t> buckets;  // key hash -> group
  auto group_of = [&](const Row& key) -> auto& {
    uint64_t h = 0;
    for (const Value& v : key) h = HashCombine(h, v.Hash());
    auto [begin, end] = buckets.equal_range(h);
    for (auto it = begin; it != end; ++it) {
      auto& [other, states] = groups[it->second];
      if (std::equal(key.begin(), key.end(), other.begin(),
                     [](auto& a, auto& b) { return a.Equals(b); })) {
        return states;
      }
    }
    buckets.emplace(h, groups.size());
    groups.emplace_back(key, std::vector<std::unique_ptr<Accumulator>>());
    for (const AggregateFunction* f : functions) {
      groups.back().second.push_back(f->factory());
    }
    return groups.back().second;
  };
  if (keys.empty()) group_of({});
  for (const Row& row : input.rows) {
    Row key;
    for (int k : keys) key.push_back(CanonicalKey(row[k]));
    auto& states = group_of(key);
    for (size_t a = 0; a < aggs.size(); ++a) {
      // Accumulators read vectors: each argument becomes a one-row vector.
      std::vector<VectorPtr> args;
      for (int c : aggs[a].args) {
        VectorBuilder builder(input.types[c]);
        RETURN_IF_ERROR(builder.Append(row[c]));
        args.push_back(builder.Build());
      }
      states[a]->Add(args, 0);
    }
  }
  for (const auto& [key, states] : groups) {
    out.rows.push_back(key);
    for (const auto& state : states) out.rows.back().push_back(state->Final());
  }
  return out;
}

/// Equi-join on left[l] = right[r] for every (l, r) in `keys`, plus the
/// residual `filter` when given, by nested loops: a NULL key equals nothing.
/// LEFT keeps each left row without a surviving pair once, padded with
/// NULLs. Output rows are [left..., right...].
inline Table Join(
    const Table& left, const Table& right,
    const std::vector<std::pair<int, int>>& keys, bool left_outer,
    const std::function<bool(const Row&, const Row&)>& filter = nullptr) {
  Table out{left.types, {}};
  out.types.insert(out.types.end(), right.types.begin(), right.types.end());
  for (const Row& l : left.rows) {
    bool matched = false;
    for (const Row& r : right.rows) {
      bool equal = true;
      for (const auto& [lk, rk] : keys) {
        equal = equal && !l[lk].is_null() && !r[rk].is_null() &&
                l[lk].Equals(r[rk]);
      }
      if (!equal || (filter != nullptr && !filter(l, r))) continue;
      matched = true;
      out.rows.push_back(l);
      out.rows.back().insert(out.rows.back().end(), r.begin(), r.end());
    }
    if (left_outer && !matched) {
      out.rows.push_back(l);
      out.rows.back().resize(out.types.size(), Value::Null());
    }
  }
  return out;
}

/// Keeps the given columns, in order (the SELECT list).
inline Table Project(const Table& input, const std::vector<int>& columns) {
  Table out;
  for (int c : columns) out.types.push_back(input.types[c]);
  for (const Row& row : input.rows) {
    out.rows.emplace_back();
    for (int c : columns) out.rows.back().push_back(row[c]);
  }
  return out;
}

/// Rows rendered "v1|v2|...|" and sorted, the form the engine-side tests
/// compare query results in.
inline std::vector<std::string> Render(const Table& table) {
  std::vector<std::string> rows;
  for (const Row& row : table.rows) {
    rows.emplace_back();
    for (const Value& v : row) rows.back() += v.ToString() + "|";
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace reference
}  // namespace presto

#endif  // PRESTO_TESTS_REFERENCE_EVAL_H_
