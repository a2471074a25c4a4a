// Selection kernels (EvalPredicate) against the boxed Evaluator, and
// Project's column forwarding.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "presto/common/random.h"
#include "presto/exec/exchange.h"
#include "presto/exec/kernels/kernels.h"
#include "presto/exec/kernels/selection.h"
#include "presto/exec/operators.h"
#include "presto/expr/evaluator.h"
#include "presto/expr/function_registry.h"
#include "presto/vector/vector_builder.h"

namespace presto {
namespace {

ExprPtr Call(const std::string& name, std::vector<ExprPtr> args) {
  std::vector<TypePtr> types;
  for (const ExprPtr& a : args) types.push_back(a->type());
  auto handle = FunctionRegistry::Default().ResolveScalar(name, types);
  EXPECT_TRUE(handle.ok()) << name << ": " << handle.status().ToString();
  return CallExpression::Make(*handle, std::move(args));
}

ExprPtr Var(const std::string& name, const TypePtr& type) {
  return VariableReferenceExpression::Make(name, type);
}

ExprPtr And(std::vector<ExprPtr> args) {
  return SpecialFormExpression::Make(SpecialFormKind::kAnd, Type::Boolean(),
                                     std::move(args));
}

// ---------------------------------------------------------------------------
// SelectionKernelDifferentialTest
// ---------------------------------------------------------------------------

const std::vector<std::string> kComparisons = {"eq", "neq", "lt",
                                               "lte", "gt", "gte"};

// Small domains so equality and ordering both hit often. Doubles carry NaN,
// both zeros, the infinities and an integer-boxed 2 (a DOUBLE literal must
// convert as MakeConstantVector converts it); strings carry a byte above
// 0x7f, so the ordering of signed and unsigned chars would differ.
std::vector<Value> Domain(TypeKind kind) {
  switch (kind) {
    case TypeKind::kDouble: {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      const double inf = std::numeric_limits<double>::infinity();
      return {Value::Double(nan), Value::Double(-0.0), Value::Double(0.0),
              Value::Double(1.5),  Value::Double(-1.5), Value::Double(inf),
              Value::Double(-inf), Value::Double(2.0),  Value::Int(2)};
    }
    case TypeKind::kVarchar:
      return {Value::String(""),  Value::String("a"),  Value::String("ab"),
              Value::String("b"), Value::String("\xff"), Value::String("B")};
    default: {
      std::vector<Value> out;
      for (int64_t v = -3; v <= 3; ++v) out.push_back(Value::Int(v));
      return out;
    }
  }
}

// One column of a random page: flat or a dictionary over a flat base, with
// NULLs in the base, in the dictionary, in both or nowhere.
VectorPtr RandomColumn(const TypePtr& type, size_t n, Random* rng) {
  const std::vector<Value> domain = Domain(type->kind());
  const int shape = static_cast<int>(rng->NextBelow(4));
  const bool dict = rng->NextBool();
  const bool base_nulls = shape == 1 || shape == 3;
  const bool top_nulls = dict && (shape == 2 || shape == 3);
  const size_t base_rows = dict ? 1 + rng->NextBelow(2 * n + 1) : n;
  VectorBuilder builder(type);
  for (size_t i = 0; i < base_rows; ++i) {
    if (base_nulls && rng->NextBelow(5) == 0) {
      builder.AppendNull();
    } else {
      EXPECT_TRUE(builder.Append(domain[rng->NextBelow(domain.size())]).ok());
    }
  }
  VectorPtr base = builder.Build();
  if (!dict) return base;
  std::vector<int32_t> indices(n);
  std::vector<uint8_t> nulls;
  if (top_nulls) nulls.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    indices[i] = static_cast<int32_t>(rng->NextBelow(base_rows));
    if (top_nulls && rng->NextBelow(6) == 0) nulls[i] = 1;
  }
  return std::make_shared<DictionaryVector>(base, std::move(indices),
                                            std::move(nulls));
}

// Columns of the random pages: two per comparison storage, so every
// registered signature has a column-vs-column pair.
struct Schema {
  std::vector<std::string> names = {"b1", "b2", "t1", "t2", "d1",
                                    "d2", "s1", "s2"};
  std::vector<TypePtr> types = {Type::Bigint(),    Type::Bigint(),
                                Type::Timestamp(), Type::Timestamp(),
                                Type::Double(),    Type::Double(),
                                Type::Varchar(),   Type::Varchar()};

  std::map<std::string, int> Layout() const {
    std::map<std::string, int> layout;
    for (size_t i = 0; i < names.size(); ++i) {
      layout[names[i]] = static_cast<int>(i);
    }
    return layout;
  }
  ExprPtr Column(size_t i) const { return Var(names[i], types[i]); }
  Page RandomPage(size_t n, Random* rng) const {
    std::vector<VectorPtr> columns;
    for (const TypePtr& type : types) {
      columns.push_back(RandomColumn(type, n, rng));
    }
    return Page(std::move(columns), n);
  }
};

// The reference: rows where the boxed Evaluator returns TRUE.
std::vector<int32_t> ReferenceRows(const RowExpression& predicate,
                                   const Page& page,
                                   const std::map<std::string, int>& layout) {
  auto result = Evaluator::EvalExpression(predicate, page, layout);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<int32_t> rows;
  if (!result.ok()) return rows;
  for (size_t i = 0; i < (*result)->size(); ++i) {
    if ((*result)->GetValue(i) == Value::Bool(true)) {
      rows.push_back(static_cast<int32_t>(i));
    }
  }
  return rows;
}

void ExpectSameSelection(const ExprPtr& predicate, const Page& page,
                         const std::map<std::string, int>& layout) {
  auto rows = EvalPredicate(*predicate, page, layout);
  ASSERT_TRUE(rows.ok()) << predicate->ToString() << ": "
                         << rows.status().ToString();
  EXPECT_EQ(*rows, ReferenceRows(*predicate, page, layout))
      << predicate->ToString() << " over\n"
      << page.ToString(64);
}

// One registered comparison signature, as the schema columns whose types
// it takes on the left and on the right.
struct Signature {
  size_t left;
  size_t right;
};

const std::vector<Signature> kSignatures = {
    {0, 1},  // BIGINT, BIGINT
    {2, 3},  // TIMESTAMP, TIMESTAMP
    {2, 0},  // TIMESTAMP, BIGINT
    {0, 2},  // BIGINT, TIMESTAMP
    {4, 5},  // DOUBLE, DOUBLE
    {6, 7},  // VARCHAR, VARCHAR
};

// Every comparison of every signature: column vs literal (either side, every
// domain value), column vs column, and column vs a NULL literal.
std::vector<ExprPtr> ComparisonPredicates(const Schema& schema) {
  std::vector<ExprPtr> out;
  for (const Signature& sig : kSignatures) {
    const TypePtr& lt = schema.types[sig.left];
    const TypePtr& rt = schema.types[sig.right];
    for (const std::string& op : kComparisons) {
      out.push_back(Call(op, {schema.Column(sig.left), schema.Column(sig.right)}));
      out.push_back(Call(op, {schema.Column(sig.left),
                              ConstantExpression::MakeNull(rt)}));
      out.push_back(Call(op, {ConstantExpression::MakeNull(lt),
                              schema.Column(sig.right)}));
      for (const Value& v : Domain(rt->kind())) {
        out.push_back(Call(op, {schema.Column(sig.left),
                                ConstantExpression::Make(v, rt)}));
      }
      for (const Value& v : Domain(lt->kind())) {
        out.push_back(Call(op, {ConstantExpression::Make(v, lt),
                                schema.Column(sig.right)}));
      }
    }
  }
  return out;
}

TEST(SelectionKernelDifferentialTest, EveryComparisonOnEverySignature) {
  Schema schema;
  const auto layout = schema.Layout();
  const std::vector<ExprPtr> predicates = ComparisonPredicates(schema);
  Random rng(20241);
  for (size_t n : {0, 1, 7, 300}) {
    for (int round = 0; round < 6; ++round) {
      const Page page = schema.RandomPage(n, &rng);
      for (const ExprPtr& predicate : predicates) {
        ExpectSameSelection(predicate, page, layout);
      }
    }
  }
}

TEST(SelectionKernelDifferentialTest, EveryRowPasses) {
  // Null-free flat and dictionary columns under predicates no row fails:
  // the selection is the whole page.
  std::vector<int64_t> values(1000);
  for (size_t i = 0; i < values.size(); ++i) values[i] = static_cast<int64_t>(i);
  VectorPtr flat = MakeBigintVector(values);
  std::vector<int32_t> reversed(values.size());
  for (size_t i = 0; i < reversed.size(); ++i) {
    reversed[i] = static_cast<int32_t>(reversed.size() - 1 - i);
  }
  Page page({flat, std::make_shared<DictionaryVector>(flat, reversed)});
  const std::map<std::string, int> layout{{"f", 0}, {"g", 1}};
  const ExprPtr f = Var("f", Type::Bigint());
  const ExprPtr g = Var("g", Type::Bigint());
  for (const ExprPtr& predicate :
       {Call("gte", {f, ConstantExpression::MakeBigint(0)}),
        Call("lt", {ConstantExpression::MakeBigint(-1), g}),
        And({Call("neq", {f, ConstantExpression::MakeBigint(-5)}),
             Call("lte", {g, ConstantExpression::MakeBigint(999)})})}) {
    auto rows = EvalPredicate(*predicate, page, layout);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), page.num_rows()) << predicate->ToString();
    ExpectSameSelection(predicate, page, layout);
  }
}

TEST(SelectionKernelDifferentialTest, AndChainsMixKernelsWithTheEvaluator) {
  Schema schema;
  const auto layout = schema.Layout();
  auto lit = [](int64_t v) { return ConstantExpression::MakeBigint(v); };
  const ExprPtr like =
      Call("like", {schema.Column(6), ConstantExpression::MakeVarchar("a%")});
  const ExprPtr in = SpecialFormExpression::Make(
      SpecialFormKind::kIn, Type::Boolean(),
      {schema.Column(0), lit(1), lit(-2), lit(3)});
  const ExprPtr or_form = SpecialFormExpression::Make(
      SpecialFormKind::kOr, Type::Boolean(),
      {Call("gt", {schema.Column(2), lit(0)}),
       Call("eq", {schema.Column(7), ConstantExpression::MakeVarchar("b")})});
  const ExprPtr b_gt = Call("gt", {schema.Column(0), lit(-2)});
  const ExprPtr d_lte = Call(
      "lte", {schema.Column(4), ConstantExpression::MakeDouble(1.5)});
  const ExprPtr s_eq = Call("eq", {schema.Column(6), schema.Column(7)});
  const ExprPtr null_cmp =
      Call("lt", {schema.Column(1), ConstantExpression::MakeNull(Type::Bigint())});
  const std::vector<ExprPtr> chains = {
      And({b_gt, like}),
      And({like, b_gt}),
      And({b_gt, in, d_lte}),
      And({in, s_eq, or_form}),
      And({d_lte, And({like, b_gt}), or_form}),
      And({b_gt, null_cmp, like}),
      And({or_form, in}),
      And({s_eq, d_lte, Call("neq", {schema.Column(2), schema.Column(3)})}),
  };
  Random rng(77);
  for (size_t n : {0, 1, 50, 500}) {
    for (int round = 0; round < 8; ++round) {
      const Page page = schema.RandomPage(n, &rng);
      for (const ExprPtr& chain : chains) {
        ExpectSameSelection(chain, page, layout);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ProjectForwardingTest
// ---------------------------------------------------------------------------

// Runs Project(assignments) over one page fed through an exchange and
// returns the single output page.
Page ProjectOnce(const Page& input, const std::vector<VariablePtr>& inputs,
                 std::vector<ProjectNode::Assignment> assignments) {
  PartitionedExchange exchange(1, 1 << 30);
  exchange.SetProducerCount(1);
  exchange.Push(0, input);
  exchange.ProducerDone();
  std::map<int, PartitionedExchange*> exchanges{{7, &exchange}};
  auto source = std::make_shared<RemoteSourceNode>(1, 7, inputs);
  auto project =
      std::make_shared<ProjectNode>(2, source, std::move(assignments));
  OperatorBuilder builder(nullptr, &FunctionRegistry::Default(), &exchanges,
                          nullptr);
  auto op = builder.Build(project);
  EXPECT_TRUE(op.ok()) << op.status().ToString();
  auto page = (*op)->Next();
  EXPECT_TRUE(page.ok() && page->has_value());
  return **page;
}

TEST(ProjectForwardingTest, BareColumnsForwardTheInputVector) {
  VectorPtr flat = MakeBigintVector({1, 2, 3, 4});
  VectorPtr dict = std::make_shared<DictionaryVector>(
      MakeVarcharVector({"x", "y", "z", "w", "v"}),
      std::vector<int32_t>{4, 0, 0, 2});
  const VariablePtr f = VariableReferenceExpression::Make("f", Type::Bigint());
  const VariablePtr s = VariableReferenceExpression::Make("s", Type::Varchar());
  Page out = ProjectOnce(
      Page({flat, dict}), {f, s},
      {{VariableReferenceExpression::Make("s_out", Type::Varchar()), s},
       {VariableReferenceExpression::Make("f_out", Type::Bigint()), f}});
  ASSERT_EQ(out.num_columns(), 2u);
  EXPECT_EQ(out.column(0).get(), dict.get()) << "dictionary forwarded as is";
  EXPECT_EQ(out.column(1).get(), flat.get()) << "flat column forwarded as is";
}

TEST(ProjectForwardingTest, SparseSelectionIsFlattened) {
  // A dictionary selecting fewer than half of its base's rows would pin the
  // whole base in every operator that holds the page: Project flattens it to
  // just its rows. One selecting half or more is forwarded as is.
  VectorPtr base = MakeBigintVector({10, 11, 12, 13, 14, 15, 16, 17, 18, 19});
  VectorPtr sparse = std::make_shared<DictionaryVector>(
      base, std::vector<int32_t>{9, 2, 2, 5});
  VectorPtr half = std::make_shared<DictionaryVector>(
      base, std::vector<int32_t>{0, 1, 2, 3, 9});
  const VariablePtr a = VariableReferenceExpression::Make("a", Type::Bigint());
  const VariablePtr b = VariableReferenceExpression::Make("b", Type::Bigint());
  Page out = ProjectOnce(
      Page({sparse, MakeBigintVector({1, 2, 3, 4})}), {a, b},
      {{VariableReferenceExpression::Make("a_out", Type::Bigint()), a}});
  ASSERT_EQ(out.num_columns(), 1u);
  EXPECT_EQ(out.column(0)->encoding(), VectorEncoding::kFlat);
  ASSERT_EQ(out.num_rows(), 4u);
  for (size_t i = 0; i < out.num_rows(); ++i) {
    EXPECT_EQ(out.column(0)->GetValue(i), sparse->GetValue(i)) << i;
  }
  Page kept = ProjectOnce(
      Page({half}), {a},
      {{VariableReferenceExpression::Make("a_out", Type::Bigint()), a}});
  EXPECT_EQ(kept.column(0).get(), half.get());
}

TEST(ProjectForwardingTest, LazyInputComesOutLoaded) {
  int loads = 0;
  auto lazy = std::make_shared<LazyVector>(
      Type::Bigint(), 3, [&loads](const std::vector<int32_t>& rows) {
        ++loads;
        std::vector<int64_t> values;
        for (int32_t r : rows) values.push_back(10 * r);
        return Result<VectorPtr>(MakeBigintVector(std::move(values)));
      });
  const VariablePtr l = VariableReferenceExpression::Make("l", Type::Bigint());
  Page out = ProjectOnce(
      Page({lazy}), {l},
      {{VariableReferenceExpression::Make("l_out", Type::Bigint()), l}});
  ASSERT_EQ(out.num_columns(), 1u);
  EXPECT_NE(out.column(0)->encoding(), VectorEncoding::kLazy);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(out.column(0)->GetValue(2), Value::Int(20));
}

TEST(ProjectForwardingTest, ComputedAssignmentMatchesTheEvaluator) {
  VectorPtr base = std::make_shared<Int64Vector>(
      Type::Bigint(), std::vector<int64_t>{5, -1, 0, 7, 9},
      std::vector<uint8_t>{0, 0, 1, 0, 0});
  VectorPtr dict = std::make_shared<DictionaryVector>(
      base, std::vector<int32_t>{3, 2, 1, 1, 0, 4},
      std::vector<uint8_t>{0, 0, 0, 1, 0, 0});
  const VariablePtr v = VariableReferenceExpression::Make("v", Type::Bigint());
  const ExprPtr doubled =
      Call("multiply", {v, ConstantExpression::MakeBigint(2)});
  const Page input({dict});
  Page out = ProjectOnce(
      input, {v},
      {{VariableReferenceExpression::Make("w", Type::Bigint()), doubled}});
  auto reference = Evaluator::EvalExpression(*doubled, input, {{"v", 0}});
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(out.num_rows(), input.num_rows());
  for (size_t i = 0; i < out.num_rows(); ++i) {
    EXPECT_EQ(out.column(0)->GetValue(i), (*reference)->GetValue(i)) << i;
  }
}

TEST(ProjectForwardingTest, ForwardedSelectionInternsOnlySelectedKeys) {
  // A forwarded filter selection is a dictionary over the whole input page.
  // Grouping on it must intern the selected strings only, exactly like the
  // flattened selection the parent's Project produced.
  std::vector<std::string> base_strings;
  for (int i = 0; i < 1000; ++i) {
    base_strings.push_back("key-" + std::to_string(i) + "-0123456789abcdef");
  }
  VectorPtr base = MakeVarcharVector(base_strings);
  const std::vector<int32_t> selected = {7, 993, 7, 41};
  VectorPtr wrapped = std::make_shared<DictionaryVector>(base, selected);
  auto flat = Vector::Flatten(wrapped);
  ASSERT_TRUE(flat.ok());

  kernels::NormalizedKeyTable from_dict({TypeKind::kVarchar});
  kernels::NormalizedKeyTable from_flat({TypeKind::kVarchar});
  std::vector<int32_t> dict_ids, flat_ids;
  ASSERT_TRUE(from_dict.MapRows(Page({wrapped}), {0}, true, false, &dict_ids).ok());
  ASSERT_TRUE(from_flat.MapRows(Page({*flat}), {0}, true, false, &flat_ids).ok());
  EXPECT_EQ(dict_ids, flat_ids);
  EXPECT_EQ(from_dict.num_groups(), 3u);
  EXPECT_EQ(from_dict.EstimateBytes(), from_flat.EstimateBytes());
}

}  // namespace
}  // namespace presto
