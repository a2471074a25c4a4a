// Tests for RowExpressions (paper Table I), function resolution, the
// vectorized evaluator, and expression serialization.

#include <gtest/gtest.h>

#include "presto/exec/kernels/selection.h"
#include "presto/expr/evaluator.h"
#include "presto/expr/expression.h"
#include "presto/expr/function_registry.h"
#include "presto/expr/serialization.h"
#include "presto/vector/vector_builder.h"

namespace presto {
namespace {

FunctionRegistry& Reg() { return FunctionRegistry::Default(); }

ExprPtr Call(const std::string& name, std::vector<ExprPtr> args) {
  std::vector<TypePtr> types;
  for (const auto& a : args) types.push_back(a->type());
  auto handle = Reg().ResolveScalar(name, types);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  return CallExpression::Make(*handle, std::move(args));
}

ExprPtr Var(const std::string& name, const TypePtr& type) {
  return VariableReferenceExpression::Make(name, type);
}

TEST(ExpressionTest, TableOneSubtypesToString) {
  // ConstantExpression: literal values such as (1L, BIGINT).
  EXPECT_EQ(ConstantExpression::MakeBigint(1)->ToString(), "1");
  EXPECT_EQ(ConstantExpression::MakeVarchar("string")->ToString(), "'string'");
  // VariableReferenceExpression.
  EXPECT_EQ(Var("city_id", Type::Bigint())->ToString(), "city_id");
  // CallExpression with embedded FunctionHandle.
  ExprPtr call = Call("plus", {ConstantExpression::MakeBigint(1),
                               ConstantExpression::MakeBigint(2)});
  EXPECT_EQ(call->ToString(), "plus(1, 2)");
  const auto& handle = static_cast<const CallExpression&>(*call).handle();
  EXPECT_EQ(handle.name, "plus");
  EXPECT_EQ(handle.return_type->kind(), TypeKind::kBigint);
  // SpecialFormExpression.
  ExprPtr is_null = SpecialFormExpression::Make(
      SpecialFormKind::kIsNull, Type::Boolean(), {Var("x", Type::Bigint())});
  EXPECT_EQ(is_null->ToString(), "(x IS NULL)");
  // LambdaDefinitionExpression: (x BIGINT, y BIGINT) -> x + y.
  ExprPtr lambda = LambdaDefinitionExpression::Make(
      {"x", "y"}, {Type::Bigint(), Type::Bigint()},
      Call("plus", {Var("x", Type::Bigint()), Var("y", Type::Bigint())}));
  EXPECT_EQ(lambda->ToString(), "(x BIGINT, y BIGINT) -> plus(x, y)");
}

TEST(FunctionRegistryTest, ExactAndCoercedResolution) {
  auto exact = Reg().ResolveScalar("plus", {Type::Bigint(), Type::Bigint()});
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->return_type->kind(), TypeKind::kBigint);

  // BIGINT + DOUBLE coerces to the DOUBLE overload.
  auto coerced = Reg().ResolveScalar("plus", {Type::Bigint(), Type::Double()});
  ASSERT_TRUE(coerced.ok());
  EXPECT_EQ(coerced->return_type->kind(), TypeKind::kDouble);

  EXPECT_FALSE(Reg().ResolveScalar("plus", {Type::Varchar(), Type::Bigint()}).ok());
  EXPECT_FALSE(Reg().ResolveScalar("no_such_fn", {Type::Bigint()}).ok());
}

TEST(FunctionRegistryTest, AggregateResolution) {
  auto sum = Reg().ResolveAggregate("sum", {Type::Bigint()});
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->return_type->kind(), TypeKind::kBigint);
  EXPECT_TRUE(Reg().IsAggregateName("count"));
  EXPECT_FALSE(Reg().IsAggregateName("plus"));
}

Page OnePage() {
  VectorBuilder a(Type::Bigint());
  a.AppendBigint(1);
  a.AppendBigint(2);
  a.AppendNull();
  a.AppendBigint(4);
  VectorBuilder b(Type::Bigint());
  b.AppendBigint(10);
  b.AppendBigint(20);
  b.AppendBigint(30);
  b.AppendNull();
  return Page({a.Build(), b.Build()});
}

const std::map<std::string, int> kLayout = {{"a", 0}, {"b", 1}};

TEST(EvaluatorTest, ArithmeticWithNullPropagation) {
  ExprPtr expr = Call("plus", {Var("a", Type::Bigint()), Var("b", Type::Bigint())});
  auto result = Evaluator::EvalExpression(*expr, OnePage(), kLayout);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->GetValue(0), Value::Int(11));
  EXPECT_EQ((*result)->GetValue(1), Value::Int(22));
  EXPECT_TRUE((*result)->IsNull(2));
  EXPECT_TRUE((*result)->IsNull(3));
}

TEST(EvaluatorTest, DivisionByZeroYieldsNull) {
  ExprPtr expr = Call("divide", {Var("a", Type::Bigint()),
                                 ConstantExpression::MakeBigint(0)});
  auto result = Evaluator::EvalExpression(*expr, OnePage(), kLayout);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < 4; ++i) EXPECT_TRUE((*result)->IsNull(i));
}

TEST(EvaluatorTest, ThreeValuedAnd) {
  // (a > 1) AND (b > 10): row2 has a NULL in `a`, row3 NULL in `b`.
  ExprPtr cond = SpecialFormExpression::Make(
      SpecialFormKind::kAnd, Type::Boolean(),
      {Call("gt", {Var("a", Type::Bigint()), ConstantExpression::MakeBigint(1)}),
       Call("gt", {Var("b", Type::Bigint()), ConstantExpression::MakeBigint(10)})});
  auto result = Evaluator::EvalExpression(*cond, OnePage(), kLayout);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->GetValue(0), Value::Bool(false));  // a=1 not > 1
  EXPECT_EQ((*result)->GetValue(1), Value::Bool(true));
  EXPECT_TRUE((*result)->IsNull(2));   // NULL AND true -> NULL
  EXPECT_TRUE((*result)->IsNull(3));   // true AND NULL -> NULL
}

TEST(EvaluatorTest, NullAndFalseIsFalse) {
  ExprPtr cond = SpecialFormExpression::Make(
      SpecialFormKind::kAnd, Type::Boolean(),
      {SpecialFormExpression::Make(SpecialFormKind::kIsNull, Type::Boolean(),
                                   {Var("a", Type::Bigint())}),
       ConstantExpression::MakeBool(false)});
  auto result = Evaluator::EvalExpression(*cond, OnePage(), kLayout);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ((*result)->GetValue(i), Value::Bool(false));
  }
}

TEST(EvaluatorTest, InListWithNull) {
  ExprPtr in_list = SpecialFormExpression::Make(
      SpecialFormKind::kIn, Type::Boolean(),
      {Var("a", Type::Bigint()), ConstantExpression::MakeBigint(2),
       ConstantExpression::MakeBigint(4)});
  auto result = Evaluator::EvalExpression(*in_list, OnePage(), kLayout);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->GetValue(0), Value::Bool(false));
  EXPECT_EQ((*result)->GetValue(1), Value::Bool(true));
  EXPECT_TRUE((*result)->IsNull(2));
  EXPECT_EQ((*result)->GetValue(3), Value::Bool(true));
}

TEST(EvaluatorTest, IfAndCoalesce) {
  ExprPtr if_expr = SpecialFormExpression::Make(
      SpecialFormKind::kIf, Type::Bigint(),
      {Call("gt", {Var("a", Type::Bigint()), ConstantExpression::MakeBigint(1)}),
       Var("a", Type::Bigint()), ConstantExpression::MakeBigint(-1)});
  auto r1 = Evaluator::EvalExpression(*if_expr, OnePage(), kLayout);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ((*r1)->GetValue(0), Value::Int(-1));
  EXPECT_EQ((*r1)->GetValue(1), Value::Int(2));
  EXPECT_EQ((*r1)->GetValue(2), Value::Int(-1));  // NULL condition -> else

  ExprPtr coalesce = SpecialFormExpression::Make(
      SpecialFormKind::kCoalesce, Type::Bigint(),
      {Var("a", Type::Bigint()), ConstantExpression::MakeBigint(0)});
  auto r2 = Evaluator::EvalExpression(*coalesce, OnePage(), kLayout);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*r2)->GetValue(2), Value::Int(0));
}

TEST(EvaluatorTest, DereferenceNestedStruct) {
  TypePtr base_type =
      Type::Row({"city_id", "status"}, {Type::Bigint(), Type::Varchar()});
  VectorBuilder builder(base_type);
  ASSERT_TRUE(builder.Append(Value::Row({Value::Int(12), Value::String("ok")})).ok());
  builder.AppendNull();
  ASSERT_TRUE(builder.Append(Value::Row({Value::Int(7), Value::String("no")})).ok());
  Page page({builder.Build()});

  auto deref = SpecialFormExpression::MakeDereference(Var("base", base_type),
                                                      "city_id");
  ASSERT_TRUE(deref.ok());
  auto result = Evaluator::EvalExpression(**deref, page, {{"base", 0}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->GetValue(0), Value::Int(12));
  EXPECT_TRUE((*result)->IsNull(1)) << "null struct yields null field";
  EXPECT_EQ((*result)->GetValue(2), Value::Int(7));

  EXPECT_FALSE(
      SpecialFormExpression::MakeDereference(Var("base", base_type), "nope").ok());
}

TEST(EvaluatorTest, CastBetweenTypes) {
  ExprPtr cast = SpecialFormExpression::Make(
      SpecialFormKind::kCast, Type::Varchar(), {Var("a", Type::Bigint())});
  auto result = Evaluator::EvalExpression(*cast, OnePage(), kLayout);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->GetValue(0), Value::String("1"));
  EXPECT_TRUE((*result)->IsNull(2));

  // VARCHAR -> BIGINT, unparseable yields NULL.
  VectorBuilder sb(Type::Varchar());
  sb.AppendString("123");
  sb.AppendString("abc");
  Page page({sb.Build()});
  ExprPtr cast2 = SpecialFormExpression::Make(
      SpecialFormKind::kCast, Type::Bigint(), {Var("s", Type::Varchar())});
  auto r2 = Evaluator::EvalExpression(*cast2, page, {{"s", 0}});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*r2)->GetValue(0), Value::Int(123));
  EXPECT_TRUE((*r2)->IsNull(1));
}

TEST(EvaluatorTest, StringFunctions) {
  VectorBuilder sb(Type::Varchar());
  sb.AppendString("San Francisco");
  sb.AppendString("nyc");
  Page page({sb.Build()});
  std::map<std::string, int> layout{{"s", 0}};

  auto lower = Evaluator::EvalExpression(
      *Call("lower", {Var("s", Type::Varchar())}), page, layout);
  ASSERT_TRUE(lower.ok());
  EXPECT_EQ((*lower)->GetValue(0), Value::String("san francisco"));

  auto like = Evaluator::EvalExpression(
      *Call("like", {Var("s", Type::Varchar()),
                     ConstantExpression::MakeVarchar("%Fran%")}),
      page, layout);
  ASSERT_TRUE(like.ok());
  EXPECT_EQ((*like)->GetValue(0), Value::Bool(true));
  EXPECT_EQ((*like)->GetValue(1), Value::Bool(false));

  auto substr = Evaluator::EvalExpression(
      *Call("substr", {Var("s", Type::Varchar()), ConstantExpression::MakeBigint(5),
                       ConstantExpression::MakeBigint(4)}),
      page, layout);
  ASSERT_TRUE(substr.ok());
  EXPECT_EQ((*substr)->GetValue(0), Value::String("Fran"));
}

TEST(EvaluatorTest, HigherOrderTransformAndFilter) {
  TypePtr arr_type = Type::Array(Type::Bigint());
  VectorBuilder b(arr_type);
  ASSERT_TRUE(b.Append(Value::Array({Value::Int(1), Value::Int(2), Value::Int(3)})).ok());
  ASSERT_TRUE(b.Append(Value::Array({Value::Int(10)})).ok());
  Page page({b.Build()});
  std::map<std::string, int> layout{{"arr", 0}};

  ExprPtr lambda = LambdaDefinitionExpression::Make(
      {"x"}, {Type::Bigint()},
      Call("multiply", {Var("x", Type::Bigint()), ConstantExpression::MakeBigint(2)}));
  ExprPtr transform = CallExpression::Make(
      FunctionHandle{"transform", {arr_type, lambda->type()}, arr_type},
      {Var("arr", arr_type), lambda});
  auto r = Evaluator::EvalExpression(*transform, page, layout);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->GetValue(0),
            Value::Array({Value::Int(2), Value::Int(4), Value::Int(6)}));
  EXPECT_EQ((*r)->GetValue(1), Value::Array({Value::Int(20)}));

  ExprPtr pred_lambda = LambdaDefinitionExpression::Make(
      {"x"}, {Type::Bigint()},
      Call("gt", {Var("x", Type::Bigint()), ConstantExpression::MakeBigint(1)}));
  ExprPtr filter = CallExpression::Make(
      FunctionHandle{"filter", {arr_type, pred_lambda->type()}, arr_type},
      {Var("arr", arr_type), pred_lambda});
  auto f = Evaluator::EvalExpression(*filter, page, layout);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->GetValue(0), Value::Array({Value::Int(2), Value::Int(3)}));
}

TEST(EvaluatorTest, CollectionFunctions) {
  TypePtr arr_type = Type::Array(Type::Varchar());
  VectorBuilder b(arr_type);
  ASSERT_TRUE(b.Append(Value::Array({Value::String("a"), Value::String("b")})).ok());
  ASSERT_TRUE(b.Append(Value::Array({})).ok());
  Page page({b.Build()});
  std::map<std::string, int> layout{{"arr", 0}};

  auto card = Evaluator::EvalExpression(
      *Call("cardinality", {Var("arr", arr_type)}), page, layout);
  ASSERT_TRUE(card.ok());
  EXPECT_EQ((*card)->GetValue(0), Value::Int(2));
  EXPECT_EQ((*card)->GetValue(1), Value::Int(0));

  auto contains = Evaluator::EvalExpression(
      *Call("contains", {Var("arr", arr_type), ConstantExpression::MakeVarchar("b")}),
      page, layout);
  ASSERT_TRUE(contains.ok());
  EXPECT_EQ((*contains)->GetValue(0), Value::Bool(true));
  EXPECT_EQ((*contains)->GetValue(1), Value::Bool(false));
}

TEST(EvaluatorTest, PredicateRowSelection) {
  ExprPtr pred = Call("gte", {Var("a", Type::Bigint()),
                              ConstantExpression::MakeBigint(2)});
  auto rows = EvalPredicate(*pred, OnePage(), kLayout);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<int32_t>{1, 3}));  // NULL row excluded
}

TEST(AggregateTest, SumAvgMinMaxCount) {
  auto make_acc = [](const std::string& name, const TypePtr& t) {
    auto handle = Reg().ResolveAggregate(name, {t});
    EXPECT_TRUE(handle.ok());
    auto fn = Reg().FindAggregate(*handle);
    EXPECT_TRUE(fn.ok());
    return (*fn)->factory();
  };
  VectorBuilder b(Type::Bigint());
  b.AppendBigint(5);
  b.AppendNull();
  b.AppendBigint(3);
  b.AppendBigint(10);
  VectorPtr v = b.Build();
  std::vector<VectorPtr> args{v};

  auto sum = make_acc("sum", Type::Bigint());
  auto avg = make_acc("avg", Type::Bigint());
  auto min = make_acc("min", Type::Bigint());
  auto max = make_acc("max", Type::Bigint());
  auto count = make_acc("count", Type::Bigint());
  for (size_t i = 0; i < v->size(); ++i) {
    sum->Add(args, i);
    avg->Add(args, i);
    min->Add(args, i);
    max->Add(args, i);
    count->Add(args, i);
  }
  EXPECT_EQ(sum->Final(), Value::Int(18));
  EXPECT_EQ(avg->Final(), Value::Double(6.0));
  EXPECT_EQ(min->Final(), Value::Int(3));
  EXPECT_EQ(max->Final(), Value::Int(10));
  EXPECT_EQ(count->Final(), Value::Int(3)) << "count skips nulls";
}

TEST(AggregateTest, PartialFinalMergeMatchesSinglePass) {
  auto handle = Reg().ResolveAggregate("avg", {Type::Double()});
  ASSERT_TRUE(handle.ok());
  auto fn = Reg().FindAggregate(*handle);
  ASSERT_TRUE(fn.ok());

  VectorPtr v1 = MakeDoubleVector({1.0, 2.0});
  VectorPtr v2 = MakeDoubleVector({3.0, 6.0});
  auto partial1 = (*fn)->factory();
  auto partial2 = (*fn)->factory();
  for (size_t i = 0; i < 2; ++i) partial1->Add({v1}, i);
  for (size_t i = 0; i < 2; ++i) partial2->Add({v2}, i);

  auto final_acc = (*fn)->factory();
  final_acc->MergeIntermediate(partial1->Intermediate());
  final_acc->MergeIntermediate(partial2->Intermediate());
  EXPECT_EQ(final_acc->Final(), Value::Double(3.0));
}

TEST(AggregateTest, ApproxDistinctAccuracy) {
  auto handle = Reg().ResolveAggregate("approx_distinct", {Type::Bigint()});
  ASSERT_TRUE(handle.ok());
  auto fn = Reg().FindAggregate(*handle);
  ASSERT_TRUE(fn.ok());
  auto acc = (*fn)->factory();
  constexpr int64_t kDistinct = 20000;
  std::vector<int64_t> values;
  for (int64_t i = 0; i < kDistinct; ++i) values.push_back(i);
  VectorPtr v = MakeBigintVector(std::move(values));
  for (size_t i = 0; i < v->size(); ++i) acc->Add({v}, i);
  int64_t estimate = acc->Final().int_value();
  EXPECT_GT(estimate, kDistinct * 0.9);
  EXPECT_LT(estimate, kDistinct * 1.1);
}

TEST(SerializationTest, ValueRoundTrip) {
  std::vector<Value> values = {
      Value::Null(), Value::Bool(true), Value::Int(-42), Value::Double(2.5),
      Value::String("presto"),
      Value::Row({Value::Int(1), Value::Array({Value::String("a")})}),
      Value::Map({{Value::String("k"), Value::Double(9.0)}})};
  for (const Value& v : values) {
    ByteBuffer buf;
    SerializeValue(v, &buf);
    ByteReader reader(buf.bytes());
    auto back = DeserializeValue(&reader);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back->Equals(v)) << v.ToString();
  }
}

TEST(SerializationTest, ExpressionRoundTripIsSelfContained) {
  // max(base.city_id) + 1 IN (2, 3) style compound with every node kind.
  TypePtr base_type = Type::Row({"city_id"}, {Type::Bigint()});
  auto deref = SpecialFormExpression::MakeDereference(
      Var("base", base_type), "city_id");
  ASSERT_TRUE(deref.ok());
  ExprPtr plus = Call("plus", {*deref, ConstantExpression::MakeBigint(1)});
  ExprPtr in_expr = SpecialFormExpression::Make(
      SpecialFormKind::kIn, Type::Boolean(),
      {plus, ConstantExpression::MakeBigint(2), ConstantExpression::MakeBigint(3)});

  auto copy = CopyExpressionViaSerialization(*in_expr);
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  EXPECT_EQ((*copy)->ToString(), in_expr->ToString());

  // The deserialized copy evaluates identically — the FunctionHandle inside
  // survived the round trip without re-resolution.
  VectorBuilder builder(base_type);
  ASSERT_TRUE(builder.Append(Value::Row({Value::Int(1)})).ok());
  ASSERT_TRUE(builder.Append(Value::Row({Value::Int(5)})).ok());
  Page page({builder.Build()});
  auto r1 = Evaluator::EvalExpression(*in_expr, page, {{"base", 0}});
  auto r2 = Evaluator::EvalExpression(**copy, page, {{"base", 0}});
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE((*r1)->GetValue(i).Equals((*r2)->GetValue(i)));
  }
}

TEST(SerializationTest, LambdaRoundTrip) {
  ExprPtr lambda = LambdaDefinitionExpression::Make(
      {"x"}, {Type::Bigint()},
      Call("plus", {Var("x", Type::Bigint()), ConstantExpression::MakeBigint(1)}));
  auto copy = CopyExpressionViaSerialization(*lambda);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ((*copy)->ToString(), lambda->ToString());
}

TEST(SerializationTest, CorruptBytesRejected) {
  std::vector<uint8_t> garbage = {0xFF, 0x01, 0x02};
  ByteReader reader(garbage.data(), garbage.size());
  EXPECT_FALSE(DeserializeExpression(&reader).ok());
}

TEST(ExpressionTest, CollectReferencedVariables) {
  ExprPtr lambda = LambdaDefinitionExpression::Make(
      {"x"}, {Type::Bigint()},
      Call("plus", {Var("x", Type::Bigint()), Var("outer", Type::Bigint())}));
  std::vector<std::string> vars;
  CollectReferencedVariables(*lambda, &vars);
  EXPECT_EQ(vars, std::vector<std::string>{"outer"}) << "lambda params are bound";
  EXPECT_TRUE(ReferencesVariable(*lambda, "outer"));
  EXPECT_FALSE(ReferencesVariable(*lambda, "x"));
}

}  // namespace
}  // namespace presto
