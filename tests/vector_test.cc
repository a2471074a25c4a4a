// Tests for the columnar vector layer: flat/dictionary/lazy encodings,
// nested row/array/map vectors, builders, slicing, flattening, pages.

#include <gtest/gtest.h>

#include "presto/vector/page.h"
#include "presto/vector/vector.h"
#include "presto/vector/vector_builder.h"

namespace presto {
namespace {

TEST(FlatVectorTest, BasicAccess) {
  VectorPtr v = MakeBigintVector({1, 2, 3});
  EXPECT_EQ(v->size(), 3u);
  EXPECT_EQ(v->encoding(), VectorEncoding::kFlat);
  EXPECT_FALSE(v->IsNull(1));
  EXPECT_EQ(v->GetValue(2), Value::Int(3));
}

TEST(FlatVectorTest, NullsTracked) {
  VectorBuilder b(Type::Bigint());
  b.AppendBigint(10);
  b.AppendNull();
  b.AppendBigint(30);
  VectorPtr v = b.Build();
  EXPECT_FALSE(v->IsNull(0));
  EXPECT_TRUE(v->IsNull(1));
  EXPECT_EQ(v->GetValue(1), Value::Null());
  EXPECT_EQ(v->GetValue(2), Value::Int(30));
}

TEST(FlatVectorTest, SlicePreservesNulls) {
  VectorBuilder b(Type::Varchar());
  b.AppendString("a");
  b.AppendNull();
  b.AppendString("c");
  b.AppendString("d");
  VectorPtr v = b.Build();
  VectorPtr sliced = v->Slice({3, 1, 0});
  EXPECT_EQ(sliced->size(), 3u);
  EXPECT_EQ(sliced->GetValue(0), Value::String("d"));
  EXPECT_TRUE(sliced->IsNull(1));
  EXPECT_EQ(sliced->GetValue(2), Value::String("a"));
}

TEST(FlatVectorTest, HashConsistentWithCompare) {
  VectorPtr a = MakeVarcharVector({"x", "y"});
  VectorPtr b = MakeVarcharVector({"x", "z"});
  EXPECT_EQ(a->CompareAt(0, *b, 0), 0);
  EXPECT_EQ(a->HashAt(0), b->HashAt(0));
  EXPECT_NE(a->CompareAt(1, *b, 1), 0);
}

TEST(FlatVectorTest, CompareAcrossEncodings) {
  VectorPtr base = MakeBigintVector({100, 200});
  auto dict = std::make_shared<DictionaryVector>(base, std::vector<int32_t>{1, 0, 1});
  VectorPtr flat = MakeBigintVector({200, 100, 200});
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(flat->CompareAt(i, *dict, i), 0) << "row " << i;
  }
}

TEST(RowVectorTest, NestedAccessAndNulls) {
  TypePtr row_type = Type::Row({"id", "name"}, {Type::Bigint(), Type::Varchar()});
  VectorBuilder b(row_type);
  ASSERT_TRUE(b.Append(Value::Row({Value::Int(1), Value::String("uber")})).ok());
  b.AppendNull();
  ASSERT_TRUE(b.Append(Value::Row({Value::Int(3), Value::Null()})).ok());
  VectorPtr v = b.Build();
  auto* row = static_cast<RowVector*>(v.get());
  EXPECT_EQ(row->NumChildren(), 2u);
  EXPECT_EQ(row->child(0)->size(), 3u);  // children stay aligned through nulls
  EXPECT_TRUE(v->IsNull(1));
  EXPECT_EQ(v->GetValue(0), Value::Row({Value::Int(1), Value::String("uber")}));
  EXPECT_EQ(v->GetValue(2), Value::Row({Value::Int(3), Value::Null()}));
}

TEST(ArrayVectorTest, RoundTripThroughBuilder) {
  TypePtr t = Type::Array(Type::Bigint());
  VectorBuilder b(t);
  ASSERT_TRUE(b.Append(Value::Array({Value::Int(1), Value::Int(2)})).ok());
  ASSERT_TRUE(b.Append(Value::Array({})).ok());
  b.AppendNull();
  ASSERT_TRUE(b.Append(Value::Array({Value::Int(9)})).ok());
  VectorPtr v = b.Build();
  EXPECT_EQ(v->GetValue(0), Value::Array({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(v->GetValue(1), Value::Array({}));
  EXPECT_TRUE(v->IsNull(2));
  EXPECT_EQ(v->GetValue(3), Value::Array({Value::Int(9)}));
}

TEST(ArrayVectorTest, SliceRebasesOffsets) {
  TypePtr t = Type::Array(Type::Varchar());
  VectorBuilder b(t);
  ASSERT_TRUE(b.Append(Value::Array({Value::String("a")})).ok());
  ASSERT_TRUE(b.Append(Value::Array({Value::String("b"), Value::String("c")})).ok());
  ASSERT_TRUE(b.Append(Value::Array({Value::String("d")})).ok());
  VectorPtr v = b.Build();
  VectorPtr sliced = v->Slice({2, 1});
  EXPECT_EQ(sliced->GetValue(0), Value::Array({Value::String("d")}));
  EXPECT_EQ(sliced->GetValue(1),
            Value::Array({Value::String("b"), Value::String("c")}));
}

TEST(MapVectorTest, RoundTripAndSlice) {
  TypePtr t = Type::Map(Type::Varchar(), Type::Double());
  VectorBuilder b(t);
  ASSERT_TRUE(b.Append(Value::Map({{Value::String("a"), Value::Double(1.5)}})).ok());
  ASSERT_TRUE(b.Append(Value::Map({})).ok());
  ASSERT_TRUE(b.Append(Value::Map({{Value::String("x"), Value::Double(2.0)},
                                   {Value::String("y"), Value::Double(3.0)}})).ok());
  VectorPtr v = b.Build();
  EXPECT_EQ(v->GetValue(2).map_entries().size(), 2u);
  VectorPtr sliced = v->Slice({2, 0});
  EXPECT_EQ(sliced->GetValue(1),
            Value::Map({{Value::String("a"), Value::Double(1.5)}}));
}

TEST(DictionaryVectorTest, IndirectionAndFlatten) {
  VectorPtr base = MakeVarcharVector({"SF", "NYC", "LA"});
  auto dict = std::make_shared<DictionaryVector>(
      base, std::vector<int32_t>{2, 0, 0, 1, 2});
  EXPECT_EQ(dict->encoding(), VectorEncoding::kDictionary);
  EXPECT_EQ(dict->GetValue(0), Value::String("LA"));
  EXPECT_EQ(dict->GetValue(3), Value::String("NYC"));

  auto flat = Vector::Flatten(dict);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ((*flat)->encoding(), VectorEncoding::kFlat);
  EXPECT_EQ((*flat)->size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*flat)->GetValue(i), dict->GetValue(i));
  }
}

TEST(DictionaryVectorTest, FlattenWithNulls) {
  VectorPtr base = MakeBigintVector({7, 8});
  auto dict = std::make_shared<DictionaryVector>(
      base, std::vector<int32_t>{0, 0, 1}, std::vector<uint8_t>{0, 1, 0});
  auto flat = Vector::Flatten(dict);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ((*flat)->GetValue(0), Value::Int(7));
  EXPECT_TRUE((*flat)->IsNull(1));
  EXPECT_EQ((*flat)->GetValue(2), Value::Int(8));
}

TEST(DictionaryVectorTest, NestedDictionaryFlattens) {
  VectorPtr base = MakeBigintVector({10, 20});
  auto inner = std::make_shared<DictionaryVector>(base, std::vector<int32_t>{1, 0});
  auto outer = std::make_shared<DictionaryVector>(inner, std::vector<int32_t>{0, 0, 1});
  auto flat = Vector::Flatten(outer);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ((*flat)->GetValue(0), Value::Int(20));
  EXPECT_EQ((*flat)->GetValue(2), Value::Int(10));
}

TEST(DictionaryVectorTest, HashBatchMatchesTheFlattenedRows) {
  // A dictionary hashes the rows it selects through its indices, with fewer
  // or more rows than its base: the hashes must equal, bit for bit, those of
  // its flattened rows, with NULLs at either level.
  std::vector<VectorPtr> bases = {
      std::make_shared<Int64Vector>(Type::Bigint(),
                                    std::vector<int64_t>{5, -3, 0, 9, 5, 1},
                                    std::vector<uint8_t>{0, 0, 1, 0, 0, 0}),
      std::make_shared<DoubleVector>(
          Type::Double(), std::vector<double>{-0.0, 0.0, 2.5, -1.0, 7.0, 2.5},
          std::vector<uint8_t>{}),
      std::make_shared<StringVector>(
          Type::Varchar(),
          std::vector<std::string>{"a", "", "bc", "a", "zz", "q"},
          std::vector<uint8_t>{0, 1, 0, 0, 0, 0}),
      MakeBooleanVector({1, 0, 0, 1, 1, 0})};
  const std::vector<std::vector<int32_t>> selections = {
      {4, 1, 2},                       // fewer rows than the base
      {0, 1, 2, 3, 4, 5, 5, 2, 0, 3},  // more rows than the base
      {}};
  for (const VectorPtr& base : bases) {
    for (const auto& indices : selections) {
      for (bool top_nulls : {false, true}) {
        std::vector<uint8_t> nulls;
        if (top_nulls) {
          for (size_t i = 0; i < indices.size(); ++i) nulls.push_back(i % 2);
        }
        auto dict = std::make_shared<DictionaryVector>(base, indices, nulls);
        auto flat = Vector::Flatten(dict);
        ASSERT_TRUE(flat.ok());
        std::vector<uint64_t> got(indices.size(), 11), want(indices.size(), 11);
        dict->HashBatch(got.data(), /*combine=*/true);
        (*flat)->HashBatch(want.data(), /*combine=*/true);
        EXPECT_EQ(got, want) << base->type()->ToString() << " rows "
                             << indices.size() << " top nulls " << top_nulls;
      }
    }
  }
}

TEST(DictionaryVectorTest, NullFreeSliceAndFlattenSkipNullFlags) {
  VectorPtr base = MakeBigintVector({10, 20, 30});
  auto dict = std::make_shared<DictionaryVector>(
      base, std::vector<int32_t>{2, 0, 1, 2});
  EXPECT_FALSE(dict->MayHaveNulls());
  VectorPtr sliced = dict->Slice({3, 1});
  EXPECT_FALSE(sliced->MayHaveNulls());
  EXPECT_EQ(sliced->GetValue(0), Value::Int(30));
  EXPECT_EQ(sliced->GetValue(1), Value::Int(10));
  auto flat = Vector::Flatten(dict);
  ASSERT_TRUE(flat.ok());
  EXPECT_FALSE((*flat)->MayHaveNulls());
  EXPECT_EQ((*flat)->GetValue(0), Value::Int(30));

  auto with_nulls = std::make_shared<DictionaryVector>(
      base, std::vector<int32_t>{0, 1}, std::vector<uint8_t>{0, 1});
  EXPECT_TRUE(with_nulls->MayHaveNulls());
  EXPECT_TRUE(with_nulls->Slice({1, 0})->IsNull(0));
}

TEST(LazyVectorTest, LoadsOnDemandOnce) {
  int loads = 0;
  auto lazy = std::make_shared<LazyVector>(
      Type::Bigint(), 4,
      [&loads](const std::vector<int32_t>& rows) -> Result<VectorPtr> {
        ++loads;
        std::vector<int64_t> out;
        for (int32_t r : rows) out.push_back(r * 10);
        return MakeBigintVector(std::move(out));
      });
  EXPECT_FALSE(lazy->IsLoaded());
  auto v = lazy->Load();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)->GetValue(3), Value::Int(30));
  (void)lazy->Load();
  EXPECT_EQ(loads, 1) << "full load must be cached";
}

TEST(LazyVectorTest, LoadForRowsSkipsUnselected) {
  std::vector<int32_t> requested;
  auto lazy = std::make_shared<LazyVector>(
      Type::Bigint(), 100,
      [&requested](const std::vector<int32_t>& rows) -> Result<VectorPtr> {
        requested = rows;
        std::vector<int64_t> out;
        for (int32_t r : rows) out.push_back(r);
        return MakeBigintVector(std::move(out));
      });
  auto v = lazy->LoadForRows({5, 50});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(requested, (std::vector<int32_t>{5, 50}));
  EXPECT_EQ((*v)->size(), 2u);
  EXPECT_EQ((*v)->GetValue(1), Value::Int(50));
}

TEST(LazyVectorTest, FlattenLoads) {
  auto lazy = std::make_shared<LazyVector>(
      Type::Varchar(), 2, [](const std::vector<int32_t>& rows) -> Result<VectorPtr> {
        std::vector<std::string> out(rows.size(), "v");
        return MakeVarcharVector(std::move(out));
      });
  auto flat = Vector::Flatten(lazy);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ((*flat)->GetValue(0), Value::String("v"));
}

TEST(PageTest, SliceRowsAcrossColumns) {
  Page page({MakeBigintVector({1, 2, 3}), MakeVarcharVector({"a", "b", "c"})});
  EXPECT_EQ(page.num_rows(), 3u);
  EXPECT_EQ(page.num_columns(), 2u);
  Page sliced = page.SliceRows({2, 0});
  EXPECT_EQ(sliced.num_rows(), 2u);
  EXPECT_EQ(sliced.column(1)->GetValue(0), Value::String("c"));
  auto row = sliced.GetRow(1);
  EXPECT_EQ(row[0], Value::Int(1));
  EXPECT_EQ(row[1], Value::String("a"));
}

TEST(BuilderTest, TypeMismatchRejected) {
  VectorBuilder b(Type::Bigint());
  EXPECT_FALSE(b.Append(Value::String("nope")).ok());
  EXPECT_TRUE(b.Append(Value::Int(1)).ok());
}

TEST(BuilderTest, AllNullVector) {
  auto v = MakeAllNullVector(
      Type::Row({"x"}, {Type::Array(Type::Bigint())}), 3);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)->size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_TRUE((*v)->IsNull(i));
}

TEST(BuilderTest, ReusableAfterBuild) {
  VectorBuilder b(Type::Bigint());
  b.AppendBigint(1);
  VectorPtr first = b.Build();
  b.AppendBigint(2);
  VectorPtr second = b.Build();
  EXPECT_EQ(first->size(), 1u);
  EXPECT_EQ(second->size(), 1u);
  EXPECT_EQ(second->GetValue(0), Value::Int(2));
}

}  // namespace
}  // namespace presto
