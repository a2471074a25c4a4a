// Tests for the lakefile columnar format: shredding/assembly (rep/def
// levels), native+legacy writers, native+legacy readers, predicate and
// dictionary pushdown, lazy reads, stats, and compression.

#include <gtest/gtest.h>

#include "presto/common/random.h"
#include "presto/fs/memory_file_system.h"
#include "presto/lakefile/reader.h"
#include "presto/lakefile/writer.h"
#include "presto/vector/vector_builder.h"

namespace presto {
namespace lakefile {
namespace {

std::shared_ptr<RandomAccessFile> AsFile(const std::vector<uint8_t>& bytes) {
  static MemoryFileSystem& fs = *new MemoryFileSystem();
  static int counter = 0;
  std::string path = "test/file" + std::to_string(counter++);
  EXPECT_TRUE(fs.WriteFile(path, bytes).ok());
  auto file = fs.OpenForRead(path);
  EXPECT_TRUE(file.ok());
  return *file;
}

void ExpectPagesEqual(const Page& a, const Page& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      EXPECT_TRUE(a.column(c)->GetValue(r).Equals(b.column(c)->GetValue(r)))
          << "row " << r << " col " << c << ": "
          << a.column(c)->GetValue(r).ToString() << " vs "
          << b.column(c)->GetValue(r).ToString();
    }
  }
}

// Every examined page is read or skipped exactly once.
void ExpectPageLedgerBalances(const ReaderStats& stats) {
  EXPECT_EQ(stats.pages_read + stats.pages_skipped_stats +
                stats.pages_skipped_lazy,
            stats.pages_total)
      << "read " << stats.pages_read << ", skipped_stats "
      << stats.pages_skipped_stats << ", skipped_lazy "
      << stats.pages_skipped_lazy;
}

// Reads everything through the native reader with given options, checking
// the page ledger after every batch.
Page ReadAll(const std::vector<uint8_t>& bytes, const ScanSpec& spec,
             ReaderOptions options = ReaderOptions()) {
  auto reader = NativeLakeFileReader::Open(AsFile(bytes), options);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<Page> pages;
  while (true) {
    auto batch = (*reader)->NextBatch(spec);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    ExpectPageLedgerBalances((*reader)->stats());
    if (!batch->has_value()) break;
    pages.push_back(std::move(**batch));
  }
  // Concatenate via builders (test-only convenience).
  if (pages.empty()) return Page();
  std::vector<VectorBuilder> builders;
  for (size_t c = 0; c < pages[0].num_columns(); ++c) {
    builders.emplace_back(pages[0].column(c)->type());
  }
  size_t rows = 0;
  for (const Page& p : pages) {
    rows += p.num_rows();
    for (size_t c = 0; c < p.num_columns(); ++c) {
      for (size_t r = 0; r < p.num_rows(); ++r) {
        EXPECT_TRUE(builders[c].Append(p.column(c)->GetValue(r)).ok());
      }
    }
  }
  std::vector<VectorPtr> columns;
  for (auto& b : builders) columns.push_back(b.Build());
  return Page(std::move(columns), rows);
}

TEST(ShredTest, LeafEnumeration) {
  TypePtr schema = Type::Row(
      {"id", "base", "tags", "metrics"},
      {Type::Bigint(),
       Type::Row({"driver_uuid", "city"},
                 {Type::Varchar(), Type::Row({"city_id"}, {Type::Bigint()})}),
       Type::Array(Type::Varchar()),
       Type::Map(Type::Varchar(), Type::Double())});
  auto leaves = EnumerateLeaves(*schema);
  ASSERT_TRUE(leaves.ok());
  ASSERT_EQ(leaves->size(), 6u);
  EXPECT_EQ((*leaves)[0].path, "id");
  EXPECT_EQ((*leaves)[0].max_def, 1);
  EXPECT_EQ((*leaves)[1].path, "base.driver_uuid");
  EXPECT_EQ((*leaves)[1].max_def, 2);
  EXPECT_EQ((*leaves)[2].path, "base.city.city_id");
  EXPECT_EQ((*leaves)[2].max_def, 3);
  EXPECT_EQ((*leaves)[3].path, "tags.element");
  EXPECT_EQ((*leaves)[3].max_def, 3);
  EXPECT_EQ((*leaves)[3].max_rep, 1);
  EXPECT_EQ((*leaves)[4].path, "metrics.key");
  EXPECT_EQ((*leaves)[5].path, "metrics.value");
}

TEST(ShredTest, NestedRepetitionRejected) {
  TypePtr schema = Type::Row({"a"}, {Type::Array(Type::Array(Type::Bigint()))});
  EXPECT_EQ(EnumerateLeaves(*schema).status().code(), StatusCode::kUnimplemented);
}

Page MakeTrickyPage() {
  TypePtr base_type = Type::Row(
      {"driver_uuid", "city_id"}, {Type::Varchar(), Type::Bigint()});
  TypePtr schema_cols[] = {Type::Bigint(), base_type,
                           Type::Array(Type::Bigint()),
                           Type::Map(Type::Varchar(), Type::Double())};
  (void)schema_cols;
  VectorBuilder id(Type::Bigint());
  VectorBuilder base(base_type);
  VectorBuilder tags(Type::Array(Type::Bigint()));
  VectorBuilder metrics(Type::Map(Type::Varchar(), Type::Double()));

  // Row 0: everything present.
  id.AppendBigint(1);
  EXPECT_TRUE(base.Append(Value::Row({Value::String("d1"), Value::Int(12)})).ok());
  EXPECT_TRUE(tags.Append(Value::Array({Value::Int(7), Value::Int(8)})).ok());
  EXPECT_TRUE(metrics.Append(Value::Map({{Value::String("k"), Value::Double(1.5)}})).ok());
  // Row 1: null struct, empty array, null map.
  id.AppendNull();
  base.AppendNull();
  EXPECT_TRUE(tags.Append(Value::Array({})).ok());
  metrics.AppendNull();
  // Row 2: struct with null field, null array, empty map.
  id.AppendBigint(3);
  EXPECT_TRUE(base.Append(Value::Row({Value::Null(), Value::Int(9)})).ok());
  tags.AppendNull();
  EXPECT_TRUE(metrics.Append(Value::Map({})).ok());
  // Row 3: array with null element, map with null value.
  id.AppendBigint(4);
  EXPECT_TRUE(base.Append(Value::Row({Value::String("d4"), Value::Null()})).ok());
  EXPECT_TRUE(tags.Append(Value::Array({Value::Null(), Value::Int(5)})).ok());
  EXPECT_TRUE(metrics.Append(Value::Map({{Value::String("a"), Value::Null()},
                                         {Value::String("b"), Value::Double(2.0)}})).ok());
  return Page({id.Build(), base.Build(), tags.Build(), metrics.Build()});
}

TypePtr TrickySchema() {
  return Type::Row({"id", "base", "tags", "metrics"},
                   {Type::Bigint(),
                    Type::Row({"driver_uuid", "city_id"},
                              {Type::Varchar(), Type::Bigint()}),
                    Type::Array(Type::Bigint()),
                    Type::Map(Type::Varchar(), Type::Double())});
}

TEST(LakeFileTest, NativeRoundTripTrickyShapes) {
  Page page = MakeTrickyPage();
  auto bytes = WriteLakeFile(TrickySchema(), {page});
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ScanSpec spec;
  spec.columns = {"id", "base", "tags", "metrics"};
  Page back = ReadAll(*bytes, spec);
  ExpectPagesEqual(page, back);
}

TEST(LakeFileTest, LegacyWriterProducesIdenticalBytes) {
  Page page = MakeTrickyPage();
  auto native = WriteLakeFile(TrickySchema(), {page}, WriterOptions(),
                              WriterMode::kNative);
  auto legacy = WriteLakeFile(TrickySchema(), {page}, WriterOptions(),
                              WriterMode::kLegacy);
  ASSERT_TRUE(native.ok());
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(*native, *legacy)
      << "both writers must produce byte-identical files";
}

TEST(LakeFileTest, LegacyReaderMatchesNativeReader) {
  Page page = MakeTrickyPage();
  auto bytes = WriteLakeFile(TrickySchema(), {page});
  ASSERT_TRUE(bytes.ok());
  auto legacy = LegacyLakeFileReader::Open(AsFile(*bytes));
  ASSERT_TRUE(legacy.ok());
  auto batch = (*legacy)->NextBatch({"id", "base", "tags", "metrics"});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(batch->has_value());
  ExpectPagesEqual(page, **batch);
}

TEST(LakeFileTest, DeepNestingRoundTrip) {
  // 5 levels of struct nesting, as in the paper's production schemas.
  TypePtr l5 = Type::Row({"v"}, {Type::Bigint()});
  TypePtr l4 = Type::Row({"e", "x"}, {l5, Type::Varchar()});
  TypePtr l3 = Type::Row({"d"}, {l4});
  TypePtr l2 = Type::Row({"c"}, {l3});
  TypePtr schema = Type::Row({"a"}, {Type::Row({"b"}, {l2})});

  VectorBuilder b(schema->child(0));
  EXPECT_TRUE(b.Append(Value::Row({Value::Row({Value::Row({Value::Row(
                  {Value::Row({Value::Int(42)}), Value::String("s")})})})}))
                  .ok());
  b.AppendNull();
  EXPECT_TRUE(b.Append(Value::Row({Value::Row({Value::Row({Value::Row(
                  {Value::Null(), Value::String("t")})})})}))
                  .ok());
  Page page({b.Build()});
  auto bytes = WriteLakeFile(schema, {page});
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ScanSpec spec;
  spec.columns = {"a"};
  Page back = ReadAll(*bytes, spec);
  ExpectPagesEqual(page, back);
}

class LakeFileCompression : public ::testing::TestWithParam<CompressionKind> {};

TEST_P(LakeFileCompression, RoundTrip) {
  Page page = MakeTrickyPage();
  WriterOptions options;
  options.compression = GetParam();
  auto bytes = WriteLakeFile(TrickySchema(), {page}, options);
  ASSERT_TRUE(bytes.ok());
  ScanSpec spec;
  spec.columns = {"id", "base", "tags", "metrics"};
  Page back = ReadAll(*bytes, spec);
  ExpectPagesEqual(page, back);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, LakeFileCompression,
                         ::testing::Values(CompressionKind::kNone,
                                           CompressionKind::kSnappy,
                                           CompressionKind::kGzip),
                         [](const auto& info) {
                           return CompressionKindToString(info.param);
                         });

// Builds an Uber-style trips page: nested base struct with city_id values.
Page MakeTripsPage(int64_t start, size_t n, int64_t city_mod) {
  TypePtr base_type = Type::Row({"driver_uuid", "city_id", "status"},
                                {Type::Varchar(), Type::Bigint(), Type::Varchar()});
  VectorBuilder id(Type::Bigint());
  VectorBuilder base(base_type);
  for (size_t i = 0; i < n; ++i) {
    int64_t v = start + static_cast<int64_t>(i);
    id.AppendBigint(v);
    EXPECT_TRUE(base.Append(Value::Row({Value::String("driver-" + std::to_string(v)),
                                        Value::Int(v % city_mod),
                                        Value::String(v % 2 == 0 ? "done" : "open")}))
                    .ok());
  }
  return Page({id.Build(), base.Build()});
}

TypePtr TripsSchema() {
  return Type::Row({"id", "base"},
                   {Type::Bigint(),
                    Type::Row({"driver_uuid", "city_id", "status"},
                              {Type::Varchar(), Type::Bigint(), Type::Varchar()})});
}

TEST(LakeFileTest, NestedColumnPruningShapesOutput) {
  Page page = MakeTripsPage(0, 100, 10);
  auto bytes = WriteLakeFile(TripsSchema(), {page});
  ASSERT_TRUE(bytes.ok());
  ScanSpec spec;
  spec.columns = {"base"};
  spec.required_leaves = {"base.city_id"};
  auto reader = NativeLakeFileReader::Open(AsFile(*bytes), ReaderOptions());
  ASSERT_TRUE(reader.ok());
  auto type = (*reader)->OutputColumnType(spec, "base");
  ASSERT_TRUE(type.ok());
  EXPECT_EQ((*type)->ToString(), "ROW(city_id BIGINT)");

  auto batch = (*reader)->NextBatch(spec);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(batch->has_value());
  EXPECT_EQ((*batch)->column(0)->type()->ToString(), "ROW(city_id BIGINT)");
  EXPECT_EQ((*batch)->column(0)->GetValue(7), Value::Row({Value::Int(7)}));
  // Pruning reads only the required leaf: 1 chunk instead of 3.
  auto full_reader = NativeLakeFileReader::Open(AsFile(*bytes), ReaderOptions());
  ASSERT_TRUE(full_reader.ok());
  ScanSpec full_spec;
  full_spec.columns = {"base"};
  ASSERT_TRUE((*full_reader)->NextBatch(full_spec).ok());
  EXPECT_LT((*reader)->stats().bytes_read, (*full_reader)->stats().bytes_read);
}

TEST(LakeFileTest, PredicatePushdownSkipsRowGroups) {
  // 10 row groups of 100 rows; id is monotonically increasing, so an
  // equality predicate matches exactly one group.
  WriterOptions options;
  options.row_group_rows = 100;
  auto writer = LakeFileWriter::Create(TripsSchema(), options);
  ASSERT_TRUE(writer.ok());
  for (int g = 0; g < 10; ++g) {
    ASSERT_TRUE((*writer)->Append(MakeTripsPage(g * 100, 100, 1000)).ok());
  }
  auto bytes = (*writer)->Finish();
  ASSERT_TRUE(bytes.ok());

  ScanSpec spec;
  spec.columns = {"id"};
  spec.predicates = {{"id", LeafPredicate::Op::kEq, {Value::Int(555)}}};
  auto reader = NativeLakeFileReader::Open(AsFile(*bytes), ReaderOptions());
  ASSERT_TRUE(reader.ok());
  std::vector<int64_t> matched;
  while (true) {
    auto batch = (*reader)->NextBatch(spec);
    ASSERT_TRUE(batch.ok());
    if (!batch->has_value()) break;
    for (size_t r = 0; r < (*batch)->num_rows(); ++r) {
      matched.push_back((*batch)->column(0)->GetValue(r).int_value());
    }
  }
  EXPECT_EQ(matched, std::vector<int64_t>{555});
  EXPECT_EQ((*reader)->stats().row_groups_skipped_stats, 9);
  EXPECT_EQ((*reader)->stats().row_groups_scanned, 1);

  // Without pushdown all groups are scanned but results are identical.
  ReaderOptions no_push;
  no_push.predicate_pushdown = false;
  no_push.dictionary_pushdown = false;
  auto slow = NativeLakeFileReader::Open(AsFile(*bytes), no_push);
  ASSERT_TRUE(slow.ok());
  std::vector<int64_t> matched_slow;
  while (true) {
    auto batch = (*slow)->NextBatch(spec);
    ASSERT_TRUE(batch.ok());
    if (!batch->has_value()) break;
    for (size_t r = 0; r < (*batch)->num_rows(); ++r) {
      matched_slow.push_back((*batch)->column(0)->GetValue(r).int_value());
    }
  }
  EXPECT_EQ(matched_slow, matched);
  EXPECT_EQ((*slow)->stats().row_groups_scanned, 10);
}

TEST(LakeFileTest, RangePredicates) {
  WriterOptions options;
  options.row_group_rows = 50;
  auto writer = LakeFileWriter::Create(TripsSchema(), options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(MakeTripsPage(0, 200, 1000)).ok());
  auto bytes = (*writer)->Finish();
  ASSERT_TRUE(bytes.ok());

  ScanSpec spec;
  spec.columns = {"id"};
  spec.predicates = {{"id", LeafPredicate::Op::kGe, {Value::Int(60)}},
                     {"id", LeafPredicate::Op::kLt, {Value::Int(70)}}};
  Page out = ReadAll(*bytes, spec);
  ASSERT_EQ(out.num_rows(), 10u);
  EXPECT_EQ(out.column(0)->GetValue(0), Value::Int(60));
  EXPECT_EQ(out.column(0)->GetValue(9), Value::Int(69));
}

TEST(LakeFileTest, DictionaryPushdownSkipsViaDictionary) {
  // Status column has few distinct values -> dictionary encoded. Stats
  // (min/max strings) cannot exclude "zzz-absent" lexicographically if it
  // falls in range, but the dictionary can.
  TypePtr schema = Type::Row({"status"}, {Type::Varchar()});
  VectorBuilder b(Type::Varchar());
  for (int i = 0; i < 1000; ++i) {
    b.AppendString(i % 2 == 0 ? "aaa" : "zzz");
  }
  auto bytes = WriteLakeFile(schema, {Page({b.Build()})});
  ASSERT_TRUE(bytes.ok());

  ScanSpec spec;
  spec.columns = {"status"};
  spec.predicates = {{"status", LeafPredicate::Op::kEq, {Value::String("mmm")}}};
  auto reader = NativeLakeFileReader::Open(AsFile(*bytes), ReaderOptions());
  ASSERT_TRUE(reader.ok());
  auto batch = (*reader)->NextBatch(spec);
  ASSERT_TRUE(batch.ok());
  EXPECT_FALSE(batch->has_value());
  EXPECT_EQ((*reader)->stats().row_groups_skipped_dictionary, 1);
  EXPECT_EQ((*reader)->stats().row_groups_scanned, 0);
}

TEST(LakeFileTest, LazyReadsDecodeOnlyMatchingRows) {
  Page page = MakeTripsPage(0, 1000, 100);  // city_id = id % 100
  auto bytes = WriteLakeFile(TripsSchema(), {page});
  ASSERT_TRUE(bytes.ok());

  ScanSpec spec;
  spec.columns = {"base"};
  spec.required_leaves = {"base.driver_uuid", "base.city_id"};
  spec.predicates = {{"base.city_id", LeafPredicate::Op::kEq, {Value::Int(12)}}};

  ReaderOptions lazy_on;
  auto lazy = NativeLakeFileReader::Open(AsFile(*bytes), lazy_on);
  ASSERT_TRUE(lazy.ok());
  auto batch = (*lazy)->NextBatch(spec);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(batch->has_value());
  EXPECT_EQ((*batch)->num_rows(), 10u);
  // Verify values: each matching row has city_id 12 and the right driver.
  for (size_t r = 0; r < 10; ++r) {
    Value row = (*batch)->column(0)->GetValue(r);
    EXPECT_EQ(row.children()[1], Value::Int(12));
    EXPECT_EQ(row.children()[0],
              Value::String("driver-" + std::to_string(12 + 100 * r)));
  }

  ReaderOptions lazy_off = lazy_on;
  lazy_off.lazy_reads = false;
  auto eager = NativeLakeFileReader::Open(AsFile(*bytes), lazy_off);
  ASSERT_TRUE(eager.ok());
  auto batch2 = (*eager)->NextBatch(spec);
  ASSERT_TRUE(batch2.ok());
  ExpectPagesEqual(**batch, **batch2);
  EXPECT_LT((*lazy)->stats().values_decoded, (*eager)->stats().values_decoded)
      << "lazy reads must decode fewer values";
}

TEST(LakeFileTest, VectorizedAndScalarDecodeAgree) {
  Page page = MakeTripsPage(0, 500, 13);
  auto bytes = WriteLakeFile(TripsSchema(), {page});
  ASSERT_TRUE(bytes.ok());
  ScanSpec spec;
  spec.columns = {"id", "base"};
  ReaderOptions vec;
  ReaderOptions scalar;
  scalar.vectorized = false;
  Page a = ReadAll(*bytes, spec, vec);
  Page b = ReadAll(*bytes, spec, scalar);
  ExpectPagesEqual(a, b);
}

TEST(LakeFileTest, FooterStats) {
  Page page = MakeTripsPage(100, 50, 7);
  auto bytes = WriteLakeFile(TripsSchema(), {page});
  ASSERT_TRUE(bytes.ok());
  auto file = AsFile(*bytes);
  auto footer = ReadFooter(file.get());
  ASSERT_TRUE(footer.ok());
  EXPECT_EQ(footer->num_rows, 50u);
  ASSERT_EQ(footer->row_groups.size(), 1u);
  const auto& columns = footer->row_groups[0].columns;
  ASSERT_EQ(columns.size(), 4u);  // id, driver_uuid, city_id, status
  EXPECT_EQ(columns[0].leaf_path, "id");
  ASSERT_TRUE(columns[0].has_stats);
  EXPECT_EQ(columns[0].min, Value::Int(100));
  EXPECT_EQ(columns[0].max, Value::Int(149));
  EXPECT_EQ(columns[2].leaf_path, "base.city_id");
  EXPECT_EQ(columns[2].min, Value::Int(0));
  EXPECT_EQ(columns[2].max, Value::Int(6));
}

TEST(LakeFileTest, MultipleRowGroupBoundaries) {
  WriterOptions options;
  options.row_group_rows = 30;
  auto writer = LakeFileWriter::Create(TripsSchema(), options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(MakeTripsPage(0, 100, 10)).ok());
  auto bytes = (*writer)->Finish();
  ASSERT_TRUE(bytes.ok());
  auto file = AsFile(*bytes);
  auto footer = ReadFooter(file.get());
  ASSERT_TRUE(footer.ok());
  EXPECT_EQ(footer->num_rows, 100u);
  ASSERT_EQ(footer->row_groups.size(), 4u);  // 30 + 30 + 30 + 10
  EXPECT_EQ(footer->row_groups[0].num_rows, 30u);
  EXPECT_EQ(footer->row_groups[3].num_rows, 10u);
  ScanSpec spec;
  spec.columns = {"id"};
  Page all = ReadAll(*bytes, spec);
  EXPECT_EQ(all.num_rows(), 100u);
  EXPECT_EQ(all.column(0)->GetValue(99), Value::Int(99));
}

TEST(LakeFileTest, CorruptFileRejected) {
  Page page = MakeTripsPage(0, 10, 3);
  auto bytes = WriteLakeFile(TripsSchema(), {page});
  ASSERT_TRUE(bytes.ok());
  // Corrupt the tail magic (what the random-access footer read validates).
  std::vector<uint8_t> bad = *bytes;
  bad[bad.size() - 1] = 'X';
  auto file = AsFile(bad);
  EXPECT_FALSE(ReadFooter(file.get()).ok());
  // A corrupt head magic is caught by the whole-file parse.
  std::vector<uint8_t> bad_head = *bytes;
  bad_head[0] = 'X';
  EXPECT_FALSE(ReadFooterFromFile(bad_head.data(), bad_head.size()).ok());
  // Truncated file.
  std::vector<uint8_t> truncated(bytes->begin(), bytes->begin() + 10);
  auto file2 = AsFile(truncated);
  EXPECT_FALSE(ReadFooter(file2.get()).ok());
}

TEST(LakeFileTest, MissingColumnRejected) {
  Page page = MakeTripsPage(0, 10, 3);
  auto bytes = WriteLakeFile(TripsSchema(), {page});
  ASSERT_TRUE(bytes.ok());
  ScanSpec spec;
  spec.columns = {"does_not_exist"};
  auto reader = NativeLakeFileReader::Open(AsFile(*bytes), ReaderOptions());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->NextBatch(spec).status().code(), StatusCode::kNotFound);
}

TEST(LakeFileTest, RandomizedRoundTripProperty) {
  // Property sweep: random pages with nulls/arrays/maps survive the
  // write->read round trip bit-exactly under both writers and readers.
  Random rng(99);
  TypePtr schema = TrickySchema();
  for (int iteration = 0; iteration < 5; ++iteration) {
    VectorBuilder id(Type::Bigint());
    VectorBuilder base(schema->child(1));
    VectorBuilder tags(schema->child(2));
    VectorBuilder metrics(schema->child(3));
    size_t n = 50 + rng.NextBelow(100);
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBool(0.1)) {
        id.AppendNull();
      } else {
        id.AppendBigint(rng.NextInRange(-1000, 1000));
      }
      if (rng.NextBool(0.2)) {
        base.AppendNull();
      } else {
        Value driver = rng.NextBool(0.1) ? Value::Null()
                                         : Value::String(rng.NextString(8));
        Value city = rng.NextBool(0.1) ? Value::Null()
                                       : Value::Int(rng.NextInRange(0, 50));
        EXPECT_TRUE(base.Append(Value::Row({driver, city})).ok());
      }
      if (rng.NextBool(0.15)) {
        tags.AppendNull();
      } else {
        Value::RowData elems;
        size_t len = rng.NextBelow(4);
        for (size_t e = 0; e < len; ++e) {
          elems.push_back(rng.NextBool(0.1) ? Value::Null()
                                            : Value::Int(rng.NextInRange(0, 9)));
        }
        EXPECT_TRUE(tags.Append(Value::Array(std::move(elems))).ok());
      }
      if (rng.NextBool(0.15)) {
        metrics.AppendNull();
      } else {
        Value::MapData entries;
        size_t len = rng.NextBelow(3);
        for (size_t e = 0; e < len; ++e) {
          entries.emplace_back(Value::String(rng.NextString(3)),
                               rng.NextBool(0.2)
                                   ? Value::Null()
                                   : Value::Double(rng.NextDouble()));
        }
        EXPECT_TRUE(metrics.Append(Value::Map(std::move(entries))).ok());
      }
    }
    Page page({id.Build(), base.Build(), tags.Build(), metrics.Build()});
    auto native = WriteLakeFile(schema, {page}, WriterOptions(), WriterMode::kNative);
    auto legacy = WriteLakeFile(schema, {page}, WriterOptions(), WriterMode::kLegacy);
    ASSERT_TRUE(native.ok());
    ASSERT_TRUE(legacy.ok());
    EXPECT_EQ(*native, *legacy);
    ScanSpec spec;
    spec.columns = {"id", "base", "tags", "metrics"};
    Page back = ReadAll(*native, spec);
    ExpectPagesEqual(page, back);
    auto legacy_reader = LegacyLakeFileReader::Open(AsFile(*native));
    ASSERT_TRUE(legacy_reader.ok());
    auto legacy_batch =
        (*legacy_reader)->NextBatch({"id", "base", "tags", "metrics"});
    ASSERT_TRUE(legacy_batch.ok()) << legacy_batch.status().ToString();
    ASSERT_TRUE(legacy_batch->has_value());
    ExpectPagesEqual(page, **legacy_batch);
  }
}

// ---------------------------------------------------------------------------
// Format v2: multi-page chunks, page-level skipping, late materialization
// ---------------------------------------------------------------------------

TEST(LakeFilePagesTest, MultiPageChunksAndPageStats) {
  // 1000 rows in one row group with 100-row pages: every chunk must carry a
  // 10-entry page list whose stats tile the group exactly.
  WriterOptions options;
  options.row_group_rows = 1000;
  options.page_rows = 100;
  Page page = MakeTripsPage(0, 1000, 1000000);  // city_id == id, monotone
  auto bytes = WriteLakeFile(TripsSchema(), {page}, options);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  auto footer = ReadFooterFromFile(bytes->data(), bytes->size());
  ASSERT_TRUE(footer.ok());
  EXPECT_EQ(footer->version, kFormatVersion);
  ASSERT_EQ(footer->row_groups.size(), 1u);
  const auto& columns = footer->row_groups[0].columns;
  ASSERT_EQ(columns[0].leaf_path, "id");
  const auto& pages = columns[0].pages;
  ASSERT_EQ(pages.size(), 10u);
  uint64_t rows = 0;
  for (size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(pages[i].first_row, i * 100);
    EXPECT_EQ(pages[i].num_rows, 100u);
    EXPECT_EQ(pages[i].num_entries, 100u);
    ASSERT_TRUE(pages[i].has_stats) << "page " << i;
    EXPECT_EQ(pages[i].min, Value::Int(static_cast<int64_t>(i * 100)));
    EXPECT_EQ(pages[i].max, Value::Int(static_cast<int64_t>(i * 100 + 99)));
    EXPECT_EQ(pages[i].null_count, 0);
    rows += pages[i].num_rows;
    if (i > 0) {
      EXPECT_EQ(pages[i].offset,
                pages[i - 1].offset + pages[i - 1].total_bytes)
          << "pages must be contiguous within the chunk";
    }
  }
  EXPECT_EQ(rows, 1000u);
  // Page bytes tile the chunk's data region exactly.
  EXPECT_EQ(pages.back().offset + pages.back().total_bytes,
            columns[0].total_bytes - columns[0].dictionary_bytes +
                pages.front().offset);

  // And the file still round-trips bit-exactly.
  ScanSpec spec;
  spec.columns = {"id", "base"};
  ExpectPagesEqual(page, ReadAll(*bytes, spec));
}

TEST(LakeFilePagesTest, OldFormatSinglePageFilesStillRead) {
  // format_version=1 writes the old single-page layout; both readers must
  // keep accepting it (the page list is synthesized from the chunk meta).
  WriterOptions v1;
  v1.format_version = 1;
  v1.row_group_rows = 250;
  Page page = MakeTripsPage(0, 1000, 37);
  auto bytes = WriteLakeFile(TripsSchema(), {page}, v1);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  auto footer = ReadFooterFromFile(bytes->data(), bytes->size());
  ASSERT_TRUE(footer.ok());
  EXPECT_EQ(footer->version, 1u);
  for (const auto& group : footer->row_groups) {
    for (const auto& chunk : group.columns) {
      EXPECT_TRUE(chunk.pages.empty()) << "v1 chunks carry no page list";
    }
  }

  ScanSpec spec;
  spec.columns = {"id", "base"};
  auto reader = NativeLakeFileReader::Open(AsFile(*bytes), ReaderOptions());
  ASSERT_TRUE(reader.ok());
  std::vector<Page> out;
  while (true) {
    auto batch = (*reader)->NextBatch(spec);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch->has_value()) break;
    out.push_back(std::move(**batch));
  }
  size_t total = 0;
  for (const Page& p : out) total += p.num_rows();
  EXPECT_EQ(total, 1000u);
  // One synthesized page per chunk: 4 groups x 4 leaves.
  EXPECT_EQ((*reader)->stats().pages_total, 16);
  EXPECT_EQ((*reader)->stats().pages_read, 16);
  ExpectPagesEqual(page, ReadAll(*bytes, spec));

  auto legacy = LegacyLakeFileReader::Open(AsFile(*bytes));
  ASSERT_TRUE(legacy.ok());
  auto first = (*legacy)->NextBatch({"id", "base"});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ((*first)->num_rows(), 250u);

  // A selective scan on a v1 file works too — it just cannot skip pages.
  ScanSpec selective = spec;
  selective.predicates = {{"id", LeafPredicate::Op::kEq, {Value::Int(600)}}};
  auto hit = ReadAll(*bytes, selective);
  ASSERT_EQ(hit.num_rows(), 1u);
  EXPECT_EQ(hit.column(0)->GetValue(0), Value::Int(600));
}

TEST(LakeFilePagesTest, PageLevelSkippingPrunesPages) {
  // A single 1000-row group (so group-level stats cannot skip anything) with
  // 100-row pages; the needle lives in exactly one page of the filter chunk.
  WriterOptions options;
  options.row_group_rows = 1000;
  options.page_rows = 100;
  Page page = MakeTripsPage(0, 1000, 1000000);
  auto bytes = WriteLakeFile(TripsSchema(), {page}, options);
  ASSERT_TRUE(bytes.ok());

  ScanSpec spec;
  spec.columns = {"id", "base"};
  spec.predicates = {{"id", LeafPredicate::Op::kEq, {Value::Int(555)}}};

  auto reader = NativeLakeFileReader::Open(AsFile(*bytes), ReaderOptions());
  ASSERT_TRUE(reader.ok());
  auto batch = (*reader)->NextBatch(spec);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(batch->has_value());
  ASSERT_EQ((*batch)->num_rows(), 1u);
  EXPECT_EQ((*batch)->column(0)->GetValue(0), Value::Int(555));
  const ReaderStats& stats = (*reader)->stats();
  EXPECT_EQ(stats.row_groups_scanned, 1);
  // 9 of the filter column's 10 pages are excluded by page stats, and the
  // projected chunks only materialize the page holding row 555: id's page
  // is the one the filter already read, and each of the three base leaves
  // reads one page and skips nine.
  EXPECT_EQ(stats.pages_total, 40);
  EXPECT_EQ(stats.pages_skipped_stats, 9);
  EXPECT_EQ(stats.pages_read, 4);
  EXPECT_EQ(stats.pages_skipped_lazy, 27);
  EXPECT_GT(stats.rows_pruned_late, 0);

  // page_skipping off: identical rows, every filter page read.
  ReaderOptions no_skip;
  no_skip.page_skipping = false;
  auto slow = NativeLakeFileReader::Open(AsFile(*bytes), no_skip);
  ASSERT_TRUE(slow.ok());
  auto batch2 = (*slow)->NextBatch(spec);
  ASSERT_TRUE(batch2.ok());
  ASSERT_TRUE(batch2->has_value());
  ExpectPagesEqual(**batch, **batch2);
  EXPECT_EQ((*slow)->stats().pages_skipped_stats, 0);
  EXPECT_GT((*slow)->stats().pages_read, stats.pages_read);
}

// Two BIGINT columns, 1000 rows in one row group of 100-row pages; id == row.
std::vector<uint8_t> WriteIdValueFile() {
  TypePtr schema = Type::Row({"id", "v"}, {Type::Bigint(), Type::Bigint()});
  VectorBuilder id(Type::Bigint());
  VectorBuilder v(Type::Bigint());
  for (int64_t i = 0; i < 1000; ++i) {
    id.AppendBigint(i);
    v.AppendBigint(i * 7 % 1000);
  }
  WriterOptions options;
  options.row_group_rows = 1000;
  options.page_rows = 100;
  options.enable_dictionary = false;
  auto bytes = WriteLakeFile(schema, {Page({id.Build(), v.Build()})}, options);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return *bytes;
}

TEST(LakeFilePagesTest, FilterColumnAlsoProjectedIsReadOnce) {
  // The filter leaf is also projected: its surviving pages are read and
  // decompressed by the filter stage and reused by the projection stage.
  std::vector<uint8_t> bytes = WriteIdValueFile();
  auto scan = [&](std::vector<std::string> columns) {
    ScanSpec spec;
    spec.columns = std::move(columns);
    spec.predicates = {{"id", LeafPredicate::Op::kGe, {Value::Int(550)}}};
    auto reader = NativeLakeFileReader::Open(AsFile(bytes), ReaderOptions());
    EXPECT_TRUE(reader.ok());
    auto batch = (*reader)->NextBatch(spec);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_TRUE(batch->has_value());
    EXPECT_EQ((*batch)->num_rows(), 450u);
    ExpectPageLedgerBalances((*reader)->stats());
    return (*reader)->stats();
  };
  // id pages 0-4 are skipped by their stats and pages 5-9 read; v reads the
  // same five pages and skips the other five lazily.
  const ReaderStats v_only = scan({"v"});
  EXPECT_EQ(v_only.pages_total, 20);
  EXPECT_EQ(v_only.pages_read, 10);
  const ReaderStats both = scan({"id", "v"});
  EXPECT_EQ(both.pages_total, 20);
  EXPECT_EQ(both.pages_read, 10);
  EXPECT_EQ(both.pages_skipped_stats, 5);
  EXPECT_EQ(both.pages_skipped_lazy, 5);

  // Projecting id costs at most the bytes of its projected pages.
  auto footer = ReadFooterFromFile(bytes.data(), bytes.size());
  ASSERT_TRUE(footer.ok());
  const ColumnChunkMeta& id_chunk = footer->row_groups[0].columns[0];
  ASSERT_EQ(id_chunk.leaf_path, "id");
  int64_t id_projected_bytes = 0;
  for (size_t i = 5; i < id_chunk.pages.size(); ++i) {
    id_projected_bytes += static_cast<int64_t>(id_chunk.pages[i].total_bytes);
  }
  EXPECT_LE(both.bytes_read, v_only.bytes_read + id_projected_bytes);
}

TEST(LakeFilePagesTest, TamperedFooterPageMetadataIsCorruption) {
  // Footer page metadata is untrusted input: a page list that does not tile
  // the row group, an unrepeated page whose entries differ from its rows, a
  // repeated page whose row starts differ from its rows, or a row count past
  // what a selection vector can index must fail the scan with a classified
  // error and never produce rows.
  std::vector<uint8_t> bytes = WriteIdValueFile();
  auto parsed = ReadFooterFromFile(bytes.data(), bytes.size());
  ASSERT_TRUE(parsed.ok());
  auto expect_corruption = [&](const FileFooter& footer, const ScanSpec& spec) {
    auto reader = NativeLakeFileReader::Open(
        AsFile(bytes), ReaderOptions(), std::make_shared<const FileFooter>(footer));
    ASSERT_TRUE(reader.ok());
    auto batch = (*reader)->NextBatch(spec);
    ASSERT_FALSE(batch.ok()) << "tampered footer produced rows";
    EXPECT_EQ(batch.status().code(), StatusCode::kCorruption)
        << batch.status().ToString();
  };
  ScanSpec filtered;
  filtered.columns = {"id", "v"};
  filtered.predicates = {{"id", LeafPredicate::Op::kGe, {Value::Int(550)}}};
  ScanSpec plain;
  plain.columns = {"v"};

  FileFooter inflated = *parsed;
  inflated.row_groups[0].columns[0].pages[9].num_rows = 500;
  expect_corruption(inflated, filtered);
  FileFooter inflated_v = *parsed;
  inflated_v.row_groups[0].columns[1].pages[3].num_rows = 400;
  expect_corruption(inflated_v, plain);
  FileFooter entries = *parsed;
  entries.row_groups[0].columns[0].pages[2].num_entries = 150;
  expect_corruption(entries, filtered);
  FileFooter huge = *parsed;
  huge.row_groups[0].num_rows = uint64_t{1} << 32;
  expect_corruption(huge, plain);

  // A repeated leaf: move one row's start from page 1 into page 0 in the
  // footer only, so the pages still tile the group.
  TypePtr schema = Type::Row({"tags"}, {Type::Array(Type::Bigint())});
  VectorBuilder tags(schema->child(0));
  for (int64_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(tags.Append(Value::Array({Value::Int(i), Value::Int(-i)})).ok());
  }
  WriterOptions options;
  options.row_group_rows = 200;
  options.page_rows = 100;
  auto nested = WriteLakeFile(schema, {Page({tags.Build()})}, options);
  ASSERT_TRUE(nested.ok());
  bytes = *nested;
  parsed = ReadFooterFromFile(bytes.data(), bytes.size());
  ASSERT_TRUE(parsed.ok());
  FileFooter shifted = *parsed;
  auto& pages = shifted.row_groups[0].columns[0].pages;
  ASSERT_EQ(pages.size(), 2u);
  pages[0].num_rows += 1;
  pages[1].num_rows -= 1;
  pages[1].first_row += 1;
  ScanSpec all_tags;
  all_tags.columns = {"tags"};
  expect_corruption(shifted, all_tags);
  // Untampered, the same file reads back whole.
  EXPECT_EQ(ReadAll(bytes, all_tags).num_rows(), 200u);
}

TEST(LakeFilePagesTest, DictionaryCodePredicates) {
  // Low-cardinality status column: the predicate must be answered on
  // dictionary codes (a per-code bitmap), not materialized strings.
  TypePtr schema = Type::Row({"status", "id"}, {Type::Varchar(), Type::Bigint()});
  VectorBuilder status(Type::Varchar());
  VectorBuilder id(Type::Bigint());
  const char* kinds[] = {"done", "open", "canceled"};
  for (int i = 0; i < 900; ++i) {
    status.AppendString(kinds[i % 3]);
    id.AppendBigint(i);
  }
  Page page({status.Build(), id.Build()});
  auto bytes = WriteLakeFile(schema, {page});
  ASSERT_TRUE(bytes.ok());

  ScanSpec spec;
  spec.columns = {"status", "id"};
  spec.predicates = {{"status", LeafPredicate::Op::kEq, {Value::String("open")}}};
  auto reader = NativeLakeFileReader::Open(AsFile(*bytes), ReaderOptions());
  ASSERT_TRUE(reader.ok());
  auto batch = (*reader)->NextBatch(spec);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(batch->has_value());
  ASSERT_EQ((*batch)->num_rows(), 300u);
  for (size_t r = 0; r < (*batch)->num_rows(); ++r) {
    EXPECT_EQ((*batch)->column(0)->GetValue(r), Value::String("open"));
    EXPECT_EQ((*batch)->column(1)->GetValue(r).int_value(),
              static_cast<int64_t>(r) * 3 + 1);
  }
  // Every row of the filter chunk was answered on its dictionary code.
  EXPECT_EQ((*reader)->stats().dict_code_filter_hits, 900);

  // The same scan without lazy/vectorized features agrees.
  ReaderOptions plain;
  plain.lazy_reads = false;
  plain.vectorized = false;
  ExpectPagesEqual(**batch, ReadAll(*bytes, spec, plain));
}

TEST(LakeFilePagesTest, DifferentialLegacyVsLazyAcrossSelectivities) {
  // Randomized nested/null/dictionary data behind a sorted filter column.
  // The lazy native reader must agree with the legacy reader (filtered
  // row-by-row in the test) at every selectivity, and the selective cases
  // must actually skip pages.
  TypePtr schema = Type::Row(
      {"k", "base", "tags", "status"},
      {Type::Bigint(),
       Type::Row({"driver_uuid", "city_id"}, {Type::Varchar(), Type::Bigint()}),
       Type::Array(Type::Bigint()), Type::Varchar()});
  Random rng(2026);
  const size_t n = 2000;
  VectorBuilder k(Type::Bigint());
  VectorBuilder base(schema->child(1));
  VectorBuilder tags(schema->child(2));
  VectorBuilder status(Type::Varchar());
  const char* kinds[] = {"done", "open", "canceled"};
  for (size_t i = 0; i < n; ++i) {
    k.AppendBigint(static_cast<int64_t>(i));  // sorted: page stats are tight
    if (rng.NextBool(0.15)) {
      base.AppendNull();
    } else {
      Value driver = rng.NextBool(0.1) ? Value::Null()
                                       : Value::String(rng.NextString(6));
      Value city = rng.NextBool(0.1) ? Value::Null()
                                     : Value::Int(rng.NextInRange(0, 50));
      EXPECT_TRUE(base.Append(Value::Row({driver, city})).ok());
    }
    if (rng.NextBool(0.2)) {
      tags.AppendNull();
    } else {
      Value::RowData elems;
      size_t len = rng.NextBelow(4);
      for (size_t e = 0; e < len; ++e) {
        elems.push_back(rng.NextBool(0.1) ? Value::Null()
                                          : Value::Int(rng.NextInRange(0, 9)));
      }
      EXPECT_TRUE(tags.Append(Value::Array(std::move(elems))).ok());
    }
    status.AppendString(kinds[rng.NextBelow(3)]);
  }
  Page data({k.Build(), base.Build(), tags.Build(), status.Build()});

  WriterOptions options;
  options.row_group_rows = n;  // one group: only page-level skipping applies
  options.page_rows = 128;
  auto bytes = WriteLakeFile(schema, {data}, options);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  const std::vector<std::string> columns = {"k", "base", "tags", "status"};
  const double selectivities[] = {0.0, 0.01, 0.5, 1.0};
  for (double selectivity : selectivities) {
    int64_t threshold = static_cast<int64_t>(selectivity * n);
    ScanSpec spec;
    spec.columns = columns;
    spec.predicates = {{"k", LeafPredicate::Op::kLt, {Value::Int(threshold)}}};

    auto lazy = NativeLakeFileReader::Open(AsFile(*bytes), ReaderOptions());
    ASSERT_TRUE(lazy.ok());
    std::vector<Page> out;
    while (true) {
      auto batch = (*lazy)->NextBatch(spec);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      if (!batch->has_value()) break;
      out.push_back(std::move(**batch));
    }

    // Reference: the legacy reader materializes everything; the test applies
    // the predicate row by row (NULL never matches).
    auto legacy = LegacyLakeFileReader::Open(AsFile(*bytes));
    ASSERT_TRUE(legacy.ok());
    std::vector<Value> expected_rows;  // boxed ROW per matching row
    while (true) {
      auto batch = (*legacy)->NextBatch(columns);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      if (!batch->has_value()) break;
      for (size_t r = 0; r < (*batch)->num_rows(); ++r) {
        Value key = (*batch)->column(0)->GetValue(r);
        if (key.is_null() || key.int_value() >= threshold) continue;
        Value::RowData fields;
        for (size_t c = 0; c < (*batch)->num_columns(); ++c) {
          fields.push_back((*batch)->column(c)->GetValue(r));
        }
        expected_rows.push_back(Value::Row(std::move(fields)));
      }
    }

    size_t row = 0;
    for (const Page& p : out) {
      for (size_t r = 0; r < p.num_rows(); ++r, ++row) {
        ASSERT_LT(row, expected_rows.size()) << "selectivity " << selectivity;
        for (size_t c = 0; c < p.num_columns(); ++c) {
          EXPECT_TRUE(p.column(c)->GetValue(r).Equals(
              expected_rows[row].children()[c]))
              << "selectivity " << selectivity << " row " << row << " col " << c;
        }
      }
    }
    EXPECT_EQ(row, expected_rows.size()) << "selectivity " << selectivity;
    EXPECT_EQ(row, static_cast<size_t>(threshold));

    if (selectivity > 0.0 && selectivity < 0.5) {
      EXPECT_GT((*lazy)->stats().pages_skipped_stats, 0)
          << "selective scan must skip pages via page stats";
      EXPECT_GT((*lazy)->stats().rows_pruned_late, 0);
    }
    if (selectivity == 1.0) {
      EXPECT_EQ((*lazy)->stats().pages_skipped_stats, 0);
    }
  }
}

}  // namespace
}  // namespace lakefile
}  // namespace presto
