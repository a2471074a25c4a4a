#include "presto/lakefile/writer.h"

#include <algorithm>
#include <unordered_map>

namespace presto {
namespace lakefile {

namespace {

// Levels are RLE-encoded as (varint run_length, u8 value) pairs.

// Level/value encoders work on subranges so one chunk can emit several
// pages, each covering a row slice of the buffered column.
void EncodeLevels(const uint8_t* levels, size_t count, ByteBuffer* out) {
  size_t i = 0;
  while (i < count) {
    size_t j = i + 1;
    while (j < count && levels[j] == levels[i]) ++j;
    out->PutVarint(j - i);
    out->PutU8(levels[i]);
    i = j;
  }
}

void EncodePlainInts(const int64_t* values, size_t count, ByteBuffer* out) {
  out->PutRaw(values, count * sizeof(int64_t));
}

void EncodePlainDoubles(const double* values, size_t count, ByteBuffer* out) {
  out->PutRaw(values, count * sizeof(double));
}

void EncodePlainBools(const uint8_t* values, size_t count, ByteBuffer* out) {
  out->PutRaw(values, count);
}

void EncodePlainStrings(const std::string* values, size_t count,
                        ByteBuffer* out) {
  for (size_t i = 0; i < count; ++i) out->PutString(values[i]);
}

struct DictionaryPlan {
  bool use_dictionary = false;
  std::vector<uint32_t> indices;
  std::vector<int64_t> int_dict;
  std::vector<std::string> string_dict;
};

DictionaryPlan PlanIntDictionary(const std::vector<int64_t>& values,
                                 uint32_t max_cardinality) {
  DictionaryPlan plan;
  std::unordered_map<int64_t, uint32_t> index;
  plan.indices.reserve(values.size());
  for (int64_t v : values) {
    auto [it, inserted] = index.emplace(v, static_cast<uint32_t>(plan.int_dict.size()));
    if (inserted) {
      if (plan.int_dict.size() >= max_cardinality) return DictionaryPlan{};
      plan.int_dict.push_back(v);
    }
    plan.indices.push_back(it->second);
  }
  plan.use_dictionary = !values.empty() && plan.int_dict.size() * 2 < values.size();
  return plan;
}

DictionaryPlan PlanStringDictionary(const std::vector<std::string>& values,
                                    uint32_t max_cardinality) {
  DictionaryPlan plan;
  std::unordered_map<std::string, uint32_t> index;
  plan.indices.reserve(values.size());
  for (const std::string& v : values) {
    auto [it, inserted] =
        index.emplace(v, static_cast<uint32_t>(plan.string_dict.size()));
    if (inserted) {
      if (plan.string_dict.size() >= max_cardinality) return DictionaryPlan{};
      plan.string_dict.push_back(v);
    }
    plan.indices.push_back(it->second);
  }
  plan.use_dictionary =
      !values.empty() && plan.string_dict.size() * 2 < values.size();
  return plan;
}

void EncodeIndices(const uint32_t* indices, size_t count, ByteBuffer* out) {
  for (size_t i = 0; i < count; ++i) out->PutVarint(indices[i]);
}

// Writes one page: header (uncompressed) + compressed body.
void EmitPage(uint32_t num_entries, const ByteBuffer& rep, const ByteBuffer& def,
              const ByteBuffer& values, CompressionKind compression,
              ByteBuffer* file) {
  ByteBuffer body;
  body.Reserve(rep.size() + def.size() + values.size());
  body.PutRaw(rep.data(), rep.size());
  body.PutRaw(def.data(), def.size());
  body.PutRaw(values.data(), values.size());
  std::vector<uint8_t> compressed =
      Compress(compression, body.data(), body.size());
  PageHeader header;
  header.num_entries = num_entries;
  header.rep_bytes = static_cast<uint32_t>(rep.size());
  header.def_bytes = static_cast<uint32_t>(def.size());
  header.value_bytes = static_cast<uint32_t>(values.size());
  header.compressed_bytes = static_cast<uint32_t>(compressed.size());
  SerializePageHeader(header, file);
  file->PutRaw(compressed.data(), compressed.size());
}

// Computes min/max over a value subrange [first, first + count) of the leaf
// buffer; leaves `has_stats` false for repeated leaves, booleans, and empty
// ranges (same rules at chunk and page granularity).
template <typename Meta>
void FillMinMax(const Leaf& leaf, const LeafBuffer& buffer, size_t first,
                size_t count, Meta* meta) {
  if (leaf.max_rep != 0 || count == 0) return;
  switch (leaf.type->kind()) {
    case TypeKind::kDouble: {
      auto [lo, hi] = std::minmax_element(buffer.doubles.begin() + first,
                                          buffer.doubles.begin() + first + count);
      meta->min = Value::Double(*lo);
      meta->max = Value::Double(*hi);
      meta->has_stats = true;
      return;
    }
    case TypeKind::kVarchar: {
      auto [lo, hi] = std::minmax_element(buffer.strings.begin() + first,
                                          buffer.strings.begin() + first + count);
      meta->min = Value::String(*lo);
      meta->max = Value::String(*hi);
      meta->has_stats = true;
      return;
    }
    case TypeKind::kBoolean:
      return;  // no useful min/max
    default: {
      auto [lo, hi] = std::minmax_element(buffer.ints.begin() + first,
                                          buffer.ints.begin() + first + count);
      meta->min = Value::Int(*lo);
      meta->max = Value::Int(*hi);
      meta->has_stats = true;
      return;
    }
  }
}

// Dictionary encoding is tried for integer and string leaves.
DictionaryPlan PlanDictionary(const Leaf& leaf, const LeafBuffer& buffer,
                              const WriterOptions& options) {
  if (!options.enable_dictionary) return DictionaryPlan();
  switch (leaf.type->kind()) {
    case TypeKind::kVarchar:
      return PlanStringDictionary(buffer.strings,
                                  options.dictionary_max_cardinality);
    case TypeKind::kDouble:
    case TypeKind::kBoolean:
      return DictionaryPlan();
    default:
      return PlanIntDictionary(buffer.ints, options.dictionary_max_cardinality);
  }
}

// Dictionary page: PLAIN-encoded distinct values, shared by the chunk's
// data pages.
void EmitDictionaryPage(const Leaf& leaf, const DictionaryPlan& plan,
                        const WriterOptions& options, ByteBuffer* file,
                        ColumnChunkMeta* meta) {
  meta->encoding = PageEncoding::kDictionary;
  meta->dictionary_offset = file->size();
  ByteBuffer dict_values;
  uint32_t cardinality;
  if (leaf.type->kind() == TypeKind::kVarchar) {
    EncodePlainStrings(plan.string_dict.data(), plan.string_dict.size(),
                       &dict_values);
    cardinality = static_cast<uint32_t>(plan.string_dict.size());
  } else {
    EncodePlainInts(plan.int_dict.data(), plan.int_dict.size(), &dict_values);
    cardinality = static_cast<uint32_t>(plan.int_dict.size());
  }
  meta->dictionary_cardinality = cardinality;
  ByteBuffer empty;
  EmitPage(cardinality, empty, empty, dict_values, options.compression, file);
  meta->dictionary_bytes = file->size() - meta->dictionary_offset;
}

// Encodes `count` values starting at `first_value`: dictionary indices, or
// PLAIN values of the leaf's kind.
void EncodePageValues(const Leaf& leaf, const LeafBuffer& buffer,
                      const DictionaryPlan& plan, size_t first_value,
                      size_t count, ByteBuffer* values) {
  if (plan.use_dictionary) {
    EncodeIndices(plan.indices.data() + first_value, count, values);
    return;
  }
  switch (leaf.type->kind()) {
    case TypeKind::kBoolean:
      EncodePlainBools(buffer.bools.data() + first_value, count, values);
      break;
    case TypeKind::kDouble:
      EncodePlainDoubles(buffer.doubles.data() + first_value, count, values);
      break;
    case TypeKind::kVarchar:
      EncodePlainStrings(buffer.strings.data() + first_value, count, values);
      break;
    default:
      EncodePlainInts(buffer.ints.data() + first_value, count, values);
      break;
  }
}

// Encodes one column chunk (optional dictionary page + data pages) into
// `file`, returning its metadata. At format v2 the chunk is split into
// ~page_rows-row pages at row boundaries, each with its own footer stats so
// readers can skip page ranges; v1 keeps the old single-page layout. The
// dictionary (when used) spans the whole chunk — pages share it.
ColumnChunkMeta EncodeChunk(const Leaf& leaf, const LeafBuffer& buffer,
                            const WriterOptions& options, ByteBuffer* file) {
  ColumnChunkMeta meta;
  meta.leaf_path = leaf.path;
  meta.offset = file->size();
  meta.num_entries = buffer.num_entries();
  meta.num_values = buffer.num_values(leaf);
  meta.null_count =
      static_cast<int64_t>(buffer.num_entries() - buffer.num_values(leaf));
  FillMinMax(leaf, buffer, 0, buffer.num_values(leaf), &meta);

  const DictionaryPlan plan = PlanDictionary(leaf, buffer, options);
  if (plan.use_dictionary) {
    EmitDictionaryPage(leaf, plan, options, file, &meta);
  } else {
    meta.encoding = PageEncoding::kPlain;
  }

  // Entry index of every row start (an entry starts a row iff the leaf is
  // unrepeated or its repetition level is 0).
  const size_t total_entries = buffer.num_entries();
  std::vector<size_t> row_starts;
  if (leaf.max_rep == 0) {
    row_starts.resize(total_entries);
    for (size_t e = 0; e < total_entries; ++e) row_starts[e] = e;
  } else {
    for (size_t e = 0; e < total_entries; ++e) {
      if (buffer.rep[e] == 0) row_starts.push_back(e);
    }
  }
  const size_t total_rows = row_starts.size();
  const size_t rows_per_page =
      options.format_version >= 2 && options.page_rows > 0
          ? options.page_rows
          : (total_rows == 0 ? 1 : total_rows);

  size_t value_cursor = 0;
  for (size_t row = 0; row < total_rows; row += rows_per_page) {
    const size_t page_num_rows = std::min(rows_per_page, total_rows - row);
    const size_t first_entry = row_starts[row];
    const size_t end_entry = row + page_num_rows < total_rows
                                 ? row_starts[row + page_num_rows]
                                 : total_entries;
    const size_t page_entries = end_entry - first_entry;
    const size_t first_value = value_cursor;
    for (size_t e = first_entry; e < end_entry; ++e) {
      if (buffer.def[e] == leaf.max_def) ++value_cursor;
    }
    const size_t page_values = value_cursor - first_value;

    ByteBuffer rep, def;
    if (leaf.max_rep > 0) {
      EncodeLevels(buffer.rep.data() + first_entry, page_entries, &rep);
    }
    EncodeLevels(buffer.def.data() + first_entry, page_entries, &def);

    ByteBuffer values;
    EncodePageValues(leaf, buffer, plan, first_value, page_values, &values);

    DataPageMeta page_meta;
    page_meta.offset = file->size() - meta.offset;
    page_meta.num_entries = page_entries;
    page_meta.num_rows = page_num_rows;
    page_meta.first_row = row;
    page_meta.null_count = static_cast<int64_t>(page_entries - page_values);
    FillMinMax(leaf, buffer, first_value, page_values, &page_meta);
    EmitPage(static_cast<uint32_t>(page_entries), rep, def, values,
             options.compression, file);
    page_meta.total_bytes = file->size() - meta.offset - page_meta.offset;
    if (options.format_version >= 2) meta.pages.push_back(std::move(page_meta));
  }
  meta.total_bytes = file->size() - meta.offset;
  return meta;
}

}  // namespace

LakeFileWriter::LakeFileWriter(TypePtr schema, std::vector<Leaf> leaves,
                               WriterOptions options, WriterMode mode)
    : schema_(std::move(schema)),
      leaves_(std::move(leaves)),
      options_(options),
      mode_(mode),
      buffers_(leaves_.size()) {
  file_.PutRaw(kMagic, kMagicLen);
}

Result<std::unique_ptr<LakeFileWriter>> LakeFileWriter::Create(
    TypePtr schema, WriterOptions options, WriterMode mode) {
  if (schema == nullptr || schema->kind() != TypeKind::kRow) {
    return Status::InvalidArgument("lakefile schema must be a ROW type");
  }
  ASSIGN_OR_RETURN(std::vector<Leaf> leaves, EnumerateLeaves(*schema));
  if (options.row_group_rows == 0) {
    return Status::InvalidArgument("row_group_rows must be positive");
  }
  if (options.format_version < kMinFormatVersion ||
      options.format_version > kFormatVersion) {
    return Status::InvalidArgument("unsupported lakefile format version " +
                                   std::to_string(options.format_version));
  }
  return std::unique_ptr<LakeFileWriter>(new LakeFileWriter(
      std::move(schema), std::move(leaves), options, mode));
}

Status LakeFileWriter::Append(const Page& page) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (page.num_columns() != schema_->NumChildren()) {
    return Status::InvalidArgument("page column count does not match schema");
  }
  // Keep row groups bounded: split oversized pages at group boundaries.
  if (rows_in_group_ + page.num_rows() > options_.row_group_rows) {
    size_t pos = 0;
    while (pos < page.num_rows()) {
      size_t capacity = options_.row_group_rows - rows_in_group_;
      size_t take = std::min(capacity, page.num_rows() - pos);
      std::vector<int32_t> rows(take);
      for (size_t i = 0; i < take; ++i) {
        rows[i] = static_cast<int32_t>(pos + i);
      }
      RETURN_IF_ERROR(Append(page.SliceRows(rows)));
      pos += take;
    }
    return Status::OK();
  }
  if (mode_ == WriterMode::kNative) {
    // Native path: shred each top-level vector column-wise, straight from
    // the in-memory columnar representation.
    size_t leaf_base = 0;
    for (size_t c = 0; c < page.num_columns(); ++c) {
      ASSIGN_OR_RETURN(std::vector<Leaf> field_leaves,
                       EnumerateFieldLeaves(schema_->field_name(c),
                                            schema_->child(c)));
      RETURN_IF_ERROR(ShredVector(leaves_.data() + leaf_base,
                                  field_leaves.size(), schema_->child(c),
                                  page.column(c), buffers_.data() + leaf_base));
      leaf_base += field_leaves.size();
    }
  } else {
    // Legacy path: reconstruct every record from the columnar page, then
    // consume it value-by-value (the overhead the native writer removes).
    TypePtr record_type = schema_;
    for (size_t r = 0; r < page.num_rows(); ++r) {
      Value record = Value::Row(page.GetRow(r));
      RETURN_IF_ERROR(ShredRecord(leaves_.data(), leaves_.size(), record_type,
                                  record, buffers_.data()));
    }
  }
  rows_in_group_ += page.num_rows();
  total_rows_ += page.num_rows();
  if (rows_in_group_ >= options_.row_group_rows) {
    RETURN_IF_ERROR(FlushRowGroup());
  }
  return Status::OK();
}

Status LakeFileWriter::FlushRowGroup() {
  if (rows_in_group_ == 0) return Status::OK();
  RowGroupMeta group;
  group.num_rows = rows_in_group_;
  for (size_t i = 0; i < leaves_.size(); ++i) {
    group.columns.push_back(
        EncodeChunk(leaves_[i], buffers_[i], options_, &file_));
    buffers_[i].Clear();
  }
  row_groups_.push_back(std::move(group));
  rows_in_group_ = 0;
  return Status::OK();
}

Result<std::vector<uint8_t>> LakeFileWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  RETURN_IF_ERROR(FlushRowGroup());
  finished_ = true;
  FileFooter footer;
  footer.version = options_.format_version;
  footer.schema = schema_;
  footer.compression = options_.compression;
  footer.num_rows = total_rows_;
  footer.row_groups = std::move(row_groups_);
  ByteBuffer footer_bytes;
  SerializeFooter(footer, &footer_bytes);
  uint32_t footer_len = static_cast<uint32_t>(footer_bytes.size());
  file_.PutRaw(footer_bytes.data(), footer_bytes.size());
  file_.PutU32(footer_len);
  file_.PutRaw(kMagic, kMagicLen);
  return std::move(file_.bytes());
}

Result<std::vector<uint8_t>> WriteLakeFile(const TypePtr& schema,
                                           const std::vector<Page>& pages,
                                           WriterOptions options,
                                           WriterMode mode) {
  ASSIGN_OR_RETURN(std::unique_ptr<LakeFileWriter> writer,
                   LakeFileWriter::Create(schema, options, mode));
  for (const Page& page : pages) {
    RETURN_IF_ERROR(writer->Append(page));
  }
  return writer->Finish();
}

}  // namespace lakefile
}  // namespace presto
