#include "presto/vector/vector.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "presto/vector/vector_builder.h"

namespace presto {

namespace {

[[noreturn]] void FatalVectorError(const char* what) {
  std::fprintf(stderr, "fatal vector error: %s\n", what);
  std::abort();
}

std::vector<uint8_t> GatherNulls(const std::vector<int32_t>& rows,
                                 const Vector& v) {
  std::vector<uint8_t> nulls;
  if (!v.MayHaveNulls()) return nulls;
  bool any = false;
  nulls.resize(rows.size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (v.IsNull(rows[i])) {
      nulls[i] = 1;
      any = true;
    }
  }
  if (!any) nulls.clear();
  return nulls;
}

}  // namespace

void Vector::HashBatch(uint64_t* out, bool combine) const {
  for (size_t i = 0; i < size_; ++i) {
    uint64_t h = HashAt(i);
    out[i] = combine ? HashCombine(out[i], h) : h;
  }
}

int64_t Vector::EstimateBytes() const {
  // Conservative default for encodings without a tighter override.
  return static_cast<int64_t>(size_) * 8;
}

// -- FlatVector ---------------------------------------------------------------

template <>
Value FlatVector<uint8_t>::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  return Value::Bool(values_[row] != 0);
}

template <>
Value FlatVector<int64_t>::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  return Value::Int(values_[row]);
}

template <>
Value FlatVector<double>::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  return Value::Double(values_[row]);
}

template <>
Value FlatVector<std::string>::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  return Value::String(values_[row]);
}

template <typename T>
uint64_t FlatVector<T>::HashAt(size_t row) const {
  if (IsNull(row)) return 0x5c5c5c5c5c5c5c5cULL;
  if constexpr (std::is_same_v<T, std::string>) {
    return HashString(values_[row]);
  } else if constexpr (std::is_same_v<T, double>) {
    // -0.0 hashes like 0.0 and every NaN payload like one NaN: both are
    // one group key.
    double d = values_[row] == 0.0 ? 0.0 : values_[row];
    if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(d));
    return HashMix64(bits);
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    return HashMix64(values_[row] != 0 ? 1 : 2);
  } else {
    return HashMix64(static_cast<uint64_t>(values_[row]));
  }
}

template <typename T>
void FlatVector<T>::HashBatch(uint64_t* out, bool combine) const {
  // Single virtual call per column; the row loop below compiles to a tight
  // type-specialized kernel with no dispatch.
  for (size_t i = 0; i < size_; ++i) {
    uint64_t h = HashAt(i);  // non-virtual: resolved statically in this TU
    out[i] = combine ? HashCombine(out[i], h) : h;
  }
}

template <typename T>
int FlatVector<T>::CompareAt(size_t row, const Vector& other,
                             size_t other_row) const {
  bool null_a = IsNull(row);
  bool null_b = other.IsNull(other_row);
  if (null_a || null_b) {
    if (null_a && null_b) return 0;
    return null_a ? -1 : 1;
  }
  if (const auto* flat = dynamic_cast<const FlatVector<T>*>(&other)) {
    const T& a = values_[row];
    const T& b = flat->values_[other_row];
    if constexpr (std::is_same_v<T, std::string>) {
      return a.compare(b);
    } else {
      if (a < b) return -1;
      if (b < a) return 1;
      return 0;
    }
  }
  return GetValue(row).Compare(other.GetValue(other_row));
}

template <typename T>
VectorPtr FlatVector<T>::Slice(const std::vector<int32_t>& rows) const {
  std::vector<T> values;
  values.reserve(rows.size());
  for (int32_t r : rows) values.push_back(values_[r]);
  return std::make_shared<FlatVector<T>>(type_, std::move(values),
                                         GatherNulls(rows, *this));
}

template <typename T>
int64_t FlatVector<T>::EstimateBytes() const {
  int64_t bytes = static_cast<int64_t>(nulls_.size());
  if constexpr (std::is_same_v<T, std::string>) {
    for (const std::string& s : values_) {
      bytes += static_cast<int64_t>(s.size()) + sizeof(std::string);
    }
  } else {
    bytes += static_cast<int64_t>(values_.size()) * sizeof(T);
  }
  return bytes;
}

template class FlatVector<uint8_t>;
template class FlatVector<int64_t>;
template class FlatVector<double>;
template class FlatVector<std::string>;

// -- RowVector ----------------------------------------------------------------

Value RowVector::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  Value::RowData fields;
  fields.reserve(children_.size());
  for (const VectorPtr& child : children_) {
    fields.push_back(child->GetValue(row));
  }
  return Value::Row(std::move(fields));
}

VectorPtr RowVector::Slice(const std::vector<int32_t>& rows) const {
  std::vector<VectorPtr> children;
  children.reserve(children_.size());
  for (const VectorPtr& child : children_) {
    children.push_back(child->Slice(rows));
  }
  return std::make_shared<RowVector>(type_, rows.size(), std::move(children),
                                     GatherNulls(rows, *this));
}

int64_t RowVector::EstimateBytes() const {
  int64_t bytes = static_cast<int64_t>(nulls_.size());
  for (const VectorPtr& child : children_) bytes += child->EstimateBytes();
  return bytes;
}

// -- ArrayVector --------------------------------------------------------------

Value ArrayVector::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  Value::RowData elems;
  elems.reserve(lengths_[row]);
  for (int32_t i = 0; i < lengths_[row]; ++i) {
    elems.push_back(elements_->GetValue(offsets_[row] + i));
  }
  return Value::Array(std::move(elems));
}

VectorPtr ArrayVector::Slice(const std::vector<int32_t>& rows) const {
  std::vector<int32_t> offsets, lengths, element_rows;
  offsets.reserve(rows.size());
  lengths.reserve(rows.size());
  int32_t next = 0;
  for (int32_t r : rows) {
    offsets.push_back(next);
    lengths.push_back(lengths_[r]);
    next += lengths_[r];
    for (int32_t i = 0; i < lengths_[r]; ++i) {
      element_rows.push_back(offsets_[r] + i);
    }
  }
  return std::make_shared<ArrayVector>(type_, std::move(offsets),
                                       std::move(lengths),
                                       elements_->Slice(element_rows),
                                       GatherNulls(rows, *this));
}

int64_t ArrayVector::EstimateBytes() const {
  return static_cast<int64_t>(nulls_.size()) +
         static_cast<int64_t>(offsets_.size() + lengths_.size()) *
             sizeof(int32_t) +
         elements_->EstimateBytes();
}

// -- MapVector ----------------------------------------------------------------

Value MapVector::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  Value::MapData entries;
  entries.reserve(lengths_[row]);
  for (int32_t i = 0; i < lengths_[row]; ++i) {
    entries.emplace_back(keys_->GetValue(offsets_[row] + i),
                         values_->GetValue(offsets_[row] + i));
  }
  return Value::Map(std::move(entries));
}

VectorPtr MapVector::Slice(const std::vector<int32_t>& rows) const {
  std::vector<int32_t> offsets, lengths, entry_rows;
  offsets.reserve(rows.size());
  lengths.reserve(rows.size());
  int32_t next = 0;
  for (int32_t r : rows) {
    offsets.push_back(next);
    lengths.push_back(lengths_[r]);
    next += lengths_[r];
    for (int32_t i = 0; i < lengths_[r]; ++i) {
      entry_rows.push_back(offsets_[r] + i);
    }
  }
  return std::make_shared<MapVector>(
      type_, std::move(offsets), std::move(lengths), keys_->Slice(entry_rows),
      values_->Slice(entry_rows), GatherNulls(rows, *this));
}

int64_t MapVector::EstimateBytes() const {
  return static_cast<int64_t>(nulls_.size()) +
         static_cast<int64_t>(offsets_.size() + lengths_.size()) *
             sizeof(int32_t) +
         keys_->EstimateBytes() + values_->EstimateBytes();
}

// -- DictionaryVector ---------------------------------------------------------

namespace {

template <typename T>
void HashFlatRows(const FlatVector<T>& base, const std::vector<int32_t>& rows,
                  uint64_t* out) {
  // FlatVector is final: HashAt binds statically, one tight loop.
  for (size_t i = 0; i < rows.size(); ++i) out[i] = base.HashAt(rows[i]);
}

// out[i] = base.HashAt(rows[i]), statically typed for flat scalar bases.
void HashBaseRows(const Vector& base, const std::vector<int32_t>& rows,
                  uint64_t* out) {
  if (base.encoding() == VectorEncoding::kFlat) {
    switch (base.type()->kind()) {
      case TypeKind::kBoolean:
        return HashFlatRows(static_cast<const BoolVector&>(base), rows, out);
      case TypeKind::kInteger:
      case TypeKind::kBigint:
      case TypeKind::kTimestamp:
        return HashFlatRows(static_cast<const Int64Vector&>(base), rows, out);
      case TypeKind::kDouble:
        return HashFlatRows(static_cast<const DoubleVector&>(base), rows, out);
      case TypeKind::kVarchar:
        return HashFlatRows(static_cast<const StringVector&>(base), rows, out);
      default:
        break;
    }
  }
  for (size_t i = 0; i < rows.size(); ++i) out[i] = base.HashAt(rows[i]);
}

}  // namespace

void DictionaryVector::HashBatch(uint64_t* out, bool combine) const {
  // Hash only the rows the dictionary selects, gathered through its indices:
  // the work follows the dictionary's rows, not its base's (a filter's
  // survivors or an exchange slice select a fraction of a shared base).
  std::vector<uint64_t> hashes(size_);
  HashBaseRows(*base_, indices_, hashes.data());
  const bool may_have_nulls = MayHaveNulls();
  const uint64_t null_hash = Value::Null().Hash();
  for (size_t i = 0; i < size_; ++i) {
    uint64_t h = may_have_nulls && IsNull(i) ? null_hash : hashes[i];
    out[i] = combine ? HashCombine(out[i], h) : h;
  }
}

int DictionaryVector::CompareAt(size_t row, const Vector& other,
                                size_t other_row) const {
  bool null_a = IsNull(row);
  bool null_b = other.IsNull(other_row);
  if (null_a || null_b) {
    if (null_a && null_b) return 0;
    return null_a ? -1 : 1;
  }
  return base_->CompareAt(indices_[row], other, other_row);
}

VectorPtr DictionaryVector::Slice(const std::vector<int32_t>& rows) const {
  std::vector<int32_t> indices;
  indices.reserve(rows.size());
  if (!MayHaveNulls()) {
    for (int32_t r : rows) indices.push_back(indices_[r]);
    return std::make_shared<DictionaryVector>(base_, std::move(indices));
  }
  for (int32_t r : rows) indices.push_back(IsNull(r) ? 0 : indices_[r]);
  return std::make_shared<DictionaryVector>(base_, std::move(indices),
                                            GatherNulls(rows, *this));
}

int64_t DictionaryVector::EstimateBytes() const {
  return static_cast<int64_t>(nulls_.size()) +
         static_cast<int64_t>(indices_.size()) * sizeof(int32_t) +
         base_->EstimateBytes();
}

// -- LazyVector ---------------------------------------------------------------

Result<VectorPtr> LazyVector::Load() const {
  if (loaded_ != nullptr) return loaded_;
  std::vector<int32_t> all(size_);
  for (size_t i = 0; i < size_; ++i) all[i] = static_cast<int32_t>(i);
  ASSIGN_OR_RETURN(loaded_, loader_(all));
  return loaded_;
}

Result<VectorPtr> LazyVector::LoadForRows(const std::vector<int32_t>& rows) const {
  if (loaded_ != nullptr) return loaded_->Slice(rows);
  return loader_(rows);
}

bool LazyVector::IsNull(size_t row) const {
  auto loaded = Load();
  if (!loaded.ok()) FatalVectorError("lazy vector load failed in IsNull");
  return loaded.value()->IsNull(row);
}

Value LazyVector::GetValue(size_t row) const {
  auto loaded = Load();
  if (!loaded.ok()) FatalVectorError("lazy vector load failed in GetValue");
  return loaded.value()->GetValue(row);
}

VectorPtr LazyVector::Slice(const std::vector<int32_t>& rows) const {
  auto sliced = LoadForRows(rows);
  if (!sliced.ok()) FatalVectorError("lazy vector load failed in Slice");
  return sliced.value();
}

int64_t LazyVector::EstimateBytes() const {
  // Unloaded lazy columns have no materialized payload yet; counting them
  // would charge bytes the lazy-read optimization specifically avoids.
  return loaded_ == nullptr ? 0 : loaded_->EstimateBytes();
}

// -- Flatten ------------------------------------------------------------------

Result<VectorPtr> Vector::Flatten(const VectorPtr& vector) {
  switch (vector->encoding()) {
    case VectorEncoding::kFlat:
      return vector;
    case VectorEncoding::kLazy: {
      const auto* lazy = static_cast<const LazyVector*>(vector.get());
      ASSIGN_OR_RETURN(VectorPtr loaded, lazy->Load());
      return Flatten(loaded);
    }
    case VectorEncoding::kDictionary: {
      const auto* dict = static_cast<const DictionaryVector*>(vector.get());
      ASSIGN_OR_RETURN(VectorPtr base, Flatten(dict->base()));
      if (!dict->MayHaveNulls()) return base->Slice(dict->indices());
      // Gather base rows; null rows of the dictionary map to base row 0 and
      // are re-marked null afterwards.
      std::vector<int32_t> rows(dict->size());
      std::vector<int32_t> null_rows;
      for (size_t i = 0; i < dict->size(); ++i) {
        if (dict->IsNull(i)) {
          rows[i] = 0;
          null_rows.push_back(static_cast<int32_t>(i));
        } else {
          rows[i] = dict->IndexAt(i);
        }
      }
      if (base->size() == 0 && !rows.empty()) {
        return MakeAllNullVector(vector->type(), dict->size());
      }
      VectorPtr flat = base->Slice(rows);
      if (null_rows.empty()) return flat;
      // Re-apply nulls by rebuilding through a builder (rare path).
      VectorBuilder builder(vector->type());
      size_t next_null = 0;
      for (size_t i = 0; i < flat->size(); ++i) {
        if (next_null < null_rows.size() &&
            null_rows[next_null] == static_cast<int32_t>(i)) {
          builder.AppendNull();
          ++next_null;
        } else {
          RETURN_IF_ERROR(builder.Append(flat->GetValue(i)));
        }
      }
      return builder.Build();
    }
  }
  return Status::Internal("unknown vector encoding");
}

std::string Vector::ToString(size_t max_rows) const {
  std::string out = "[";
  size_t n = std::min(size_, max_rows);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    out += GetValue(i).ToString();
  }
  if (n < size_) out += ", …";
  out += "]";
  return out;
}

// -- Convenience constructors -------------------------------------------------

VectorPtr MakeBigintVector(std::vector<int64_t> values) {
  return std::make_shared<Int64Vector>(Type::Bigint(), std::move(values),
                                       std::vector<uint8_t>{});
}

VectorPtr MakeDoubleVector(std::vector<double> values) {
  return std::make_shared<DoubleVector>(Type::Double(), std::move(values),
                                        std::vector<uint8_t>{});
}

VectorPtr MakeVarcharVector(std::vector<std::string> values) {
  return std::make_shared<StringVector>(Type::Varchar(), std::move(values),
                                        std::vector<uint8_t>{});
}

VectorPtr MakeBooleanVector(std::vector<uint8_t> values) {
  return std::make_shared<BoolVector>(Type::Boolean(), std::move(values),
                                      std::vector<uint8_t>{});
}

Result<VectorPtr> MakeAllNullVector(const TypePtr& type, size_t size) {
  VectorBuilder builder(type);
  for (size_t i = 0; i < size; ++i) builder.AppendNull();
  return builder.Build();
}

}  // namespace presto
