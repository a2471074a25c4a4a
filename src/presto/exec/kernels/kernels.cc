#include "presto/exec/kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "presto/vector/vector_builder.h"

namespace presto {
namespace kernels {

namespace {

// Normalizes a double key slot: -0.0 folds to 0.0 so it groups/joins with
// 0.0, and every NaN payload folds to one NaN, matching FlatVector::HashAt
// and Value::Hash.
inline uint64_t NormalizeDouble(double d) {
  if (d == 0.0) d = 0.0;
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(d));
  return bits;
}

inline size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Column preparation and decoding
// ---------------------------------------------------------------------------

Result<VectorPtr> PrepareColumn(const VectorPtr& vector) {
  switch (vector->encoding()) {
    case VectorEncoding::kFlat:
      return vector;
    case VectorEncoding::kLazy: {
      const auto* lazy = static_cast<const LazyVector*>(vector.get());
      ASSIGN_OR_RETURN(VectorPtr loaded, lazy->Load());
      return PrepareColumn(loaded);
    }
    case VectorEncoding::kDictionary: {
      const auto* dict = static_cast<const DictionaryVector*>(vector.get());
      if (dict->base()->encoding() == VectorEncoding::kFlat) return vector;
      // Dictionary over dictionary/lazy: rare, flatten to a simple shape.
      return Vector::Flatten(vector);
    }
  }
  return Status::Internal("unknown vector encoding");
}

namespace {

template <typename T>
constexpr bool KindMatches(TypeKind kind) {
  if constexpr (std::is_same_v<T, uint8_t>) {
    return kind == TypeKind::kBoolean;
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return IsIntegerLike(kind);
  } else if constexpr (std::is_same_v<T, double>) {
    return kind == TypeKind::kDouble;
  } else {
    return kind == TypeKind::kVarchar;
  }
}

}  // namespace

template <typename T>
bool TryDecode(const Vector& vector, TypedColumn<T>* out) {
  *out = TypedColumn<T>();
  if (vector.encoding() == VectorEncoding::kFlat) {
    if (!KindMatches<T>(vector.type()->kind())) return false;
    const auto& flat = static_cast<const FlatVector<T>&>(vector);
    out->values = flat.values().data();
    out->base_nulls = flat.raw_nulls();
    return true;
  }
  if (vector.encoding() == VectorEncoding::kDictionary) {
    const auto& dict = static_cast<const DictionaryVector&>(vector);
    if (dict.base()->encoding() != VectorEncoding::kFlat) return false;
    if (!KindMatches<T>(dict.base()->type()->kind())) return false;
    const auto& base = static_cast<const FlatVector<T>&>(*dict.base());
    out->values = base.values().data();
    out->base_nulls = base.raw_nulls();
    out->indices = dict.indices().data();
    out->top_nulls = dict.raw_nulls();
    return true;
  }
  return false;
}

template bool TryDecode<uint8_t>(const Vector&, TypedColumn<uint8_t>*);
template bool TryDecode<int64_t>(const Vector&, TypedColumn<int64_t>*);
template bool TryDecode<double>(const Vector&, TypedColumn<double>*);
template bool TryDecode<std::string>(const Vector&, TypedColumn<std::string>*);

void CollectNullFlags(const Vector& vector, std::vector<uint8_t>* out) {
  size_t n = vector.size();
  out->assign(n, 0);
  if (vector.encoding() == VectorEncoding::kFlat &&
      vector.type()->IsScalar()) {
    const uint8_t* nulls = nullptr;
    switch (vector.type()->kind()) {
      case TypeKind::kBoolean:
        nulls = static_cast<const BoolVector&>(vector).raw_nulls();
        break;
      case TypeKind::kDouble:
        nulls = static_cast<const DoubleVector&>(vector).raw_nulls();
        break;
      case TypeKind::kVarchar:
        nulls = static_cast<const StringVector&>(vector).raw_nulls();
        break;
      default:
        nulls = static_cast<const Int64Vector&>(vector).raw_nulls();
        break;
    }
    if (nulls != nullptr) std::memcpy(out->data(), nulls, n);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (vector.IsNull(i)) (*out)[i] = 1;
  }
}

// ---------------------------------------------------------------------------
// StringPool / ValuePool
// ---------------------------------------------------------------------------

uint32_t StringPool::Intern(std::string_view s) {
  auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  strings_.emplace_back(s);
  uint32_t id = static_cast<uint32_t>(strings_.size() - 1);
  ids_.emplace(std::string_view(strings_.back()), id);
  return id;
}

int64_t StringPool::EstimateBytes() const {
  int64_t bytes = 0;
  for (const std::string& s : strings_) {
    bytes += static_cast<int64_t>(s.size()) + sizeof(std::string);
  }
  return bytes;
}

std::optional<uint32_t> StringPool::Find(std::string_view s) const {
  auto it = ids_.find(s);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

uint32_t ValuePool::Intern(const Value& value) {
  if (auto id = Find(value)) return *id;
  uint32_t id = static_cast<uint32_t>(values_.size());
  values_.push_back(value);
  ids_.emplace(value.Hash(), id);
  return id;
}

std::optional<uint32_t> ValuePool::Find(const Value& value) const {
  auto [begin, end] = ids_.equal_range(value.Hash());
  for (auto it = begin; it != end; ++it) {
    if (values_[it->second].Equals(value)) return it->second;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// NormalizedKeyTable
// ---------------------------------------------------------------------------

NormalizedKeyTable::NormalizedKeyTable(std::vector<TypeKind> key_kinds)
    : key_kinds_(std::move(key_kinds)),
      num_keys_(key_kinds_.size()),
      row_width_(num_keys_ + (num_keys_ + 63) / 64) {}

void NormalizedKeyTable::Rehash(size_t new_capacity) {
  capacity_ = new_capacity;
  table_.assign(capacity_, 0);
  size_t mask = capacity_ - 1;
  for (size_t g = 0; g < num_groups_; ++g) {
    size_t idx = group_hashes_[g] & mask;
    while (table_[idx] != 0) idx = (idx + 1) & mask;
    table_[idx] = static_cast<int32_t>(g) + 1;
  }
}

void NormalizedKeyTable::ReserveFor(size_t additional_groups) {
  size_t needed = num_groups_ + additional_groups;
  if (capacity_ == 0 || needed * 2 > capacity_) {
    Rehash(NextPowerOfTwo(std::max<size_t>(needed * 2, 1024)));
  }
}

int64_t NormalizedKeyTable::EstimateBytes() const {
  return static_cast<int64_t>(key_data_.size() * sizeof(uint64_t) +
                              group_hashes_.size() * sizeof(uint64_t) +
                              table_.size() * sizeof(int32_t)) +
         strings_.EstimateBytes() + values_.EstimateBytes();
}

void NormalizedKeyTable::EnsureGlobalGroup() {
  if (num_groups_ > 0) return;
  ReserveFor(1);
  key_data_.resize(key_data_.size() + row_width_, 0);
  group_hashes_.push_back(0);
  size_t mask = capacity_ - 1;
  size_t idx = 0 & mask;
  while (table_[idx] != 0) idx = (idx + 1) & mask;
  table_[idx] = static_cast<int32_t>(num_groups_) + 1;
  ++num_groups_;
}

Result<int64_t> NormalizedKeyTable::MapRows(const Page& page,
                                            const std::vector<int>& channels,
                                            bool insert_missing,
                                            bool skip_null_keys,
                                            std::vector<int32_t>* group_ids) {
  const size_t n = page.num_rows();
  scratch_slots_.assign(n * row_width_, 0);
  scratch_miss_.assign(n, 0);
  for (size_t k = 0; k < num_keys_; ++k) {
    RETURN_IF_ERROR(NormalizeColumn(*page.column(channels[k]), k, insert_missing));
  }
  HashRows();
  return ProbeOrInsert(insert_missing, skip_null_keys, group_ids);
}

// Normalizes key column k of the batch into its fixed-width slots.
Status NormalizedKeyTable::NormalizeColumn(const Vector& col, size_t k,
                                           bool insert_missing) {
  const size_t n = scratch_miss_.size();
  uint64_t* slots = scratch_slots_.data() + k;  // strided by row_width_
  uint64_t* null_words = scratch_slots_.data() + num_keys_ + (k >> 6);
  const uint64_t null_bit = uint64_t{1} << (k & 63);
  auto set_null = [&](size_t i) { null_words[i * row_width_] |= null_bit; };
  switch (key_kinds_[k]) {
    case TypeKind::kBoolean: {
      TypedColumn<uint8_t> tc;
      if (!TryDecode(col, &tc)) {
        return Status::Internal("kernel decode failed for BOOLEAN key");
      }
      for (size_t i = 0; i < n; ++i) {
        if (tc.IsNull(i)) {
          set_null(i);
        } else {
          slots[i * row_width_] = tc.At(i) != 0 ? 1 : 0;
        }
      }
      break;
    }
    case TypeKind::kDouble: {
      TypedColumn<double> tc;
      if (!TryDecode(col, &tc)) {
        return Status::Internal("kernel decode failed for DOUBLE key");
      }
      for (size_t i = 0; i < n; ++i) {
        if (tc.IsNull(i)) {
          set_null(i);
        } else {
          slots[i * row_width_] = NormalizeDouble(tc.At(i));
        }
      }
      break;
    }
    case TypeKind::kVarchar:
      return NormalizeStrings(col, k, insert_missing);
    case TypeKind::kRow:
    case TypeKind::kArray:
    case TypeKind::kMap: {
      // Nested keys box once per row and intern like strings.
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) {
          set_null(i);
          continue;
        }
        Value value = col.GetValue(i);
        if (insert_missing) {
          slots[i * row_width_] = values_.Intern(value);
        } else if (auto id = values_.Find(value)) {
          slots[i * row_width_] = *id;
        } else {
          scratch_miss_[i] = 1;
        }
      }
      break;
    }
    default: {  // integer-like: INTEGER / BIGINT / TIMESTAMP
      TypedColumn<int64_t> tc;
      if (!TryDecode(col, &tc)) {
        return Status::Internal("kernel decode failed for BIGINT key");
      }
      for (size_t i = 0; i < n; ++i) {
        if (tc.IsNull(i)) {
          set_null(i);
        } else {
          slots[i * row_width_] = static_cast<uint64_t>(tc.At(i));
        }
      }
      break;
    }
  }
  return Status::OK();
}

// VARCHAR keys are interned to dense ids; with insert_missing off, a string
// the table has never seen marks its row a miss.
Status NormalizedKeyTable::NormalizeStrings(const Vector& col, size_t k,
                                            bool insert_missing) {
  const size_t n = scratch_miss_.size();
  uint64_t* slots = scratch_slots_.data() + k;  // strided by row_width_
  uint64_t* null_words = scratch_slots_.data() + num_keys_ + (k >> 6);
  const uint64_t null_bit = uint64_t{1} << (k & 63);
  auto set_null = [&](size_t i) { null_words[i * row_width_] |= null_bit; };
  TypedColumn<std::string> tc;
  if (!TryDecode(col, &tc)) {
    return Status::Internal("kernel decode failed for VARCHAR key");
  }
  // Flat and dictionary strings alike intern row by row (a dictionary
  // through its indices), so strings of base rows a selection does not
  // reach are neither hashed nor interned.
  for (size_t i = 0; i < n; ++i) {
    if (tc.IsNull(i)) {
      set_null(i);
    } else if (insert_missing) {
      slots[i * row_width_] = strings_.Intern(tc.At(i));
    } else if (auto id = strings_.Find(tc.At(i))) {
      slots[i * row_width_] = *id;
    } else {
      scratch_miss_[i] = 1;
    }
  }
  return Status::OK();
}

void NormalizedKeyTable::HashRows() {
  const size_t n = scratch_miss_.size();
  scratch_hashes_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t h = 0;
    const uint64_t* row_slots = scratch_slots_.data() + i * row_width_;
    for (size_t k = 0; k < num_keys_; ++k) {
      uint64_t slot_hash =
          IsNullKey(row_slots, k) ? kNullHash : HashMix64(row_slots[k]);
      h = HashCombine(h, slot_hash);
    }
    scratch_hashes_[i] = h;
  }
}

// Maps every normalized row to its group: probes, and with insert_missing
// creates the groups it does not find. Returns the number of probes.
int64_t NormalizedKeyTable::ProbeOrInsert(bool insert_missing,
                                          bool skip_null_keys,
                                          std::vector<int32_t>* group_ids) {
  const size_t n = scratch_miss_.size();
  if (insert_missing) ReserveFor(n);
  int64_t probes = 0;
  const size_t mask = capacity_ == 0 ? 0 : capacity_ - 1;
  group_ids->reserve(group_ids->size() + n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* row_slots = scratch_slots_.data() + i * row_width_;
    if (scratch_miss_[i] != 0 ||
        (skip_null_keys &&
         std::any_of(row_slots + num_keys_, row_slots + row_width_,
                     [](uint64_t word) { return word != 0; }))) {
      group_ids->push_back(kNoGroup);
      continue;
    }
    if (capacity_ == 0) {  // find-only on an empty table
      group_ids->push_back(kNoGroup);
      continue;
    }
    const uint64_t h = scratch_hashes_[i];
    size_t idx = h & mask;
    int32_t gid = kNoGroup;
    while (true) {
      ++probes;
      int32_t slot = table_[idx];
      if (slot == 0) {
        if (insert_missing) {
          gid = static_cast<int32_t>(num_groups_);
          key_data_.insert(key_data_.end(), row_slots, row_slots + row_width_);
          group_hashes_.push_back(h);
          table_[idx] = gid + 1;
          ++num_groups_;
        }
        break;
      }
      const int32_t g = slot - 1;
      if (group_hashes_[g] == h) {
        const uint64_t* group_slots = key_data_.data() + g * row_width_;
        bool equal = true;
        for (size_t w = 0; w < row_width_; ++w) {
          // Null slots hold 0 on both sides and the trailing null words
          // compare too, so a plain word compare is exact.
          if (group_slots[w] != row_slots[w]) {
            equal = false;
            break;
          }
        }
        if (equal) {
          gid = g;
          break;
        }
      }
      idx = (idx + 1) & mask;
    }
    group_ids->push_back(gid);
  }
  return probes;
}

Result<std::vector<VectorPtr>> NormalizedKeyTable::BuildKeyColumns(
    const std::vector<TypePtr>& key_types) const {
  std::vector<VectorPtr> out;
  out.reserve(num_keys_);
  for (size_t k = 0; k < num_keys_; ++k) {
    std::vector<uint8_t> nulls(num_groups_, 0);
    bool any_null = false;
    for (size_t g = 0; g < num_groups_; ++g) {
      if (IsNullKey(key_data_.data() + g * row_width_, k)) {
        nulls[g] = 1;
        any_null = true;
      }
    }
    if (!any_null) nulls.clear();
    auto slot = [&](size_t g) { return key_data_[g * row_width_ + k]; };
    switch (key_kinds_[k]) {
      case TypeKind::kBoolean: {
        std::vector<uint8_t> values(num_groups_);
        for (size_t g = 0; g < num_groups_; ++g) {
          values[g] = static_cast<uint8_t>(slot(g));
        }
        out.push_back(std::make_shared<BoolVector>(
            key_types[k], std::move(values), std::move(nulls)));
        break;
      }
      case TypeKind::kDouble: {
        std::vector<double> values(num_groups_);
        for (size_t g = 0; g < num_groups_; ++g) {
          uint64_t bits = slot(g);
          double d;
          std::memcpy(&d, &bits, sizeof(d));
          values[g] = d;
        }
        out.push_back(std::make_shared<DoubleVector>(
            key_types[k], std::move(values), std::move(nulls)));
        break;
      }
      case TypeKind::kVarchar: {
        std::vector<std::string> values(num_groups_);
        for (size_t g = 0; g < num_groups_; ++g) {
          if (!nulls.empty() && nulls[g] != 0) continue;
          values[g] = strings_.at(static_cast<uint32_t>(slot(g)));
        }
        out.push_back(std::make_shared<StringVector>(
            key_types[k], std::move(values), std::move(nulls)));
        break;
      }
      case TypeKind::kRow:
      case TypeKind::kArray:
      case TypeKind::kMap: {
        VectorBuilder builder(key_types[k]);
        for (size_t g = 0; g < num_groups_; ++g) {
          if (!nulls.empty() && nulls[g] != 0) {
            builder.AppendNull();
          } else {
            RETURN_IF_ERROR(
                builder.Append(values_.at(static_cast<uint32_t>(slot(g)))));
          }
        }
        out.push_back(builder.Build());
        break;
      }
      default: {
        std::vector<int64_t> values(num_groups_);
        for (size_t g = 0; g < num_groups_; ++g) {
          values[g] = static_cast<int64_t>(slot(g));
        }
        out.push_back(std::make_shared<Int64Vector>(
            key_types[k], std::move(values), std::move(nulls)));
        break;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Grouped accumulators
// ---------------------------------------------------------------------------

namespace {

// Output null flags: NULL for every group that saw no input; empty when
// every group did.
std::vector<uint8_t> NullsWhereUnset(const std::vector<uint8_t>& has) {
  std::vector<uint8_t> nulls(has.size(), 0);
  bool any_null = false;
  for (size_t g = 0; g < has.size(); ++g) {
    nulls[g] = has[g] == 0;
    any_null = any_null || nulls[g] != 0;
  }
  if (!any_null) nulls.clear();
  return nulls;
}

class CountGrouped final : public GroupedAccumulator {
 public:
  explicit CountGrouped(bool count_non_null)
      : count_non_null_(count_non_null) {}

  void EnsureGroups(size_t num_groups) override {
    if (counts_.size() < num_groups) counts_.resize(num_groups, 0);
  }

  Status AddBatch(const std::vector<VectorPtr>& args, const int32_t* groups,
                  size_t n) override {
    if (!count_non_null_ || args.empty()) {
      for (size_t i = 0; i < n; ++i) {
        if (groups[i] >= 0) ++counts_[groups[i]];
      }
      return Status::OK();
    }
    CollectNullFlags(*args[0], &null_scratch_);
    for (size_t i = 0; i < n; ++i) {
      if (groups[i] >= 0 && null_scratch_[i] == 0) ++counts_[groups[i]];
    }
    return Status::OK();
  }

  Status MergeBatch(const VectorPtr& arg, const int32_t* groups,
                    size_t n) override {
    TypedColumn<int64_t> tc;
    if (!TryDecode(*arg, &tc)) {
      return Status::Internal("count merge: intermediate is not BIGINT");
    }
    for (size_t i = 0; i < n; ++i) {
      if (groups[i] >= 0 && !tc.IsNull(i)) counts_[groups[i]] += tc.At(i);
    }
    return Status::OK();
  }

  Result<VectorPtr> Build(bool) const override {
    std::vector<int64_t> values(counts_.begin(), counts_.end());
    return VectorPtr(std::make_shared<Int64Vector>(
        Type::Bigint(), std::move(values), std::vector<uint8_t>{}));
  }

 private:
  bool count_non_null_;
  std::vector<int64_t> counts_;
  std::vector<uint8_t> null_scratch_;
};

template <typename T>
class SumGrouped final : public GroupedAccumulator {
 public:
  explicit SumGrouped(TypePtr type) : type_(std::move(type)) {}

  void EnsureGroups(size_t num_groups) override {
    if (sums_.size() < num_groups) {
      sums_.resize(num_groups, T{});
      has_.resize(num_groups, 0);
    }
  }

  Status AddBatch(const std::vector<VectorPtr>& args, const int32_t* groups,
                  size_t n) override {
    TypedColumn<T> tc;
    if (args.empty() || !TryDecode(*args[0], &tc)) {
      return Status::Internal("sum kernel: argument decode failed");
    }
    for (size_t i = 0; i < n; ++i) {
      int32_t g = groups[i];
      if (g < 0 || tc.IsNull(i)) continue;
      sums_[g] += tc.At(i);
      has_[g] = 1;
    }
    return Status::OK();
  }

  Status MergeBatch(const VectorPtr& arg, const int32_t* groups,
                    size_t n) override {
    return AddBatch({arg}, groups, n);  // sum-of-sums
  }

  Result<VectorPtr> Build(bool) const override {
    return VectorPtr(std::make_shared<FlatVector<T>>(
        type_, std::vector<T>(sums_.begin(), sums_.end()),
        NullsWhereUnset(has_)));
  }

 private:
  TypePtr type_;
  std::vector<T> sums_;
  std::vector<uint8_t> has_;
};

template <typename T, bool kIsMin>
class MinMaxGrouped final : public GroupedAccumulator {
 public:
  explicit MinMaxGrouped(TypePtr type) : type_(std::move(type)) {}

  void EnsureGroups(size_t num_groups) override {
    if (best_.size() < num_groups) {
      best_.resize(num_groups, T{});
      has_.resize(num_groups, 0);
    }
  }

  Status AddBatch(const std::vector<VectorPtr>& args, const int32_t* groups,
                  size_t n) override {
    TypedColumn<T> tc;
    if (args.empty() || !TryDecode(*args[0], &tc)) {
      return Status::Internal("min/max kernel: argument decode failed");
    }
    for (size_t i = 0; i < n; ++i) {
      int32_t g = groups[i];
      if (g < 0 || tc.IsNull(i)) continue;
      const T& v = tc.At(i);
      if (has_[g] == 0 || (kIsMin ? v < best_[g] : best_[g] < v)) {
        best_[g] = v;
        has_[g] = 1;
      }
    }
    return Status::OK();
  }

  Status MergeBatch(const VectorPtr& arg, const int32_t* groups,
                    size_t n) override {
    return AddBatch({arg}, groups, n);
  }

  Result<VectorPtr> Build(bool) const override {
    return VectorPtr(std::make_shared<FlatVector<T>>(
        type_, std::vector<T>(best_.begin(), best_.end()),
        NullsWhereUnset(has_)));
  }

 private:
  TypePtr type_;
  std::vector<T> best_;
  std::vector<uint8_t> has_;
};

class AvgGrouped final : public GroupedAccumulator {
 public:
  explicit AvgGrouped(TypePtr intermediate_type)
      : intermediate_type_(std::move(intermediate_type)) {}

  void EnsureGroups(size_t num_groups) override {
    if (sums_.size() < num_groups) {
      sums_.resize(num_groups, 0.0);
      counts_.resize(num_groups, 0);
    }
  }

  Status AddBatch(const std::vector<VectorPtr>& args, const int32_t* groups,
                  size_t n) override {
    if (args.empty()) return Status::Internal("avg kernel: missing argument");
    TypedColumn<double> td;
    if (TryDecode(*args[0], &td)) {
      for (size_t i = 0; i < n; ++i) {
        int32_t g = groups[i];
        if (g < 0 || td.IsNull(i)) continue;
        sums_[g] += td.At(i);
        ++counts_[g];
      }
      return Status::OK();
    }
    TypedColumn<int64_t> ti;
    if (TryDecode(*args[0], &ti)) {
      for (size_t i = 0; i < n; ++i) {
        int32_t g = groups[i];
        if (g < 0 || ti.IsNull(i)) continue;
        sums_[g] += static_cast<double>(ti.At(i));
        ++counts_[g];
      }
      return Status::OK();
    }
    return Status::Internal("avg kernel: argument decode failed");
  }

  Status MergeBatch(const VectorPtr& arg, const int32_t* groups,
                    size_t n) override {
    // Intermediate is ROW(sum DOUBLE, count BIGINT); the operator flattens
    // the column before merging, so a RowVector with flat children arrives.
    ASSIGN_OR_RETURN(VectorPtr flat, Vector::Flatten(arg));
    if (flat->type()->kind() != TypeKind::kRow) {
      return Status::Internal("avg merge: intermediate is not ROW");
    }
    const auto& row = static_cast<const RowVector&>(*flat);
    TypedColumn<double> sums;
    TypedColumn<int64_t> counts;
    if (row.NumChildren() != 2 || !TryDecode(*row.child(0), &sums) ||
        !TryDecode(*row.child(1), &counts)) {
      return Status::Internal("avg merge: intermediate decode failed");
    }
    for (size_t i = 0; i < n; ++i) {
      int32_t g = groups[i];
      if (g < 0 || row.IsNull(i)) continue;
      sums_[g] += sums.At(i);
      counts_[g] += counts.At(i);
    }
    return Status::OK();
  }

  Result<VectorPtr> Build(bool intermediate) const override {
    size_t n = sums_.size();
    if (intermediate) {
      std::vector<double> sums(sums_.begin(), sums_.end());
      std::vector<int64_t> counts(counts_.begin(), counts_.end());
      std::vector<VectorPtr> children = {
          std::make_shared<DoubleVector>(Type::Double(), std::move(sums),
                                         std::vector<uint8_t>{}),
          std::make_shared<Int64Vector>(Type::Bigint(), std::move(counts),
                                        std::vector<uint8_t>{})};
      return VectorPtr(std::make_shared<RowVector>(intermediate_type_, n,
                                                   std::move(children)));
    }
    std::vector<double> values(n, 0.0);
    std::vector<uint8_t> nulls(n, 0);
    bool any_null = false;
    for (size_t g = 0; g < n; ++g) {
      if (counts_[g] == 0) {
        nulls[g] = 1;
        any_null = true;
      } else {
        values[g] = sums_[g] / static_cast<double>(counts_[g]);
      }
    }
    if (!any_null) nulls.clear();
    return VectorPtr(std::make_shared<DoubleVector>(
        Type::Double(), std::move(values), std::move(nulls)));
  }

 private:
  TypePtr intermediate_type_;
  std::vector<double> sums_;
  std::vector<int64_t> counts_;
};

// Row-at-a-time adapter: one registry Accumulator per group, for aggregates
// without a columnar kernel (count_if, approx_distinct, count_distinct,
// build_geo_index, ...).
class AccumulatorAdapter final : public GroupedAccumulator {
 public:
  AccumulatorAdapter(const AggregateFunction& function, TypePtr output_type)
      : factory_(function.factory),
        intermediate_type_(function.intermediate_type),
        output_type_(std::move(output_type)) {}

  bool columnar() const override { return false; }

  void EnsureGroups(size_t num_groups) override {
    while (states_.size() < num_groups) states_.push_back(factory_());
  }

  Status AddBatch(const std::vector<VectorPtr>& args, const int32_t* groups,
                  size_t n) override {
    // Registry accumulators static_cast their arguments to flat vectors.
    std::vector<VectorPtr> flat(args.size());
    for (size_t a = 0; a < args.size(); ++a) {
      ASSIGN_OR_RETURN(flat[a], Vector::Flatten(args[a]));
    }
    for (size_t i = 0; i < n; ++i) {
      if (groups[i] >= 0) states_[groups[i]]->Add(flat, i);
    }
    return Status::OK();
  }

  Status MergeBatch(const VectorPtr& arg, const int32_t* groups,
                    size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      if (groups[i] >= 0) states_[groups[i]]->MergeIntermediate(arg->GetValue(i));
    }
    return Status::OK();
  }

  Result<VectorPtr> Build(bool intermediate) const override {
    VectorBuilder builder(intermediate ? intermediate_type_ : output_type_);
    for (const auto& state : states_) {
      RETURN_IF_ERROR(
          builder.Append(intermediate ? state->Intermediate() : state->Final()));
    }
    return builder.Build();
  }

 private:
  std::function<std::unique_ptr<Accumulator>()> factory_;
  TypePtr intermediate_type_;
  TypePtr output_type_;
  std::vector<std::unique_ptr<Accumulator>> states_;
};

template <bool kIsMin>
std::unique_ptr<GroupedAccumulator> MakeMinMax(TypeKind kind,
                                               const TypePtr& type) {
  if (IsIntegerLike(kind)) {
    return std::make_unique<MinMaxGrouped<int64_t, kIsMin>>(type);
  }
  if (kind == TypeKind::kDouble) {
    return std::make_unique<MinMaxGrouped<double, kIsMin>>(type);
  }
  if (kind == TypeKind::kVarchar) {
    return std::make_unique<MinMaxGrouped<std::string, kIsMin>>(type);
  }
  return nullptr;
}

// The columnar kernel for `function`, or nullptr when it has none.
std::unique_ptr<GroupedAccumulator> MakeColumnarKernel(
    const AggregateFunction& function, const TypePtr& output_type) {
  const std::string& name = function.handle.name;
  const std::vector<TypePtr>& args = function.handle.argument_types;
  if (name == "count" && args.size() <= 1) {
    return std::make_unique<CountGrouped>(!args.empty());
  }
  if (args.size() != 1) return nullptr;
  TypeKind arg_kind = args[0]->kind();
  if (name == "sum") {
    if (IsIntegerLike(arg_kind)) {
      return std::make_unique<SumGrouped<int64_t>>(output_type);
    }
    if (arg_kind == TypeKind::kDouble) {
      return std::make_unique<SumGrouped<double>>(output_type);
    }
    return nullptr;
  }
  if (name == "avg" &&
      (IsIntegerLike(arg_kind) || arg_kind == TypeKind::kDouble)) {
    return std::make_unique<AvgGrouped>(function.intermediate_type);
  }
  if (name == "min") return MakeMinMax<true>(arg_kind, output_type);
  if (name == "max") return MakeMinMax<false>(arg_kind, output_type);
  return nullptr;
}

}  // namespace

std::unique_ptr<GroupedAccumulator> MakeGroupedAccumulator(
    const AggregateFunction& function, const TypePtr& output_type) {
  auto kernel = MakeColumnarKernel(function, output_type);
  if (kernel != nullptr) return kernel;
  return std::make_unique<AccumulatorAdapter>(function, output_type);
}

// ---------------------------------------------------------------------------
// Batch row hashing
// ---------------------------------------------------------------------------

void HashPage(const Page& page, const std::vector<int>& channels,
              std::vector<uint64_t>* hashes) {
  hashes->assign(page.num_rows(), 0);
  if (hashes->empty()) return;
  for (int c : channels) {
    page.column(c)->HashBatch(hashes->data(), /*combine=*/true);
  }
}

}  // namespace kernels
}  // namespace presto
