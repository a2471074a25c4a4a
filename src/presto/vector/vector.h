#ifndef PRESTO_VECTOR_VECTOR_H_
#define PRESTO_VECTOR_VECTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "presto/common/hash.h"
#include "presto/common/status.h"
#include "presto/types/type.h"
#include "presto/types/value.h"

namespace presto {

class Vector;
using VectorPtr = std::shared_ptr<Vector>;

/// Physical encodings of an in-memory column. "Presto is a vectorized
/// engine, which processes a bunch of in-memory encoded column values
/// vectorized, instead of row by row" (Section III).
enum class VectorEncoding {
  kFlat,        // contiguous values + null flags
  kDictionary,  // int32 indices into a base vector
  kLazy,        // loads on demand (lazy reads, Section V.H)
};

/// A column of `size()` rows. The engine passes Pages (bundles of equally
/// sized vectors) between operators.
class Vector {
 public:
  virtual ~Vector() = default;

  Vector(const Vector&) = delete;
  Vector& operator=(const Vector&) = delete;

  const TypePtr& type() const { return type_; }
  size_t size() const { return size_; }
  virtual VectorEncoding encoding() const = 0;

  virtual bool IsNull(size_t row) const = 0;

  /// False only when no row can be NULL, so whole-vector loops (Slice,
  /// Flatten, batch hashing) may skip the per-row IsNull walk.
  virtual bool MayHaveNulls() const { return true; }

  /// Boxes row `row` as a Value. This is the slow row-by-row path — used by
  /// result output, tests, and deliberately by the "old reader"/"old writer"
  /// baselines.
  virtual Value GetValue(size_t row) const = 0;

  /// Hash of row `row`, consistent with CompareAt equality.
  virtual uint64_t HashAt(size_t row) const { return GetValue(row).Hash(); }

  /// Batch hashing: hashes every row into `out` (size() entries). When
  /// `combine` is set, out[i] = HashCombine(out[i], hash(i)) — used to fold
  /// multi-column keys without a per-row virtual call per column. Flat and
  /// dictionary vectors override this with tight loops; the base
  /// implementation falls back to HashAt.
  virtual void HashBatch(uint64_t* out, bool combine) const;

  /// Three-way comparison between this[row] and other[other_row].
  virtual int CompareAt(size_t row, const Vector& other,
                        size_t other_row) const {
    return GetValue(row).Compare(other.GetValue(other_row));
  }

  /// Gathers the given rows into a new vector (indices must be < size()).
  virtual VectorPtr Slice(const std::vector<int32_t>& rows) const = 0;

  /// Approximate in-memory payload size, used for operator byte counters
  /// (OperatorStats::output_bytes). Unloaded lazy vectors report 0 — bytes
  /// count only once something materializes.
  virtual int64_t EstimateBytes() const;

  /// Returns an equivalent kFlat vector, resolving dictionary indirection
  /// and loading lazy vectors. Flat vectors return themselves.
  static Result<VectorPtr> Flatten(const VectorPtr& vector);

  std::string ToString(size_t max_rows = 16) const;

 protected:
  Vector(TypePtr type, size_t size) : type_(std::move(type)), size_(size) {}

  TypePtr type_;
  size_t size_;
};

/// Flat scalar vector. T is one of: uint8_t (BOOLEAN), int64_t (INTEGER /
/// BIGINT / TIMESTAMP), double, std::string.
template <typename T>
class FlatVector final : public Vector {
 public:
  FlatVector(TypePtr type, std::vector<T> values, std::vector<uint8_t> nulls)
      : Vector(std::move(type), values.size()),
        values_(std::move(values)),
        nulls_(std::move(nulls)) {}

  VectorEncoding encoding() const override { return VectorEncoding::kFlat; }

  bool IsNull(size_t row) const override {
    return !nulls_.empty() && nulls_[row] != 0;
  }
  bool MayHaveNulls() const override { return !nulls_.empty(); }

  const T& ValueAt(size_t row) const { return values_[row]; }
  const std::vector<T>& values() const { return values_; }
  std::vector<T>& mutable_values() { return values_; }
  bool has_nulls() const { return !nulls_.empty(); }
  /// Raw null flags for kernel loops; nullptr when there are no nulls.
  const uint8_t* raw_nulls() const {
    return nulls_.empty() ? nullptr : nulls_.data();
  }

  Value GetValue(size_t row) const override;
  uint64_t HashAt(size_t row) const override;
  void HashBatch(uint64_t* out, bool combine) const override;
  int CompareAt(size_t row, const Vector& other, size_t other_row) const override;
  VectorPtr Slice(const std::vector<int32_t>& rows) const override;
  int64_t EstimateBytes() const override;

 private:
  std::vector<T> values_;
  std::vector<uint8_t> nulls_;  // empty means "no nulls"
};

using BoolVector = FlatVector<uint8_t>;
using Int64Vector = FlatVector<int64_t>;
using DoubleVector = FlatVector<double>;
using StringVector = FlatVector<std::string>;

/// Struct-of-vectors for ROW typed columns: one child vector per field, all
/// with the same size, plus top-level nulls.
class RowVector final : public Vector {
 public:
  RowVector(TypePtr type, size_t size, std::vector<VectorPtr> children,
            std::vector<uint8_t> nulls = {})
      : Vector(std::move(type), size),
        children_(std::move(children)),
        nulls_(std::move(nulls)) {}

  VectorEncoding encoding() const override { return VectorEncoding::kFlat; }

  bool IsNull(size_t row) const override {
    return !nulls_.empty() && nulls_[row] != 0;
  }
  bool MayHaveNulls() const override { return !nulls_.empty(); }

  size_t NumChildren() const { return children_.size(); }
  const VectorPtr& child(size_t i) const { return children_[i]; }
  const std::vector<VectorPtr>& children() const { return children_; }

  Value GetValue(size_t row) const override;
  VectorPtr Slice(const std::vector<int32_t>& rows) const override;
  int64_t EstimateBytes() const override;

 private:
  std::vector<VectorPtr> children_;
  std::vector<uint8_t> nulls_;
};

/// ARRAY column: per-row [offset, offset+length) ranges into an elements
/// vector.
class ArrayVector final : public Vector {
 public:
  ArrayVector(TypePtr type, std::vector<int32_t> offsets,
              std::vector<int32_t> lengths, VectorPtr elements,
              std::vector<uint8_t> nulls = {})
      : Vector(std::move(type), offsets.size()),
        offsets_(std::move(offsets)),
        lengths_(std::move(lengths)),
        elements_(std::move(elements)),
        nulls_(std::move(nulls)) {}

  VectorEncoding encoding() const override { return VectorEncoding::kFlat; }

  bool IsNull(size_t row) const override {
    return !nulls_.empty() && nulls_[row] != 0;
  }
  bool MayHaveNulls() const override { return !nulls_.empty(); }

  int32_t OffsetAt(size_t row) const { return offsets_[row]; }
  int32_t LengthAt(size_t row) const { return lengths_[row]; }
  const VectorPtr& elements() const { return elements_; }

  Value GetValue(size_t row) const override;
  VectorPtr Slice(const std::vector<int32_t>& rows) const override;
  int64_t EstimateBytes() const override;

 private:
  std::vector<int32_t> offsets_;
  std::vector<int32_t> lengths_;
  VectorPtr elements_;
  std::vector<uint8_t> nulls_;
};

/// MAP column: per-row ranges into parallel keys/values vectors.
class MapVector final : public Vector {
 public:
  MapVector(TypePtr type, std::vector<int32_t> offsets,
            std::vector<int32_t> lengths, VectorPtr keys, VectorPtr values,
            std::vector<uint8_t> nulls = {})
      : Vector(std::move(type), offsets.size()),
        offsets_(std::move(offsets)),
        lengths_(std::move(lengths)),
        keys_(std::move(keys)),
        values_(std::move(values)),
        nulls_(std::move(nulls)) {}

  VectorEncoding encoding() const override { return VectorEncoding::kFlat; }

  bool IsNull(size_t row) const override {
    return !nulls_.empty() && nulls_[row] != 0;
  }
  bool MayHaveNulls() const override { return !nulls_.empty(); }

  int32_t OffsetAt(size_t row) const { return offsets_[row]; }
  int32_t LengthAt(size_t row) const { return lengths_[row]; }
  const VectorPtr& keys() const { return keys_; }
  const VectorPtr& values() const { return values_; }

  Value GetValue(size_t row) const override;
  VectorPtr Slice(const std::vector<int32_t>& rows) const override;
  int64_t EstimateBytes() const override;

 private:
  std::vector<int32_t> offsets_;
  std::vector<int32_t> lengths_;
  VectorPtr keys_;
  VectorPtr values_;
  std::vector<uint8_t> nulls_;
};

/// Dictionary-encoded vector: row i is base[indices[i]]. Produced by the
/// native reader for dictionary-encoded column chunks (Section V.G) so the
/// engine can probe/aggregate without eagerly materializing strings.
class DictionaryVector final : public Vector {
 public:
  DictionaryVector(VectorPtr base, std::vector<int32_t> indices,
                   std::vector<uint8_t> nulls = {})
      : Vector(base->type(), indices.size()),
        base_(std::move(base)),
        indices_(std::move(indices)),
        nulls_(std::move(nulls)) {}

  VectorEncoding encoding() const override { return VectorEncoding::kDictionary; }

  bool IsNull(size_t row) const override {
    if (!nulls_.empty() && nulls_[row] != 0) return true;
    return base_->IsNull(indices_[row]);
  }
  bool MayHaveNulls() const override {
    return !nulls_.empty() || base_->MayHaveNulls();
  }

  const VectorPtr& base() const { return base_; }
  int32_t IndexAt(size_t row) const { return indices_[row]; }
  const std::vector<int32_t>& indices() const { return indices_; }
  /// Dictionary-level null flags (base nulls are separate); nullptr when the
  /// dictionary itself adds no nulls.
  const uint8_t* raw_nulls() const {
    return nulls_.empty() ? nullptr : nulls_.data();
  }

  Value GetValue(size_t row) const override {
    if (IsNull(row)) return Value::Null();
    return base_->GetValue(indices_[row]);
  }

  uint64_t HashAt(size_t row) const override {
    if (IsNull(row)) return Value::Null().Hash();
    return base_->HashAt(indices_[row]);
  }

  void HashBatch(uint64_t* out, bool combine) const override;
  int CompareAt(size_t row, const Vector& other, size_t other_row) const override;
  VectorPtr Slice(const std::vector<int32_t>& rows) const override;
  int64_t EstimateBytes() const override;

 private:
  VectorPtr base_;
  std::vector<int32_t> indices_;
  std::vector<uint8_t> nulls_;
};

/// A vector whose contents are produced on first use. Lazy reads (Section
/// V.H): the scan hands out LazyVectors for projected columns; if a
/// downstream filter drops the whole batch, the column bytes are never
/// decoded. LoadForRows lets a filter materialize only the surviving rows
/// (result is positionally aligned with `rows`).
class LazyVector final : public Vector {
 public:
  /// Loader receives the rows to materialize (sorted, unique) and returns a
  /// vector with one entry per requested row.
  using Loader = std::function<Result<VectorPtr>(const std::vector<int32_t>& rows)>;

  LazyVector(TypePtr type, size_t size, Loader loader)
      : Vector(std::move(type), size), loader_(std::move(loader)) {}

  VectorEncoding encoding() const override { return VectorEncoding::kLazy; }

  bool IsLoaded() const { return loaded_ != nullptr; }

  /// Materializes all rows (cached).
  Result<VectorPtr> Load() const;

  /// Materializes only the given rows; does not cache.
  Result<VectorPtr> LoadForRows(const std::vector<int32_t>& rows) const;

  // Lazy vectors must be loaded before row access; these abort via value()
  // on error to honour the Vector interface (callers flatten first).
  bool IsNull(size_t row) const override;
  Value GetValue(size_t row) const override;
  VectorPtr Slice(const std::vector<int32_t>& rows) const override;
  int64_t EstimateBytes() const override;

 private:
  Loader loader_;
  mutable VectorPtr loaded_;
};

// -- Convenience constructors -------------------------------------------------

/// Builds a flat BIGINT vector with no nulls.
VectorPtr MakeBigintVector(std::vector<int64_t> values);
/// Builds a flat DOUBLE vector with no nulls.
VectorPtr MakeDoubleVector(std::vector<double> values);
/// Builds a flat VARCHAR vector with no nulls.
VectorPtr MakeVarcharVector(std::vector<std::string> values);
/// Builds a flat BOOLEAN vector with no nulls.
VectorPtr MakeBooleanVector(std::vector<uint8_t> values);
/// Builds a flat all-NULL vector of the given scalar or nested type.
Result<VectorPtr> MakeAllNullVector(const TypePtr& type, size_t size);

}  // namespace presto

#endif  // PRESTO_VECTOR_VECTOR_H_
