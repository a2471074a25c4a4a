#ifndef PRESTO_EXEC_KERNELS_KERNELS_H_
#define PRESTO_EXEC_KERNELS_KERNELS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "presto/common/hash.h"
#include "presto/expr/function_registry.h"
#include "presto/planner/plan.h"
#include "presto/vector/page.h"

namespace presto {
namespace kernels {

/// Hash of a NULL slot; matches FlatVector::HashAt and Value::Hash for NULL
/// so batch and row-at-a-time hashing agree.
inline constexpr uint64_t kNullHash = 0x5c5c5c5c5c5c5c5cULL;

// ---------------------------------------------------------------------------
// TypedColumn: zero-virtual-dispatch view over a flat or dict-of-flat column
// ---------------------------------------------------------------------------

/// Decoded view of a scalar column. Inner loops index raw arrays instead of
/// calling GetValue()/IsNull() virtually per row; dictionary indirection is
/// one gather, never a materialized copy.
template <typename T>
struct TypedColumn {
  const T* values = nullptr;            // base values
  const uint8_t* base_nulls = nullptr;  // base null flags (may be null)
  const int32_t* indices = nullptr;     // dictionary indices (null == flat)
  const uint8_t* top_nulls = nullptr;   // dictionary-level null flags

  bool IsNull(size_t row) const {
    if (indices == nullptr) return base_nulls != nullptr && base_nulls[row] != 0;
    if (top_nulls != nullptr && top_nulls[row] != 0) return true;
    return base_nulls != nullptr && base_nulls[indices[row]] != 0;
  }
  const T& At(size_t row) const {
    return values[indices == nullptr ? row : indices[row]];
  }
};

/// Loads lazy vectors and flattens exotic nestings (dictionary over
/// dictionary/lazy) so the result is flat, or a dictionary over a flat base —
/// the two shapes TypedColumn understands. Plain dictionaries are preserved
/// so kernels can work through the indirection.
Result<VectorPtr> PrepareColumn(const VectorPtr& vector);

/// Decodes a prepared scalar column into a typed view. Returns false when
/// the vector's physical storage does not use T slots.
template <typename T>
bool TryDecode(const Vector& vector, TypedColumn<T>* out);

/// Per-row null flags without boxing: fast array paths for flat and
/// dictionary encodings, a virtual IsNull loop for nested vectors.
void CollectNullFlags(const Vector& vector, std::vector<uint8_t>* out);

// ---------------------------------------------------------------------------
// StringPool: interning for VARCHAR keys
// ---------------------------------------------------------------------------

/// Maps distinct strings to dense uint32 ids so VARCHAR group-by / join keys
/// become fixed-width normalized slots (id equality == string equality).
class StringPool {
 public:
  uint32_t Intern(std::string_view s);
  /// Lookup without inserting (join probe side); nullopt == no such key in
  /// the table, i.e. a guaranteed miss.
  std::optional<uint32_t> Find(std::string_view s) const;
  const std::string& at(uint32_t id) const { return strings_[id]; }

  /// Approximate bytes held by the interned strings (operator memory stats).
  int64_t EstimateBytes() const;

 private:
  std::deque<std::string> strings_;  // deque: stable addresses for the views
  std::unordered_map<std::string_view, uint32_t> ids_;
};

/// Maps distinct nested (ROW/ARRAY/MAP) key values to dense uint32 ids,
/// bucketed by Value::Hash and compared with Value::Equals, so nested keys
/// become fixed-width slots like interned strings. One representative Value
/// is kept per id.
class ValuePool {
 public:
  uint32_t Intern(const Value& value);
  std::optional<uint32_t> Find(const Value& value) const;
  const Value& at(uint32_t id) const { return values_[id]; }

  /// Approximate bytes held by the representatives (operator memory stats):
  /// a fixed per-value figure, nested payloads are not walked.
  int64_t EstimateBytes() const {
    return static_cast<int64_t>(values_.size()) * 64;
  }

 private:
  std::vector<Value> values_;
  std::unordered_multimap<uint64_t, uint32_t> ids_;  // Value::Hash -> id
};

// ---------------------------------------------------------------------------
// NormalizedKeyTable: flat open-addressing group table on fixed-width keys
// ---------------------------------------------------------------------------

/// Hash table used by both hash aggregation (group-by keys -> group id) and
/// hash join (build keys -> key id, with the caller chaining duplicate build
/// rows). Keys are normalized to fixed-width 64-bit slots (ints as-is,
/// doubles bit-cast with -0.0 folded to 0.0 and every NaN to one NaN,
/// booleans 0/1, strings and nested values interned to pool ids). Each row
/// is its key slots followed by ceil(keys/64) null-flag words, stored inline
/// in one contiguous arena, so one word compare covers values and nulls for
/// any number of keys — no std::vector<Value> per group, no per-row virtual
/// dispatch for scalar keys.
class NormalizedKeyTable {
 public:
  static constexpr int32_t kNoGroup = -1;

  explicit NormalizedKeyTable(std::vector<TypeKind> key_kinds);

  /// Maps every row of `page` (key columns given by `channels`, already run
  /// through PrepareColumn) to a group id, appended to `group_ids`.
  /// insert_missing: unseen keys create new groups (group-by, join build);
  /// otherwise they map to kNoGroup (join probe). skip_null_keys: rows with
  /// any NULL key map to kNoGroup without probing (SQL join equality);
  /// otherwise NULL is an ordinary key value (SQL GROUP BY).
  /// Returns the number of hash-table probes performed.
  Result<int64_t> MapRows(const Page& page, const std::vector<int>& channels,
                          bool insert_missing, bool skip_null_keys,
                          std::vector<int32_t>* group_ids);

  /// Inserts the zero-key group if the table is empty (global aggregation
  /// over empty input still emits one row).
  void EnsureGlobalGroup();

  size_t num_groups() const { return num_groups_; }

  /// Approximate bytes held by the table: group key arena, open-addressing
  /// slots, and interned strings and nested values. Feeds operator memory
  /// stats (exec.agg.table_bytes / exec.join.table_bytes).
  int64_t EstimateBytes() const;

  /// Rebuilds the key columns, one row per group in creation order.
  Result<std::vector<VectorPtr>> BuildKeyColumns(
      const std::vector<TypePtr>& key_types) const;

 private:
  // The three phases of MapRows over the per-batch scratch: normalize (once
  // per key column), hash, probe or insert. Each runs once per page, so no
  // call is added per row.
  Status NormalizeColumn(const Vector& col, size_t k, bool insert_missing);
  Status NormalizeStrings(const Vector& col, size_t k, bool insert_missing);
  void HashRows();
  int64_t ProbeOrInsert(bool insert_missing, bool skip_null_keys,
                        std::vector<int32_t>* group_ids);

  void ReserveFor(size_t additional_groups);
  void Rehash(size_t new_capacity);
  bool IsNullKey(const uint64_t* row, size_t k) const {
    return (row[num_keys_ + (k >> 6)] >> (k & 63)) & 1;
  }

  std::vector<TypeKind> key_kinds_;
  size_t num_keys_;
  size_t row_width_;  // num_keys_ slots + ceil(num_keys_ / 64) null words
  StringPool strings_;
  ValuePool values_;

  // Group storage: group g's row lives at key_data_[g*row_width_ ..].
  std::vector<uint64_t> key_data_;
  std::vector<uint64_t> group_hashes_;

  // Open-addressing slots holding group id + 1 (0 == empty).
  std::vector<int32_t> table_;
  size_t capacity_ = 0;

  size_t num_groups_ = 0;

  // Per-batch scratch (reused across pages).
  std::vector<uint64_t> scratch_slots_;
  std::vector<uint64_t> scratch_hashes_;
  std::vector<uint8_t> scratch_miss_;
};

// ---------------------------------------------------------------------------
// Grouped accumulators: whole-column aggregation, one state array per table
// ---------------------------------------------------------------------------

/// Columnar counterpart of Accumulator: state for ALL groups lives in flat
/// arrays and a whole input column is folded in per call, driven by the
/// group-id vector the NormalizedKeyTable produced.
class GroupedAccumulator {
 public:
  virtual ~GroupedAccumulator() = default;

  /// False for the row-at-a-time adapter over a registry Accumulator; the
  /// operator counts its pages as fallback pages.
  virtual bool columnar() const { return true; }

  /// Grows state to cover groups [0, num_groups).
  virtual void EnsureGroups(size_t num_groups) = 0;

  /// Folds in raw input rows: row i goes to group groups[i] (kNoGroup rows
  /// are skipped). `args` are the prepared argument columns, empty for
  /// zero-argument aggregates (count(*)).
  virtual Status AddBatch(const std::vector<VectorPtr>& args,
                          const int32_t* groups, size_t n) = 0;

  /// Folds in a column of Intermediate() values (final aggregation step).
  virtual Status MergeBatch(const VectorPtr& arg, const int32_t* groups,
                            size_t n) = 0;

  /// Builds the output column, one row per group in group-id order.
  /// intermediate=true produces the partial-step representation.
  virtual Result<VectorPtr> Build(bool intermediate) const = 0;
};

/// Returns the grouped implementation for a resolved aggregate: a columnar
/// kernel when the function/argument types have one, otherwise an adapter
/// holding one registry Accumulator per group. Never null. `output_type` is
/// the final output type from the plan; the intermediate type comes from
/// the registration.
std::unique_ptr<GroupedAccumulator> MakeGroupedAccumulator(
    const AggregateFunction& function, const TypePtr& output_type);

// ---------------------------------------------------------------------------
// Batch row hashing
// ---------------------------------------------------------------------------

/// Combined hash of the given channels for every row of the page, via the
/// vectors' HashBatch overrides (one virtual call per column per page
/// instead of one per row). `hashes` is resized and overwritten.
void HashPage(const Page& page, const std::vector<int>& channels,
              std::vector<uint64_t>* hashes);

}  // namespace kernels
}  // namespace presto

#endif  // PRESTO_EXEC_KERNELS_KERNELS_H_
