#include "presto/lakefile/shred.h"

#include <algorithm>

namespace presto {
namespace lakefile {

namespace {

Status WalkLeaves(const std::string& path, const TypePtr& type, int def, int rep,
                  bool inside_repeated, std::vector<Leaf>* out) {
  switch (type->kind()) {
    case TypeKind::kRow: {
      for (size_t i = 0; i < type->NumChildren(); ++i) {
        RETURN_IF_ERROR(WalkLeaves(path + "." + type->field_name(i),
                                   type->child(i), def + 1, rep,
                                   inside_repeated, out));
      }
      return Status::OK();
    }
    case TypeKind::kArray: {
      if (inside_repeated) {
        return Status::Unimplemented(
            "nested repetition (ARRAY/MAP inside ARRAY/MAP) is not supported "
            "by the lakefile format: " + path);
      }
      return WalkLeaves(path + ".element", type->element(), def + 2, rep + 1,
                        true, out);
    }
    case TypeKind::kMap: {
      if (inside_repeated) {
        return Status::Unimplemented(
            "nested repetition (ARRAY/MAP inside ARRAY/MAP) is not supported "
            "by the lakefile format: " + path);
      }
      RETURN_IF_ERROR(WalkLeaves(path + ".key", type->map_key(), def + 2,
                                 rep + 1, true, out));
      return WalkLeaves(path + ".value", type->map_value(), def + 2, rep + 1,
                        true, out);
    }
    default:
      out->push_back(Leaf{path, type, def + 1, rep});
      return Status::OK();
  }
}

}  // namespace

Result<std::vector<Leaf>> EnumerateLeaves(const Type& schema) {
  if (schema.kind() != TypeKind::kRow) {
    return Status::InvalidArgument("lakefile schema must be a ROW type");
  }
  std::vector<Leaf> out;
  for (size_t i = 0; i < schema.NumChildren(); ++i) {
    RETURN_IF_ERROR(WalkLeaves(schema.field_name(i), schema.child(i), 0, 0,
                               false, &out));
  }
  return out;
}

Result<std::vector<Leaf>> EnumerateFieldLeaves(const std::string& field_name,
                                               const TypePtr& field_type) {
  std::vector<Leaf> out;
  RETURN_IF_ERROR(WalkLeaves(field_name, field_type, 0, 0, false, &out));
  return out;
}

size_t LeafBuffer::num_values(const Leaf& leaf) const {
  switch (leaf.type->kind()) {
    case TypeKind::kBoolean:
      return bools.size();
    case TypeKind::kDouble:
      return doubles.size();
    case TypeKind::kVarchar:
      return strings.size();
    default:
      return ints.size();
  }
}

void LeafBuffer::Clear() {
  rep.clear();
  def.clear();
  ints.clear();
  doubles.clear();
  bools.clear();
  strings.clear();
}

// ===========================================================================
// Writer-side shredding
// ===========================================================================

namespace {

// One shredding step's working set: parallel arrays describing the entries
// flowing into a node. `rows[i]` indexes into the node's vector; entries
// with defs[i] < base_def carry a null somewhere above and only propagate.
struct Entries {
  std::vector<int32_t> rows;
  std::vector<uint8_t> defs;
  std::vector<uint8_t> reps;
};

void AppendScalarEntry(const Leaf& leaf, const Vector& flat, int32_t row,
                       uint8_t def, uint8_t rep, int base_def, LeafBuffer* buf) {
  buf->rep.push_back(rep);
  if (def < base_def) {  // ancestor null: propagate
    buf->def.push_back(def);
    return;
  }
  if (flat.IsNull(row)) {
    buf->def.push_back(static_cast<uint8_t>(base_def));
    return;
  }
  buf->def.push_back(static_cast<uint8_t>(base_def + 1));
  switch (leaf.type->kind()) {
    case TypeKind::kBoolean:
      buf->bools.push_back(static_cast<const BoolVector&>(flat).ValueAt(row));
      break;
    case TypeKind::kDouble:
      buf->doubles.push_back(static_cast<const DoubleVector&>(flat).ValueAt(row));
      break;
    case TypeKind::kVarchar:
      buf->strings.push_back(static_cast<const StringVector&>(flat).ValueAt(row));
      break;
    default:
      buf->ints.push_back(static_cast<const Int64Vector&>(flat).ValueAt(row));
      break;
  }
}

// Expands the entries at an ARRAY or MAP node into the entries its children
// see: one per element, or a single placeholder for an absent (ancestor
// null), null or empty container carrying the def that says which.
template <typename ContainerVector>
Entries ExpandContainer(const ContainerVector& container, const Entries& entries,
                        int base_def) {
  Entries expanded;
  auto placeholder = [&](size_t i, uint8_t def) {
    expanded.rows.push_back(0);
    expanded.defs.push_back(def);
    expanded.reps.push_back(entries.reps[i]);
  };
  for (size_t i = 0; i < entries.rows.size(); ++i) {
    int32_t row = entries.rows[i];
    if (entries.defs[i] < base_def) {  // ancestor null
      placeholder(i, entries.defs[i]);
    } else if (container.IsNull(row)) {
      placeholder(i, static_cast<uint8_t>(base_def));
    } else if (container.LengthAt(row) == 0) {
      placeholder(i, static_cast<uint8_t>(base_def + 1));
    } else {
      for (int32_t j = 0; j < container.LengthAt(row); ++j) {
        expanded.rows.push_back(container.OffsetAt(row) + j);
        expanded.defs.push_back(static_cast<uint8_t>(base_def + 2));
        expanded.reps.push_back(j == 0 ? entries.reps[i] : 1);
      }
    }
  }
  return expanded;
}

// Recursive columnar shredder. `cursor` advances through the leaf/buffer
// arrays in EnumerateLeaves order.
Status ShredNode(const TypePtr& type, const VectorPtr& vector,
                 const Entries& entries, int base_def, const Leaf* leaves,
                 LeafBuffer* buffers, size_t* cursor) {
  ASSIGN_OR_RETURN(VectorPtr flat, Vector::Flatten(vector));
  switch (type->kind()) {
    case TypeKind::kRow: {
      // Compute the defs the children see.
      Entries child = entries;
      for (size_t i = 0; i < entries.rows.size(); ++i) {
        if (entries.defs[i] >= base_def && !flat->IsNull(entries.rows[i])) {
          child.defs[i] = static_cast<uint8_t>(base_def + 1);
        } else if (entries.defs[i] >= base_def) {
          child.defs[i] = static_cast<uint8_t>(base_def);  // struct null here
        }
      }
      const auto* row_vector = static_cast<const RowVector*>(flat.get());
      for (size_t f = 0; f < type->NumChildren(); ++f) {
        RETURN_IF_ERROR(ShredNode(type->child(f), row_vector->child(f), child,
                                  base_def + 1, leaves, buffers, cursor));
      }
      return Status::OK();
    }
    case TypeKind::kArray: {
      const auto& array = static_cast<const ArrayVector&>(*flat);
      return ShredNode(type->element(), array.elements(),
                       ExpandContainer(array, entries, base_def), base_def + 2,
                       leaves, buffers, cursor);
    }
    case TypeKind::kMap: {
      const auto& map = static_cast<const MapVector&>(*flat);
      Entries expanded = ExpandContainer(map, entries, base_def);
      RETURN_IF_ERROR(ShredNode(type->map_key(), map.keys(), expanded,
                                base_def + 2, leaves, buffers, cursor));
      return ShredNode(type->map_value(), map.values(), expanded, base_def + 2,
                       leaves, buffers, cursor);
    }
    default: {
      const Leaf& leaf = leaves[*cursor];
      LeafBuffer* buf = &buffers[*cursor];
      ++*cursor;
      // Fast path: top-level scalar column with no propagated nulls.
      for (size_t i = 0; i < entries.rows.size(); ++i) {
        AppendScalarEntry(leaf, *flat, entries.rows[i], entries.defs[i],
                          entries.reps[i], base_def, buf);
      }
      return Status::OK();
    }
  }
}

// Appends one boxed scalar to its leaf buffer; value == nullptr means
// "absent", with `absent_def` the def to emit.
Status ShredScalarValue(const Leaf& leaf, const Value* value, uint8_t absent_def,
                        uint8_t rep, int base_def, LeafBuffer* buf) {
  bool absent = value == nullptr;
  bool is_null = !absent && value->is_null();
  buf->rep.push_back(rep);
  if (absent) {
    buf->def.push_back(absent_def);
    return Status::OK();
  }
  if (is_null) {
    buf->def.push_back(static_cast<uint8_t>(base_def));
    return Status::OK();
  }
  buf->def.push_back(static_cast<uint8_t>(base_def + 1));
  switch (leaf.type->kind()) {
    case TypeKind::kBoolean:
      if (!value->is_bool()) return Status::InvalidArgument("expected BOOLEAN");
      buf->bools.push_back(value->bool_value() ? 1 : 0);
      break;
    case TypeKind::kDouble:
      if (!value->is_int() && !value->is_double()) {
        return Status::InvalidArgument("expected numeric");
      }
      buf->doubles.push_back(value->AsDouble());
      break;
    case TypeKind::kVarchar:
      if (!value->is_string()) return Status::InvalidArgument("expected VARCHAR");
      buf->strings.push_back(value->string_value());
      break;
    default:
      if (!value->is_int()) return Status::InvalidArgument("expected integer");
      buf->ints.push_back(value->int_value());
      break;
  }
  return Status::OK();
}

// Row-at-a-time shredder (legacy writer). value == nullptr means "absent":
// some ancestor was null/empty and `absent_def` is the def to emit.
Status ShredValueNode(const TypePtr& type, const Value* value,
                      uint8_t absent_def, uint8_t rep, int base_def,
                      const Leaf* leaves, LeafBuffer* buffers, size_t* cursor) {
  bool absent = value == nullptr;
  bool is_null = !absent && value->is_null();
  switch (type->kind()) {
    case TypeKind::kRow: {
      const Value* child_absent = nullptr;
      uint8_t child_absent_def =
          absent ? absent_def : static_cast<uint8_t>(base_def);
      (void)child_absent;
      for (size_t f = 0; f < type->NumChildren(); ++f) {
        if (absent || is_null) {
          RETURN_IF_ERROR(ShredValueNode(type->child(f), nullptr,
                                         child_absent_def, rep, base_def + 1,
                                         leaves, buffers, cursor));
        } else {
          RETURN_IF_ERROR(ShredValueNode(type->child(f), &value->children()[f],
                                         0, rep, base_def + 1, leaves, buffers,
                                         cursor));
        }
      }
      return Status::OK();
    }
    case TypeKind::kArray: {
      if (absent || is_null || value->children().empty()) {
        uint8_t def = absent ? absent_def
                             : static_cast<uint8_t>(is_null ? base_def
                                                            : base_def + 1);
        return ShredValueNode(type->element(), nullptr, def, rep, base_def + 2,
                              leaves, buffers, cursor);
      }
      size_t saved = *cursor;
      for (size_t j = 0; j < value->children().size(); ++j) {
        *cursor = saved;
        RETURN_IF_ERROR(ShredValueNode(type->element(), &value->children()[j],
                                       0, j == 0 ? rep : 1, base_def + 2,
                                       leaves, buffers, cursor));
      }
      return Status::OK();
    }
    case TypeKind::kMap: {
      if (absent || is_null || value->map_entries().empty()) {
        uint8_t def = absent ? absent_def
                             : static_cast<uint8_t>(is_null ? base_def
                                                            : base_def + 1);
        RETURN_IF_ERROR(ShredValueNode(type->map_key(), nullptr, def, rep,
                                       base_def + 2, leaves, buffers, cursor));
        return ShredValueNode(type->map_value(), nullptr, def, rep,
                              base_def + 2, leaves, buffers, cursor);
      }
      size_t saved = *cursor;
      size_t after = saved;
      for (size_t j = 0; j < value->map_entries().size(); ++j) {
        *cursor = saved;
        uint8_t entry_rep = j == 0 ? rep : 1;
        RETURN_IF_ERROR(ShredValueNode(type->map_key(),
                                       &value->map_entries()[j].first, 0,
                                       entry_rep, base_def + 2, leaves, buffers,
                                       cursor));
        RETURN_IF_ERROR(ShredValueNode(type->map_value(),
                                       &value->map_entries()[j].second, 0,
                                       entry_rep, base_def + 2, leaves, buffers,
                                       cursor));
        after = *cursor;
      }
      *cursor = after;
      return Status::OK();
    }
    default: {
      const Leaf& leaf = leaves[*cursor];
      LeafBuffer* buf = &buffers[*cursor];
      ++*cursor;
      return ShredScalarValue(leaf, value, absent_def, rep, base_def, buf);
    }
  }
}

}  // namespace

Status ShredVector(const Leaf* leaves, size_t num_leaves, const TypePtr& type,
                   const VectorPtr& vector, LeafBuffer* buffers) {
  Entries entries;
  entries.rows.resize(vector->size());
  for (size_t i = 0; i < vector->size(); ++i) {
    entries.rows[i] = static_cast<int32_t>(i);
  }
  entries.defs.assign(vector->size(), 0);
  entries.reps.assign(vector->size(), 0);
  size_t cursor = 0;
  RETURN_IF_ERROR(ShredNode(type, vector, entries, 0, leaves, buffers, &cursor));
  if (cursor != num_leaves) {
    return Status::Internal("leaf cursor mismatch during shredding");
  }
  return Status::OK();
}

Status ShredRecord(const Leaf* leaves, size_t num_leaves, const TypePtr& type,
                   const Value& record, LeafBuffer* buffers) {
  if (type->kind() != TypeKind::kRow || !record.is_row() ||
      record.children().size() != type->NumChildren()) {
    return Status::InvalidArgument("record shape does not match schema");
  }
  // The record itself is not an optional level: top-level fields start at
  // definition level 0, exactly like the vector path.
  size_t cursor = 0;
  for (size_t f = 0; f < type->NumChildren(); ++f) {
    RETURN_IF_ERROR(ShredValueNode(type->child(f), &record.children()[f], 0, 0,
                                   0, leaves, buffers, &cursor));
  }
  if (cursor != num_leaves) {
    return Status::Internal("leaf cursor mismatch during record shredding");
  }
  return Status::OK();
}

// ===========================================================================
// Reader-side assembly
// ===========================================================================

namespace {

// Entry positions where a new top-level row starts (rep == 0).
std::vector<int32_t> RowStarts(const DecodedLeaf& leaf) {
  std::vector<int32_t> starts;
  if (leaf.leaf.max_rep == 0) {
    starts.resize(leaf.def.size());
    for (size_t i = 0; i < leaf.def.size(); ++i) starts[i] = static_cast<int32_t>(i);
    return starts;
  }
  for (size_t i = 0; i < leaf.rep.size(); ++i) {
    if (leaf.rep[i] == 0) starts.push_back(static_cast<int32_t>(i));
  }
  return starts;
}

// Extracts the scalar values of `leaf` for the given entry slots (ascending).
// A slot yields null when its def < max_def.
Result<VectorPtr> ExtractScalar(const DecodedLeaf& leaf,
                                const std::vector<int32_t>& slots) {
  const int max_def = leaf.leaf.max_def;
  size_t n = slots.size();
  std::vector<uint8_t> nulls(n, 0);
  bool any_null = false;

  // value_index[e] = index into the values array for entry e (valid when
  // def[e] == max_def).
  // Single pass with two pointers: entries are scanned once.
  auto build = [&](auto& values_in, auto& values_out) -> Status {
    using Vec = std::remove_reference_t<decltype(values_in)>;
    (void)sizeof(Vec);
    values_out.resize(n);
    size_t value_cursor = 0;
    size_t slot_cursor = 0;
    for (size_t e = 0; e < leaf.def.size() && slot_cursor < n; ++e) {
      bool has_value = leaf.def[e] == max_def;
      if (static_cast<int32_t>(e) == slots[slot_cursor]) {
        if (has_value) {
          values_out[slot_cursor] = values_in[value_cursor];
        } else {
          nulls[slot_cursor] = 1;
          any_null = true;
        }
        ++slot_cursor;
      }
      if (has_value) ++value_cursor;
    }
    if (slot_cursor != n) return Status::Corruption("slot out of range in leaf");
    return Status::OK();
  };

  switch (leaf.leaf.type->kind()) {
    case TypeKind::kBoolean: {
      std::vector<uint8_t> values;
      RETURN_IF_ERROR(build(leaf.bools, values));
      if (!any_null) nulls.clear();
      return VectorPtr(std::make_shared<BoolVector>(leaf.leaf.type,
                                                    std::move(values),
                                                    std::move(nulls)));
    }
    case TypeKind::kDouble: {
      std::vector<double> values;
      RETURN_IF_ERROR(build(leaf.doubles, values));
      if (!any_null) nulls.clear();
      return VectorPtr(std::make_shared<DoubleVector>(leaf.leaf.type,
                                                      std::move(values),
                                                      std::move(nulls)));
    }
    case TypeKind::kVarchar: {
      std::vector<std::string> values;
      RETURN_IF_ERROR(build(leaf.strings, values));
      if (!any_null) nulls.clear();
      return VectorPtr(std::make_shared<StringVector>(leaf.leaf.type,
                                                      std::move(values),
                                                      std::move(nulls)));
    }
    default: {
      std::vector<int64_t> values;
      RETURN_IF_ERROR(build(leaf.ints, values));
      if (!any_null) nulls.clear();
      return VectorPtr(std::make_shared<Int64Vector>(leaf.leaf.type,
                                                     std::move(values),
                                                     std::move(nulls)));
    }
  }
}

// Assembles a subtree that contains no repeated node. `slots` are entry
// indices into the subtree's leaves (which all share ancestor structure).
Result<VectorPtr> AssembleFlat(const TypePtr& type, int base_def,
                               const std::vector<const DecodedLeaf*>& leaves,
                               size_t* cursor, const std::vector<int32_t>& slots) {
  switch (type->kind()) {
    case TypeKind::kRow: {
      if (*cursor >= leaves.size()) return Status::Corruption("missing leaves");
      const DecodedLeaf& probe = *leaves[*cursor];
      std::vector<uint8_t> nulls(slots.size(), 0);
      bool any_null = false;
      for (size_t i = 0; i < slots.size(); ++i) {
        if (probe.def[slots[i]] <= base_def) {
          nulls[i] = 1;
          any_null = true;
        }
      }
      if (!any_null) nulls.clear();
      std::vector<VectorPtr> children;
      for (size_t f = 0; f < type->NumChildren(); ++f) {
        ASSIGN_OR_RETURN(VectorPtr child,
                         AssembleFlat(type->child(f), base_def + 1, leaves,
                                      cursor, slots));
        children.push_back(std::move(child));
      }
      return VectorPtr(std::make_shared<RowVector>(
          type, slots.size(), std::move(children), std::move(nulls)));
    }
    case TypeKind::kArray:
    case TypeKind::kMap:
      return Status::Internal("repeated node inside AssembleFlat");
    default: {
      if (*cursor >= leaves.size()) return Status::Corruption("missing leaves");
      const DecodedLeaf& leaf = *leaves[*cursor];
      ++*cursor;
      return ExtractScalar(leaf, slots);
    }
  }
}

// Counts how many leaves EnumerateFieldLeaves would produce for a type.
size_t LeafCount(const TypePtr& type) {
  switch (type->kind()) {
    case TypeKind::kRow: {
      size_t n = 0;
      for (size_t i = 0; i < type->NumChildren(); ++i) {
        n += LeafCount(type->child(i));
      }
      return n;
    }
    case TypeKind::kArray:
      return LeafCount(type->element());
    case TypeKind::kMap:
      return LeafCount(type->map_key()) + LeafCount(type->map_value());
    default:
      return 1;
  }
}

// An ARRAY or MAP node: each row's container spans the entries from its
// rep-level start to the next row's, and its elements assemble flat.
Result<VectorPtr> AssembleRepeated(const TypePtr& type, int base_def,
                                   const std::vector<const DecodedLeaf*>& leaves,
                                   size_t* cursor, size_t num_rows) {
  if (*cursor >= leaves.size()) return Status::Corruption("missing leaves");
  const DecodedLeaf& probe = *leaves[*cursor];
  std::vector<int32_t> starts = RowStarts(probe);
  if (starts.size() != num_rows) {
    return Status::Corruption("row count mismatch in repeated leaf " +
                              probe.leaf.path);
  }
  std::vector<int32_t> offsets(num_rows), lengths(num_rows);
  std::vector<uint8_t> nulls(num_rows, 0);
  std::vector<int32_t> element_slots;
  bool any_null = false;
  size_t total_entries = probe.def.size();
  for (size_t r = 0; r < num_rows; ++r) {
    size_t begin = starts[r];
    size_t end = r + 1 < num_rows ? starts[r + 1] : total_entries;
    offsets[r] = static_cast<int32_t>(element_slots.size());
    uint8_t d0 = probe.def[begin];
    if (d0 <= base_def) {
      nulls[r] = 1;
      any_null = true;
      lengths[r] = 0;
    } else if (d0 == base_def + 1) {
      lengths[r] = 0;  // empty container
    } else {
      lengths[r] = static_cast<int32_t>(end - begin);
      for (size_t e = begin; e < end; ++e) {
        element_slots.push_back(static_cast<int32_t>(e));
      }
    }
  }
  if (!any_null) nulls.clear();
  if (type->kind() == TypeKind::kArray) {
    ASSIGN_OR_RETURN(VectorPtr elements,
                     AssembleFlat(type->element(), base_def + 2, leaves,
                                  cursor, element_slots));
    return VectorPtr(std::make_shared<ArrayVector>(
        type, std::move(offsets), std::move(lengths), std::move(elements),
        std::move(nulls)));
  }
  ASSIGN_OR_RETURN(VectorPtr keys,
                   AssembleFlat(type->map_key(), base_def + 2, leaves,
                                cursor, element_slots));
  ASSIGN_OR_RETURN(VectorPtr values,
                   AssembleFlat(type->map_value(), base_def + 2, leaves,
                                cursor, element_slots));
  return VectorPtr(std::make_shared<MapVector>(
      type, std::move(offsets), std::move(lengths), std::move(keys),
      std::move(values), std::move(nulls)));
}

// Full assembly: handles subtrees that may contain (at most) one repeated
// node on each root-to-leaf path. `row_slots` index top-level rows.
Result<VectorPtr> AssembleNode(const TypePtr& type, int base_def,
                               const std::vector<const DecodedLeaf*>& leaves,
                               size_t* cursor, size_t num_rows) {
  switch (type->kind()) {
    case TypeKind::kRow: {
      if (*cursor >= leaves.size()) return Status::Corruption("missing leaves");
      const DecodedLeaf& probe = *leaves[*cursor];
      std::vector<int32_t> starts = RowStarts(probe);
      if (starts.size() != num_rows) {
        return Status::Corruption("row count mismatch in leaf " +
                                  probe.leaf.path);
      }
      std::vector<uint8_t> nulls(num_rows, 0);
      bool any_null = false;
      for (size_t r = 0; r < num_rows; ++r) {
        if (probe.def[starts[r]] <= base_def) {
          nulls[r] = 1;
          any_null = true;
        }
      }
      if (!any_null) nulls.clear();
      std::vector<VectorPtr> children;
      for (size_t f = 0; f < type->NumChildren(); ++f) {
        ASSIGN_OR_RETURN(VectorPtr child,
                         AssembleNode(type->child(f), base_def + 1, leaves,
                                      cursor, num_rows));
        children.push_back(std::move(child));
      }
      return VectorPtr(std::make_shared<RowVector>(type, num_rows,
                                                   std::move(children),
                                                   std::move(nulls)));
    }
    case TypeKind::kArray:
    case TypeKind::kMap:
      return AssembleRepeated(type, base_def, leaves, cursor, num_rows);
    default: {
      if (*cursor >= leaves.size()) return Status::Corruption("missing leaves");
      const DecodedLeaf& leaf = *leaves[*cursor];
      ++*cursor;
      if (leaf.def.size() != num_rows) {
        return Status::Corruption("row count mismatch in leaf " + leaf.leaf.path);
      }
      std::vector<int32_t> slots(num_rows);
      for (size_t i = 0; i < num_rows; ++i) slots[i] = static_cast<int32_t>(i);
      return ExtractScalar(leaf, slots);
    }
  }
}

}  // namespace

Result<VectorPtr> AssembleColumn(const TypePtr& type,
                                 const std::vector<const DecodedLeaf*>& leaves,
                                 size_t num_rows) {
  if (leaves.size() != LeafCount(type)) {
    return Status::InvalidArgument("leaf count does not match column type");
  }
  size_t cursor = 0;
  ASSIGN_OR_RETURN(VectorPtr out,
                   AssembleNode(type, 0, leaves, &cursor, num_rows));
  if (cursor != leaves.size()) {
    return Status::Internal("leaf cursor mismatch during assembly");
  }
  return out;
}

size_t CountRows(const DecodedLeaf& leaf) {
  if (leaf.leaf.max_rep == 0) return leaf.def.size();
  size_t rows = 0;
  for (uint8_t r : leaf.rep) {
    if (r == 0) ++rows;
  }
  return rows;
}

}  // namespace lakefile
}  // namespace presto
