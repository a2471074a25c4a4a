#include "presto/types/value.h"

#include <cmath>
#include <limits>

#include "presto/common/hash.h"

namespace presto {

namespace {

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& other) const {
  // NULLs first.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  // Mixed numeric comparison.
  if ((is_int() || is_double()) && (other.is_int() || other.is_double())) {
    if (is_int() && other.is_int()) {
      if (int_value() < other.int_value()) return -1;
      if (int_value() > other.int_value()) return 1;
      return 0;
    }
    return CompareDoubles(AsDouble(), other.AsDouble());
  }
  if (is_bool() && other.is_bool()) {
    return static_cast<int>(bool_value()) - static_cast<int>(other.bool_value());
  }
  if (is_string() && other.is_string()) {
    return string_value().compare(other.string_value());
  }
  if ((is_row() && other.is_row()) || (is_array() && other.is_array())) {
    const RowData& a = children();
    const RowData& b = other.children();
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c;
    }
    if (a.size() < b.size()) return -1;
    if (a.size() > b.size()) return 1;
    return 0;
  }
  if (is_map() && other.is_map()) {
    const MapData& a = map_entries();
    const MapData& b = other.map_entries();
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].first.Compare(b[i].first);
      if (c != 0) return c;
      c = a[i].second.Compare(b[i].second);
      if (c != 0) return c;
    }
    if (a.size() < b.size()) return -1;
    if (a.size() > b.size()) return 1;
    return 0;
  }
  // Different kinds: order by variant index for a stable total order.
  return data_.index() < other.data_.index() ? -1 : 1;
}

uint64_t Value::Hash() const {
  if (is_null()) return 0x5c5c5c5c5c5c5c5cULL;
  if (is_bool()) return HashMix64(bool_value() ? 1 : 2);
  if (is_int()) return HashMix64(static_cast<uint64_t>(int_value()));
  if (is_double()) {
    // Normalize -0.0 so it hashes like 0.0 (they compare equal), and every
    // NaN payload to one NaN.
    double d = double_value() == 0.0 ? 0.0 : double_value();
    if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(d));
    return HashMix64(bits);
  }
  if (is_string()) return HashString(string_value());
  uint64_t h = 0x1234abcd;
  if (is_map()) {
    for (const auto& [k, v] : map_entries()) {
      h = HashCombine(h, HashCombine(k.Hash(), v.Hash()));
    }
    return h;
  }
  for (const Value& child : children()) {
    h = HashCombine(h, child.Hash());
  }
  return h;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_bool()) return bool_value() ? "true" : "false";
  if (is_int()) return std::to_string(int_value());
  if (is_double()) {
    std::string s = std::to_string(double_value());
    return s;
  }
  if (is_string()) return "'" + string_value() + "'";
  std::string out;
  if (is_row()) {
    out = "ROW(";
    for (size_t i = 0; i < children().size(); ++i) {
      if (i > 0) out += ", ";
      out += children()[i].ToString();
    }
    out += ")";
    return out;
  }
  if (is_array()) {
    out = "ARRAY[";
    for (size_t i = 0; i < children().size(); ++i) {
      if (i > 0) out += ", ";
      out += children()[i].ToString();
    }
    out += "]";
    return out;
  }
  out = "MAP{";
  for (size_t i = 0; i < map_entries().size(); ++i) {
    if (i > 0) out += ", ";
    out += map_entries()[i].first.ToString();
    out += ": ";
    out += map_entries()[i].second.ToString();
  }
  out += "}";
  return out;
}

}  // namespace presto
