#include "table/column_data.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace dtl::table {

bool KindMatches(DataType kind, DataType type) {
  switch (type) {
    case DataType::kInt64:
    case DataType::kDate:
      return kind == DataType::kInt64 || kind == DataType::kDate;
    case DataType::kDouble:
    case DataType::kString:
    case DataType::kBool:
      return kind == type;
    case DataType::kNull:
      break;
  }
  return false;
}

DataType KindOf(const Value& v) {
  if (v.is_int64()) return DataType::kInt64;
  if (v.is_double()) return DataType::kDouble;
  if (v.is_string()) return DataType::kString;
  if (v.is_bool()) return DataType::kBool;
  return DataType::kNull;
}

void ColumnData::Reset(DataType t) {
  type = t;
  size = 0;
  validity.clear();
  ints.clear();
  doubles.clear();
  bools.clear();
  strings.clear();
  arena.clear();
}

void ColumnData::ResetNulls(DataType t, size_t n) {
  Reset(t);
  switch (t) {
    case DataType::kInt64:
    case DataType::kDate:
      ints.assign(n, 0);
      break;
    case DataType::kDouble:
      doubles.assign(n, 0.0);
      break;
    case DataType::kBool:
      bools.assign(n, 0);
      break;
    case DataType::kString:
      strings.assign(n, StringRef{});
      break;
    case DataType::kNull:
      break;
  }
  size = n;
  validity.assign((n + 7) / 8, 0);
}

void ColumnData::CopyFrom(const ColumnData& src, size_t offset, size_t n) {
  DTL_CHECK_LE(offset + n, src.size);
  Reset(src.type);
  size = n;
  if (src.has_nulls()) {
    validity.assign((n + 7) / 8, 0);
    if (offset % 8 == 0) {
      std::memcpy(validity.data(), src.validity.data() + offset / 8, (n + 7) / 8);
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (!src.IsNull(offset + i)) {
          validity[i >> 3] |= static_cast<uint8_t>(1u << (i & 7));
        }
      }
    }
  }
  switch (type) {
    case DataType::kInt64:
    case DataType::kDate:
      ints.assign(src.ints.begin() + offset, src.ints.begin() + offset + n);
      break;
    case DataType::kDouble:
      doubles.assign(src.doubles.begin() + offset, src.doubles.begin() + offset + n);
      break;
    case DataType::kBool:
      bools.assign(src.bools.begin() + offset, src.bools.begin() + offset + n);
      break;
    case DataType::kString: {
      // The slice's bytes lie in one range of the source arena: the slice
      // itself for a direct-encoded stripe, at most the dictionary keys for a
      // dictionary-encoded one. Copy that range and rebase.
      strings.assign(src.strings.begin() + offset, src.strings.begin() + offset + n);
      size_t lo = std::numeric_limits<size_t>::max();
      size_t hi = 0;
      for (const StringRef& r : strings) {
        if (r.length == 0) continue;
        lo = std::min<size_t>(lo, r.offset);
        hi = std::max<size_t>(hi, size_t{r.offset} + r.length);
      }
      if (hi == 0) lo = 0;
      arena.assign(src.arena, lo, hi - lo);
      for (StringRef& r : strings) {
        r.offset = r.length == 0 ? 0 : static_cast<uint32_t>(r.offset - lo);
      }
      break;
    }
    case DataType::kNull:
      break;
  }
}

Value ColumnData::ValueAt(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type) {
    case DataType::kInt64:
    case DataType::kDate:
      return Value::Int64(ints[i]);
    case DataType::kDouble:
      return Value::Double(doubles[i]);
    case DataType::kBool:
      return Value::Bool(bools[i] != 0);
    case DataType::kString:
      return Value::String(std::string(string_at(i)));
    case DataType::kNull:
      break;
  }
  return Value::Null();
}

void ColumnData::AssignTo(size_t i, Value* out) const {
  if (type == DataType::kString && !IsNull(i)) {
    out->AssignString(string_at(i));
  } else {
    *out = ValueAt(i);
  }
}

size_t ColumnData::AppendSlot() {
  switch (type) {
    case DataType::kInt64:
    case DataType::kDate:
      ints.push_back(0);
      break;
    case DataType::kDouble:
      doubles.push_back(0.0);
      break;
    case DataType::kBool:
      bools.push_back(0);
      break;
    case DataType::kString:
      strings.push_back(StringRef{});
      break;
    case DataType::kNull:
      break;
  }
  if (!validity.empty()) {
    if (validity.size() * 8 <= size) validity.push_back(0);
    validity[size >> 3] |= static_cast<uint8_t>(1u << (size & 7));
  }
  return size++;
}

void ColumnData::SetNull(size_t i) {
  if (validity.empty()) validity.assign((size + 7) / 8, 0xFF);
  validity[i >> 3] &= static_cast<uint8_t>(~(1u << (i & 7)));
}

void ColumnData::SetValid(size_t i) {
  if (!validity.empty()) validity[i >> 3] |= static_cast<uint8_t>(1u << (i & 7));
}

StringRef ColumnData::AppendBytes(std::string_view s) {
  DTL_CHECK_LE(arena.size() + s.size(), std::numeric_limits<uint32_t>::max());
  const StringRef r{static_cast<uint32_t>(arena.size()), static_cast<uint32_t>(s.size())};
  arena.append(s);
  return r;
}

bool ColumnData::Append(const Value& v) {
  if (v.is_null()) {
    SetNull(AppendSlot());
    return true;
  }
  if (!KindMatches(KindOf(v), type)) return false;
  const size_t i = AppendSlot();
  switch (type) {
    case DataType::kInt64:
    case DataType::kDate:
      ints[i] = v.AsInt64();
      break;
    case DataType::kDouble:
      doubles[i] = v.AsDouble();
      break;
    case DataType::kBool:
      bools[i] = static_cast<uint8_t>(v.AsBool() ? 1 : 0);
      break;
    case DataType::kString:
      strings[i] = AppendBytes(v.AsString());
      break;
    case DataType::kNull:
      break;
  }
  return true;
}

bool ColumnData::Set(size_t i, const Value::Encoded& v) {
  DTL_CHECK_LT(i, size);
  if (v.kind == DataType::kNull) {
    SetNull(i);
    return true;
  }
  if (!KindMatches(v.kind, type)) return false;
  switch (type) {
    case DataType::kInt64:
    case DataType::kDate:
      ints[i] = v.int64;
      break;
    case DataType::kDouble:
      doubles[i] = v.dbl;
      break;
    case DataType::kBool:
      bools[i] = static_cast<uint8_t>(v.boolean ? 1 : 0);
      break;
    case DataType::kString:
      strings[i] = AppendBytes(std::string_view(v.bytes.data(), v.bytes.size()));
      break;
    case DataType::kNull:
      break;
  }
  SetValid(i);
  return true;
}

size_t ColumnData::MemoryBytes() const {
  static const size_t kInlineCapacity = std::string().capacity();
  size_t bytes = validity.capacity() + ints.capacity() * sizeof(int64_t) +
                 doubles.capacity() * sizeof(double) + bools.capacity() +
                 strings.capacity() * sizeof(StringRef);
  if (arena.capacity() > kInlineCapacity) bytes += arena.capacity() + 1;
  return bytes;
}

}  // namespace dtl::table
