// Typed cell storage for one column: the form every decoded cell takes on
// the read path (ORC decode -> stripe cache -> RowBatch -> UNION READ).
// Int64 and date cells, doubles and booleans sit in plain arrays; strings
// are (offset, length) pairs into one byte arena per column; a validity
// bitmap marks the NULLs. A cell costs 8 bytes (a string adds its bytes, once
// per dictionary key) where a Value costs 40, and filter kernels read the
// arrays directly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/value.h"

namespace dtl::table {

/// A string cell: `length` bytes at `offset` in its column's arena.
struct StringRef {
  uint32_t offset = 0;
  uint32_t length = 0;
};

/// The cells of one column. Only the array of `type` holds cells: `ints` for
/// kInt64 and kDate, `doubles`, `bools` (one 0/1 byte each) or `strings`; a
/// kNull column has no array and every cell is NULL. `validity` holds
/// LSB-first bits, bit i set when cell i is non-NULL, and is empty when no
/// cell is NULL. A NULL cell's slot holds zero (or an empty string), so a
/// kernel may read every slot and mask afterwards.
struct ColumnData {
  DataType type = DataType::kNull;
  size_t size = 0;
  std::vector<uint8_t> validity;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> bools;
  std::vector<StringRef> strings;
  std::string arena;

  /// Empties the column and sets its type, keeping every buffer's capacity.
  void Reset(DataType t);
  /// `n` NULL cells of type `t`.
  void ResetNulls(DataType t, size_t n);
  /// Rows [offset, offset + n) of `src`, with an arena of their own.
  void CopyFrom(const ColumnData& src, size_t offset, size_t n);

  bool has_nulls() const { return !validity.empty(); }
  bool IsNull(size_t i) const {
    DTL_DCHECK_LT(i, size);
    return !validity.empty() && ((validity[i >> 3] >> (i & 7)) & 1) == 0;
  }
  std::string_view string_at(size_t i) const {
    const StringRef r = strings[i];
    return std::string_view(arena.data() + r.offset, r.length);
  }

  /// Cell `i` as a Value (row consumers).
  Value ValueAt(size_t i) const;
  /// Cell `i` into `*out`, reusing the buffer of a string `*out` holds.
  void AssignTo(size_t i, Value* out) const;

  /// Appends `v`; false, appending nothing, when `v` is neither NULL nor of
  /// the kind this column's type stores.
  bool Append(const Value& v);
  /// Overwrites cell `i` with a decoded attached patch; false, changing
  /// nothing, when the patch is neither NULL nor of this column's kind. A
  /// string patch appends its bytes to the arena and repoints the cell.
  bool Set(size_t i, const Value::Encoded& v);

  /// Real memory the buffers occupy (their capacity, not their size).
  size_t MemoryBytes() const;

 private:
  /// Marks cell `i` NULL, materializing the bitmap on the first NULL.
  void SetNull(size_t i);
  void SetValid(size_t i);
  /// Appends a slot for one more cell, zeroed; returns its index.
  size_t AppendSlot();
  StringRef AppendBytes(std::string_view s);
};

/// Whether a non-NULL value of kind `kind` (as Value::Encoded reports it) is
/// what a column of type `type` stores.
bool KindMatches(DataType kind, DataType type);

/// The Value::Encoded kind of a non-NULL Value.
DataType KindOf(const Value& v);

}  // namespace dtl::table
