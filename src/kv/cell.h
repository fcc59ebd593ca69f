// Cell model of the HBase-like KV store: every stored datum is a versioned
// cell addressed by (row key, column qualifier, timestamp) with a type that
// distinguishes puts from delete tombstones.
//
// Sort order matches HBase: rows ascending, qualifiers ascending, timestamps
// DESCENDING (newest version first), so a forward scan sees the latest
// version of a cell before older ones.
#pragma once

#include <cstdint>
#include <string>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"

namespace dtl::kv {

/// Cell kind. kDeleteRow masks every column of the row at or below its
/// timestamp; kDeleteColumn masks one qualifier.
enum class CellType : uint8_t {
  kPut = 0,
  kDeleteRow = 1,
  kDeleteColumn = 2,
};

/// Addresses one cell version.
struct CellKey {
  std::string row;
  uint32_t qualifier = 0;
  uint64_t timestamp = 0;

  /// HBase ordering: row asc, qualifier asc, timestamp desc.
  int Compare(const CellKey& other) const {
    int c = Slice(row).Compare(Slice(other.row));
    if (c != 0) return c;
    if (qualifier != other.qualifier) return qualifier < other.qualifier ? -1 : 1;
    if (timestamp != other.timestamp) return timestamp > other.timestamp ? -1 : 1;
    return 0;
  }

  bool operator==(const CellKey& other) const { return Compare(other) == 0; }
};

/// Comparator functor for SkipList / sorting.
struct CellKeyCompare {
  int operator()(const CellKey& a, const CellKey& b) const { return a.Compare(b); }
};

/// Payload of one cell version.
struct CellValue {
  CellType type = CellType::kPut;
  std::string value;  // empty for tombstones

  size_t ByteSize() const { return value.size() + 1; }
};

/// One complete cell (key + payload), the unit moved through WAL, memtable
/// flushes, SSTables, and merge iterators.
struct Cell {
  CellKey key;
  CellValue value;

  size_t ByteSize() const { return key.row.size() + 12 + value.ByteSize(); }
};

/// Serialization used by both the WAL and SSTable blocks:
/// [row len-prefixed][qualifier varint][timestamp varint][type:1][value len-prefixed].
inline void EncodeCell(const Cell& cell, std::string* dst) {
  PutLengthPrefixed(dst, Slice(cell.key.row));
  PutVarint32(dst, cell.key.qualifier);
  PutVarint64(dst, cell.key.timestamp);
  dst->push_back(static_cast<char>(cell.value.type));
  PutLengthPrefixed(dst, Slice(cell.value.value));
}

inline Status DecodeCell(Slice* input, Cell* out) {
  Slice row;
  DTL_RETURN_NOT_OK(GetLengthPrefixed(input, &row));
  // assign() reuses the destination's capacity: iterators decode every cell
  // into one reused Cell without a heap allocation per cell.
  out->key.row.assign(row.data(), row.size());
  DTL_RETURN_NOT_OK(GetVarint32(input, &out->key.qualifier));
  DTL_RETURN_NOT_OK(GetVarint64(input, &out->key.timestamp));
  if (input->empty()) return Status::Corruption("truncated cell type");
  out->value.type = static_cast<CellType>((*input)[0]);
  input->RemovePrefix(1);
  Slice value;
  DTL_RETURN_NOT_OK(GetLengthPrefixed(input, &value));
  out->value.value.assign(value.data(), value.size());
  return Status::OK();
}

}  // namespace dtl::kv
