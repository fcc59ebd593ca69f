// Per-column stream encodings for the ORC-like container:
//   * int64 / date — zig-zag varints with run-length groups,
//   * double       — raw little-endian fixed64,
//   * string       — dictionary-encoded when the dictionary pays off,
//                    direct length-prefixed otherwise,
//   * boolean      — bit-packed,
//   * presence     — bit-packed null bitmap (data streams hold only
//                    non-null values, as in real ORC).
//
// The writer hands the encoders typed values; the reader decodes a column's
// presence and data streams in one pass straight into typed cells.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/value.h"
#include "table/column_data.h"

namespace dtl::orc {

// --- encoders -----------------------------------------------------------------

/// A varint value count, then groups: control varint c; if c&1 the group is a
/// run of (c>>1) copies of one zig-zag varint, else (c>>1) literal zig-zag
/// varints.
void EncodeInt64Stream(std::span<const int64_t> values, std::string* dst);

/// A varint value count, then each value's little-endian fixed64 bits.
void EncodeDoubleStream(std::span<const double> values, std::string* dst);

/// A mode byte, then the values dictionary-encoded (mode 1: sorted distinct
/// keys, then their indexes as an int64 stream) when distinct values are at
/// most half of the total (ORC's heuristic), direct otherwise (mode 0: count,
/// then length-prefixed values). Keys sort bytewise, unsigned. Distinct values
/// are counted in a hash table that stops once they pass half, so a unique
/// column costs one probe per value before it falls back to direct.
void EncodeStringStream(std::span<const std::string_view> values, std::string* dst);

/// A varint value count, then the values packed LSB-first, eight per byte.
/// Each input byte is one value (0 or 1).
void EncodeBoolStream(std::span<const uint8_t> values, std::string* dst);

// --- decoder ------------------------------------------------------------------

/// Decodes one column of one stripe in one pass into `num_rows` typed cells
/// (nulls included): the presence bytes become the validity bitmap, and
/// `data` fills the typed array. A direct string stream copies its bytes into
/// the arena; a dictionary copies each key once and points its rows at it.
/// `num_rows` is the stripe directory's row count. Every count a stream
/// carries is checked against it, or against the bytes left, before anything
/// is allocated, so a malformed stream yields Corruption, never an oversized
/// allocation or an out-of-bounds read.
Status DecodeColumn(DataType type, Slice presence, Slice data, uint64_t num_rows,
                    table::ColumnData* out);

}  // namespace dtl::orc
