// Metadata structures of the ORC-like file: per-column statistics, stripe
// directory entries, and the file footer.
//
// File layout:
//   [stripe 0][stripe 1]...[footer][crc32:4][footer_len:4][magic "DOR1":4]
// Each stripe is the concatenation of per-column (presence, data) stream
// pairs; their lengths and a per-column CRC32 live in the footer so readers
// can position-read only the projected columns and verify them before
// decoding.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bloom.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace dtl::orc {

inline constexpr uint32_t kOrcMagic = 0x31524F44;  // "DOR1" little-endian

/// Bloom hash of the bytes Value::EncodeTo writes for a value, computed
/// without building them: stripe bloom filters are keyed by those bytes.
BloomHash BloomKeyHashInt64(int64_t v);
BloomHash BloomKeyHashString(std::string_view s);
BloomHash BloomKeyHash(const Value& v);

/// Min/max/null statistics for one column within one stripe; drives
/// stripe-level predicate pruning. May additionally carry a serialized
/// bloom filter over the encoded non-null values, so equality predicates
/// can skip stripes whose min/max range covers the probe value.
struct ColumnStats {
  bool has_min_max = false;
  Value min;
  Value max;
  uint64_t null_count = 0;
  uint64_t value_count = 0;  // includes nulls
  /// Serialized dtl::BloomFilter over Value::EncodeTo bytes of the stripe's
  /// non-null values; empty = no filter (legacy files, or bloom disabled).
  std::string bloom;

  /// Bloom-probe for an equality predicate. True (may match) when no filter
  /// is present; false only when the filter proves the value absent. Probes
  /// the serialized filter in place.
  bool BloomMayContain(const Value& v) const;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, ColumnStats* out);
};

/// Location and size of one column's streams within a stripe.
struct StreamInfo {
  uint64_t presence_length = 0;
  uint64_t data_length = 0;
  /// CRC32 over the concatenated presence+data bytes; verified on every
  /// stripe read so a flipped bit in column data surfaces as Corruption
  /// instead of a garbage decode.
  uint32_t crc = 0;
};

/// Directory entry for one stripe.
struct StripeInfo {
  uint64_t offset = 0;       // byte offset of the stripe in the file
  uint64_t length = 0;       // total stripe bytes
  uint64_t first_row = 0;    // file-level row number of the stripe's first row
  uint64_t num_rows = 0;
  std::vector<StreamInfo> streams;    // one per column
  std::vector<ColumnStats> stats;     // one per column

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, size_t num_columns, StripeInfo* out);
};

/// File footer: identity, schema, and the stripe directory.
struct FileFooter {
  uint64_t file_id = 0;  // DualTable-wide unique file ID (record-ID high bits)
  Schema schema;
  uint64_t num_rows = 0;
  std::vector<StripeInfo> stripes;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, FileFooter* out);
};

}  // namespace dtl::orc
