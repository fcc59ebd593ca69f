// Bloom filter used by SSTables to skip blocks that cannot contain a key,
// mirroring HBase's per-HFile bloom filters, and by ORC stripe statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"

namespace dtl {

/// The two seeded FNV-1a hashes a BloomFilter probes with, computed in one
/// pass. Update may be fed a key in pieces: the result equals hashing the
/// concatenation, so callers can hash an encoded key without building it.
class BloomHash {
 public:
  void Update(const char* data, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t byte = static_cast<unsigned char>(data[i]);
      h0_ = (h0_ ^ byte) * kPrime;
      h1_ = (h1_ ^ byte) * kPrime;
    }
  }

  static BloomHash Of(const Slice& key) {
    BloomHash h;
    h.Update(key.data(), key.size());
    return h;
  }

  uint64_t h0() const { return h0_; }
  uint64_t h1() const { return h1_; }

 private:
  static constexpr uint64_t kOffset = 1469598103934665603ull;
  static constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h0_ = kOffset;                          // seed 0
  uint64_t h1_ = kOffset ^ 0x9E3779B97F4A7C15ull;  // seed 1
};

/// Standard double-hashed Bloom filter over byte-string keys.
class BloomFilter {
 public:
  /// Builds a filter sized for `expected_keys` at `bits_per_key` (default 10
  /// gives ~1% false positives).
  explicit BloomFilter(size_t expected_keys, int bits_per_key = 10);

  /// Reconstructs a filter from a serialized representation.
  static BloomFilter Deserialize(const Slice& data);

  void Add(const Slice& key) { Add(BloomHash::Of(key)); }
  void Add(const BloomHash& hash);

  /// False means definitely absent; true means possibly present.
  bool MayContain(const Slice& key) const { return MayContain(BloomHash::Of(key)); }
  bool MayContain(const BloomHash& hash) const;

  /// Probes serialized filter bytes in place, answering exactly what
  /// Deserialize(serialized).MayContain would, without copying the filter.
  static bool MayContainSerialized(const Slice& serialized, const BloomHash& hash);

  /// Serializes to [num_probes:1][bits...]; append-safe for file footers.
  std::string Serialize() const;

  size_t bit_count() const { return bits_.size() * 8; }

 private:
  BloomFilter() = default;

  std::vector<uint8_t> bits_;
  int num_probes_ = 1;
};

}  // namespace dtl
