#include "common/bloom.h"

#include <algorithm>
#include <cmath>

namespace dtl {

namespace {

bool Probe(const uint8_t* bits, size_t num_bytes, int num_probes, const BloomHash& hash) {
  const uint64_t h1 = hash.h0();
  const uint64_t h2 = hash.h1() | 1;  // odd so it cycles all positions
  const uint64_t nbits = num_bytes * 8;
  for (int i = 0; i < num_probes; ++i) {
    const uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % nbits;
    if ((bits[bit / 8] & (1u << (bit % 8))) == 0) return false;
  }
  return true;
}

}  // namespace

BloomFilter::BloomFilter(size_t expected_keys, int bits_per_key) {
  size_t bits = std::max<size_t>(64, expected_keys * static_cast<size_t>(bits_per_key));
  bits_.assign((bits + 7) / 8, 0);
  // k = ln(2) * bits/keys, clamped to a sane range.
  num_probes_ = static_cast<int>(bits_per_key * 0.69);
  num_probes_ = std::clamp(num_probes_, 1, 30);
}

BloomFilter BloomFilter::Deserialize(const Slice& data) {
  BloomFilter f;
  if (data.empty()) {
    f.bits_.assign(8, 0);
    f.num_probes_ = 1;
    return f;
  }
  f.num_probes_ = static_cast<unsigned char>(data[0]);
  if (f.num_probes_ < 1) f.num_probes_ = 1;
  f.bits_.assign(data.data() + 1, data.data() + data.size());
  if (f.bits_.empty()) f.bits_.assign(8, 0);
  return f;
}

void BloomFilter::Add(const BloomHash& hash) {
  const uint64_t h1 = hash.h0();
  const uint64_t h2 = hash.h1() | 1;
  const uint64_t nbits = bits_.size() * 8;
  for (int i = 0; i < num_probes_; ++i) {
    const uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % nbits;
    bits_[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
  }
}

bool BloomFilter::MayContain(const BloomHash& hash) const {
  return Probe(bits_.data(), bits_.size(), num_probes_, hash);
}

bool BloomFilter::MayContainSerialized(const Slice& serialized, const BloomHash& hash) {
  // A filter with no bit bytes deserializes to all-zero bits: nothing passes.
  if (serialized.size() <= 1) return false;
  const int num_probes = std::max(1, static_cast<int>(
                                            static_cast<unsigned char>(serialized[0])));
  return Probe(reinterpret_cast<const uint8_t*>(serialized.data() + 1),
               serialized.size() - 1, num_probes, hash);
}

std::string BloomFilter::Serialize() const {
  std::string out;
  out.push_back(static_cast<char>(num_probes_));
  out.append(reinterpret_cast<const char*>(bits_.data()), bits_.size());
  return out;
}

}  // namespace dtl
