#include "common/coding.h"

#include <array>
#include <cstring>

namespace dtl {

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  dst->append(buf, 8);
}

uint32_t DecodeFixed32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) | (static_cast<uint32_t>(u[3]) << 24);
}

uint64_t DecodeFixed64(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | u[i];
  return v;
}

void PutVarint32(std::string* dst, uint32_t v) { PutVarint64(dst, v); }

void PutVarint64(std::string* dst, uint64_t v) {
  char buf[kMaxVarint64Bytes];
  const char* end = EncodeVarint64(buf, v);
  dst->append(buf, static_cast<size_t>(end - buf));
}

Status GetVarint64(Slice* input, uint64_t* value) {
  const char* limit = input->data() + input->size();
  const char* p = GetVarint64Ptr(input->data(), limit, value);
  if (p == nullptr) {
    return Status::Corruption(input->size() < kMaxVarint64Bytes ? "truncated varint"
                                                                 : "varint too long");
  }
  input->RemovePrefix(static_cast<size_t>(p - input->data()));
  return Status::OK();
}

Status GetVarint32(Slice* input, uint32_t* value) {
  uint64_t v64 = 0;
  DTL_RETURN_NOT_OK(GetVarint64(input, &v64));
  if (v64 > UINT32_MAX) return Status::Corruption("varint32 overflow");
  *value = static_cast<uint32_t>(v64);
  return Status::OK();
}

void PutLengthPrefixed(std::string* dst, const Slice& value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

Status GetLengthPrefixed(Slice* input, Slice* value) {
  uint64_t len = 0;
  DTL_RETURN_NOT_OK(GetVarint64(input, &len));
  if (input->size() < len) return Status::Corruption("truncated length-prefixed string");
  *value = Slice(input->data(), len);
  input->RemovePrefix(len);
  return Status::OK();
}

void PutBigEndian64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * (7 - i))) & 0xff);
  dst->append(buf, 8);
}

uint64_t DecodeBigEndian64(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | u[i];
  return v;
}

namespace {

// CRC-32C (Castagnoli), reflected polynomial 0x82F63B78.
std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t Crc32Sse42(const char* data, size_t n) {
  uint64_t crc = 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = __builtin_ia32_crc32di(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n) crc32 = __builtin_ia32_crc32qi(crc32, *p++);
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

}  // namespace

uint32_t Crc32Table(const char* data, size_t n) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool Crc32HardwareAvailable() {
#if defined(__x86_64__)
  static const bool kAvailable = __builtin_cpu_supports("sse4.2");
  return kAvailable;
#else
  return false;
#endif
}

uint32_t Crc32Hardware(const char* data, size_t n) {
#if defined(__x86_64__)
  return Crc32Sse42(data, n);
#else
  return Crc32Table(data, n);
#endif
}

uint32_t Crc32(const char* data, size_t n) {
  return Crc32HardwareAvailable() ? Crc32Hardware(data, n) : Crc32Table(data, n);
}

}  // namespace dtl
