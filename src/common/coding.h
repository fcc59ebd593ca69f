// Byte-level encoding primitives shared by the ORC writer, the KV store's
// SSTable/WAL formats, and record-ID key packing: little-endian fixed ints,
// LEB128 varints, zig-zag transforms, length-prefixed strings, and CRC-32C.
#pragma once

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace dtl {

// --- fixed-width little-endian ---------------------------------------------

void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);
uint32_t DecodeFixed32(const char* p);
uint64_t DecodeFixed64(const char* p);

// --- LEB128 varints ----------------------------------------------------------

/// Longest varint64: ten 7-bit groups.
inline constexpr size_t kMaxVarint64Bytes = 10;

void PutVarint32(std::string* dst, uint32_t v);
void PutVarint64(std::string* dst, uint64_t v);

/// Writes v as a varint at dst (room for kMaxVarint64Bytes) and returns the
/// byte past it.
inline char* EncodeVarint64(char* dst, uint64_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *dst++ = static_cast<char>(v);
  return dst;
}

/// Parses a varint from [p, limit) and returns the byte past it, or nullptr
/// when the input ends mid-varint or runs past kMaxVarint64Bytes. The one-byte
/// case takes a single branch; hot decode loops call this directly.
inline const char* GetVarint64Ptr(const char* p, const char* limit, uint64_t* value) {
  if (p < limit && static_cast<unsigned char>(*p) < 0x80) {
    *value = static_cast<unsigned char>(*p);
    return p + 1;
  }
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && p < limit; shift += 7) {
    const uint64_t byte = static_cast<unsigned char>(*p++);
    result |= (byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return p;
    }
  }
  return nullptr;
}

/// Decodes a varint from the front of *input, advancing it. Returns
/// Corruption if the input ends mid-varint.
Status GetVarint32(Slice* input, uint32_t* value);
Status GetVarint64(Slice* input, uint64_t* value);

// --- zig-zag (signed <-> unsigned) ------------------------------------------

inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// --- length-prefixed strings -------------------------------------------------

void PutLengthPrefixed(std::string* dst, const Slice& value);
Status GetLengthPrefixed(Slice* input, Slice* value);

// --- big-endian fixed (memcmp-sortable keys) ---------------------------------

/// Appends v in big-endian order so that byte order equals numeric order;
/// used for record-ID row keys in the attached table.
void PutBigEndian64(std::string* dst, uint64_t v);
uint64_t DecodeBigEndian64(const char* p);

// --- CRC-32C (Castagnoli) -----------------------------------------------------

/// CRC-32C of n bytes. Uses the SSE4.2 crc32 instruction when the CPU has it
/// (checked once at run time; no build flag), a bytewise table otherwise.
/// Both give the same value.
uint32_t Crc32(const char* data, size_t n);
inline uint32_t Crc32(const Slice& s) { return Crc32(s.data(), s.size()); }

/// The two implementations Crc32 dispatches between, exposed so tests can
/// check that they agree. Crc32Hardware may only be called when
/// Crc32HardwareAvailable() is true.
uint32_t Crc32Table(const char* data, size_t n);
bool Crc32HardwareAvailable();
uint32_t Crc32Hardware(const char* data, size_t n);

}  // namespace dtl
