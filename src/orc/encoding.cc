#include "orc/encoding.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/coding.h"

namespace dtl::orc {

namespace {

constexpr size_t kMaxGroup = 0x7FFFFFFF;  // control fits a varint32 comfortably

void EncodeStringDirect(std::span<const std::string_view> values, std::string* dst) {
  size_t bytes = 0;
  for (std::string_view v : values) bytes += v.size();
  dst->reserve(dst->size() + 1 + kMaxVarint64Bytes + bytes + values.size() * 2);
  dst->push_back(0);
  PutVarint64(dst, values.size());
  for (std::string_view v : values) PutLengthPrefixed(dst, Slice(v.data(), v.size()));
}

}  // namespace

void EncodeInt64Stream(std::span<const int64_t> values, std::string* dst) {
  PutVarint64(dst, values.size());
  size_t i = 0;
  const size_t n = values.size();
  while (i < n) {
    // Measure the run starting at i.
    size_t run = 1;
    while (i + run < n && values[i + run] == values[i] && run < kMaxGroup) ++run;
    if (run >= 3) {
      PutVarint64(dst, (static_cast<uint64_t>(run) << 1) | 1);
      PutVarint64(dst, ZigZagEncode(values[i]));
      i += run;
      continue;
    }
    // Collect a literal group up to the next run of >=3.
    size_t start = i;
    while (i < n && i - start < kMaxGroup) {
      size_t r = 1;
      while (i + r < n && values[i + r] == values[i] && r < 3) ++r;
      if (r >= 3) break;
      i += 1;
    }
    size_t count = i - start;
    if (count == 0) {  // immediately at a run boundary; force progress
      count = 1;
      i = start + 1;
    }
    PutVarint64(dst, static_cast<uint64_t>(count) << 1);
    for (size_t j = start; j < start + count; ++j) PutVarint64(dst, ZigZagEncode(values[j]));
  }
}

void EncodeDoubleStream(std::span<const double> values, std::string* dst) {
  PutVarint64(dst, values.size());
  if constexpr (std::endian::native == std::endian::little) {
    dst->append(reinterpret_cast<const char*>(values.data()),
                values.size() * sizeof(double));
  } else {
    for (double d : values) PutFixed64(dst, std::bit_cast<uint64_t>(d));
  }
}

void EncodeStringStream(std::span<const std::string_view> values, std::string* dst) {
  if (values.empty()) {
    EncodeStringDirect(values, dst);
    return;
  }
  // Dictionary mode needs distinct <= n/2; count them until they pass it,
  // giving each value the id of its first occurrence.
  const size_t limit = values.size() / 2;
  std::unordered_map<std::string_view, uint32_t> first_seen;
  first_seen.reserve(limit);
  std::vector<std::string_view> distinct;
  std::vector<uint32_t> ids(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const auto [it, inserted] =
        first_seen.try_emplace(values[i], static_cast<uint32_t>(distinct.size()));
    if (inserted) {
      if (distinct.size() == limit) {
        EncodeStringDirect(values, dst);
        return;
      }
      distinct.push_back(values[i]);
    }
    ids[i] = it->second;
  }
  // Dictionary ids follow sorted key order (bytewise, unsigned).
  std::vector<uint32_t> order(distinct.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&distinct](uint32_t a, uint32_t b) { return distinct[a] < distinct[b]; });
  std::vector<int64_t> rank(distinct.size());
  for (size_t k = 0; k < order.size(); ++k) rank[order[k]] = static_cast<int64_t>(k);

  dst->push_back(1);
  PutVarint64(dst, distinct.size());
  for (uint32_t k : order) {
    PutLengthPrefixed(dst, Slice(distinct[k].data(), distinct[k].size()));
  }
  std::vector<int64_t> indices(values.size());
  for (size_t i = 0; i < values.size(); ++i) indices[i] = rank[ids[i]];
  EncodeInt64Stream(indices, dst);
}

void EncodeBoolStream(std::span<const uint8_t> values, std::string* dst) {
  PutVarint64(dst, values.size());
  const size_t full = values.size() / 8;
  const size_t base = dst->size();
  dst->resize(base + (values.size() + 7) / 8);
  char* out = dst->data() + base;
  const uint8_t* in = values.data();
  for (size_t b = 0; b < full; ++b, in += 8) {
    out[b] = static_cast<char>(in[0] | (in[1] << 1) | (in[2] << 2) | (in[3] << 3) |
                               (in[4] << 4) | (in[5] << 5) | (in[6] << 6) | (in[7] << 7));
  }
  if (full * 8 < values.size()) {
    uint8_t byte = 0;
    for (size_t bit = 0; full * 8 + bit < values.size(); ++bit) {
      byte |= static_cast<uint8_t>(in[bit] << bit);
    }
    out[full] = static_cast<char>(byte);
  }
}

// --- decoder ------------------------------------------------------------------

namespace {

/// A bit-packed stream read in place: `count` bits at `bits`.
struct BitsView {
  const uint8_t* bits = nullptr;
  uint64_t count = 0;

  bool at(uint64_t i) const { return ((bits[i >> 3] >> (i & 7)) & 1) != 0; }

  /// Set bits among the first `count`.
  uint64_t CountSet() const {
    const uint64_t full = count / 8;
    uint64_t set = 0;
    for (uint64_t b = 0; b < full; ++b) {
      set += static_cast<uint64_t>(std::popcount(bits[b]));
    }
    if (full * 8 < count) {
      const auto mask = static_cast<uint8_t>((1u << (count - full * 8)) - 1);
      const auto tail = static_cast<uint8_t>(bits[full] & mask);
      set += static_cast<uint64_t>(std::popcount(tail));
    }
    return set;
  }
};

/// Reads a bool stream's header and checks that it holds `expected` bits.
Status ReadBits(Slice input, uint64_t expected, BitsView* out) {
  uint64_t count = 0;
  DTL_RETURN_NOT_OK(GetVarint64(&input, &count));
  if (count != expected) return Status::Corruption("bit stream count mismatch");
  if (count / 8 + static_cast<uint64_t>(count % 8 != 0) > input.size()) {
    return Status::Corruption("truncated bool stream");
  }
  out->bits = reinterpret_cast<const uint8_t*>(input.data());
  out->count = count;
  return Status::OK();
}

/// Pulls the values of an int64 RLE stream one at a time, parsing varints in
/// place. Start() checks the stream's value count; Next() fails on a
/// malformed group or a truncated varint.
class Int64Reader {
 public:
  explicit Int64Reader(Slice input)
      : p_(input.data()), limit_(input.data() + input.size()) {}

  Status Start(uint64_t expected) {
    uint64_t total = 0;
    p_ = GetVarint64Ptr(p_, limit_, &total);
    if (p_ == nullptr) return Status::Corruption("truncated int64 stream");
    if (total != expected) return Status::Corruption("int64 stream count mismatch");
    remaining_ = total;
    return Status::OK();
  }

  bool Next(int64_t* v) {
    if (group_left_ == 0 && !NextGroup()) return false;
    --group_left_;
    if (run_) {
      *v = run_value_;
      return true;
    }
    uint64_t zz = 0;
    p_ = GetVarint64Ptr(p_, limit_, &zz);
    if (p_ == nullptr) return false;
    *v = ZigZagDecode(zz);
    return true;
  }

 private:
  bool NextGroup() {
    uint64_t control = 0;
    p_ = GetVarint64Ptr(p_, limit_, &control);
    if (p_ == nullptr) return false;
    const uint64_t count = control >> 1;
    if (count == 0 || count > remaining_) return false;
    remaining_ -= count;
    group_left_ = count;
    run_ = (control & 1) != 0;
    if (run_) {
      uint64_t zz = 0;
      p_ = GetVarint64Ptr(p_, limit_, &zz);
      if (p_ == nullptr) return false;
      run_value_ = ZigZagDecode(zz);
    }
    return true;
  }

  const char* p_;
  const char* limit_;
  uint64_t remaining_ = 0;   // values in groups not yet opened
  uint64_t group_left_ = 0;  // values left in the open group
  bool run_ = false;
  int64_t run_value_ = 0;
};

/// Reads one length-prefixed string in place from [*p, limit).
bool NextString(const char** p, const char* limit, std::string_view* out) {
  uint64_t len = 0;
  const char* q = GetVarint64Ptr(*p, limit, &len);
  if (q == nullptr || len > static_cast<uint64_t>(limit - q)) return false;
  *out = std::string_view(q, len);
  *p = q + len;
  return true;
}

/// Fills one slot per row of `slots` (already sized to the row count): for
/// a present row whatever `next(slot)` stores, and an absent row's slot
/// keeps its zero. Fails with `what` when `next` does.
template <typename T, typename Next>
Status FillRows(const BitsView& presence, bool all_present, const char* what, T* slots,
                Next next) {
  for (uint64_t i = 0; i < presence.count; ++i) {
    if ((all_present || presence.at(i)) && !next(&slots[i])) {
      return Status::Corruption(what);
    }
  }
  return Status::OK();
}

Status DecodeInt64s(const BitsView& presence, uint64_t present, Slice data,
                    table::ColumnData* out) {
  Int64Reader reader(data);
  DTL_RETURN_NOT_OK(reader.Start(present));
  out->ints.resize(presence.count);
  return FillRows(presence, present == presence.count, "bad int64 RLE stream",
                  out->ints.data(), [&reader](int64_t* v) { return reader.Next(v); });
}

Status DecodeDoubles(const BitsView& presence, uint64_t present, Slice data,
                     table::ColumnData* out) {
  uint64_t total = 0;
  DTL_RETURN_NOT_OK(GetVarint64(&data, &total));
  if (total != present) return Status::Corruption("double stream count mismatch");
  if (total > data.size() / 8) return Status::Corruption("truncated double stream");
  out->doubles.resize(presence.count);
  const char* p = data.data();
  if constexpr (std::endian::native == std::endian::little) {
    if (present == presence.count) {
      std::memcpy(out->doubles.data(), p, present * sizeof(double));
      return Status::OK();
    }
  }
  return FillRows(presence, present == presence.count, "bad double stream",
                  out->doubles.data(), [&p](double* v) {
                    *v = std::bit_cast<double>(DecodeFixed64(p));
                    p += 8;
                    return true;
                  });
}

Status DecodeBools(const BitsView& presence, uint64_t present, Slice data,
                   table::ColumnData* out) {
  BitsView values;
  DTL_RETURN_NOT_OK(ReadBits(data, present, &values));
  out->bools.resize(presence.count);
  uint64_t next = 0;
  return FillRows(presence, present == presence.count, "bad bool stream",
                  out->bools.data(), [&values, &next](uint8_t* v) {
                    *v = static_cast<uint8_t>(values.at(next++) ? 1 : 0);
                    return true;
                  });
}

Status DecodeStrings(const BitsView& presence, uint64_t present, Slice data,
                     table::ColumnData* out) {
  if (data.empty()) return Status::Corruption("empty string stream");
  // Cells address the arena with 32-bit offsets, and the arena never holds
  // more than the stream's bytes.
  if (data.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("string stream too large");
  }
  const char mode = data[0];
  data.RemovePrefix(1);
  std::string& arena = out->arena;
  if (mode == 0) {
    uint64_t total = 0;
    DTL_RETURN_NOT_OK(GetVarint64(&data, &total));
    if (total != present) return Status::Corruption("string stream count mismatch");
    const char* p = data.data();
    const char* limit = p + data.size();
    arena.reserve(data.size());
    out->strings.resize(presence.count);
    return FillRows(presence, present == presence.count, "truncated string stream",
                    out->strings.data(), [&p, limit, &arena](table::StringRef* cell) {
                      std::string_view s;
                      if (!NextString(&p, limit, &s)) return false;
                      *cell = table::StringRef{static_cast<uint32_t>(arena.size()),
                                               static_cast<uint32_t>(s.size())};
                      arena.append(s);
                      return true;
                    });
  }
  if (mode != 1) return Status::Corruption("bad string stream mode");
  // A dictionary never has more keys than values, and each key takes at
  // least one byte.
  uint64_t dict_size = 0;
  DTL_RETURN_NOT_OK(GetVarint64(&data, &dict_size));
  if (dict_size > present || dict_size > data.size()) {
    return Status::Corruption("dictionary size out of range");
  }
  // The keys go into the arena once per stripe; each row points at its key.
  std::vector<table::StringRef> dict;
  dict.reserve(dict_size);
  const char* p = data.data();
  const char* limit = p + data.size();
  for (uint64_t k = 0; k < dict_size; ++k) {
    std::string_view key;
    if (!NextString(&p, limit, &key)) return Status::Corruption("truncated dictionary");
    dict.push_back(table::StringRef{static_cast<uint32_t>(arena.size()),
                                    static_cast<uint32_t>(key.size())});
    arena.append(key);
  }
  Int64Reader indices(Slice(p, static_cast<size_t>(limit - p)));
  DTL_RETURN_NOT_OK(indices.Start(present));
  out->strings.resize(presence.count);
  return FillRows(presence, present == presence.count, "bad dictionary index",
                  out->strings.data(), [&indices, &dict](table::StringRef* cell) {
                    int64_t idx = 0;
                    if (!indices.Next(&idx) || idx < 0 ||
                        static_cast<uint64_t>(idx) >= dict.size()) {
                      return false;
                    }
                    *cell = dict[static_cast<size_t>(idx)];
                    return true;
                  });
}

}  // namespace

Status DecodeColumn(DataType type, Slice presence, Slice data, uint64_t num_rows,
                    table::ColumnData* out) {
  out->Reset(type);
  BitsView rows;
  DTL_RETURN_NOT_OK(ReadBits(presence, num_rows, &rows));
  const uint64_t present = rows.CountSet();
  // num_rows is now bounded by the presence bytes actually read, and the
  // validity bitmap is those bytes.
  if (present < num_rows) out->validity.assign(rows.bits, rows.bits + (num_rows + 7) / 8);
  Status st;
  switch (type) {
    case DataType::kInt64:
    case DataType::kDate:
      st = DecodeInt64s(rows, present, data, out);
      break;
    case DataType::kDouble:
      st = DecodeDoubles(rows, present, data, out);
      break;
    case DataType::kString:
      st = DecodeStrings(rows, present, data, out);
      break;
    case DataType::kBool:
      st = DecodeBools(rows, present, data, out);
      break;
    case DataType::kNull:
      return Status::Corruption("column with null type in footer");
  }
  if (st.ok()) out->size = num_rows;
  return st;
}

}  // namespace dtl::orc
