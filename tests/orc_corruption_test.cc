// Corruption matrix for the ORC-like file format: flip one byte in each
// structural section (postscript magic/CRC/length, footer body, stripe
// column data, presence bitmap) and assert the reader surfaces
// Status::Corruption — never a crash, never silently wrong rows. A seeded
// mutation suite then feeds the stream decoders malformed streams directly,
// past the CRC. Run under ASan/UBSan in CI, this doubles as a memory-safety
// check on the decode paths.
#include <gtest/gtest.h>

#include <functional>

#include "common/coding.h"
#include "common/random.h"
#include "fs/filesystem.h"
#include "orc/encoding.h"
#include "orc/reader.h"
#include "orc/writer.h"

namespace dtl {
namespace {

constexpr const char* kPath = "/orc/file.orc";
constexpr int kRows = 250;  // 3 stripes at 100 rows/stripe

class OrcCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs_.CreateDir("/orc").ok());
    orc::WriterOptions options;
    options.stripe_rows = 100;
    Schema schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
    auto writer = orc::OrcWriter::Create(&fs_, kPath, schema, 1, options);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < kRows; ++i) {
      Row row;
      row.push_back(Value::Int64(i));
      // Every seventh name is NULL so the presence bitmaps carry real
      // information.
      row.push_back(i % 7 == 0 ? Value::Null() : Value::String("n" + std::to_string(i)));
      ASSERT_TRUE(writer.value()->Append(row).ok());
    }
    ASSERT_TRUE(writer.value()->Close().ok());
    auto size = fs_.FileSize(kPath);
    ASSERT_TRUE(size.ok());
    size_ = *size;
  }

  /// Opens the intact file; used to locate sections before corrupting them.
  orc::FileFooter CleanFooter() {
    auto reader = orc::OrcReader::Open(&fs_, kPath);
    EXPECT_TRUE(reader.ok());
    return reader.value()->footer();
  }

  void Corrupt(uint64_t offset) { ASSERT_TRUE(fs_.CorruptFile(kPath, offset, 0x40).ok()); }

  /// Reads every stripe over `projection` (empty = every column); returns
  /// the first error. Must never crash regardless of what was corrupted.
  Status ScanAll(const std::vector<size_t>& projection = {}) {
    auto reader = orc::OrcReader::Open(&fs_, kPath);
    if (!reader.ok()) return reader.status();
    uint64_t rows = 0;
    for (size_t s = 0; s < reader.value()->num_stripes(); ++s) {
      auto stripe = reader.value()->ReadStripe(s, projection);
      if (!stripe.ok()) return stripe.status();
      rows += stripe->num_rows;
    }
    EXPECT_EQ(rows, static_cast<uint64_t>(kRows));
    return Status::OK();
  }

  fs::SimFileSystem fs_;
  uint64_t size_ = 0;
};

TEST_F(OrcCorruptionTest, CleanFileScansFully) { EXPECT_TRUE(ScanAll().ok()); }

TEST_F(OrcCorruptionTest, FlippedMagicIsCorruption) {
  Corrupt(size_ - 1);
  EXPECT_TRUE(ScanAll().IsCorruption());
}

TEST_F(OrcCorruptionTest, FlippedFooterCrcIsCorruption) {
  Corrupt(size_ - 12);  // first postscript byte: the footer CRC
  EXPECT_TRUE(ScanAll().IsCorruption());
}

TEST_F(OrcCorruptionTest, FlippedFooterLengthIsCorruption) {
  Corrupt(size_ - 8);  // footer_len low byte: points the footer read elsewhere
  EXPECT_TRUE(ScanAll().IsCorruption());
}

TEST_F(OrcCorruptionTest, FlippedFooterBodyIsCorruption) {
  // Place the flip in the middle of the encoded footer (stripe directory /
  // statistics region).
  auto reader = orc::OrcReader::Open(&fs_, kPath);
  ASSERT_TRUE(reader.ok());
  std::string tail;
  auto file = fs_.NewRandomAccessFile(kPath);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->ReadAt(size_ - 8, 4, &tail).ok());
  const uint32_t footer_len = DecodeFixed32(tail.data());
  Corrupt(size_ - 12 - footer_len / 2);
  EXPECT_TRUE(ScanAll().IsCorruption());
}

TEST_F(OrcCorruptionTest, FlippedColumnDataIsCorruption) {
  const orc::FileFooter footer = CleanFooter();
  const orc::StripeInfo& stripe = footer.stripes[1];  // a mid-file stripe
  // First byte of column 0's data stream (right after its presence stream).
  Corrupt(stripe.offset + stripe.streams[0].presence_length);
  EXPECT_TRUE(ScanAll().IsCorruption());
}

TEST_F(OrcCorruptionTest, FlippedPresenceBitmapIsCorruption) {
  const orc::FileFooter footer = CleanFooter();
  const orc::StripeInfo& stripe = footer.stripes[2];
  // First byte of column 1's presence stream. An undetected flip here would
  // silently shift values between rows — the stream CRC must catch it.
  Corrupt(stripe.offset + stripe.streams[0].presence_length +
          stripe.streams[0].data_length);
  EXPECT_TRUE(ScanAll().IsCorruption());
}

TEST_F(OrcCorruptionTest, ProjectedScanSkipsCorruptUnprojectedColumn) {
  const orc::FileFooter footer = CleanFooter();
  const orc::StripeInfo& stripe = footer.stripes[0];
  // Corrupt column 1's data; a projection of column 0 alone never reads it,
  // so the scan succeeds — corruption detection is per-stream by design.
  Corrupt(stripe.offset + stripe.streams[0].presence_length +
          stripe.streams[0].data_length + stripe.streams[1].presence_length + 1);
  const Status only_ids = ScanAll({0});
  EXPECT_TRUE(only_ids.ok()) << only_ids.ToString();
  // The full-width scan does read it and must fail.
  EXPECT_TRUE(ScanAll().IsCorruption());
}

TEST_F(OrcCorruptionTest, EveryPostscriptByteFlipFailsSafely) {
  // Exhaustive over the 12-byte postscript: each single-byte flip must yield
  // a clean error (any code), never a crash or a successful mis-read.
  for (uint64_t off = size_ - 12; off < size_; ++off) {
    fs::SimFileSystem fresh;
    ASSERT_TRUE(fresh.CreateDir("/orc").ok());
    orc::WriterOptions options;
    options.stripe_rows = 100;
    Schema schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
    auto writer = orc::OrcWriter::Create(&fresh, kPath, schema, 1, options);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < kRows; ++i) {
      Row row;
      row.push_back(Value::Int64(i));
      row.push_back(i % 7 == 0 ? Value::Null() : Value::String("n" + std::to_string(i)));
      ASSERT_TRUE(writer.value()->Append(row).ok());
    }
    ASSERT_TRUE(writer.value()->Close().ok());
    ASSERT_TRUE(fresh.CorruptFile(kPath, off, 0x40).ok());
    // Every postscript byte is load-bearing (CRC, footer length, magic):
    // any flip must be rejected at open with a clean error.
    EXPECT_FALSE(orc::OrcReader::Open(&fresh, kPath).ok()) << "offset " << off;
  }
}


// --- stream decoder mutations (past the CRC) -----------------------------------

/// A column's presence and data streams as the writer would encode them.
struct Streams {
  DataType type;
  uint64_t num_rows = 0;
  std::string presence;
  std::string data;
};

/// Seeded valid streams of `type` with about one NULL in six. Strings use a
/// small alphabet when `dictionary`, so they encode in dictionary mode.
Streams ValidStreams(DataType type, Random* rng, bool dictionary) {
  Streams s{type, 1 + rng->Uniform(300), {}, {}};
  std::vector<uint8_t> present;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> bools;
  std::vector<std::string> strings;
  for (uint64_t i = 0; i < s.num_rows; ++i) {
    present.push_back(rng->Uniform(6) == 0 ? 0 : 1);
    if (present.back() == 0) continue;
    ints.push_back(rng->Bernoulli(0.5) ? rng->UniformRange(-3, 3)
                                       : static_cast<int64_t>(rng->Next()));
    doubles.push_back(rng->NextDouble() * 1e9);
    bools.push_back(rng->Bernoulli(0.5) ? 1 : 0);
    strings.push_back(dictionary ? "d" + std::to_string(rng->Uniform(4))
                                 : rng->NextString(rng->Uniform(12)));
  }
  orc::EncodeBoolStream(present, &s.presence);
  switch (type) {
    case DataType::kInt64:
    case DataType::kDate:
      orc::EncodeInt64Stream(ints, &s.data);
      break;
    case DataType::kDouble:
      orc::EncodeDoubleStream(doubles, &s.data);
      break;
    case DataType::kBool:
      orc::EncodeBoolStream(bools, &s.data);
      break;
    default: {
      std::vector<std::string_view> views(strings.begin(), strings.end());
      orc::EncodeStringStream(views, &s.data);
      break;
    }
  }
  return s;
}

/// Decodes `s`; the answer must be Corruption, or exactly num_rows cells
/// each NULL or of the column's kind.
void ExpectCorruptionOrWellFormed(const Streams& s, const std::string& what) {
  table::ColumnData cells;
  const Status st =
      orc::DecodeColumn(s.type, Slice(s.presence), Slice(s.data), s.num_rows, &cells);
  if (!st.ok()) {
    EXPECT_TRUE(st.IsCorruption()) << what << ": " << st.ToString();
    return;
  }
  ASSERT_EQ(cells.size, s.num_rows) << what;
  EXPECT_EQ(cells.type, s.type) << what;
  for (size_t i = 0; i < cells.size; ++i) {
    const Value v = cells.ValueAt(i);
    const bool kind_ok = v.is_null() ||
                         ((s.type == DataType::kInt64 || s.type == DataType::kDate) &&
                          v.is_int64()) ||
                         (s.type == DataType::kDouble && v.is_double()) ||
                         (s.type == DataType::kString && v.is_string()) ||
                         (s.type == DataType::kBool && v.is_bool());
    ASSERT_TRUE(kind_ok) << what;
  }
}

/// Replaces the leading varint of `stream` (after `skip` bytes) with `v`.
std::string WithCount(const std::string& stream, size_t skip, uint64_t v) {
  Slice rest(stream.data() + skip, stream.size() - skip);
  uint64_t old = 0;
  if (!GetVarint64(&rest, &old).ok()) return stream;
  std::string out = stream.substr(0, skip);
  PutVarint64(&out, v);
  out.append(rest.data(), rest.size());
  return out;
}

TEST(OrcStreamMutationTest, MalformedStreamsAreCorruptionOrWellFormed) {
  const DataType kTypes[] = {DataType::kInt64, DataType::kDate, DataType::kDouble,
                             DataType::kBool, DataType::kString};
  const uint64_t kHugeCounts[] = {uint64_t{1} << 61, uint64_t{1} << 63, UINT64_MAX,
                                  UINT64_MAX / 8};
  Random rng(20151);
  size_t cases = 0;
  for (int round = 0; round < 400; ++round) {
    const DataType type = kTypes[rng.Uniform(std::size(kTypes))];
    const Streams valid = ValidStreams(type, &rng, rng.Bernoulli(0.5));
    ExpectCorruptionOrWellFormed(valid, "valid");
    // Truncations of either stream.
    for (int k = 0; k < 4; ++k) {
      Streams t = valid;
      std::string& target = rng.Bernoulli(0.5) ? t.presence : t.data;
      target.resize(rng.Uniform(target.size() + 1));
      ExpectCorruptionOrWellFormed(t, "truncated");
      ++cases;
    }
    // Flipped bytes.
    for (int k = 0; k < 8; ++k) {
      Streams f = valid;
      std::string& target = rng.Bernoulli(0.3) ? f.presence : f.data;
      if (target.empty()) continue;
      const size_t flips = 1 + rng.Uniform(3);
      for (size_t j = 0; j < flips; ++j) {
        target[rng.Uniform(target.size())] ^= static_cast<char>(1 + rng.Uniform(255));
      }
      ExpectCorruptionOrWellFormed(f, "flipped");
      ++cases;
    }
    // Oversized counts: the presence count, the stripe row count, and the
    // data stream's value count (after the mode byte for strings).
    const size_t count_at = type == DataType::kString ? 1 : 0;
    for (uint64_t huge : kHugeCounts) {
      Streams c = valid;
      c.presence = WithCount(valid.presence, 0, huge);
      ExpectCorruptionOrWellFormed(c, "presence count");
      c = valid;
      c.num_rows = huge;
      ExpectCorruptionOrWellFormed(c, "row count");
      c = valid;
      c.data = WithCount(valid.data, count_at, huge);
      ExpectCorruptionOrWellFormed(c, "data count");
      cases += 3;
    }
    // Presence/data mismatch: data from an independently drawn column.
    Streams other = ValidStreams(type, &rng, rng.Bernoulli(0.5));
    Streams m = valid;
    m.data = other.data;
    ExpectCorruptionOrWellFormed(m, "mismatch");
    ++cases;
  }
  EXPECT_GT(cases, 4000u);
}

TEST(OrcStreamMutationTest, CraftedStringStreamsAreCorruption) {
  // Four present rows.
  std::string presence;
  orc::EncodeBoolStream(std::vector<uint8_t>(4, 1), &presence);
  auto decode = [&presence](const std::string& data) {
    table::ColumnData cells;
    return orc::DecodeColumn(DataType::kString, Slice(presence), Slice(data), 4, &cells);
  };
  auto dictionary = [](uint64_t size, const std::vector<std::string>& keys,
                       const std::vector<int64_t>& indexes) {
    std::string data(1, '\1');
    PutVarint64(&data, size);
    for (const std::string& k : keys) PutLengthPrefixed(&data, Slice(k));
    orc::EncodeInt64Stream(indexes, &data);
    return data;
  };
  EXPECT_TRUE(decode(dictionary(2, {"a", "b"}, {0, 1, 1, 0})).ok());
  // Indexes past the dictionary, or negative.
  EXPECT_TRUE(decode(dictionary(2, {"a", "b"}, {0, 2, 1, 0})).IsCorruption());
  EXPECT_TRUE(decode(dictionary(2, {"a", "b"}, {0, -1, 1, 0})).IsCorruption());
  EXPECT_TRUE(decode(dictionary(2, {"a", "b"}, {INT64_MAX, 0, 0, 0})).IsCorruption());
  // Dictionary sizes past the values or the bytes.
  EXPECT_TRUE(
      decode(dictionary(uint64_t{1} << 61, {"a", "b"}, {0, 1, 1, 0})).IsCorruption());
  EXPECT_TRUE(decode(dictionary(4, {"a", "b"}, {0, 1, 1, 0})).IsCorruption());
  // Too few or too many indexes.
  EXPECT_TRUE(decode(dictionary(2, {"a", "b"}, {0, 1, 1})).IsCorruption());
  EXPECT_TRUE(decode(dictionary(2, {"a", "b"}, {0, 1, 1, 0, 0})).IsCorruption());
  // A direct value whose length runs past the stream.
  std::string direct(1, '\0');
  PutVarint64(&direct, 4);
  PutLengthPrefixed(&direct, Slice("x"));
  PutVarint64(&direct, uint64_t{1} << 62);
  direct += "yz";
  EXPECT_TRUE(decode(direct).IsCorruption());
  // An unknown mode byte and an empty stream.
  EXPECT_TRUE(decode(std::string(1, '\2')).IsCorruption());
  EXPECT_TRUE(decode(std::string()).IsCorruption());
}

TEST(OrcStreamMutationTest, CrcValidOversizedCountIsCorruption) {
  // A stream that passes its CRC but claims 2^61 values must be refused
  // before anything is sized by that count.
  fs::SimFileSystem fs;
  ASSERT_TRUE(fs.CreateDir("/orc").ok());
  Schema schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
  auto writer = orc::OrcWriter::Create(&fs, kPath, schema, 1);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*writer)->Append({Value::Int64(i), Value::String("v")}).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  auto reader = orc::OrcReader::Open(&fs, kPath);
  ASSERT_TRUE(reader.ok());
  orc::FileFooter footer = (*reader)->footer();
  auto raw = (*reader)->ReadRawStripe(0);
  ASSERT_TRUE(raw.ok());

  for (size_t col = 0; col < 2; ++col) {
    // Rebuild the stripe with column `col`'s data count replaced, fix up its
    // length and CRC, and re-seal the footer.
    orc::FileFooter crafted = footer;
    orc::StripeInfo& stripe = crafted.stripes[0];
    std::string bytes;
    uint64_t offset = 0;
    for (size_t c = 0; c < 2; ++c) {
      orc::StreamInfo& st = stripe.streams[c];
      std::string presence = raw->substr(offset, st.presence_length);
      std::string data = raw->substr(offset + st.presence_length, st.data_length);
      offset += st.presence_length + st.data_length;
      if (c == col) {
        data = WithCount(data, c == 1 ? 1 : 0, uint64_t{1} << 61);
        if (c == 1) data[0] = 0;  // direct mode: the count sizes the values
        st.data_length = data.size();
        st.crc = Crc32((presence + data).data(), presence.size() + data.size());
      }
      bytes += presence + data;
    }
    stripe.length = bytes.size();
    std::string footer_bytes;
    crafted.EncodeTo(&footer_bytes);
    bytes += footer_bytes;
    PutFixed32(&bytes, Crc32(footer_bytes.data(), footer_bytes.size()));
    PutFixed32(&bytes, static_cast<uint32_t>(footer_bytes.size()));
    PutFixed32(&bytes, orc::kOrcMagic);
    auto out = fs.NewWritableFile("/orc/crafted.orc");
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)->Append(bytes).ok());
    ASSERT_TRUE((*out)->Close().ok());

    auto crafted_reader = orc::OrcReader::Open(&fs, "/orc/crafted.orc");
    ASSERT_TRUE(crafted_reader.ok()) << crafted_reader.status().ToString();
    auto batch = (*crafted_reader)->ReadStripe(0);
    EXPECT_TRUE(batch.status().IsCorruption())
        << col << ": " << batch.status().ToString();
  }
}


TEST(OrcStreamMutationTest, CrcValidOversizedFooterCountsAreCorruption) {
  // A footer that passes its CRC but claims 2^61 stripes, or a schema of
  // 2^61 fields, must be refused before anything is sized by the count.
  for (int target = 0; target < 2; ++target) {
    std::string footer;
    PutVarint64(&footer, 1);  // file id
    if (target == 0) {
      Schema({{"a", DataType::kInt64}}).EncodeTo(&footer);
      PutVarint64(&footer, 0);                   // num_rows
      PutVarint64(&footer, uint64_t{1} << 61);   // num_stripes
    } else {
      PutVarint64(&footer, uint64_t{1} << 61);   // schema field count
      PutLengthPrefixed(&footer, Slice("a"));
      footer.push_back(static_cast<char>(DataType::kInt64));
    }
    std::string bytes = footer;
    PutFixed32(&bytes, Crc32(footer.data(), footer.size()));
    PutFixed32(&bytes, static_cast<uint32_t>(footer.size()));
    PutFixed32(&bytes, orc::kOrcMagic);
    fs::SimFileSystem fs;
    auto out = fs.NewWritableFile("/footer.orc");
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)->Append(bytes).ok());
    ASSERT_TRUE((*out)->Close().ok());
    auto reader = orc::OrcReader::Open(&fs, "/footer.orc");
    EXPECT_TRUE(reader.status().IsCorruption()) << target << ": "
                                                << reader.status().ToString();
  }

  // A footer whose stream lengths wrap past 2^64 still sums to the bytes a
  // stripe read fetches, so those bytes pass their CRC; it must be refused
  // at Open, before any stream is sliced by those lengths. So must a stripe
  // that lies past the footer or whose streams do not fill it.
  fs::SimFileSystem fs;
  ASSERT_TRUE(fs.CreateDir("/orc").ok());
  Schema schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
  auto writer = orc::OrcWriter::Create(&fs, kPath, schema, 1);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*writer)->Append({Value::Int64(i), Value::String("v")}).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  auto reader = orc::OrcReader::Open(&fs, kPath);
  ASSERT_TRUE(reader.ok());
  const orc::FileFooter footer = (*reader)->footer();
  auto body = (*reader)->ReadRawStripe(0);
  ASSERT_TRUE(body.ok());
  ASSERT_EQ(footer.stripes[0].offset, 0u);

  const uint64_t kWrap = uint64_t{1} << 63;
  const std::vector<std::function<void(orc::StripeInfo*)>> crafts = {
      [](orc::StripeInfo* s) {  // presence 2^64-10, data +10: sum unchanged
        orc::StreamInfo& st = s->streams[0];
        st.data_length += st.presence_length + 10;
        st.presence_length = ~uint64_t{0} - 9;
      },
      [kWrap](orc::StripeInfo* s) {  // column offsets wrap, total unchanged
        s->streams[0].data_length += kWrap;
        s->streams[1].presence_length += kWrap;
      },
      [](orc::StripeInfo* s) { s->offset = ~uint64_t{0} - 4; },
      [](orc::StripeInfo* s) { s->length += 1; },
  };
  for (size_t i = 0; i < crafts.size(); ++i) {
    orc::FileFooter crafted = footer;
    crafts[i](&crafted.stripes[0]);
    std::string bytes = *body;
    std::string footer_bytes;
    crafted.EncodeTo(&footer_bytes);
    bytes += footer_bytes;
    PutFixed32(&bytes, Crc32(footer_bytes.data(), footer_bytes.size()));
    PutFixed32(&bytes, static_cast<uint32_t>(footer_bytes.size()));
    PutFixed32(&bytes, orc::kOrcMagic);
    const std::string path = "/orc/wrapped" + std::to_string(i) + ".orc";
    auto out = fs.NewWritableFile(path);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)->Append(bytes).ok());
    ASSERT_TRUE((*out)->Close().ok());
    auto crafted_reader = orc::OrcReader::Open(&fs, path);
    EXPECT_TRUE(crafted_reader.status().IsCorruption())
        << i << ": " << crafted_reader.status().ToString();
  }
}

}  // namespace
}  // namespace dtl
