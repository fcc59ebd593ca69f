#include <gtest/gtest.h>

#include "common/bloom.h"
#include "common/coding.h"
#include "common/random.h"
#include "common/schema.h"
#include "common/skiplist.h"
#include "common/status.h"
#include "common/value.h"

namespace dtl {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.ToString(), "not found: missing thing");
}

TEST(StatusTest, ResultHoldsValueOrStatus) {
  Result<int> ok_result(42);
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);
  Result<int> err_result(Status::IoError("disk gone"));
  ASSERT_FALSE(err_result.ok());
  EXPECT_TRUE(err_result.status().IsIoError());
  EXPECT_EQ(err_result.ValueOr(-1), -1);
}

TEST(CodingTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEF);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(DecodeFixed32(buf.data()), 0xDEADBEEFu);
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(DecodeFixed64(buf.data()), 0x0123456789ABCDEFull);
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  const uint64_t cases[] = {0,     1,     127,        128,
                            16383, 16384, 0xFFFFFFFF, UINT64_MAX};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    Slice in(buf);
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(&in, &decoded).ok());
    EXPECT_EQ(decoded, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodingTest, VarintTruncatedIsCorruption) {
  std::string buf;
  PutVarint64(&buf, 300);  // two bytes
  Slice in(buf.data(), 1);
  uint64_t v = 0;
  EXPECT_TRUE(GetVarint64(&in, &v).IsCorruption());
}

TEST(CodingTest, ZigZagRoundTrip) {
  const int64_t cases[] = {0, 1, -1, 1234567, -1234567, INT64_MAX, INT64_MIN};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(CodingTest, ZigZagSmallMagnitudesAreSmall) {
  EXPECT_LT(ZigZagEncode(-3), 10u);  // small negatives encode compactly
}

TEST(CodingTest, BigEndianPreservesOrder) {
  std::string a, b;
  PutBigEndian64(&a, 100);
  PutBigEndian64(&b, 200);
  EXPECT_LT(a, b);
  EXPECT_EQ(DecodeBigEndian64(a.data()), 100u);
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("hello"));
  PutLengthPrefixed(&buf, Slice(""));
  Slice in(buf);
  Slice a, b;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a).ok());
  ASSERT_TRUE(GetLengthPrefixed(&in, &b).ok());
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
}

TEST(CodingTest, Crc32KnownProperties) {
  EXPECT_EQ(Crc32("", 0), Crc32("", 0));
  EXPECT_NE(Crc32("abc", 3), Crc32("abd", 3));

  // Standard CRC-32C check values (RFC 3720 appendix B.4 and "123456789").
  std::string zeros(32, '\0');
  std::string ones(32, '\xff');
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(Crc32("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Crc32(ascending.data(), ascending.size()), 0x46DD794Eu);
  EXPECT_EQ(Crc32(descending.data(), descending.size()), 0x113FDB5Cu);
  EXPECT_EQ(Crc32Table("123456789", 9), 0xE3069283u);

  // The hardware and table paths agree at every length and alignment that
  // exercises the hardware path's word loop and byte tail.
  Random rng(32);
  std::string buf(64 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const uint32_t table = Crc32Table(buf.data() + offset, len);
      EXPECT_EQ(Crc32(buf.data() + offset, len), table) << offset << "+" << len;
      if (Crc32HardwareAvailable()) {
        EXPECT_EQ(Crc32Hardware(buf.data() + offset, len), table) << offset << "+" << len;
      }
    }
  }
  if (!Crc32HardwareAvailable()) {
    GTEST_LOG_(INFO) << "no SSE4.2: hardware CRC path skipped";
  }
}

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) {
    bloom.Add(Slice("key" + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bloom.MayContain(Slice("key" + std::to_string(i))));
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilter bloom(1000, 10);
  for (int i = 0; i < 1000; ++i) bloom.Add(Slice("key" + std::to_string(i)));
  int false_positives = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bloom.MayContain(Slice("other" + std::to_string(i)))) ++false_positives;
  }
  EXPECT_LT(false_positives, 500);  // ~1% expected, 5% generous bound
}

TEST(BloomTest, SerializeRoundTrip) {
  BloomFilter bloom(100);
  bloom.Add(Slice("alpha"));
  bloom.Add(Slice("beta"));
  std::string bytes = bloom.Serialize();
  BloomFilter restored = BloomFilter::Deserialize(Slice(bytes));
  EXPECT_TRUE(restored.MayContain(Slice("alpha")));
  EXPECT_TRUE(restored.MayContain(Slice("beta")));
}

TEST(SkipListTest, InsertFindOrder) {
  SkipList<std::string, int> list;
  EXPECT_TRUE(list.Insert("b", 2));
  EXPECT_TRUE(list.Insert("a", 1));
  EXPECT_TRUE(list.Insert("c", 3));
  EXPECT_FALSE(list.Insert("b", 20));  // overwrite
  ASSERT_NE(list.Find("b"), nullptr);
  EXPECT_EQ(*list.Find("b"), 20);
  EXPECT_EQ(list.Find("zz"), nullptr);
  EXPECT_EQ(list.size(), 3u);

  SkipList<std::string, int>::Iterator it(&list);
  it.SeekToFirst();
  std::string prev;
  int count = 0;
  for (; it.Valid(); it.Next()) {
    EXPECT_LT(prev, it.key());
    prev = it.key();
    ++count;
  }
  EXPECT_EQ(count, 3);
}

TEST(SkipListTest, SeekPositionsAtLowerBound) {
  SkipList<std::string, int> list;
  for (int i = 0; i < 100; i += 2) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%03d", i);
    list.Insert(buf, i);
  }
  SkipList<std::string, int>::Iterator it(&list);
  it.Seek("051");  // absent; next is 052
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "052");
}

TEST(SkipListTest, LargeInsertKeepsOrder) {
  SkipList<int64_t, int64_t> list;
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    int64_t k = static_cast<int64_t>(rng.Uniform(1000000));
    list.Insert(k, k * 2);
  }
  SkipList<int64_t, int64_t>::Iterator it(&list);
  it.SeekToFirst();
  int64_t prev = -1;
  while (it.Valid()) {
    EXPECT_GT(it.key(), prev);
    EXPECT_EQ(it.value(), it.key() * 2);
    prev = it.key();
    it.Next();
  }
}

TEST(ValueTest, NullOrderingAndEquality) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_LT(Value::Null().Compare(Value::Int64(0)), 0);  // nulls sort first
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, CrossNumericComparison) {
  EXPECT_EQ(Value::Int64(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int64(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Double(4.0).Compare(Value::Int64(3)), 0);
}

TEST(ValueTest, EncodeDecodeAllKinds) {
  for (const Value& v :
       {Value::Null(), Value::Int64(-42), Value::Double(3.25),
        Value::String("hello world"), Value::Bool(true), Value::Int64(INT64_MIN)}) {
    std::string buf;
    v.EncodeTo(&buf);
    Slice in(buf);
    Value decoded;
    ASSERT_TRUE(Value::DecodeFrom(&in, &decoded).ok());
    EXPECT_EQ(decoded.Compare(v), 0);
    EXPECT_EQ(decoded.is_null(), v.is_null());
    EXPECT_TRUE(in.empty());
  }
}

TEST(ValueTest, EncodedHeadersMatchEncodeTo) {
  // Bloom keys hash these pieces in place of EncodeTo's bytes.
  char buf[Value::kMaxEncodedHeaderBytes];
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{63}, int64_t{-64}, int64_t{1} << 40,
                    INT64_MIN, INT64_MAX}) {
    std::string encoded;
    Value::Int64(v).EncodeTo(&encoded);
    EXPECT_EQ(std::string(buf, Value::EncodeInt64(v, buf)), encoded) << v;
  }
  for (const std::string& s : {std::string(), std::string("a\0b", 3), std::string(200, 'x')}) {
    std::string encoded;
    Value::String(s).EncodeTo(&encoded);
    EXPECT_EQ(std::string(buf, Value::EncodeStringHeader(s.size(), buf)) + s, encoded);
  }
}

TEST(ValueTest, DecodeTruncatedFails) {
  std::string buf;
  Value::String("long string").EncodeTo(&buf);
  Slice in(buf.data(), buf.size() - 3);
  Value v;
  EXPECT_FALSE(Value::DecodeFrom(&in, &v).ok());
}

TEST(ValueTest, HashCodeConsistentForEqualNumerics) {
  EXPECT_EQ(Value::Int64(7).HashCode(), Value::Double(7.0).HashCode());
}

TEST(SchemaTest, IndexOfIsCaseInsensitive) {
  Schema schema({{"Alpha", DataType::kInt64}, {"beta", DataType::kString}});
  EXPECT_EQ(schema.IndexOf("alpha"), 0u);
  EXPECT_EQ(schema.IndexOf("BETA"), 1u);
  EXPECT_FALSE(schema.IndexOf("gamma").has_value());
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kDouble},
                 {"c", DataType::kString},
                 {"d", DataType::kBool},
                 {"e", DataType::kDate}});
  std::string buf;
  schema.EncodeTo(&buf);
  Slice in(buf);
  Schema decoded;
  ASSERT_TRUE(Schema::DecodeFrom(&in, &decoded).ok());
  EXPECT_EQ(decoded, schema);
}

TEST(SchemaTest, RowEncodeDecodeRoundTrip) {
  Row row{Value::Int64(1), Value::Null(), Value::String("x")};
  std::string buf;
  EncodeRow(row, &buf);
  Slice in(buf);
  Row decoded;
  ASSERT_TRUE(DecodeRow(&in, &decoded).ok());
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0].AsInt64(), 1);
  EXPECT_TRUE(decoded[1].is_null());
  EXPECT_EQ(decoded[2].AsString(), "x");
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, BernoulliRoughlyCalibrated) {
  Random rng(5);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

TEST(ParseDataTypeTest, AcceptsHiveAliases) {
  EXPECT_TRUE(ParseDataType("BIGINT").ok());
  EXPECT_TRUE(ParseDataType("int").ok());
  EXPECT_TRUE(ParseDataType("varchar").ok());
  EXPECT_FALSE(ParseDataType("blob").ok());
}

}  // namespace
}  // namespace dtl
