#include <gtest/gtest.h>

#include "common/random.h"
#include "fs/filesystem.h"
#include "orc/encoding.h"
#include "orc/reader.h"
#include "orc/writer.h"

namespace dtl::orc {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"price", DataType::kDouble},
                 {"name", DataType::kString},
                 {"flag", DataType::kBool},
                 {"day", DataType::kDate}});
}

Row MakeRow(int64_t i) {
  return Row{Value::Int64(i), Value::Double(i * 0.5),
             Value::String("name" + std::to_string(i % 100)), Value::Bool(i % 2 == 0),
             Value::Date(1000 + i % 36)};
}

TEST(EncodingTest, Int64StreamRunsAndLiterals) {
  std::vector<int64_t> values = {1, 1, 1, 1, 5, 6, 7, -3, -3, -3, -3, -3, 9};
  std::string buf;
  EncodeInt64Stream(values, &buf);
  std::vector<int64_t> decoded;
  ASSERT_TRUE(DecodeInt64Stream(Slice(buf), &decoded).ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, Int64StreamEmptyAndSingle) {
  for (const std::vector<int64_t>& values :
       {std::vector<int64_t>{}, std::vector<int64_t>{42}}) {
    std::string buf;
    EncodeInt64Stream(values, &buf);
    std::vector<int64_t> decoded;
    ASSERT_TRUE(DecodeInt64Stream(Slice(buf), &decoded).ok());
    EXPECT_EQ(decoded, values);
  }
}

TEST(EncodingTest, Int64StreamRandomRoundTrip) {
  Random rng(3);
  std::vector<int64_t> values;
  for (int i = 0; i < 10000; ++i) {
    // Mix runs and noise.
    if (rng.Bernoulli(0.3)) {
      int64_t v = rng.UniformRange(-5, 5);
      for (int j = 0; j < 5; ++j) values.push_back(v);
    } else {
      values.push_back(rng.UniformRange(INT32_MIN, INT32_MAX));
    }
  }
  std::string buf;
  EncodeInt64Stream(values, &buf);
  std::vector<int64_t> decoded;
  ASSERT_TRUE(DecodeInt64Stream(Slice(buf), &decoded).ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, RunsCompressWell) {
  std::vector<int64_t> values(10000, 7);
  std::string buf;
  EncodeInt64Stream(values, &buf);
  EXPECT_LT(buf.size(), 100u);  // one run group
}

TEST(EncodingTest, DoubleStreamRoundTrip) {
  std::vector<double> values = {0.0, -1.5, 3.14159, 1e300, -1e-300};
  std::string buf;
  EncodeDoubleStream(values, &buf);
  std::vector<double> decoded;
  ASSERT_TRUE(DecodeDoubleStream(Slice(buf), &decoded).ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, StringStreamDictionaryMode) {
  std::vector<std::string> values;
  for (int i = 0; i < 1000; ++i) values.push_back("tag" + std::to_string(i % 10));
  std::string buf;
  EncodeStringStream(values, &buf);
  EXPECT_EQ(buf[0], 1);  // dictionary mode chosen
  std::vector<std::string> decoded;
  ASSERT_TRUE(DecodeStringStream(Slice(buf), &decoded).ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, StringStreamDirectMode) {
  std::vector<std::string> values;
  for (int i = 0; i < 100; ++i) values.push_back("unique_" + std::to_string(i));
  std::string buf;
  EncodeStringStream(values, &buf);
  EXPECT_EQ(buf[0], 0);  // all-distinct: direct mode
  std::vector<std::string> decoded;
  ASSERT_TRUE(DecodeStringStream(Slice(buf), &decoded).ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, BoolStreamRoundTripOddLengths) {
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 1000u}) {
    std::vector<bool> values;
    for (size_t i = 0; i < n; ++i) values.push_back(i % 3 == 0);
    std::string buf;
    EncodeBoolStream(values, &buf);
    std::vector<bool> decoded;
    ASSERT_TRUE(DecodeBoolStream(Slice(buf), &decoded).ok());
    EXPECT_EQ(decoded, values);
  }
}

TEST(OrcFileTest, WriteReadRoundTrip) {
  fs::SimFileSystem fs;
  WriterOptions options;
  options.stripe_rows = 100;
  auto writer = OrcWriter::Create(&fs, "/t/f1.orc", TestSchema(), 7, options);
  ASSERT_TRUE(writer.ok());
  const int kRows = 1000;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE((*writer)->Append(MakeRow(i)).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());

  auto reader = OrcReader::Open(&fs, "/t/f1.orc");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->file_id(), 7u);
  EXPECT_EQ((*reader)->num_rows(), static_cast<uint64_t>(kRows));
  EXPECT_EQ((*reader)->num_stripes(), 10u);
  EXPECT_EQ((*reader)->schema(), TestSchema());

  OrcRowIterator it(reader->get(), {});
  int count = 0;
  while (it.Next()) {
    EXPECT_EQ(it.row_number(), static_cast<uint64_t>(count));
    EXPECT_EQ(it.row()[0].AsInt64(), count);
    EXPECT_EQ(it.row()[2].AsString(), "name" + std::to_string(count % 100));
    ++count;
  }
  ASSERT_TRUE(it.status().ok());
  EXPECT_EQ(count, kRows);
}

TEST(OrcFileTest, NullHandling) {
  fs::SimFileSystem fs;
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
  auto writer = OrcWriter::Create(&fs, "/t/nulls.orc", schema, 1);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append({Value::Int64(1), Value::Null()}).ok());
  ASSERT_TRUE((*writer)->Append({Value::Null(), Value::String("x")}).ok());
  ASSERT_TRUE((*writer)->Append({Value::Null(), Value::Null()}).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  auto reader = OrcReader::Open(&fs, "/t/nulls.orc");
  ASSERT_TRUE(reader.ok());
  auto batch = (*reader)->ReadStripe(0);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->at(0, 0).AsInt64(), 1);
  EXPECT_TRUE(batch->at(0, 1).is_null());
  EXPECT_TRUE(batch->at(0, 2).is_null());
  EXPECT_TRUE(batch->at(1, 0).is_null());
  EXPECT_EQ(batch->at(1, 1).AsString(), "x");
  // Stats count nulls.
  EXPECT_EQ((*reader)->stripe(0).stats[0].null_count, 2u);
  EXPECT_EQ((*reader)->stripe(0).stats[0].value_count, 3u);
}

TEST(OrcFileTest, ColumnProjectionReadsFewerBytes) {
  fs::SimFileSystem fs;
  WriterOptions options;
  options.stripe_rows = 1000;
  auto writer = OrcWriter::Create(&fs, "/t/proj.orc", TestSchema(), 1, options);
  for (int i = 0; i < 5000; ++i) ASSERT_TRUE((*writer)->Append(MakeRow(i)).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  auto reader = OrcReader::Open(&fs, "/t/proj.orc");
  ASSERT_TRUE(reader.ok());

  fs::IoSnapshot before = fs.meter()->Snapshot();
  for (size_t s = 0; s < (*reader)->num_stripes(); ++s) {
    ASSERT_TRUE((*reader)->ReadStripe(s, {0}).ok());
  }
  uint64_t narrow = (fs.meter()->Snapshot() - before).hdfs_bytes_read;

  before = fs.meter()->Snapshot();
  for (size_t s = 0; s < (*reader)->num_stripes(); ++s) {
    ASSERT_TRUE((*reader)->ReadStripe(s).ok());
  }
  uint64_t full = (fs.meter()->Snapshot() - before).hdfs_bytes_read;
  EXPECT_LT(narrow * 2, full);  // projecting 1 of 5 columns reads far less
}

TEST(OrcFileTest, StripeStatsMinMax) {
  fs::SimFileSystem fs;
  WriterOptions options;
  options.stripe_rows = 100;
  Schema schema({{"v", DataType::kInt64}});
  auto writer = OrcWriter::Create(&fs, "/t/stats.orc", schema, 1, options);
  for (int i = 0; i < 300; ++i) ASSERT_TRUE((*writer)->Append({Value::Int64(i)}).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  auto reader = OrcReader::Open(&fs, "/t/stats.orc");
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ((*reader)->num_stripes(), 3u);
  const ColumnStats& stats = (*reader)->stripe(1).stats[0];
  ASSERT_TRUE(stats.has_min_max);
  EXPECT_EQ(stats.min.AsInt64(), 100);
  EXPECT_EQ(stats.max.AsInt64(), 199);
  EXPECT_EQ((*reader)->stripe(1).first_row, 100u);
}

TEST(OrcFileTest, StripeBloomFilterRoundTrip) {
  fs::SimFileSystem fs;
  WriterOptions options;
  options.stripe_rows = 100;
  Schema schema({{"v", DataType::kInt64}, {"s", DataType::kString}});
  auto writer = OrcWriter::Create(&fs, "/t/bloom.orc", schema, 1, options);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*writer)
                    ->Append({Value::Int64(i), Value::String("s" + std::to_string(i))})
                    .ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());

  auto reader = OrcReader::Open(&fs, "/t/bloom.orc");
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ((*reader)->num_stripes(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    const StripeInfo& stripe = (*reader)->stripe(s);
    ASSERT_FALSE(stripe.stats[0].bloom.empty());
    ASSERT_FALSE(stripe.stats[1].bloom.empty());
    // Every written value must pass its own stripe's filter (no false
    // negatives, ever).
    const int64_t base = static_cast<int64_t>(s) * 100;
    for (int64_t v = base; v < base + 100; ++v) {
      EXPECT_TRUE(stripe.stats[0].BloomMayContain(Value::Int64(v)));
      EXPECT_TRUE(
          stripe.stats[1].BloomMayContain(Value::String("s" + std::to_string(v))));
    }
  }
  // Values far outside the data are overwhelmingly refuted (~1% FP rate at
  // 10 bits/key; over 200 distinct probes at least one must be refuted, and
  // in practice nearly all are).
  size_t refuted = 0;
  for (int64_t v = 10000; v < 10200; ++v) {
    if (!(*reader)->stripe(0).stats[0].BloomMayContain(Value::Int64(v))) ++refuted;
  }
  EXPECT_GT(refuted, 150u);
}

TEST(OrcFileTest, BloomFiltersCanBeDisabled) {
  fs::SimFileSystem fs;
  WriterOptions options;
  options.stripe_rows = 50;
  options.bloom_filters = false;
  Schema schema({{"v", DataType::kInt64}});
  auto writer = OrcWriter::Create(&fs, "/t/nobloom.orc", schema, 1, options);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE((*writer)->Append({Value::Int64(i)}).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  auto reader = OrcReader::Open(&fs, "/t/nobloom.orc");
  ASSERT_TRUE(reader.ok());
  const ColumnStats& stats = (*reader)->stripe(0).stats[0];
  EXPECT_TRUE(stats.bloom.empty());
  // Without a filter the probe must answer "may match" for anything.
  EXPECT_TRUE(stats.BloomMayContain(Value::Int64(999)));
}

TEST(OrcFileTest, CorruptFooterDetected) {
  fs::SimFileSystem fs;
  auto writer = OrcWriter::Create(&fs, "/t/bad.orc", TestSchema(), 1);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE((*writer)->Append(MakeRow(i)).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  // Flip a footer byte (12 back from the end is inside the footer bytes).
  auto reader_file = fs.NewSequentialFile("/t/bad.orc");
  std::string contents;
  ASSERT_TRUE((*reader_file)->Read(1 << 20, &contents).ok());
  contents[contents.size() - 20] ^= 0x5A;
  auto w = fs.NewWritableFile("/t/bad.orc");
  ASSERT_TRUE((*w)->Append(contents).ok());
  ASSERT_TRUE((*w)->Close().ok());

  EXPECT_FALSE(OrcReader::Open(&fs, "/t/bad.orc").ok());
}

TEST(OrcFileTest, ArityMismatchRejected) {
  fs::SimFileSystem fs;
  auto writer = OrcWriter::Create(&fs, "/t/x.orc", TestSchema(), 1);
  Row short_row{Value::Int64(1)};
  EXPECT_TRUE((*writer)->Append(short_row).IsInvalidArgument());
}

TEST(OrcFileTest, EmptyFileHasZeroRows) {
  fs::SimFileSystem fs;
  auto writer = OrcWriter::Create(&fs, "/t/empty.orc", TestSchema(), 3);
  ASSERT_TRUE((*writer)->Close().ok());
  auto reader = OrcReader::Open(&fs, "/t/empty.orc");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_rows(), 0u);
  OrcRowIterator it(reader->get(), {});
  EXPECT_FALSE(it.Next());
  EXPECT_TRUE(it.status().ok());
}

}  // namespace
}  // namespace dtl::orc
