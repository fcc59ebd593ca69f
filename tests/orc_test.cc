#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "common/bloom.h"
#include "common/coding.h"
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

/// Decodes a data stream whose values are all present through DecodeColumn.
std::vector<Value> DecodeAllPresent(DataType type, const std::string& data, size_t n) {
  std::string presence;
  EncodeBoolStream(std::vector<uint8_t>(n, 1), &presence);
  table::ColumnData cells;
  const Status s = DecodeColumn(type, Slice(presence), Slice(data), n, &cells);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(cells.size, n);
  std::vector<Value> out;
  for (size_t i = 0; i < cells.size; ++i) out.push_back(cells.ValueAt(i));
  return out;
}

std::vector<int64_t> Int64s(const std::vector<Value>& values) {
  std::vector<int64_t> out;
  for (const Value& v : values) out.push_back(v.AsInt64());
  return out;
}

std::vector<std::string_view> Views(const std::vector<std::string>& values) {
  return std::vector<std::string_view>(values.begin(), values.end());
}

TEST(EncodingTest, Int64StreamRunsAndLiterals) {
  std::vector<int64_t> values = {1, 1, 1, 1, 5, 6, 7, -3, -3, -3, -3, -3, 9};
  std::string buf;
  EncodeInt64Stream(values, &buf);
  EXPECT_EQ(Int64s(DecodeAllPresent(DataType::kInt64, buf, values.size())), values);
}

TEST(EncodingTest, Int64StreamEmptyAndSingle) {
  for (const std::vector<int64_t>& values :
       {std::vector<int64_t>{}, std::vector<int64_t>{42}}) {
    std::string buf;
    EncodeInt64Stream(values, &buf);
    EXPECT_EQ(Int64s(DecodeAllPresent(DataType::kInt64, buf, values.size())), values);
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
  EXPECT_EQ(Int64s(DecodeAllPresent(DataType::kDate, buf, values.size())), values);
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
  for (const Value& v : DecodeAllPresent(DataType::kDouble, buf, values.size())) {
    decoded.push_back(v.AsDouble());
  }
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, StringStreamDictionaryMode) {
  std::vector<std::string> values;
  for (int i = 0; i < 1000; ++i) values.push_back("tag" + std::to_string(i % 10));
  std::string buf;
  EncodeStringStream(Views(values), &buf);
  EXPECT_EQ(buf[0], 1);  // dictionary mode chosen
  std::vector<std::string> decoded;
  for (const Value& v : DecodeAllPresent(DataType::kString, buf, values.size())) {
    decoded.push_back(v.AsString());
  }
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, StringStreamDirectMode) {
  std::vector<std::string> values;
  for (int i = 0; i < 100; ++i) values.push_back("unique_" + std::to_string(i));
  std::string buf;
  EncodeStringStream(Views(values), &buf);
  EXPECT_EQ(buf[0], 0);  // all-distinct: direct mode
  std::vector<std::string> decoded;
  for (const Value& v : DecodeAllPresent(DataType::kString, buf, values.size())) {
    decoded.push_back(v.AsString());
  }
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, BoolStreamRoundTripOddLengths) {
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 1000u}) {
    std::vector<uint8_t> values;
    for (size_t i = 0; i < n; ++i) values.push_back(i % 3 == 0 ? 1 : 0);
    std::string buf;
    EncodeBoolStream(values, &buf);
    std::vector<uint8_t> decoded;
    for (const Value& v : DecodeAllPresent(DataType::kBool, buf, n)) {
      decoded.push_back(v.AsBool() ? 1 : 0);
    }
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

  int count = 0;
  for (size_t s = 0; s < (*reader)->num_stripes(); ++s) {
    auto stripe = (*reader)->ReadStripe(s);
    ASSERT_TRUE(stripe.ok()) << stripe.status().ToString();
    for (size_t i = 0; i < stripe->num_rows; ++i) {
      EXPECT_EQ(stripe->first_row + i, static_cast<uint64_t>(count));
      EXPECT_EQ(stripe->at(0, i).AsInt64(), count);
      EXPECT_EQ(stripe->at(2, i).AsString(), "name" + std::to_string(count % 100));
      ++count;
    }
  }
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

  // The in-place probe answers exactly what copying the filter out and
  // probing the encoded key answers, for keys present and absent, of either
  // kind, and for stats with no filter or a filter with no bit bytes.
  auto copied_verdict = [](const ColumnStats& stats, const Value& v) {
    if (stats.bloom.empty()) return true;
    std::string key;
    v.EncodeTo(&key);
    return BloomFilter::Deserialize(stats.bloom).MayContain(Slice(key));
  };
  ColumnStats no_filter;
  ColumnStats no_bits;
  no_bits.bloom = std::string(1, '\x06');
  std::vector<const ColumnStats*> all_stats = {&no_filter, &no_bits};
  for (size_t s = 0; s < 2; ++s) {
    for (const ColumnStats& stats : (*reader)->stripe(s).stats) {
      all_stats.push_back(&stats);
    }
  }
  Random rng(11);
  size_t agreed = 0;
  for (int i = 0; i < 2000; ++i) {
    const int64_t k = rng.UniformRange(-50, 400);  // about half were written
    const Value probe = rng.Bernoulli(0.5) ? Value::Int64(k)
                                           : Value::String("s" + std::to_string(k));
    for (const ColumnStats* stats : all_stats) {
      EXPECT_EQ(stats->BloomMayContain(probe), copied_verdict(*stats, probe));
      ++agreed;
    }
  }
  EXPECT_EQ(agreed, 2000u * all_stats.size());
  EXPECT_TRUE(no_filter.BloomMayContain(Value::Int64(1)));
  EXPECT_FALSE(no_bits.BloomMayContain(Value::Int64(1)));
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
  for (size_t s = 0; s < (*reader)->num_stripes(); ++s) {
    auto stripe = (*reader)->ReadStripe(s);
    ASSERT_TRUE(stripe.ok()) << stripe.status().ToString();
    EXPECT_EQ(stripe->num_rows, 0u);
  }
}

// --- byte-identity oracle ------------------------------------------------------
//
// Seeded files that drive every encoder decision: nulls and all-null columns,
// RLE runs and literals at INT64_MIN/INT64_MAX, the dictionary threshold at
// exactly n/2 and n/2+1 distinct strings, empty strings, embedded NUL bytes
// and bytes >= 0x80 (which pin the unsigned dictionary order), NaN first in a
// stripe and -0.0 before 0.0 (min/max keep the first one seen), bools, 1-row
// and partial stripes, bloom filters on, off and resized, and raw stripes
// interleaved with appended rows. kOracleDigests pins each file as the
// row-buffered writer wrote it; a mismatch is a file format change.

struct OracleFile {
  std::string name;
  Schema schema;
  WriterOptions options;
  std::vector<Row> rows;
};

Schema OracleMixedSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"qty", DataType::kInt64},
                 {"price", DataType::kDouble},
                 {"tag", DataType::kString},
                 {"text", DataType::kString},
                 {"flag", DataType::kBool},
                 {"day", DataType::kDate},
                 {"gone", DataType::kInt64},
                 {"gone_s", DataType::kString}});
}

std::vector<Row> OracleMixedRows() {
  // Low-cardinality tags (dictionary mode) with "", NUL and high bytes.
  const std::vector<std::string> tags = {"",          std::string("\0", 1),
                                         "a",         std::string("a\0b", 3),
                                         "Z",         "\x80",
                                         "\xff\xfe",  "\xc3\xa9t\xc3\xa9",
                                         "ab",        "abc",
                                         "\x7f",      "zz"};
  Random rng(19);
  std::vector<Row> rows;
  int64_t qty = 0;
  uint64_t run_left = 0;
  for (int64_t i = 0; i < 2345; ++i) {
    Row row;
    if (rng.Bernoulli(0.05)) {
      row.push_back(Value::Null());
    } else if (rng.Bernoulli(0.02)) {
      row.push_back(Value::Int64(rng.Bernoulli(0.5) ? INT64_MIN : INT64_MAX));
    } else {
      row.push_back(Value::Int64(i * 7 - 3000));
    }
    if (run_left == 0) {
      qty = rng.UniformRange(-3, 3);
      run_left = 1 + rng.Uniform(6);
    }
    --run_left;
    row.push_back(rng.Bernoulli(0.03) ? Value::Null() : Value::Int64(qty));
    row.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                     : Value::Double((rng.NextDouble() - 0.5) * 1e6));
    row.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                     : Value::String(tags[rng.Uniform(tags.size())]));
    if (rng.Bernoulli(0.08)) {
      row.push_back(Value::Null());
    } else {
      std::string text = rng.NextString(rng.Uniform(20));
      if (rng.Bernoulli(0.1)) text.push_back('\0');
      if (rng.Bernoulli(0.1)) text += "\xe2\x82\xac";
      row.push_back(Value::String(text));
    }
    row.push_back(rng.Bernoulli(0.1) ? Value::Null() : Value::Bool(rng.Bernoulli(0.3)));
    row.push_back(rng.Bernoulli(0.05) ? Value::Null()
                                      : Value::Date(8000 + rng.UniformRange(0, 90)));
    row.push_back(Value::Null());
    row.push_back(Value::Null());
    rows.push_back(std::move(row));
  }
  return rows;
}

/// `distinct` distinct strings (high bytes included) spread over `n` values in
/// a shuffled order, with `nulls` NULLs appended at the front.
std::vector<Value> OracleDistinctStrings(Random* rng, size_t n, size_t distinct,
                                         size_t nulls) {
  std::vector<Value> values(nulls, Value::Null());
  std::vector<std::string> keys;
  for (size_t k = 0; k < distinct; ++k) {
    std::string key = "k" + std::to_string(k * 37 % 101);
    if (k % 3 == 1) key.insert(key.begin(), '\xf0');
    if (k % 5 == 2) key.push_back('\0');
    keys.push_back(key);
  }
  std::vector<std::string> picks;
  for (size_t i = 0; i < n; ++i) {
    picks.push_back(keys[i < distinct ? i : rng->Uniform(distinct)]);
  }
  for (size_t i = picks.size(); i > 1; --i) {
    std::swap(picks[i - 1], picks[rng->Uniform(i)]);
  }
  for (std::string& p : picks) values.push_back(Value::String(std::move(p)));
  return values;
}

std::vector<OracleFile> OracleFiles() {
  std::vector<OracleFile> files;
  WriterOptions mixed_options;
  mixed_options.stripe_rows = 1000;  // two full stripes and a partial one
  files.push_back({"mixed", OracleMixedSchema(), mixed_options, OracleMixedRows()});

  WriterOptions no_bloom = mixed_options;
  no_bloom.bloom_filters = false;
  files.push_back({"mixed_no_bloom", OracleMixedSchema(), no_bloom, OracleMixedRows()});

  WriterOptions small_bloom;
  small_bloom.stripe_rows = 700;
  small_bloom.bloom_bits_per_key = 3;
  files.push_back(
      {"mixed_small_bloom", OracleMixedSchema(), small_bloom, OracleMixedRows()});

  {
    // Stripes of 100 rows: 50 and 51 distinct of 100 values, then 49 and 50
    // distinct of 99 non-null values (the threshold counts non-null values).
    Random rng(7);
    OracleFile f{"dict_threshold",
                 Schema({{"s", DataType::kString}, {"n", DataType::kInt64}}),
                 WriterOptions(),
                 {}};
    f.options.stripe_rows = 100;
    const size_t shapes[4][3] = {{100, 50, 0}, {100, 51, 0}, {99, 49, 1}, {99, 50, 1}};
    int64_t n = 0;
    for (const auto& shape : shapes) {
      for (Value& v : OracleDistinctStrings(&rng, shape[0], shape[1], shape[2])) {
        f.rows.push_back({std::move(v), Value::Int64(n++ % 4)});
      }
    }
    files.push_back(std::move(f));
  }
  {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    OracleFile f{"doubles", Schema({{"d", DataType::kDouble}}), WriterOptions(), {}};
    f.options.stripe_rows = 4;
    for (double d : {nan, 1.0, -2.0, 3.0, -0.0, 0.0, 2.5, 0.0, 0.0, -0.0, inf, -inf}) {
      f.rows.push_back({Value::Double(d)});
    }
    f.rows.push_back({Value::Null()});
    f.rows.push_back({Value::Double(nan)});
    f.rows.push_back({Value::Double(5.0)});
    f.rows.push_back({Value::Double(-5.0)});
    f.rows.push_back({Value::Double(7.5)});  // a 1-row final stripe
    files.push_back(std::move(f));
  }
  {
    Random rng(23);
    OracleFile f{"bools", Schema({{"b", DataType::kBool}, {"i", DataType::kInt64}}),
                 WriterOptions(), {}};
    f.options.stripe_rows = 10;
    for (int i = 0; i < 25; ++i) {
      Value b = rng.Bernoulli(0.2) ? Value::Null() : Value::Bool(rng.Bernoulli(0.5));
      f.rows.push_back({std::move(b), Value::Int64(i)});
    }
    for (int i = 0; i < 10; ++i) f.rows.push_back({Value::Bool(true), Value::Null()});
    for (int i = 0; i < 9; ++i) f.rows.push_back({Value::Bool(false), Value::Int64(-i)});
    files.push_back(std::move(f));
  }
  {
    // Runs of exactly 2 and 3 at every offset, long runs, and both extremes.
    OracleFile f{"int_edges", Schema({{"v", DataType::kInt64}, {"d", DataType::kDate}}),
                 WriterOptions(), {}};
    f.options.stripe_rows = 4096;
    const std::vector<int64_t> pattern = {INT64_MIN, INT64_MIN, INT64_MIN, INT64_MAX, 0,
                                          -1,        -1,        1,         1,         1,
                                          INT64_MAX, INT64_MAX, 5,         6,         5};
    for (int rep = 0; rep < 40; ++rep) {
      for (size_t k = 0; k < pattern.size(); ++k) {
        f.rows.push_back({Value::Int64(pattern[(k + rep) % pattern.size()]),
                          Value::Date(rep % 3 == 0 ? -719162 : 2932896)});
      }
    }
    for (int i = 0; i < 5000; ++i) {
      f.rows.push_back({Value::Int64(42), Value::Date(i / 1000)});
    }
    files.push_back(std::move(f));
  }
  {
    OracleFile f{"one_row", OracleMixedSchema(), WriterOptions(), {}};
    f.rows.push_back(OracleMixedRows()[1]);
    files.push_back(std::move(f));
  }
  {
    OracleFile f{"one_row_stripes", OracleMixedSchema(), WriterOptions(), {}};
    f.options.stripe_rows = 1;
    std::vector<Row> rows = OracleMixedRows();
    f.rows.assign(rows.begin(), rows.begin() + 3);
    files.push_back(std::move(f));
  }
  files.push_back({"empty", OracleMixedSchema(), WriterOptions(), {}});
  return files;
}

/// Writes `file` to `path`; returns its bytes.
std::string WriteOracleFile(fs::SimFileSystem* fs, const std::string& path,
                            const OracleFile& file) {
  auto writer = OrcWriter::Create(fs, path, file.schema, 5, file.options);
  EXPECT_TRUE(writer.ok());
  for (const Row& row : file.rows) EXPECT_TRUE((*writer)->Append(row).ok());
  EXPECT_TRUE((*writer)->Close().ok());
  auto size = fs->FileSize(path);
  auto in = fs->NewRandomAccessFile(path);
  std::string bytes;
  EXPECT_TRUE((*in)->ReadAt(0, *size, &bytes).ok());
  return bytes;
}

/// Rows appended around raw stripes copied from the "mixed" file, so the
/// writer flushes a partial stripe before each raw copy.
std::string WriteRawStripeOracle(fs::SimFileSystem* fs, std::vector<Row>* expected) {
  const OracleFile mixed = OracleFiles()[0];
  WriteOracleFile(fs, "/oracle/raw_source.orc", mixed);
  auto source = OrcReader::Open(fs, "/oracle/raw_source.orc");
  EXPECT_TRUE(source.ok());
  WriterOptions options;
  options.stripe_rows = 1000;
  auto writer = OrcWriter::Create(fs, "/oracle/raw.orc", mixed.schema, 9, options);
  EXPECT_TRUE(writer.ok());
  size_t next_row = 1500;
  auto append_rows = [&](size_t n) {
    for (size_t i = 0; i < n; ++i, ++next_row) {
      expected->push_back(mixed.rows[next_row]);
      EXPECT_TRUE((*writer)->Append(mixed.rows[next_row]).ok());
    }
  };
  auto append_raw = [&](size_t s) {
    const StripeInfo& info = (*source)->stripe(s);
    auto raw = (*source)->ReadRawStripe(s);
    EXPECT_TRUE(raw.ok());
    EXPECT_TRUE((*writer)->AppendRawStripe(info, *raw).ok());
    for (uint64_t r = 0; r < info.num_rows; ++r) {
      expected->push_back(mixed.rows[info.first_row + r]);
    }
  };
  append_rows(5);
  append_raw(1);
  append_rows(7);
  append_raw(2);
  append_raw(0);
  append_rows(3);
  EXPECT_TRUE((*writer)->Close().ok());
  auto size = fs->FileSize("/oracle/raw.orc");
  auto in = fs->NewRandomAccessFile("/oracle/raw.orc");
  std::string bytes;
  EXPECT_TRUE((*in)->ReadAt(0, *size, &bytes).ok());
  return bytes;
}

struct OracleDigest {
  const char* name;
  uint32_t crc;
  uint64_t size;
};

// CRC-32C of each oracle file's body and the file's size, as the row-buffered
// writer wrote them. The body is everything before the 12-byte postscript:
// the postscript ends with the footer's own CRC-32C, and a CRC-32C over a
// span followed by that span's CRC-32C depends on the span's length, not its
// content, so a whole-file CRC-32C would not see a change inside the footer
// (stats, bloom filters, stream lengths).
constexpr OracleDigest kOracleDigests[] = {
    {"mixed", 0xC34B92A0U, 70909U},
    {"mixed_no_bloom", 0xE9A92DCCU, 57091U},
    {"mixed_small_bloom", 0x11E3902FU, 61548U},
    {"dict_threshold", 0x75D96156U, 3256U},
    {"doubles", 0xE5AC7825U, 318U},
    {"bools", 0x24FF5430U, 315U},
    {"int_edges", 0xD0636F84U, 17843U},
    {"one_row", 0x4960B5A3U, 320U},
    {"one_row_stripes", 0xE8764EF7U, 801U},
    {"empty", 0x85A1E4C9U, 68U},
    {"raw_stripes", 0xE7F5A98CU, 72039U},
};

/// CRC-32C of a file's body (see kOracleDigests) and its size.
std::pair<uint32_t, uint64_t> BodyDigest(const std::string& bytes) {
  EXPECT_GE(bytes.size(), 12u);
  return {Crc32(bytes.data(), bytes.size() - 12), bytes.size()};
}

/// Reads every row of `path` back and checks it cell by cell against
/// `expected`; doubles compare by bit pattern, so -0.0 and NaN must survive.
void ExpectRowsRoundTrip(const fs::SimFileSystem* fs, const std::string& path,
                         const std::vector<Row>& expected) {
  auto reader = OrcReader::Open(fs, path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  size_t r = 0;
  for (size_t s = 0; s < (*reader)->num_stripes(); ++s) {
    auto stripe = (*reader)->ReadStripe(s);
    ASSERT_TRUE(stripe.ok()) << stripe.status().ToString();
    for (size_t i = 0; i < stripe->num_rows; ++i, ++r) {
      ASSERT_LT(r, expected.size()) << path;
      ASSERT_EQ(stripe->columns.size(), expected[r].size());
      for (size_t c = 0; c < expected[r].size(); ++c) {
        const Value& got = stripe->at(c, i);
        const Value& want = expected[r][c];
        ASSERT_EQ(got.is_null(), want.is_null()) << path << " row " << r << " col " << c;
        if (want.is_double()) {
          ASSERT_TRUE(got.is_double());
          EXPECT_EQ(std::bit_cast<uint64_t>(got.AsDouble()),
                    std::bit_cast<uint64_t>(want.AsDouble()))
              << path << " row " << r;
        } else if (!want.is_null()) {
          EXPECT_TRUE(got == want) << path << " row " << r << " col " << c;
        }
      }
    }
  }
  EXPECT_EQ(r, expected.size()) << path;
}

TEST(OrcFileTest, ByteIdenticalToRowBufferedWriter) {
  fs::SimFileSystem fs;
  ASSERT_TRUE(fs.CreateDir("/oracle").ok());
  std::map<std::string, std::pair<uint32_t, uint64_t>> got;
  for (const OracleFile& f : OracleFiles()) {
    const std::string path = "/oracle/" + f.name + ".orc";
    const std::string bytes = WriteOracleFile(&fs, path, f);
    got[f.name] = BodyDigest(bytes);
    ExpectRowsRoundTrip(&fs, path, f.rows);
  }
  std::vector<Row> raw_rows;
  const std::string raw = WriteRawStripeOracle(&fs, &raw_rows);
  got["raw_stripes"] = BodyDigest(raw);
  ExpectRowsRoundTrip(&fs, "/oracle/raw.orc", raw_rows);

  ASSERT_EQ(got.size(), std::size(kOracleDigests));
  for (const OracleDigest& d : kOracleDigests) {
    ASSERT_EQ(got.count(d.name), 1u) << d.name;
    EXPECT_EQ(got[d.name].first, d.crc) << d.name;
    EXPECT_EQ(got[d.name].second, d.size) << d.name;
  }

  // The threshold stripes really straddle it: dictionary, direct, dictionary,
  // direct (the mode byte leads column 0's data stream).
  auto reader = OrcReader::Open(&fs, "/oracle/dict_threshold.orc");
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ((*reader)->num_stripes(), 4u);
  const char modes[] = {1, 0, 1, 0};
  for (size_t s = 0; s < 4; ++s) {
    auto bytes = (*reader)->ReadRawStripe(s);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ((*bytes)[(*reader)->stripe(s).streams[0].presence_length], modes[s]) << s;
  }
}

}  // namespace
}  // namespace dtl::orc
