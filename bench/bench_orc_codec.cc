// ORC codec microbenchmark (BENCH_orc_codec.json): what the ORC layer costs
// per value, apart from the bytes it moves.
//
// Two data sets, at the bench tables' shapes: TPC-H lineitem (~24k rows at
// scale 1) and the grid table tj_gbsjwzl_mx (~30k rows). For each:
//
//   columns : every column written alone into a one-column file (encode) and
//             read back stripe by stripe with no cache (cold decode), summed
//             per column type: ns per value, and the encoded bytes
//   rows    : the full-width file, written row by row and decoded whole:
//             ns per row (what perfbench's orc.encode/decode_ns_per_row time)
//
// and `crc`: CRC-32C over a 16 MB buffer per implementation (`dispatch` is
// what Crc32 picks on this CPU; `hardware` is absent without SSE4.2), in ns
// per byte. Every figure is the median of five repetitions. Stripes are 8k
// rows, as in the figure benches.
//
// Usage: bench_orc_codec [--scale=N]   (N multiplies rows and CRC bytes)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/coding.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "fs/filesystem.h"
#include "orc/reader.h"
#include "orc/writer.h"
#include "workload/grid_gen.h"
#include "workload/tpch_gen.h"

namespace {

using dtl::Row;
using dtl::Schema;
using dtl::Status;
namespace orc = dtl::orc;

constexpr int kReps = 5;
constexpr uint64_t kStripeRows = 8 * 1024;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "bench_orc_codec failed: %s\n", what.c_str());
  std::exit(1);
}

/// A table that only collects the rows a generator inserts.
class RowSink : public dtl::table::StorageTable {
 public:
  RowSink(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}
  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  dtl::Result<std::unique_ptr<dtl::table::RowIterator>> Scan(
      const dtl::table::ScanSpec&) override {
    return Status::NotSupported("row sink");
  }
  Status InsertRows(const std::vector<Row>& rows) override {
    rows_.insert(rows_.end(), rows.begin(), rows.end());
    return Status::OK();
  }
  Status OverwriteRows(const std::vector<Row>& rows) override {
    rows_ = rows;
    return Status::OK();
  }
  dtl::Result<dtl::table::DmlResult> Update(
      const dtl::table::ScanSpec&, const std::vector<dtl::table::Assignment>&) override {
    return Status::NotSupported("row sink");
  }
  dtl::Result<dtl::table::DmlResult> Delete(const dtl::table::ScanSpec&) override {
    return Status::NotSupported("row sink");
  }
  Status Drop() override { return Status::OK(); }

  std::vector<Row>& rows() { return rows_; }

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median seconds of kReps runs of `fn`.
double Time(const std::function<void()>& fn) {
  std::vector<double> s;
  for (int rep = 0; rep < kReps; ++rep) {
    dtl::Stopwatch watch;
    fn();
    s.push_back(watch.ElapsedSeconds());
  }
  return Median(s);
}

void WriteFile(dtl::fs::SimFileSystem* fs, const std::string& path, const Schema& schema,
               const std::vector<Row>& rows) {
  orc::WriterOptions options;
  options.stripe_rows = kStripeRows;
  auto writer = orc::OrcWriter::Create(fs, path, schema, 1, options);
  if (!writer.ok()) Die(writer.status().ToString());
  for (const Row& row : rows) {
    if (!(*writer)->Append(row).ok()) Die("append");
  }
  if (!(*writer)->Close().ok()) Die("close");
}

/// Decodes every stripe of `path` with no cache; returns the file's size.
uint64_t DecodeFile(const dtl::fs::SimFileSystem* fs, const std::string& path) {
  auto reader = orc::OrcReader::Open(fs, path);
  if (!reader.ok()) Die(reader.status().ToString());
  for (size_t s = 0; s < (*reader)->num_stripes(); ++s) {
    if (!(*reader)->ReadStripe(s).ok()) Die("decode");
  }
  return *fs->FileSize(path);
}

struct TypeTotals {
  size_t columns = 0;
  uint64_t values = 0;
  uint64_t bytes = 0;
  double encode_s = 0;
  double decode_s = 0;
};

void MeasureDataset(const std::string& dataset, const Schema& schema,
                    const std::vector<Row>& rows, std::string* columns_json,
                    std::string* rows_json) {
  char line[512];
  std::map<std::string, TypeTotals> by_type;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const Schema one({schema.field(c)});
    std::vector<Row> cells;
    cells.reserve(rows.size());
    for (const Row& row : rows) cells.push_back(Row{row[c]});
    dtl::fs::SimFileSystem fs;
    uint64_t bytes = 0;
    const double encode_s = Time([&] { WriteFile(&fs, "/c.orc", one, cells); });
    const double decode_s = Time([&] { bytes = DecodeFile(&fs, "/c.orc"); });
    TypeTotals& t = by_type[dtl::DataTypeName(schema.field(c).type)];
    ++t.columns;
    t.values += cells.size();
    t.bytes += bytes;
    t.encode_s += encode_s;
    t.decode_s += decode_s;
  }
  for (const auto& [type, t] : by_type) {
    std::snprintf(line, sizeof(line),
                  "%s    {\"dataset\": \"%s\", \"type\": \"%s\", \"columns\": %zu, "
                  "\"values\": %llu, \"encoded_bytes\": %llu, "
                  "\"encode_ns_per_value\": %.2f, \"decode_ns_per_value\": %.2f}",
                  columns_json->empty() ? "" : ",\n", dataset.c_str(), type.c_str(),
                  t.columns, static_cast<unsigned long long>(t.values),
                  static_cast<unsigned long long>(t.bytes), t.encode_s * 1e9 / t.values,
                  t.decode_s * 1e9 / t.values);
    *columns_json += line;
    std::printf("%-9s %-8s %2zu cols  encode %7.1f ns/value  decode %6.1f ns/value\n",
                dataset.c_str(), type.c_str(), t.columns, t.encode_s * 1e9 / t.values,
                t.decode_s * 1e9 / t.values);
  }

  dtl::fs::SimFileSystem fs;
  uint64_t bytes = 0;
  const double encode_s = Time([&] { WriteFile(&fs, "/rows.orc", schema, rows); });
  const double decode_s = Time([&] { bytes = DecodeFile(&fs, "/rows.orc"); });
  const double n = static_cast<double>(rows.size());
  std::snprintf(line, sizeof(line),
                "%s    {\"dataset\": \"%s\", \"rows\": %zu, \"columns\": %zu, "
                "\"file_bytes\": %llu, \"encode_ns_per_row\": %.1f, "
                "\"decode_ns_per_row\": %.1f}",
                rows_json->empty() ? "" : ",\n", dataset.c_str(), rows.size(),
                schema.num_fields(), static_cast<unsigned long long>(bytes),
                encode_s * 1e9 / n, decode_s * 1e9 / n);
  *rows_json += line;
  std::printf("%-9s %zu rows x %zu cols  encode %.0f ns/row  decode %.0f ns/row\n",
              dataset.c_str(), rows.size(), schema.num_fields(), encode_s * 1e9 / n,
              decode_s * 1e9 / n);
}

std::string MeasureCrc(double scale) {
  const size_t n = static_cast<size_t>(16.0 * (1 << 20) * std::max(0.05, scale));
  std::string buf(n, '\0');
  dtl::Random rng(5);
  for (char& c : buf) c = static_cast<char>(rng.Next());
  std::vector<std::pair<const char*, uint32_t (*)(const char*, size_t)>> paths = {
      {"dispatch", [](const char* p, size_t len) { return dtl::Crc32(p, len); }},
      {"table", &dtl::Crc32Table}};
  if (dtl::Crc32HardwareAvailable()) paths.push_back({"hardware", &dtl::Crc32Hardware});
  std::string json;
  for (const auto& path : paths) {
    const char* name = path.first;
    uint32_t (*fn)(const char*, size_t) = path.second;
    uint32_t sink = 0;
    const double s = Time([&] { sink ^= fn(buf.data(), buf.size()); });
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s    {\"path\": \"%s\", \"bytes\": %zu, \"ns_per_byte\": %.3f, "
                  "\"crc\": %u}",
                  json.empty() ? "" : ",\n", name, n, s * 1e9 / static_cast<double>(n),
                  dtl::Crc32(buf.data(), buf.size()));
    json += line;
    std::printf("crc32c %-8s %.3f ns/byte (%u)\n", name, s * 1e9 / static_cast<double>(n),
                sink);
  }
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  dtl::bench::ParseScaleFlag(&argc, argv);
  const double scale = dtl::bench::ScaleMult();
  std::string columns_json;
  std::string rows_json;

  dtl::workload::TpchConfig tpch;
  tpch.scale_factor = 0.004 * scale;
  RowSink lineitem("lineitem", dtl::workload::LineitemSchema());
  if (!dtl::workload::GenerateLineitem(&lineitem, tpch).ok()) Die("lineitem");
  MeasureDataset("lineitem", lineitem.schema(), lineitem.rows(), &columns_json,
                 &rows_json);

  dtl::workload::GridConfig grid;
  grid.fraction = scale / 8000.0;
  for (const dtl::workload::GridTableSpec& spec : dtl::workload::TableIISpecs(grid)) {
    if (spec.name != "tj_gbsjwzl_mx") continue;
    RowSink table(spec.name, spec.schema);
    if (!dtl::workload::GenerateGridTable(spec, grid, &table).ok()) Die("grid");
    MeasureDataset("grid", table.schema(), table.rows(), &columns_json, &rows_json);
  }

  const std::string crc_json = MeasureCrc(scale);
  std::ofstream json("BENCH_orc_codec.json");
  json << "{\n  \"columns\": [\n"
       << columns_json << "\n  ],\n  \"rows\": [\n"
       << rows_json << "\n  ],\n  \"crc\": [\n"
       << crc_json << "\n  ]\n}\n";
  return json.good() ? 0 : 1;
}
