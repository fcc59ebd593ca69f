// Attached-scan microbenchmark (BENCH_attached_scan.json): what one UNION
// READ pays per attached cell, level by level, at grid-etl's shape.
//
// A 12-column table of 60k rows gets ~12.7k attached cells on ~11.4k
// records: updates to three of the twelve columns (yhlx, dwdm, cjbm), a
// second updated column on one record in nine, and a delete marker on one
// record in fifty. Each level drains the same pinned snapshot:
//
//   cell_merge        : KvStore::NewCellScannerAt, the raw k-way merge,
//                       copying each merged cell out once
//   row_scan          : KvStore::NewRowScannerAt, rows grouped and resolved
//   modification_scan : AttachedTable::NewScannerAt, one run per record
//   union_read        : DualTable::ScanBatchesAt over the four experiment
//                       columns, patching and masking the cached batches
//   union_read_base   : the same drain over a copy of the table with no
//                       attached cell (pure pass-through), so
//                       union_read - union_read_base is the merge's own cost
//
// ns_per_cell is the level's seconds over the attached cell count, for every
// level (union_read_base included, for a like-for-like subtraction). Two
// layouts: every cell in the memtable, and the cells written in three
// rounds over the whole key range with a flush after each of the first two
// (memtable + two SSTables, so all three sources overlap).
//
// Usage: bench_attached_scan [--scale=N]   (N multiplies rows and cells)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "dualtable/dual_table.h"
#include "fs/filesystem.h"

namespace {

using dtl::Row;
using dtl::Value;
namespace dual = dtl::dual;

constexpr size_t kFields = 12;
constexpr uint32_t kUpdated[] = {0, 2, 3};  // yhlx, dwdm, cjbm

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "bench_attached_scan failed: %s\n", what.c_str());
  std::exit(1);
}

dtl::Schema GridSchema() {
  std::vector<dtl::Field> fields = {{"yhlx", dtl::DataType::kInt64},
                                    {"rq", dtl::DataType::kDate},
                                    {"dwdm", dtl::DataType::kString},
                                    {"cjbm", dtl::DataType::kString}};
  for (size_t i = fields.size(); i < kFields; ++i) {
    const std::string n = std::to_string(i);
    fields.push_back(i % 2 == 0 ? dtl::Field{"pad_s" + n, dtl::DataType::kString}
                                : dtl::Field{"pad_i" + n, dtl::DataType::kInt64});
  }
  return dtl::Schema(std::move(fields));
}

/// `prefix` followed by `n` (appending sidesteps a GCC 12 -Wrestrict false
/// positive on `"literal" + std::to_string(n)`).
Value Tagged(const char* prefix, int64_t n) {
  std::string s = prefix;
  s += std::to_string(n);
  return Value::String(std::move(s));
}

Row GridRow(int64_t i) {
  Row row = {Value::Int64(i % 5), Value::Date(19000 + i % 36), Tagged("org_", i % 30),
             Tagged("c", i)};
  for (size_t c = row.size(); c < kFields; ++c) {
    row.push_back(c % 2 == 0 ? Tagged("pad", i % 97)
                             : Value::Int64(i * static_cast<int64_t>(c)));
  }
  return row;
}

Value UpdateValue(uint32_t column, size_t k) {
  const auto n = static_cast<int64_t>(k);
  if (column == 0) return Value::Int64(n % 5 + 10);
  if (column == 2) return Tagged("org_", n % 30);
  return Tagged("u", n);
}

struct Entry {
  std::string layout;
  std::string level;
  uint64_t cells = 0;
  uint64_t records = 0;
  size_t sstables = 0;
  double seconds = 0;
  double ns_per_cell = 0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void RunLayout(const std::string& layout, int flushes, double scale, int reps,
               std::vector<Entry>* out) {
  const size_t rows = static_cast<size_t>(60000 * scale);
  const size_t records = static_cast<size_t>(11416 * scale);
  const size_t doubled = static_cast<size_t>(1284 * scale);  // second column
  dtl::fs::SimFileSystem fs;
  auto metadata = dual::MetadataTable::Open(&fs);
  if (!metadata.ok()) Die("metadata");
  dtl::fs::ClusterModel cluster;
  dual::DualTableOptions options;
  options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  // `plain` holds the same rows and never gets an attached cell: a snapshot
  // of `table` pinned before its writes would still walk their memtable.
  auto open = [&](const std::string& name) {
    auto opened = dual::DualTable::Open(&fs, metadata->get(), &cluster, name, GridSchema(),
                                        options);
    if (!opened.ok()) Die("open: " + opened.status().ToString());
    for (size_t base = 0; base < rows; base += 10000) {
      std::vector<Row> chunk;
      for (size_t i = base; i < std::min(rows, base + 10000); ++i) {
        chunk.push_back(GridRow(static_cast<int64_t>(i)));
      }
      if (!(*opened)->InsertRows(chunk).ok()) Die("insert");
    }
    return std::move(opened).value();
  };
  const auto table_owner = open("mx");
  const auto plain_owner = open("plain");
  dual::DualTable* table = table_owner.get();
  std::vector<uint64_t> rids;
  {
    auto it = table->ScanBatches(dtl::table::ScanSpec());
    if (!it.ok()) Die("scan");
    dtl::table::RowBatch batch;
    while ((*it)->Next(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) rids.push_back(batch.record_id(i));
    }
  }

  // Records spread evenly over the rows; round r writes the records with
  // k % 3 == r, so each round spans the whole key range.
  dual::AttachedTable* attached = table->attached();
  const size_t stride = std::max<size_t>(1, rows / std::max<size_t>(1, records));
  uint64_t cells = 0;
  for (int round = 0; round < 3; ++round) {
    for (size_t k = static_cast<size_t>(round); k < records; k += 3) {
      const uint64_t rid = rids[std::min(rows - 1, k * stride)];
      if (k % 50 == 49) {
        if (!attached->PutDeleteMarker(rid).ok()) Die("delete marker");
        ++cells;
        continue;
      }
      const uint32_t column = kUpdated[k % 3];
      if (!attached->PutUpdate(rid, column, UpdateValue(column, k)).ok()) Die("put");
      ++cells;
      if (k < doubled) {
        const uint32_t second = kUpdated[(k + 1) % 3];
        if (!attached->PutUpdate(rid, second, UpdateValue(second, k)).ok()) Die("put");
        ++cells;
      }
    }
    if (round < flushes && !attached->store()->Flush().ok()) Die("flush");
  }
  table->PublishEditCommit();
  dual::SnapshotPtr snap = table->AcquireSnapshot();

  dtl::table::ScanSpec spec;
  spec.projection = {0, 1, 2, 3};
  dtl::table::ScanMeter meter;  // metered as a SQL statement's scan is
  spec.meter = &meter;
  const dtl::kv::KvStore* store = attached->store();
  dual::SnapshotPtr plain = plain_owner->AcquireSnapshot();
  auto drain_union = [&](dual::DualTable* t, const dual::SnapshotPtr& s) {
    auto it = t->ScanBatchesAt(s, spec);
    if (!it.ok()) Die("scan");
    dtl::table::RowBatch batch;
    uint64_t n = 0;
    while ((*it)->Next(&batch)) n += batch.size();
    if (!(*it)->status().ok()) Die("scan status");
    return n;
  };
  using Level = std::pair<const char*, std::function<uint64_t()>>;
  const std::vector<Level> levels = {
      {"cell_merge",
       [&] {
         uint64_t n = 0;
         dtl::kv::Cell cell;
         auto it = store->NewCellScannerAt(snap->attached);
         for (; it->Valid(); it->Next()) {
           it->CopyTo(&cell);
           n += cell.value.type == dtl::kv::CellType::kPut ? 1 : 0;
         }
         return n;
       }},
      {"row_scan",
       [&] {
         uint64_t n = 0;
         auto it = store->NewRowScannerAt(snap->attached);
         while (it->Next()) ++n;
         return n;
       }},
      {"modification_scan",
       [&] {
         uint64_t n = 0;
         auto it = attached->NewScannerAt(snap->attached);
         while (it->Next()) ++n;
         return n;
       }},
      {"union_read", [&] { return drain_union(table, snap); }},
      {"union_read_base", [&] { return drain_union(plain_owner.get(), plain); }},
  };
  for (const Level& level : levels) level.second();  // warm the stripe cache
  std::vector<std::vector<double>> seconds(levels.size());
  for (int r = 0; r < reps; ++r) {
    for (size_t l = 0; l < levels.size(); ++l) {
      dtl::Stopwatch watch;
      const uint64_t n = levels[l].second();
      seconds[l].push_back(watch.ElapsedSeconds());
      if (n == 0) Die(std::string(levels[l].first) + " drained nothing");
    }
  }
  for (size_t l = 0; l < levels.size(); ++l) {
    Entry e;
    e.layout = layout;
    e.level = levels[l].first;
    e.cells = cells;
    e.records = records;
    e.sstables = snap->attached.tables.size();
    e.seconds = Median(seconds[l]);
    e.ns_per_cell = e.seconds * 1e9 / static_cast<double>(cells);
    out->push_back(e);
  }
}

}  // namespace

int main(int argc, char** argv) {
  dtl::bench::ParseScaleFlag(&argc, argv);
  const double scale = dtl::bench::ScaleMult();
  const int reps = std::max(5, static_cast<int>(41 * std::min(1.0, scale)));
  std::vector<Entry> entries;
  RunLayout("memtable", 0, scale, reps, &entries);
  RunLayout("memtable+2sst", 2, scale, reps, &entries);

  std::printf("%-14s %-18s %8s %8s %4s %10s %10s\n", "layout", "level", "cells",
              "records", "sst", "ms", "ns/cell");
  for (const Entry& e : entries) {
    std::printf("%-14s %-18s %8llu %8llu %4zu %10.3f %10.1f\n", e.layout.c_str(),
                e.level.c_str(), static_cast<unsigned long long>(e.cells),
                static_cast<unsigned long long>(e.records), e.sstables, e.seconds * 1e3,
                e.ns_per_cell);
  }
  std::ofstream json("BENCH_attached_scan.json");
  json << "[\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    json << "  {\"layout\": \"" << e.layout << "\", \"level\": \"" << e.level
         << "\", \"cells\": " << e.cells << ", \"records\": " << e.records
         << ", \"sstables\": " << e.sstables << ", \"seconds\": " << e.seconds
         << ", \"ns_per_cell\": " << e.ns_per_cell << "}"
         << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  json << "]\n";
  return 0;
}
