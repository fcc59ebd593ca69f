// StripeCache unit + stress coverage: LRU capacity/eviction invariants, the
// (owner, file, generation, stripe, column) key discipline that keeps a
// post-COMPACT reader from ever being served a pre-swap column, column
// sharing across projections, the real-byte charge, rewrites that read
// without admitting, dead files leaving the cache, and a TSan-friendly
// multi-session stress where concurrent lookups and scans run against
// EDIT/COMPACT generation swaps — every read through the cache must be
// byte-identical to the uncached path at the same snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dualtable/dual_table.h"
#include "dualtable/record_id.h"
#include "fs/filesystem.h"
#include "orc/reader.h"
#include "orc/stripe_cache.h"
#include "orc/writer.h"
#include "sql/session.h"

namespace dtl::orc {
namespace {

DecodedColumnPtr MakeColumn(size_t rows, const std::string& payload) {
  auto column = std::make_shared<DecodedColumn>();
  column->cells.Reset(DataType::kString);
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(column->cells.Append(Value::String(payload + std::to_string(i))));
  }
  column->encoded_bytes = rows;
  return column;
}

StripeKey Key(uint64_t owner, uint64_t file, uint64_t generation, size_t stripe) {
  return StripeKey{owner, file, generation, stripe};
}

/// Looks up one column; nullptr on a miss.
DecodedColumnPtr LookupOne(StripeCache* cache, const StripeKey& key, size_t column) {
  std::vector<DecodedColumnPtr> out;
  cache->Lookup(key, {column}, &out);
  return out[0];
}

TEST(StripeCacheTest, LookupReturnsInsertedColumnAndCountsHits) {
  StripeCache cache(1 << 20, /*shards=*/2);
  auto column = MakeColumn(4, "p");
  EXPECT_EQ(LookupOne(&cache, Key(1, 10, 1, 0), 0), nullptr);
  cache.Insert(Key(1, 10, 1, 0), {0}, {column});
  EXPECT_EQ(LookupOne(&cache, Key(1, 10, 1, 0), 0).get(), column.get());
  const StripeCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, StripeCache::Footprint(*column));
}

TEST(StripeCacheTest, GenerationIsPartOfTheKey) {
  // The stale-read regression: a file decoded under generation G must never
  // satisfy a lookup for the same (owner, file, stripe) at generation G+1 —
  // that is what makes a COMPACT-recycled slot safe.
  StripeCache cache(1 << 20, /*shards=*/2);
  cache.Insert(Key(1, 10, /*generation=*/1, 0), {0}, {MakeColumn(4, "old")});
  EXPECT_EQ(LookupOne(&cache, Key(1, 10, /*generation=*/2, 0), 0), nullptr);
  // Same for a different column, stripe and owner.
  EXPECT_EQ(LookupOne(&cache, Key(1, 10, 1, 0), 1), nullptr);
  EXPECT_EQ(LookupOne(&cache, Key(1, 10, 1, 1), 0), nullptr);
  EXPECT_EQ(LookupOne(&cache, Key(2, 10, 1, 0), 0), nullptr);
  auto hit = LookupOne(&cache, Key(1, 10, 1, 0), 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cells.ValueAt(0).AsString(), "old0");
}

TEST(StripeCacheTest, PartialLookupCountsOneMissAndReturnsTheResidentColumns) {
  StripeCache cache(1 << 20, /*shards=*/2);
  auto c1 = MakeColumn(4, "one");
  cache.Insert(Key(1, 10, 1, 0), {1}, {c1});
  std::vector<DecodedColumnPtr> out;
  EXPECT_EQ(cache.Lookup(Key(1, 10, 1, 0), {0, 1, 2}, &out), 2u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], nullptr);
  EXPECT_EQ(out[1].get(), c1.get());
  EXPECT_EQ(out[2], nullptr);
  EXPECT_EQ(cache.Stats().misses, 1u);
  EXPECT_EQ(cache.Stats().hits, 0u);
  EXPECT_EQ(cache.Lookup(Key(1, 10, 1, 0), {1}, &out), 0u);
  EXPECT_EQ(cache.Stats().hits, 1u);
}

TEST(StripeCacheTest, CapacityBoundsResidentBytesAndEvictsLru) {
  // Each column holds ~0.6 KB (16 string refs and their arena); inserting
  // many must evict the least-recently-used while never exceeding capacity.
  StripeCache cache(/*capacity_bytes=*/8192, /*shards=*/1);
  for (uint64_t i = 0; i < 64; ++i) {
    cache.Insert(Key(1, i, 1, 0), {0}, {MakeColumn(16, "payload-payload-")});
    EXPECT_LE(cache.Stats().bytes, 8192u) << "resident bytes exceeded capacity";
  }
  const StripeCacheStats stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_LT(stats.entries, 64u);
  // The most recent insert survives; the very first was evicted long ago.
  EXPECT_NE(LookupOne(&cache, Key(1, 63, 1, 0), 0), nullptr);
  EXPECT_EQ(LookupOne(&cache, Key(1, 0, 1, 0), 0), nullptr);
}

TEST(StripeCacheTest, EraseOwnerDropsOnlyThatOwner) {
  StripeCache cache(1 << 20, 2);
  cache.Insert(Key(1, 10, 1, 0), {0}, {MakeColumn(4, "a")});
  cache.Insert(Key(2, 10, 1, 0), {0}, {MakeColumn(4, "b")});
  cache.EraseOwner(1);
  EXPECT_EQ(LookupOne(&cache, Key(1, 10, 1, 0), 0), nullptr);
  EXPECT_NE(LookupOne(&cache, Key(2, 10, 1, 0), 0), nullptr);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(StripeCacheTest, EraseFileDropsEveryStripeAndGenerationOfOnlyThatFile) {
  StripeCache cache(1 << 20, 4);
  for (size_t stripe = 0; stripe < 5; ++stripe) {
    cache.Insert(Key(1, 10, 1, stripe), {0, 1}, {MakeColumn(4, "a"), MakeColumn(4, "b")});
  }
  cache.Insert(Key(1, 10, 2, 0), {0}, {MakeColumn(4, "g")});
  auto keep_file = MakeColumn(4, "k");
  auto keep_owner = MakeColumn(4, "o");
  cache.Insert(Key(1, 11, 1, 0), {0}, {keep_file});
  cache.Insert(Key(2, 10, 1, 0), {0}, {keep_owner});
  cache.EraseFile(1, 10);
  const StripeCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes,
            StripeCache::Footprint(*keep_file) + StripeCache::Footprint(*keep_owner));
  EXPECT_EQ(LookupOne(&cache, Key(1, 10, 1, 3), 1), nullptr);
  EXPECT_EQ(LookupOne(&cache, Key(1, 10, 2, 0), 0), nullptr);
  EXPECT_NE(LookupOne(&cache, Key(1, 11, 1, 0), 0), nullptr);
  EXPECT_NE(LookupOne(&cache, Key(2, 10, 1, 0), 0), nullptr);
}

TEST(StripeCacheTest, ReaderRoutesSharedReadsThroughCache) {
  fs::SimFileSystem fs;
  WriterOptions options;
  options.stripe_rows = 8;
  Schema schema({{"v", DataType::kInt64}});
  auto writer = OrcWriter::Create(&fs, "/t/c.orc", schema, 7, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 32; ++i) ASSERT_TRUE((*writer)->Append({Value::Int64(i)}).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  StripeCache cache(1 << 20, 2);
  auto reader = OrcReader::Open(&fs, "/t/c.orc");
  ASSERT_TRUE(reader.ok());
  (*reader)->SetSharedCache(&cache, /*owner=*/StripeCache::NewOwnerToken(),
                            /*generation=*/1);
  auto first = (*reader)->ReadStripeShared(1, {0});
  ASSERT_TRUE(first.ok());
  auto second = (*reader)->ReadStripeShared(1, {0});
  ASSERT_TRUE(second.ok());
  // Same decoded column object: the second read was served from the cache.
  EXPECT_EQ((*first)->columns[0].get(), (*second)->columns[0].get());
  EXPECT_EQ(cache.Stats().hits, 1u);
  EXPECT_EQ(cache.Stats().misses, 1u);
  EXPECT_EQ((*first)->at(0, 0).AsInt64(), 8);
  EXPECT_EQ((*second)->encoded_bytes, (*first)->encoded_bytes);
  EXPECT_GT((*second)->encoded_bytes, 0u);
}

Schema WideSchema() {
  return Schema({{"a", DataType::kInt64},
                 {"b", DataType::kString},
                 {"c", DataType::kDouble},
                 {"d", DataType::kString}});
}

TEST(StripeCacheTest, ProjectionsShareDecodedColumns) {
  // Read columns {0,1} of a stripe, then {1,2}: the second read must decode
  // only column 2 and read only column 2's streams from the file.
  fs::SimFileSystem fs;
  WriterOptions options;
  options.stripe_rows = 64;
  auto writer = OrcWriter::Create(&fs, "/t/share.orc", WideSchema(), 3, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 128; ++i) {
    ASSERT_TRUE((*writer)
                    ->Append({Value::Int64(i), Value::String("s" + std::to_string(i)),
                              Value::Double(i * 0.5), Value::String("d")})
                    .ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  StripeCache cache(1 << 20, 2);
  auto reader = OrcReader::Open(&fs, "/t/share.orc");
  ASSERT_TRUE(reader.ok());
  (*reader)->SetSharedCache(&cache, StripeCache::NewOwnerToken(), /*generation=*/1);

  auto first = (*reader)->ReadStripeShared(1, {0, 1});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.Stats().entries, 2u);

  const fs::IoSnapshot before = fs.meter()->Snapshot();
  auto second = (*reader)->ReadStripeShared(1, {1, 2});
  ASSERT_TRUE(second.ok());
  const fs::IoSnapshot io = fs.meter()->Snapshot() - before;
  const StreamInfo& col2 = (*reader)->stripe(1).streams[2];
  EXPECT_EQ(io.hdfs_bytes_read, col2.presence_length + col2.data_length);
  EXPECT_EQ(io.hdfs_seeks, 1u);
  // Column 1 came from the entry the first read inserted; column 2 is new.
  EXPECT_EQ((*second)->columns[0].get(), (*first)->columns[1].get());
  EXPECT_EQ(cache.Stats().entries, 3u);
  EXPECT_EQ(cache.Stats().misses, 2u);
  EXPECT_EQ((*second)->projection, (std::vector<size_t>{1, 2}));
  EXPECT_EQ((*second)->at(0, 0).AsString(), "s64");
  EXPECT_EQ((*second)->at(1, 3).AsDouble(), 67 * 0.5);
  // The batch still accounts every projected column's encoded bytes.
  const StreamInfo& col1 = (*reader)->stripe(1).streams[1];
  EXPECT_EQ((*second)->encoded_bytes, col1.presence_length + col1.data_length +
                                          col2.presence_length + col2.data_length);

  // Both projections again: all hits, no I/O.
  const fs::IoSnapshot before_hits = fs.meter()->Snapshot();
  ASSERT_TRUE((*reader)->ReadStripeShared(1, {0, 1, 2}).ok());
  EXPECT_EQ((fs.meter()->Snapshot() - before_hits).hdfs_bytes_read, 0u);
  EXPECT_EQ(cache.Stats().hits, 1u);
}

TEST(StripeCacheTest, ChargeIsTheRealFootprint) {
  fs::SimFileSystem fs;
  WriterOptions options;
  options.stripe_rows = 100;
  auto writer = OrcWriter::Create(&fs, "/t/charge.orc", WideSchema(), 4, options);
  ASSERT_TRUE(writer.ok());
  constexpr size_t kRows = 100;
  const std::string long_prefix(40, 'x');
  size_t long_bytes = 0;
  for (size_t i = 0; i < kRows; ++i) {
    const std::string long_value = long_prefix + std::to_string(i);
    long_bytes += long_value.size();
    ASSERT_TRUE((*writer)
                    ->Append({Value::Int64(static_cast<int64_t>(i)), Value::String("s"),
                              Value::Double(1.0), Value::String(long_value)})
                    .ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  StripeCache cache(1 << 20, 2);
  auto reader = OrcReader::Open(&fs, "/t/charge.orc");
  ASSERT_TRUE(reader.ok());
  (*reader)->SetSharedCache(&cache, StripeCache::NewOwnerToken(), /*generation=*/1);
  ASSERT_TRUE((*reader)->ReadStripeShared(0).ok());
  const StripeCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 4u);
  // Every cell occupies 8 bytes: an int64, a double, or a string's (offset,
  // length) into its column's arena. The dictionary-encoded "s" column keeps
  // its one key inline; the direct-encoded long strings add their bytes once,
  // plus at most two bytes of stream framing per row the arena reserves.
  EXPECT_GE(stats.bytes, 4 * kRows * sizeof(int64_t) + long_bytes);
  EXPECT_LE(stats.bytes, 4 * kRows * sizeof(int64_t) + long_bytes + 2 * kRows);
}

Schema StressSchema() {
  return Schema({{"id", DataType::kInt64}, {"payload", DataType::kString}});
}

struct TableFixture {
  fs::SimFileSystem fs;
  fs::ClusterModel cluster;
  std::unique_ptr<dual::MetadataTable> metadata;
  std::shared_ptr<dual::DualTable> table;

  void Open(StripeCache* cache, dual::DualTableOptions::PlanMode mode) {
    auto meta = dual::MetadataTable::Open(&fs);
    ASSERT_TRUE(meta.ok());
    metadata = std::move(*meta);
    dual::DualTableOptions options;
    options.writer_options.stripe_rows = 16;
    options.stripe_cache = cache;
    options.plan_mode = mode;
    auto opened = dual::DualTable::Open(&fs, metadata.get(), &cluster, "cached",
                                        StressSchema(), options);
    ASSERT_TRUE(opened.ok());
    table = std::move(*opened);
    std::vector<Row> rows;
    for (int64_t i = 0; i < 100; ++i) {
      rows.push_back({Value::Int64(i), Value::String("v" + std::to_string(i))});
    }
    ASSERT_TRUE(table->InsertRows(rows).ok());
  }

  /// Marks every tenth row deleted without scanning (no cache traffic).
  void PlantDeletes() {
    const uint64_t file_id = table->master()->files()[0].file_id;
    for (uint64_t r = 0; r < 100; r += 10) {
      const uint64_t rid = dual::MakeRecordId(file_id, r);
      ASSERT_TRUE(table->attached()->PutDeleteMarker(rid).ok());
    }
    table->PublishEditCommit();
  }
};

TEST(StripeCacheTest, RewritesReadWithoutAdmitting) {
  {
    StripeCache cache(1 << 20, 2);
    TableFixture f;
    f.Open(&cache, dual::DualTableOptions::PlanMode::kForceOverwrite);
    table::ScanSpec filter;
    filter.predicate_columns = {0};
    filter.predicate = [](const Row& row) { return row[0].AsInt64() < 50; };
    auto done = f.table->Delete(filter);
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done->plan, table::DmlPlan::kOverwrite);
    EXPECT_EQ(done->rows_matched, 50u);
    EXPECT_GT(cache.Stats().misses, 0u) << "the OVERWRITE read every stripe";
    EXPECT_EQ(cache.Stats().entries, 0u);
    EXPECT_EQ(cache.Stats().bytes, 0u);
  }
  {
    StripeCache cache(1 << 20, 2);
    TableFixture f;
    f.Open(&cache, dual::DualTableOptions::PlanMode::kForceEdit);
    f.PlantDeletes();
    ASSERT_TRUE(f.table->Compact().ok());
    EXPECT_GT(cache.Stats().misses, 0u) << "the COMPACT read every stripe";
    EXPECT_EQ(cache.Stats().entries, 0u);
    EXPECT_EQ(*f.table->CountRows(), 90u);
  }
}

TEST(StripeCacheTest, DeadFilesLeaveTheCacheWithTheirGeneration) {
  StripeCache cache(1 << 20, 4);
  TableFixture f;
  f.Open(&cache, dual::DualTableOptions::PlanMode::kForceEdit);
  f.PlantDeletes();
  auto drain = [&](const dual::SnapshotPtr& snap) {
    auto it = f.table->ScanBatchesAt(snap, table::ScanSpec{});
    ASSERT_TRUE(it.ok());
    table::RowBatch batch;
    while ((*it)->Next(&batch)) {
    }
    ASSERT_TRUE((*it)->status().ok());
  };
  dual::SnapshotPtr pinned = f.table->AcquireSnapshot();
  drain(pinned);
  const StripeCacheStats old_only = cache.Stats();
  ASSERT_GT(old_only.entries, 0u);

  ASSERT_TRUE(f.table->Compact().ok());
  drain(f.table->AcquireSnapshot());
  const StripeCacheStats both = cache.Stats();
  ASSERT_GT(both.entries, old_only.entries);
  // The pinned snapshot still reads the replaced file: its columns stay.
  drain(pinned);
  EXPECT_EQ(cache.Stats().misses, both.misses);

  pinned.reset();  // the last pin of the old generation drops
  const StripeCacheStats live = cache.Stats();
  EXPECT_EQ(live.entries, both.entries - old_only.entries);
  EXPECT_EQ(live.bytes, both.bytes - old_only.bytes);
  // What is left is exactly the live generation: re-reading it decodes
  // nothing and inserts nothing.
  drain(f.table->AcquireSnapshot());
  EXPECT_EQ(cache.Stats().misses, live.misses);
  EXPECT_EQ(cache.Stats().entries, live.entries);
}

TEST(StripeCacheTest, SecondScanRoutedUpdateReadsNoHdfsBytes) {
  StripeCache cache(8 << 20, 4);
  sql::SessionOptions options;
  options.dual_defaults.stripe_cache = &cache;
  options.dual_defaults.writer_options.stripe_rows = 64;
  auto created = sql::Session::Create(options);
  ASSERT_TRUE(created.ok());
  sql::Session* session = created->get();
  ASSERT_TRUE(session
                  ->Execute("CREATE TABLE t (id BIGINT, v BIGINT, note STRING) "
                            "STORED AS DUALTABLE")
                  .ok());
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 500; ++i) {
    if (i > 0) insert += ",";
    insert += "(" + std::to_string(i) + "," + std::to_string(i % 7) + ",'n')";
  }
  ASSERT_TRUE(session->Execute(insert).ok());
  // v >= 0 holds in every stripe, so stats pruning skips nothing on either
  // statement; both scan the same columns (v).
  const std::string update = "UPDATE t SET v = v + 1 WHERE v >= 0 WITH RATIO 0.01";
  auto first = session->Execute(update);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->dml_plan, "EDIT");
  ASSERT_EQ(first->affected_rows, 500u);

  const fs::IoSnapshot io_before = session->fs()->meter()->Snapshot();
  const StripeCacheStats cache_before = cache.Stats();
  auto second = session->Execute(update);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->dml_plan, "EDIT");
  EXPECT_EQ(second->affected_rows, 500u);
  const fs::IoSnapshot io = session->fs()->meter()->Snapshot() - io_before;
  EXPECT_EQ(io.hdfs_bytes_read, 0u);
  EXPECT_EQ(io.hdfs_seeks, 0u);
  const StripeCacheStats cache_after = cache.Stats();
  EXPECT_EQ(cache_after.misses, cache_before.misses) << "a stripe was decoded";
  EXPECT_EQ(cache_after.hits - cache_before.hits, 8u);  // ceil(500 / 64) stripes
  auto check = session->Execute("SELECT COUNT(*) FROM t WHERE v >= 2");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->rows[0][0].AsInt64(), 500);
}

// Concurrent point lookups + double scans against EDIT/COMPACT generation
// swaps, all sharing one tiny cache. Designed for TSan: fixed iteration
// counts, no timing assertions. Each reader compares two scans of the SAME
// pinned snapshot (first populates the cache, second hits it) — any stale or
// torn cached column shows up as a diff; the index path must agree too.
TEST(StripeCacheStressTest, CachedReadsMatchUncachedUnderConcurrentDmlAndCompact) {
  fs::SimFileSystem fs;
  auto metadata = dual::MetadataTable::Open(&fs);
  ASSERT_TRUE(metadata.ok());
  fs::ClusterModel cluster;
  StripeCache cache(/*capacity_bytes=*/1 << 14, /*shards=*/2);

  dual::DualTableOptions options;
  options.writer_options.stripe_rows = 16;
  options.indexed_columns = {0};
  options.stripe_cache = &cache;
  auto table = dual::DualTable::Open(&fs, metadata->get(), &cluster, "cache_stress",
                                     StressSchema(), options);
  ASSERT_TRUE(table.ok());
  dual::DualTable* t = table->get();

  constexpr int64_t kRows = 400;
  std::vector<Row> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int64(i), Value::String("v0_" + std::to_string(i))});
  }
  ASSERT_TRUE(t->InsertRows(rows).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread writer_thread([&] {
    for (int round = 0; round < 12 && failures.load() == 0; ++round) {
      table::ScanSpec spec;
      spec.predicate_columns = {0};
      const int64_t lo = (round * 37) % kRows;
      const int64_t hi = lo + 50;
      spec.predicate = [lo, hi](const Row& row) {
        return row[0].AsInt64() >= lo && row[0].AsInt64() < hi;
      };
      std::vector<table::Assignment> assigns(1);
      assigns[0].column = 1;
      const std::string tag = "v" + std::to_string(round + 1) + "_";
      assigns[0].input_columns = {0};
      assigns[0].compute = [tag](const Row& row) {
        return Value::String(tag + std::to_string(row[0].AsInt64()));
      };
      if (!t->UpdateWithHint(spec, assigns, 0.01).ok()) failures.fetch_add(1);
      if (round % 4 == 3) {
        // Swap the whole generation under the readers.
        if (!t->Compact().ok()) failures.fetch_add(1);
      }
    }
    stop.store(true);
  });

  auto scan_all = [&](const dual::SnapshotPtr& snap, std::vector<std::string>* out) {
    auto it = t->ScanAt(snap, table::ScanSpec{});
    if (!it.ok()) return false;
    while ((*it)->Next()) out->push_back(dtl::RowToString((*it)->row()));
    return (*it)->status().ok();
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      uint64_t iter = 0;
      while (!stop.load() && failures.load() == 0) {
        ++iter;
        dual::SnapshotPtr snap = t->AcquireSnapshot();
        std::vector<std::string> cold, warm;
        if (!scan_all(snap, &cold) || !scan_all(snap, &warm) || cold != warm) {
          failures.fetch_add(1);
          break;
        }
        // Index path at the same snapshot must see the same row bytes.
        const int64_t probe = static_cast<int64_t>((iter * 31 + r * 131)) % kRows;
        table::ScanSpec spec;
        auto looked = t->IndexLookupAt(snap, 0, {Value::Int64(probe)}, spec);
        if (!looked.ok() || looked->size() != 1 ||
            dtl::RowToString(looked->front().second) !=
                cold[static_cast<size_t>(probe)]) {
          failures.fetch_add(1);
          break;
        }
      }
    });
  }
  writer_thread.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  const StripeCacheStats stats = cache.Stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.bytes, cache.capacity_bytes());
}

}  // namespace
}  // namespace dtl::orc
