#include <gtest/gtest.h>

#include "common/random.h"
#include "fs/filesystem.h"
#include "kv/store.h"

namespace dtl::kv {
namespace {

KvStoreOptions SmallOptions(const std::string& dir) {
  KvStoreOptions options;
  options.dir = dir;
  options.memtable_flush_bytes = 16 * 1024;  // force frequent flushes
  options.l0_compaction_trigger = 4;
  return options;
}

class KvStoreTest : public ::testing::Test {
 protected:
  fs::SimFileSystem fs_;
};

TEST_F(KvStoreTest, PutGetRoundTrip) {
  auto store = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("row1", 3, "value3").ok());
  ASSERT_TRUE((*store)->Put("row1", 5, "value5").ok());
  auto got = (*store)->Get("row1", 3);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, "value3");
  auto missing = (*store)->Get("row2", 3);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
}

TEST_F(KvStoreTest, LatestVersionWins) {
  auto store = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*store)->Put("r", 1, "v" + std::to_string(i)).ok());
  }
  auto got = (*store)->Get("r", 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, "v4");
}

TEST_F(KvStoreTest, MultiVersionHistory) {
  auto store = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*store)->Put("r", 1, "v" + std::to_string(i)).ok());
  }
  std::vector<std::pair<uint64_t, std::string>> versions;
  ASSERT_TRUE((*store)->GetVersions("r", 1, 10, &versions).ok());
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0].second, "v2");  // newest first
  EXPECT_EQ(versions[2].second, "v0");
  EXPECT_GT(versions[0].first, versions[1].first);
}

TEST_F(KvStoreTest, DeleteRowMasksOlderPuts) {
  auto store = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
  ASSERT_TRUE((*store)->Put("r", 1, "a").ok());
  ASSERT_TRUE((*store)->Put("r", 2, "b").ok());
  ASSERT_TRUE((*store)->DeleteRow("r").ok());
  auto got = (*store)->Get("r", 1);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->has_value());
  // A later put resurrects the row.
  ASSERT_TRUE((*store)->Put("r", 1, "after").ok());
  got = (*store)->Get("r", 1);
  EXPECT_TRUE(got->has_value());
  EXPECT_EQ(**got, "after");
  // Column 2 stays masked.
  auto col2 = (*store)->Get("r", 2);
  EXPECT_FALSE(col2->has_value());
}

TEST_F(KvStoreTest, DeleteColumnMasksOnlyThatColumn) {
  auto store = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
  ASSERT_TRUE((*store)->Put("r", 1, "a").ok());
  ASSERT_TRUE((*store)->Put("r", 2, "b").ok());
  ASSERT_TRUE((*store)->DeleteColumn("r", 1).ok());
  EXPECT_FALSE((*store)->Get("r", 1)->has_value());
  EXPECT_TRUE((*store)->Get("r", 2)->has_value());
}

TEST_F(KvStoreTest, FlushPersistsToSstable) {
  auto store = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*store)->Put("row" + std::to_string(i), 1, "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_GE((*store)->NumSstables(), 1u);
  auto got = (*store)->Get("row42", 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, "v42");
}

TEST_F(KvStoreTest, WalRecoveryAfterReopen) {
  {
    auto store = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
    ASSERT_TRUE((*store)->Put("persist", 1, "survives").ok());
    // No flush: the data lives only in WAL + memtable. Destroy the store.
  }
  auto reopened = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
  ASSERT_TRUE(reopened.ok());
  auto got = (*reopened)->Get("persist", 1);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ(**got, "survives");
}

TEST_F(KvStoreTest, ReopenAfterFlushSeesSstables) {
  {
    auto store = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*store)->Put("k" + std::to_string(i), 1, "v").ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->Put("post_flush", 1, "wal_only").ok());
  }
  auto reopened = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->Get("k7", 1)->has_value());
  EXPECT_TRUE((*reopened)->Get("post_flush", 1)->has_value());
}

TEST_F(KvStoreTest, ScanSeesMergedSortedCells) {
  auto store = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
  // Interleave across flush boundaries.
  for (int i = 0; i < 200; i += 2) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "row%04d", i);
    ASSERT_TRUE((*store)->Put(buf, 1, "even").ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  for (int i = 1; i < 200; i += 2) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "row%04d", i);
    ASSERT_TRUE((*store)->Put(buf, 1, "odd").ok());
  }
  auto scanner = (*store)->NewRowScanner();
  int count = 0;
  std::string prev;
  while (scanner->Next()) {
    EXPECT_LT(prev, scanner->view().row());
    prev = scanner->view().row();
    ++count;
  }
  ASSERT_TRUE(scanner->status().ok());
  EXPECT_EQ(count, 200);
}

TEST_F(KvStoreTest, CompactionDropsShadowedVersionsAndTombstones) {
  auto options = SmallOptions("/hbase/t");
  options.max_versions = 1;
  auto store = KvStore::Open(&fs_, options);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          (*store)->Put("k" + std::to_string(i), 1, "r" + std::to_string(round)).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  ASSERT_TRUE((*store)->DeleteRow("k0").ok());
  ASSERT_TRUE((*store)->Compact().ok());
  EXPECT_EQ((*store)->NumSstables(), 1u);
  // k0 deleted; all other keys at latest version; history gone.
  EXPECT_FALSE((*store)->Get("k0", 1)->has_value());
  EXPECT_EQ(*(*store)->Get("k1", 1).value(), "r2");
  std::vector<std::pair<uint64_t, std::string>> versions;
  ASSERT_TRUE((*store)->GetVersions("k1", 1, 10, &versions).ok());
  EXPECT_EQ(versions.size(), 1u);
  EXPECT_EQ((*store)->ApproximateCellCount(), 49u);
}

TEST_F(KvStoreTest, CompactionRespectsMaxVersions) {
  auto options = SmallOptions("/hbase/t");
  options.max_versions = 2;
  auto store = KvStore::Open(&fs_, options);
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE((*store)->Put("k", 1, "r" + std::to_string(round)).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  ASSERT_TRUE((*store)->Compact().ok());
  std::vector<std::pair<uint64_t, std::string>> versions;
  ASSERT_TRUE((*store)->GetVersions("k", 1, 10, &versions).ok());
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].second, "r3");
  EXPECT_EQ(versions[1].second, "r2");
}

TEST_F(KvStoreTest, AutoFlushAndCompactUnderLoad) {
  auto store = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
  Random rng(11);
  for (int i = 0; i < 5000; ++i) {
    std::string key = "key" + std::to_string(rng.Uniform(500));
    ASSERT_TRUE((*store)->Put(key, static_cast<uint32_t>(rng.Uniform(4)),
                              rng.NextString(32))
                    .ok());
  }
  // Compaction trigger kept the SSTable count bounded.
  EXPECT_LE((*store)->NumSstables(),
            static_cast<size_t>(SmallOptions("").l0_compaction_trigger) + 1);
  EXPECT_GT((*store)->stats().flushes, 0u);
  EXPECT_GT((*store)->stats().compactions, 0u);
}

TEST_F(KvStoreTest, ClearEmptiesStore) {
  auto store = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*store)->Put("k" + std::to_string(i), 1, "v").ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Clear().ok());
  EXPECT_EQ((*store)->ApproximateCellCount(), 0u);
  auto scanner = (*store)->NewRowScanner();
  EXPECT_FALSE(scanner->Next());
  // Store remains usable.
  ASSERT_TRUE((*store)->Put("fresh", 1, "new").ok());
  EXPECT_TRUE((*store)->Get("fresh", 1)->has_value());
}

TEST_F(KvStoreTest, ReservedQualifierRejected) {
  auto store = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
  EXPECT_TRUE((*store)->Put("r", kRowTombstoneQualifier, "x").IsInvalidArgument());
  EXPECT_TRUE((*store)->DeleteColumn("r", kRowTombstoneQualifier).IsInvalidArgument());
}

TEST_F(KvStoreTest, ScannerFromStartRow) {
  auto store = KvStore::Open(&fs_, SmallOptions("/hbase/t"));
  for (int i = 0; i < 100; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "row%03d", i);
    ASSERT_TRUE((*store)->Put(buf, 1, "v").ok());
  }
  std::string start = "row050";
  auto scanner = (*store)->NewRowScanner(&start);
  int count = 0;
  while (scanner->Next()) ++count;
  EXPECT_EQ(count, 50);
}

TEST(CellKeyTest, OrderingRowQualTsDesc) {
  CellKey a{"r1", 1, 10};
  CellKey b{"r1", 1, 20};
  CellKey c{"r1", 2, 5};
  CellKey d{"r2", 0, 1};
  EXPECT_GT(a.Compare(b), 0);  // newer timestamp sorts FIRST
  EXPECT_LT(a.Compare(c), 0);
  EXPECT_LT(c.Compare(d), 0);
  EXPECT_EQ(a.Compare(a), 0);
}

TEST(ResolveRowCellsTest, ColumnTombstoneThenNewerPut) {
  // put(ts=1), delete-col(ts=2), put(ts=3): only ts=3 visible.
  std::vector<Cell> raw = {
      {{"r", 1, 3}, {CellType::kPut, "new"}},
      {{"r", 1, 2}, {CellType::kDeleteColumn, ""}},
      {{"r", 1, 1}, {CellType::kPut, "old"}},
  };
  ASSERT_EQ(ResolveRowCells(raw.data(), raw.size(), 5), 1u);
  EXPECT_EQ(raw[0].value.value, "new");
}

TEST(SstableTest, GetVersionsUsesBloomAndIndex) {
  fs::SimFileSystem fs;
  auto writer = SstWriter::Create(&fs, "/hbase/t/sst_000001_5.sst", 1000);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 1000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%04d", i);
    Cell cell{{buf, 1, 5}, {CellType::kPut, "value" + std::to_string(i)}};
    ASSERT_TRUE((*writer)->Add(cell).ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());

  auto reader = SstReader::Open(&fs, "/hbase/t/sst_000001_5.sst");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->cell_count(), 1000u);
  std::vector<Cell> out;
  ASSERT_TRUE((*reader)->GetVersions("key0500", 1, 10, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value.value, "value500");
  out.clear();
  ASSERT_TRUE((*reader)->GetVersions("nokey", 1, 10, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(SstableTest, OutOfOrderAddRejected) {
  fs::SimFileSystem fs;
  auto writer = SstWriter::Create(&fs, "/hbase/t/bad.sst", 10);
  Cell b{{"b", 1, 1}, {CellType::kPut, "x"}};
  Cell a{{"a", 1, 1}, {CellType::kPut, "x"}};
  ASSERT_TRUE((*writer)->Add(b).ok());
  EXPECT_TRUE((*writer)->Add(a).IsInvalidArgument());
}

}  // namespace
}  // namespace dtl::kv
