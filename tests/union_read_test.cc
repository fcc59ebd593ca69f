// Focused unit tests of the UNION READ merge machinery (paper §III-C and
// §V-B): master/attached stream alignment, per-file morsels, projection
// overlay, and the record-ID invariants that make the merge a linear pass.
#include <gtest/gtest.h>

#include "dualtable/dual_table.h"
#include "dualtable/record_id.h"
#include "fs/filesystem.h"

namespace dtl::dual {
namespace {

class UnionReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<fs::SimFileSystem>();
    auto meta = MetadataTable::Open(fs_.get());
    ASSERT_TRUE(meta.ok());
    metadata_ = std::move(*meta);
    cluster_ = std::make_unique<fs::ClusterModel>();

    DualTableOptions options;
    options.plan_mode = DualTableOptions::PlanMode::kForceEdit;
    options.writer_options.stripe_rows = 10;  // many stripes
    auto t = DualTable::Open(fs_.get(), metadata_.get(), cluster_.get(), "u",
                             Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}}),
                             options);
    ASSERT_TRUE(t.ok());
    table_ = *t;
  }

  /// Every visible row with its record ID, in scan order.
  std::vector<std::pair<uint64_t, Row>> Scanned() {
    std::vector<std::pair<uint64_t, Row>> out;
    auto it = table_->ScanBatches(table::ScanSpec{});
    EXPECT_TRUE(it.ok());
    if (!it.ok()) return out;
    const Status drained = table::ForEachRow(it->get(), [&out](uint64_t rid, Row* row) {
      out.emplace_back(rid, *row);
      return Status::OK();
    });
    EXPECT_TRUE(drained.ok()) << drained.ToString();
    return out;
  }

  std::unique_ptr<fs::SimFileSystem> fs_;
  std::unique_ptr<MetadataTable> metadata_;
  std::unique_ptr<fs::ClusterModel> cluster_;
  std::shared_ptr<DualTable> table_;
};

TEST_F(UnionReadTest, RecordIdsAreStrictlyIncreasingWithinScan) {
  for (int file = 0; file < 3; ++file) {
    std::vector<Row> rows;
    for (int i = 0; i < 25; ++i) {
      rows.push_back({Value::Int64(file * 100 + i), Value::Int64(0)});
    }
    ASSERT_TRUE(table_->InsertRows(rows).ok());
  }
  const auto scanned = Scanned();
  ASSERT_EQ(scanned.size(), 75u);
  uint64_t prev = 0;
  for (const auto& [rid, row] : scanned) {
    EXPECT_GT(rid, prev);
    prev = rid;
  }
}

TEST_F(UnionReadTest, OverlayAppliesOnlyToMatchingRecord) {
  std::vector<Row> rows;
  for (int i = 0; i < 30; ++i) rows.push_back({Value::Int64(i), Value::Int64(0)});
  ASSERT_TRUE(table_->InsertRows(rows).ok());

  // Update exactly record id of row 17 through the attached table directly.
  const auto before = Scanned();
  ASSERT_EQ(before.size(), 30u);
  const uint64_t target = before[17].first;
  ASSERT_TRUE(table_->attached()->PutUpdate(target, 1, Value::Int64(999)).ok());
  table_->PublishEditCommit();

  int count = 0;
  for (const auto& [rid, row] : Scanned()) {
    if (rid == target) {
      EXPECT_EQ(row[1].AsInt64(), 999);
    } else {
      EXPECT_EQ(row[1].AsInt64(), 0);
    }
    ++count;
  }
  EXPECT_EQ(count, 30);
}

TEST_F(UnionReadTest, DeleteMarkerHidesExactlyOneRecord) {
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) rows.push_back({Value::Int64(i), Value::Int64(0)});
  ASSERT_TRUE(table_->InsertRows(rows).ok());
  const auto scanned = Scanned();
  ASSERT_FALSE(scanned.empty());
  const uint64_t first = scanned.front().first;
  ASSERT_TRUE(table_->attached()->PutDeleteMarker(first).ok());
  table_->PublishEditCommit();

  auto count = table_->CountRows();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 19u);
}

TEST_F(UnionReadTest, UpdateAfterDeleteMarkerStaysHidden) {
  ASSERT_TRUE(table_->InsertRows({{Value::Int64(1), Value::Int64(0)}}).ok());
  const auto scanned = Scanned();
  ASSERT_EQ(scanned.size(), 1u);
  const uint64_t rid = scanned.front().first;
  ASSERT_TRUE(table_->attached()->PutDeleteMarker(rid).ok());
  ASSERT_TRUE(table_->attached()->PutUpdate(rid, 1, Value::Int64(5)).ok());
  table_->PublishEditCommit();
  // The paper's semantics: the delete marker wins; updates to deleted
  // records do not resurrect them.
  EXPECT_EQ(*table_->CountRows(), 0u);
}

TEST_F(UnionReadTest, PerFileMorselsSeeOnlyTheirModifications) {
  // Two master files; modify one record in each.
  for (int file = 0; file < 2; ++file) {
    std::vector<Row> rows;
    for (int i = 0; i < 10; ++i) {
      rows.push_back({Value::Int64(file * 10 + i), Value::Int64(0)});
    }
    ASSERT_TRUE(table_->InsertRows(rows).ok());
  }
  const auto& files = table_->master()->files();
  ASSERT_EQ(files.size(), 2u);
  ASSERT_TRUE(table_->attached()
                  ->PutUpdate(MakeRecordId(files[0].file_id, 3), 1, Value::Int64(111))
                  .ok());
  ASSERT_TRUE(table_->attached()
                  ->PutUpdate(MakeRecordId(files[1].file_id, 7), 1, Value::Int64(222))
                  .ok());
  table_->PublishEditCommit();

  // Morsels as wide as a whole file: the per-file UNION READ a parallel
  // scan runs, each merging only its own file's record-ID window.
  SnapshotPtr snapshot = table_->AcquireSnapshot();
  auto morsels = table_->PlanScanMorselsAt(snapshot, table::ScanSpec{},
                                           /*stripes_per_morsel=*/1000);
  ASSERT_TRUE(morsels.ok());
  ASSERT_EQ(morsels->size(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ((*morsels)[s].file_id, files[s].file_id);
    auto it =
        table_->NewUnionReadBatchForMorselAt(snapshot, (*morsels)[s], table::ScanSpec{});
    ASSERT_TRUE(it.ok());
    int modified = 0;
    int rows = 0;
    table::RowBatch batch;
    Row row;
    while ((*it)->Next(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        ++rows;
        batch.MaterializeRow(i, &row);
        int64_t v = row[1].AsInt64();
        if (v != 0) {
          ++modified;
          EXPECT_EQ(v, s == 0 ? 111 : 222);
        }
      }
    }
    ASSERT_TRUE((*it)->status().ok());
    EXPECT_EQ(rows, 10);
    EXPECT_EQ(modified, 1);
  }
}

TEST_F(UnionReadTest, ProjectionStillAppliesOverlays) {
  ASSERT_TRUE(table_->InsertRows({{Value::Int64(1), Value::Int64(10)}}).ok());
  const auto scanned = Scanned();
  ASSERT_EQ(scanned.size(), 1u);
  const uint64_t rid = scanned.front().first;
  ASSERT_TRUE(table_->attached()->PutUpdate(rid, 1, Value::Int64(77)).ok());
  table_->PublishEditCommit();

  table::ScanSpec narrow;
  narrow.projection = {1};
  auto rows = table::CollectRows(table_.get(), narrow);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1].AsInt64(), 77);
  EXPECT_TRUE((*rows)[0][0].is_null());  // not projected
}

TEST_F(UnionReadTest, PredicateEvaluatedAfterMerge) {
  // A predicate on the updated value must see the NEW value.
  ASSERT_TRUE(table_->InsertRows({{Value::Int64(1), Value::Int64(10)},
                                  {Value::Int64(2), Value::Int64(20)}}).ok());
  table::Assignment assign;
  assign.column = 1;
  assign.compute = [](const Row&) { return Value::Int64(500); };
  table::ScanSpec id1;
  id1.predicate_columns = {0};
  id1.predicate = [](const Row& row) { return row[0].AsInt64() == 1; };
  ASSERT_TRUE(table_->Update(id1, {assign}).ok());

  table::ScanSpec big;
  big.predicate_columns = {1};
  big.predicate = [](const Row& row) { return row[1].AsInt64() > 100; };
  auto rows = table::CollectRows(table_.get(), big);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].AsInt64(), 1);
}

TEST_F(UnionReadTest, EmptyAttachedScanEqualsPlainMasterScan) {
  std::vector<Row> rows;
  for (int i = 0; i < 50; ++i) rows.push_back({Value::Int64(i), Value::Int64(i)});
  ASSERT_TRUE(table_->InsertRows(rows).ok());
  auto collected = table::CollectRows(table_.get(), table::ScanSpec{});
  ASSERT_TRUE(collected.ok());
  ASSERT_EQ(collected->size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ((*collected)[i][0].AsInt64(), i);
}

TEST_F(UnionReadTest, GetModificationRandomAccess) {
  // The random-read path the paper credits for UNION READ efficiency.
  ASSERT_TRUE(table_->InsertRows({{Value::Int64(1), Value::Int64(0)}}).ok());
  const auto scanned = Scanned();
  ASSERT_EQ(scanned.size(), 1u);
  const uint64_t rid = scanned.front().first;

  AttachedTable* attached = table_->attached();
  auto none = attached->GetModificationAt(attached->store()->GetSnapshot(), rid);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());

  ASSERT_TRUE(attached->PutUpdate(rid, 1, Value::Int64(3)).ok());
  auto some = attached->GetModificationAt(attached->store()->GetSnapshot(), rid);
  ASSERT_TRUE(some.ok());
  ASSERT_TRUE(some->has_value());
  EXPECT_FALSE((*some)->deleted);
  ASSERT_EQ((*some)->num_updates(), 1u);
  EXPECT_EQ((*some)->column(0), 1u);
  Value value;
  ASSERT_TRUE((*some)->DecodeValue(0, &value).ok());
  EXPECT_EQ(value.AsInt64(), 3);
}

}  // namespace
}  // namespace dtl::dual
