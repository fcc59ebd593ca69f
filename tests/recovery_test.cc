// Durability and recovery across component restarts: every store must come
// back from its persisted state (WAL, SSTables, ORC files, metadata) with
// the logical view intact — including DualTable instances whose attached
// tables hold unflushed EDIT-plan modifications.
#include <gtest/gtest.h>

#include <map>

#include "baseline/acid_table.h"
#include "baseline/hive_table.h"
#include "dualtable/dual_table.h"
#include "fs/filesystem.h"

namespace dtl {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<fs::SimFileSystem>();
    auto meta = dual::MetadataTable::Open(fs_.get());
    ASSERT_TRUE(meta.ok());
    metadata_ = std::move(*meta);
    cluster_ = std::make_unique<fs::ClusterModel>();
  }

  Schema TestSchema() {
    return Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}});
  }

  Result<std::shared_ptr<dual::DualTable>> OpenDual(
      dual::DualTableOptions::PlanMode mode) {
    dual::DualTableOptions options;
    options.plan_mode = mode;
    return dual::DualTable::Open(fs_.get(), metadata_.get(), cluster_.get(), "t",
                                 TestSchema(), options);
  }

  std::unique_ptr<fs::SimFileSystem> fs_;
  std::unique_ptr<dual::MetadataTable> metadata_;
  std::unique_ptr<fs::ClusterModel> cluster_;
};

TEST_F(RecoveryTest, DualTableSurvivesReopenWithPendingEdits) {
  // First incarnation: insert + EDIT update + EDIT delete, then drop the
  // object WITHOUT compaction or flush — modifications live in the attached
  // table's WAL/memtable only.
  {
    auto t = OpenDual(dual::DualTableOptions::PlanMode::kForceEdit);
    ASSERT_TRUE(t.ok());
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) rows.push_back({Value::Int64(i), Value::Int64(0)});
    ASSERT_TRUE((*t)->InsertRows(rows).ok());

    table::ScanSpec evens;
    evens.predicate_columns = {0};
    evens.predicate = [](const Row& row) { return row[0].AsInt64() % 2 == 0; };
    table::Assignment assign;
    assign.column = 1;
    assign.compute = [](const Row&) { return Value::Int64(7); };
    ASSERT_TRUE((*t)->Update(evens, {assign}).ok());

    table::ScanSpec nineties;
    nineties.predicate_columns = {0};
    nineties.predicate = [](const Row& row) { return row[0].AsInt64() >= 90; };
    ASSERT_TRUE((*t)->Delete(nineties).ok());
  }

  // Second incarnation: the WAL replays; the merged view is identical.
  auto reopened = OpenDual(dual::DualTableOptions::PlanMode::kForceEdit);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->attached()->Empty());
  auto rows = table::CollectRows(reopened->get(), table::ScanSpec{});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 90u);
  for (const Row& row : *rows) {
    const int64_t id = row[0].AsInt64();
    EXPECT_LT(id, 90);
    EXPECT_EQ(row[1].AsInt64(), id % 2 == 0 ? 7 : 0);
  }
}

TEST_F(RecoveryTest, DualTableFileIdsStayUniqueAcrossReopen) {
  {
    auto t = OpenDual(dual::DualTableOptions::PlanMode::kCostModel);
    ASSERT_TRUE((*t)->InsertRows({{Value::Int64(1), Value::Int64(1)}}).ok());
  }
  auto reopened = OpenDual(dual::DualTableOptions::PlanMode::kCostModel);
  ASSERT_TRUE((*reopened)->InsertRows({{Value::Int64(2), Value::Int64(2)}}).ok());
  const auto& files = (*reopened)->master()->files();
  ASSERT_EQ(files.size(), 2u);
  // The metadata table persisted the counter: no file-ID collision.
  EXPECT_NE(files[0].file_id, files[1].file_id);
  EXPECT_EQ(*(*reopened)->CountRows(), 2u);
}

TEST_F(RecoveryTest, MetadataHistorySurvivesReopen) {
  ASSERT_TRUE(metadata_->RecordModificationRatio("t", 0.125).ok());
  auto meta2 = dual::MetadataTable::Open(fs_.get());
  ASSERT_TRUE(meta2.ok());
  auto ratio = (*meta2)->HistoricalModificationRatio("t");
  ASSERT_TRUE(ratio.ok());
  ASSERT_TRUE(ratio->has_value());
  EXPECT_NEAR(**ratio, 0.125, 1e-9);
}

TEST_F(RecoveryTest, AcidTableRecoversDeltasAndTxnCounter) {
  {
    auto t = baseline::AcidTable::Open(fs_.get(), metadata_.get(), "a", TestSchema());
    ASSERT_TRUE(t.ok());
    std::vector<Row> rows;
    for (int i = 0; i < 50; ++i) rows.push_back({Value::Int64(i), Value::Int64(0)});
    ASSERT_TRUE((*t)->InsertRows(rows).ok());
    table::ScanSpec low;
    low.predicate_columns = {0};
    low.predicate = [](const Row& row) { return row[0].AsInt64() < 10; };
    table::Assignment assign;
    assign.column = 1;
    assign.compute = [](const Row&) { return Value::Int64(5); };
    ASSERT_TRUE((*t)->Update(low, {assign}).ok());
  }
  auto reopened = baseline::AcidTable::Open(fs_.get(), metadata_.get(), "a", TestSchema());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->NumDeltaFiles(), 1u);
  // Further transactions get fresh txn numbers (no delta-file collision).
  table::ScanSpec high;
  high.predicate_columns = {0};
  high.predicate = [](const Row& row) { return row[0].AsInt64() >= 40; };
  ASSERT_TRUE((*reopened)->Delete(high).ok());
  EXPECT_EQ((*reopened)->NumDeltaFiles(), 2u);
  auto count = (*reopened)->CountRows();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 40u);
  auto check = table::CollectRows(reopened->get(), table::ScanSpec{});
  int updated = 0;
  for (const Row& row : *check) {
    if (row[1].AsInt64() == 5) ++updated;
  }
  EXPECT_EQ(updated, 10);
}

TEST_F(RecoveryTest, KvStoreSurvivesManyReopenCycles) {
  kv::KvStoreOptions options;
  options.dir = "/hbase/cycle";
  options.memtable_flush_bytes = 2048;
  std::map<std::string, std::string> model;
  for (int cycle = 0; cycle < 5; ++cycle) {
    auto store = kv::KvStore::Open(fs_.get(), options);
    ASSERT_TRUE(store.ok()) << "cycle " << cycle;
    // Verify everything from previous cycles.
    for (const auto& [key, value] : model) {
      auto got = (*store)->Get(key, 1);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(got->has_value()) << key;
      EXPECT_EQ(**got, value);
    }
    // Write this cycle's batch (some keys overwrite earlier cycles).
    for (int i = 0; i < 40; ++i) {
      std::string key = "k" + std::to_string((cycle * 17 + i) % 100);
      std::string value = "c" + std::to_string(cycle) + "_" + std::to_string(i);
      ASSERT_TRUE((*store)->Put(key, 1, value).ok());
      model[key] = value;
    }
    if (cycle % 2 == 0) {
      ASSERT_TRUE((*store)->Flush().ok());
    }
  }
}

TEST_F(RecoveryTest, HiveTableReopensFromOrcFiles) {
  {
    auto t = baseline::HiveTable::Open(fs_.get(), metadata_.get(), "h", TestSchema());
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->InsertRows({{Value::Int64(1), Value::Int64(10)}}).ok());
    ASSERT_TRUE((*t)->InsertRows({{Value::Int64(2), Value::Int64(20)}}).ok());
  }
  auto reopened = baseline::HiveTable::Open(fs_.get(), metadata_.get(), "h", TestSchema());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->storage()->files().size(), 2u);
  EXPECT_EQ(*(*reopened)->CountRows(), 2u);
}

}  // namespace
}  // namespace dtl
