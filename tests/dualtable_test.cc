#include <gtest/gtest.h>

#include "dualtable/dual_table.h"
#include "dualtable/record_id.h"
#include "fs/filesystem.h"

namespace dtl::dual {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"day", DataType::kDate},
                 {"amount", DataType::kDouble},
                 {"tag", DataType::kString}});
}

Row MakeRow(int64_t i) {
  return Row{Value::Int64(i), Value::Date(i % 36), Value::Double(i * 1.5),
             Value::String("tag" + std::to_string(i % 7))};
}

/// Every row `table` holds at `snapshot`, with its record ID.
Result<std::vector<std::pair<uint64_t, Row>>> RowsAt(DualTable* table,
                                                      const SnapshotPtr& snapshot) {
  DTL_ASSIGN_OR_RETURN(auto it, table->ScanBatchesAt(snapshot, table::ScanSpec{}));
  std::vector<std::pair<uint64_t, Row>> rows;
  DTL_RETURN_NOT_OK(table::ForEachRow(it.get(), [&rows](uint64_t rid, Row* row) {
    rows.emplace_back(rid, *row);
    return Status::OK();
  }));
  return rows;
}

class DualTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<fs::SimFileSystem>();
    auto meta = MetadataTable::Open(fs_.get());
    ASSERT_TRUE(meta.ok());
    metadata_ = std::move(*meta);
    cluster_ = std::make_unique<fs::ClusterModel>();
  }

  Result<std::shared_ptr<DualTable>> OpenTable(const std::string& name,
                                               DualTableOptions options = {}) {
    options.writer_options.stripe_rows = 256;  // many stripes at test scale
    return DualTable::Open(fs_.get(), metadata_.get(), cluster_.get(), name,
                           TestSchema(), options);
  }

  static table::ScanSpec DayBelow(int64_t cutoff) {
    table::ScanSpec spec;
    spec.predicate_columns = {1};
    spec.predicate = [cutoff](const Row& row) {
      return !row[1].is_null() && row[1].AsInt64() < cutoff;
    };
    return spec;
  }

  std::unique_ptr<fs::SimFileSystem> fs_;
  std::unique_ptr<MetadataTable> metadata_;
  std::unique_ptr<fs::ClusterModel> cluster_;
};

TEST(RecordIdTest, PackUnpackRoundTrip) {
  uint64_t id = MakeRecordId(5, 123456789);
  EXPECT_EQ(RecordFileId(id), 5u);
  EXPECT_EQ(RecordRowNumber(id), 123456789u);
}

TEST(RecordIdTest, KeyOrderMatchesNumericOrder) {
  std::string a = RecordIdKey(MakeRecordId(1, 999));
  std::string b = RecordIdKey(MakeRecordId(2, 0));
  EXPECT_LT(a, b);
  EXPECT_EQ(RecordIdFromKey(a), MakeRecordId(1, 999));
}

TEST_F(DualTableTest, MetadataAssignsIncrementalFileIds) {
  auto a = metadata_->NextFileId("t1");
  auto b = metadata_->NextFileId("t1");
  auto c = metadata_->NextFileId("t2");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, 1u);
  EXPECT_EQ(*b, 2u);
  EXPECT_EQ(*c, 1u);  // per-table counters
}

TEST_F(DualTableTest, InsertAndScanRoundTrip) {
  auto t = OpenTable("t");
  ASSERT_TRUE(t.ok());
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());

  auto scanned = RowsAt(t->get(), (*t)->AcquireSnapshot());
  ASSERT_TRUE(scanned.ok());
  int count = 0;
  for (const auto& [rid, row] : *scanned) {
    EXPECT_EQ(row[0].AsInt64(), count);
    EXPECT_NE(rid, 0u);
    ++count;
  }
  EXPECT_EQ(count, 1000);
}

TEST_F(DualTableTest, EditUpdateVisibleThroughUnionRead) {
  DualTableOptions options;
  options.plan_mode = DualTableOptions::PlanMode::kForceEdit;
  auto t = OpenTable("t", options);
  std::vector<Row> rows;
  for (int i = 0; i < 500; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());

  table::Assignment assign;
  assign.column = 3;
  assign.compute = [](const Row&) { return Value::String("updated"); };
  auto result = (*t)->Update(DayBelow(5), {assign});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, table::DmlPlan::kEdit);
  EXPECT_GT(result->rows_matched, 0u);
  EXPECT_FALSE((*t)->attached()->Empty());

  auto scanned = table::CollectRows(t->get(), table::ScanSpec{});
  ASSERT_TRUE(scanned.ok());
  uint64_t updated = 0, total = 0;
  for (const Row& row : *scanned) {
    ++total;
    if (row[3].AsString() == "updated") {
      ++updated;
      EXPECT_LT(row[1].AsInt64(), 5);
    } else {
      EXPECT_GE(row[1].AsInt64(), 5);
    }
  }
  EXPECT_EQ(total, 500u);
  EXPECT_EQ(updated, result->rows_matched);
  // Master files untouched by the EDIT plan.
  EXPECT_EQ((*t)->master()->files().size(), 1u);
}

TEST_F(DualTableTest, EditDeleteHidesRows) {
  DualTableOptions options;
  options.plan_mode = DualTableOptions::PlanMode::kForceEdit;
  auto t = OpenTable("t", options);
  std::vector<Row> rows;
  for (int i = 0; i < 360; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());

  auto result = (*t)->Delete(DayBelow(6));  // 6/36 of the days
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, table::DmlPlan::kEdit);
  EXPECT_EQ(result->rows_matched, 60u);

  auto count = (*t)->CountRows();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 300u);
}

TEST_F(DualTableTest, OverwriteUpdateRewritesMasterAndClearsAttached) {
  DualTableOptions options;
  options.plan_mode = DualTableOptions::PlanMode::kForceEdit;
  auto t = OpenTable("t", options);
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());

  // Seed the attached table with an EDIT first.
  table::Assignment assign;
  assign.column = 3;
  assign.compute = [](const Row&) { return Value::String("edit1"); };
  ASSERT_TRUE((*t)->Update(DayBelow(2), {assign}).ok());
  ASSERT_FALSE((*t)->attached()->Empty());
  const uint64_t old_file_id = (*t)->master()->files()[0].file_id;

  // Now force an OVERWRITE update.
  (*t)->master();
  DualTableOptions overwrite_options;
  overwrite_options.plan_mode = DualTableOptions::PlanMode::kForceOverwrite;
  // Re-open the same table with overwrite mode (state persists in fs).
  auto t2 = OpenTable("t", overwrite_options);
  ASSERT_TRUE(t2.ok());
  table::Assignment assign2;
  assign2.column = 3;
  assign2.compute = [](const Row&) { return Value::String("edit2"); };
  auto result = (*t2)->Update(DayBelow(4), {assign2});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, table::DmlPlan::kOverwrite);

  // Attached cleared, master regenerated with fresh file IDs.
  EXPECT_TRUE((*t2)->attached()->Empty());
  ASSERT_FALSE((*t2)->master()->files().empty());
  EXPECT_GT((*t2)->master()->files()[0].file_id, old_file_id);

  // Both generations of edits survive: edit1 rows (day<2) were folded in by
  // the rewrite, then re-updated to edit2 (day<4 covers them).
  auto scanned = table::CollectRows(t2->get(), table::ScanSpec{});
  ASSERT_TRUE(scanned.ok());
  uint64_t edit2 = 0, total = 0;
  for (const Row& row : *scanned) {
    ++total;
    if (row[3].AsString() == "edit2") ++edit2;
  }
  EXPECT_EQ(total, 300u);
  // Days 0-3 of 36: 4/36 ≈ 33-34 rows at 300 rows.
  EXPECT_EQ(edit2, result->rows_matched);
}

TEST_F(DualTableTest, UpdateOfUpdatedRowSeesLatestValue) {
  DualTableOptions options;
  options.plan_mode = DualTableOptions::PlanMode::kForceEdit;
  auto t = OpenTable("t", options);
  ASSERT_TRUE((*t)->InsertRows({MakeRow(0)}).ok());

  // First update sets amount = 100.
  table::Assignment set100;
  set100.column = 2;
  set100.compute = [](const Row&) { return Value::Double(100); };
  table::ScanSpec match_all;
  ASSERT_TRUE((*t)->Update(match_all, {set100}).ok());

  // Second update doubles the CURRENT amount (must read 100, not the base).
  table::Assignment doubler;
  doubler.column = 2;
  doubler.input_columns = {2};
  doubler.compute = [](const Row& row) { return Value::Double(row[2].AsDouble() * 2); };
  ASSERT_TRUE((*t)->Update(match_all, {doubler}).ok());

  table::ScanSpec all;
  auto rows = table::CollectRows((*t).get(), all);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_DOUBLE_EQ((*rows)[0][2].AsDouble(), 200.0);
}

TEST_F(DualTableTest, DeletedRowsNotUpdatable) {
  DualTableOptions options;
  options.plan_mode = DualTableOptions::PlanMode::kForceEdit;
  auto t = OpenTable("t", options);
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());

  ASSERT_TRUE((*t)->Delete(DayBelow(36)).ok());  // delete everything
  table::Assignment assign;
  assign.column = 3;
  assign.compute = [](const Row&) { return Value::String("zombie"); };
  auto result = (*t)->Update(DayBelow(36), {assign});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_matched, 0u);
}

TEST_F(DualTableTest, CompactFoldsAttachedIntoMaster) {
  DualTableOptions options;
  options.plan_mode = DualTableOptions::PlanMode::kForceEdit;
  auto t = OpenTable("t", options);
  std::vector<Row> rows;
  for (int i = 0; i < 360; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());

  table::Assignment assign;
  assign.column = 3;
  assign.compute = [](const Row&) { return Value::String("compacted?"); };
  ASSERT_TRUE((*t)->Update(DayBelow(3), {assign}).ok());
  ASSERT_TRUE((*t)->Delete(DayBelow(1)).ok());

  auto before = table::CollectRows((*t).get(), table::ScanSpec{});
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE((*t)->Compact().ok());
  EXPECT_TRUE((*t)->attached()->Empty());
  auto after = table::CollectRows((*t).get(), table::ScanSpec{});
  ASSERT_TRUE(after.ok());
  // COMPACT preserves the logical view exactly.
  ASSERT_EQ(before->size(), after->size());
  for (size_t i = 0; i < before->size(); ++i) {
    for (size_t c = 0; c < (*before)[i].size(); ++c) {
      EXPECT_EQ((*before)[i][c].Compare((*after)[i][c]), 0);
    }
  }
}

TEST_F(DualTableTest, CostModelSwitchesPlanWithRatio) {
  auto t = OpenTable("t");  // default cost-model mode
  std::vector<Row> rows;
  for (int i = 0; i < 2000; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());

  // Tiny ratio: EDIT must win. Huge ratio: OVERWRITE must win.
  PlanDecision small = (*t)->PreviewUpdateDecision(0.001);
  PlanDecision big = (*t)->PreviewUpdateDecision(0.99);
  EXPECT_EQ(small.plan, table::DmlPlan::kEdit);
  EXPECT_EQ(big.plan, table::DmlPlan::kOverwrite);

  // The crossover is monotone: decisions flip exactly once.
  double crossover = (*t)->cost_model().UpdateCrossoverRatio((*t)->master()->TotalBytes());
  EXPECT_GT(crossover, 0.0);
  EXPECT_LT(crossover, 1.0);
  EXPECT_EQ((*t)->PreviewUpdateDecision(crossover * 0.5).plan, table::DmlPlan::kEdit);
  EXPECT_EQ((*t)->PreviewUpdateDecision(std::min(0.999, crossover * 1.5)).plan,
            table::DmlPlan::kOverwrite);
}

TEST_F(DualTableTest, DeleteCrossoverLowerThanUpdateCrossover) {
  // Paper Fig. 13/14: deletes cross over earlier because OVERWRITE writes
  // less data as beta grows.
  auto t = OpenTable("t");
  std::vector<Row> rows;
  for (int i = 0; i < 2000; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());
  const uint64_t bytes = (*t)->master()->TotalBytes();
  const double avg_row =
      static_cast<double>(bytes) / static_cast<double>((*t)->master()->TotalRows());
  double update_cross = (*t)->cost_model().UpdateCrossoverRatio(bytes);
  double delete_cross = (*t)->cost_model().DeleteCrossoverRatio(bytes, avg_row);
  EXPECT_LT(delete_cross, update_cross);
}

TEST_F(DualTableTest, HintDrivesPlanSelection) {
  auto t = OpenTable("t");
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());

  table::Assignment assign;
  assign.column = 2;
  assign.compute = [](const Row&) { return Value::Double(0); };
  auto result = (*t)->UpdateWithHint(DayBelow(1), {assign}, 0.001);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, table::DmlPlan::kEdit);

  auto result2 = (*t)->UpdateWithHint(DayBelow(36), {assign}, 0.999);
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->plan, table::DmlPlan::kOverwrite);
}

TEST_F(DualTableTest, AttachedHistoryTracksChanges) {
  DualTableOptions options;
  options.plan_mode = DualTableOptions::PlanMode::kForceEdit;
  options.attached_options.max_versions = 5;
  auto t = OpenTable("t", options);
  ASSERT_TRUE((*t)->InsertRows({MakeRow(0)}).ok());

  table::ScanSpec match_all;
  for (int round = 0; round < 3; ++round) {
    table::Assignment assign;
    assign.column = 2;
    const double v = round * 10.0;
    assign.compute = [v](const Row&) { return Value::Double(v); };
    ASSERT_TRUE((*t)->Update(match_all, {assign}).ok());
  }
  // HBase multi-versioning exposes the change history (paper §V-C).
  auto scanned = RowsAt(t->get(), (*t)->AcquireSnapshot());
  ASSERT_TRUE(scanned.ok());
  ASSERT_FALSE(scanned->empty());
  const uint64_t rid = scanned->front().first;
  std::vector<std::pair<uint64_t, Value>> history;
  ASSERT_TRUE((*t)->attached()->GetUpdateHistory(rid, 2, 10, &history).ok());
  ASSERT_EQ(history.size(), 3u);
  EXPECT_DOUBLE_EQ(history[0].second.AsDouble(), 20.0);  // newest first
  EXPECT_DOUBLE_EQ(history[2].second.AsDouble(), 0.0);
}

TEST_F(DualTableTest, TimeTravelScanReconstructsHistory) {
  DualTableOptions options;
  options.plan_mode = DualTableOptions::PlanMode::kForceEdit;
  options.attached_options.max_versions = 10;
  auto t = OpenTable("t", options);
  ASSERT_TRUE((*t)->InsertRows({MakeRow(0), MakeRow(1)}).ok());
  const uint64_t ts0 = (*t)->attached()->LastTimestamp();

  table::ScanSpec match_all;
  std::vector<uint64_t> checkpoints;
  for (int round = 0; round < 3; ++round) {
    table::Assignment assign;
    assign.column = 2;
    const double v = (round + 1) * 100.0;
    assign.compute = [v](const Row&) { return Value::Double(v); };
    ASSERT_TRUE((*t)->Update(match_all, {assign}).ok());
    checkpoints.push_back((*t)->attached()->LastTimestamp());
  }
  // A delete after the last checkpoint.
  ASSERT_TRUE((*t)->Delete(match_all).ok());

  // As of ts0: the original values, both rows alive.
  {
    auto rows = RowsAt(t->get(), (*t)->AcquireSnapshot(ts0));
    ASSERT_TRUE(rows.ok());
    int n = 0;
    for (const auto& [rid, row] : *rows) {
      EXPECT_DOUBLE_EQ(row[2].AsDouble(), n * 1.5);
      ++n;
    }
    EXPECT_EQ(n, 2);
  }
  // As of each update checkpoint: the value of that round.
  for (int round = 0; round < 3; ++round) {
    auto rows = RowsAt(t->get(), (*t)->AcquireSnapshot(checkpoints[round]));
    ASSERT_TRUE(rows.ok());
    int n = 0;
    for (const auto& [rid, row] : *rows) {
      EXPECT_DOUBLE_EQ(row[2].AsDouble(), (round + 1) * 100.0) << round;
      ++n;
    }
    EXPECT_EQ(n, 2);
  }
  // Latest view: everything deleted.
  EXPECT_EQ(*(*t)->CountRows(), 0u);
  // As of "now": same as the live view.
  auto now = RowsAt(t->get(), (*t)->AcquireSnapshot(UINT64_MAX));
  ASSERT_TRUE(now.ok());
  EXPECT_TRUE(now->empty());
}

TEST_F(DualTableTest, ScanWithPredicateAndProjection) {
  auto t = OpenTable("t");
  std::vector<Row> rows;
  for (int i = 0; i < 720; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());

  table::ScanSpec spec = DayBelow(3);
  spec.projection = {0, 1};
  auto collected = table::CollectRows((*t).get(), spec);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->size(), 60u);  // 3/36 of 720
  for (const Row& row : *collected) {
    EXPECT_LT(row[1].AsInt64(), 3);
    EXPECT_TRUE(row[2].is_null());  // not projected
  }
}

TEST_F(DualTableTest, StatsPruningSkipsStripesWhenAttachedEmpty) {
  DualTableOptions options;
  options.writer_options.stripe_rows = 100;
  auto t = DualTable::Open(fs_.get(), metadata_.get(), cluster_.get(), "t",
                           Schema({{"v", DataType::kInt64}}), options);
  ASSERT_TRUE(t.ok());
  std::vector<Row> rows;
  for (int i = 0; i < 10000; ++i) rows.push_back({Value::Int64(i)});
  ASSERT_TRUE((*t)->InsertRows(rows).ok());

  table::ScanSpec spec;
  spec.predicate_columns = {0};
  spec.predicate = [](const Row& row) { return row[0].AsInt64() < 50; };
  table::ColumnBound bound;
  bound.column = 0;
  bound.upper = Value::Int64(50);
  spec.bounds.push_back(bound);

  // Warm the file reader first with a scan whose bounds prune every stripe:
  // it decodes the footer (which carries per-column stream CRCs) but reads
  // no stripe, so both measurements below count stripe reads only.
  table::ScanSpec warm = spec;
  warm.bounds[0].upper = Value::Int64(-1);
  ASSERT_TRUE(table::CollectRows((*t).get(), warm).ok());

  fs_->meter()->Reset();
  auto collected = table::CollectRows((*t).get(), spec);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->size(), 50u);
  uint64_t pruned_bytes = fs_->meter()->Snapshot().hdfs_bytes_read;

  spec.bounds.clear();
  fs_->meter()->Reset();
  ASSERT_TRUE(table::CollectRows((*t).get(), spec).ok());
  uint64_t full_bytes = fs_->meter()->Snapshot().hdfs_bytes_read;
  EXPECT_LT(pruned_bytes * 10, full_bytes);  // 1 of 100 stripes read
}

TEST_F(DualTableTest, MorselsCoverWholeTable) {
  auto t = OpenTable("t");
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) rows.push_back(MakeRow(batch * 100 + i));
    ASSERT_TRUE((*t)->InsertRows(rows).ok());  // 3 master files
  }
  table::ScanSpec all;
  SnapshotPtr snapshot = (*t)->AcquireSnapshot();
  auto morsels = (*t)->PlanScanMorselsAt(snapshot, all, /*stripes_per_morsel=*/1000);
  ASSERT_TRUE(morsels.ok());
  EXPECT_EQ(morsels->size(), 3u);  // one per file
  uint64_t total = 0;
  for (const ScanMorsel& morsel : *morsels) {
    auto it = (*t)->NewUnionReadBatchForMorselAt(snapshot, morsel, all);
    ASSERT_TRUE(it.ok());
    table::RowBatch batch;
    while ((*it)->Next(&batch)) total += batch.size();
    ASSERT_TRUE((*it)->status().ok());
  }
  EXPECT_EQ(total, 300u);
}

TEST_F(DualTableTest, NeedsCompactionSignal) {
  DualTableOptions options;
  options.plan_mode = DualTableOptions::PlanMode::kForceEdit;
  options.compact_threshold = 0.05;
  auto t = OpenTable("t", options);
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());
  EXPECT_FALSE((*t)->NeedsCompaction());

  table::Assignment assign;
  assign.column = 3;
  assign.compute = [](const Row&) { return Value::String(std::string(64, 'x')); };
  ASSERT_TRUE((*t)->Update(DayBelow(36), {assign}).ok());
  EXPECT_TRUE((*t)->NeedsCompaction());
  ASSERT_TRUE((*t)->Compact().ok());
  EXPECT_FALSE((*t)->NeedsCompaction());
}

TEST_F(DualTableTest, DropRemovesEverything) {
  auto t = OpenTable("t");
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(MakeRow(i));
  ASSERT_TRUE((*t)->InsertRows(rows).ok());
  ASSERT_TRUE((*t)->Drop().ok());
  EXPECT_FALSE(fs_->Exists("/warehouse/t"));
}

TEST_F(DualTableTest, ReopenSeesPersistedData) {
  {
    auto t = OpenTable("t");
    std::vector<Row> rows;
    for (int i = 0; i < 150; ++i) rows.push_back(MakeRow(i));
    ASSERT_TRUE((*t)->InsertRows(rows).ok());
    DualTableOptions edit;
    edit.plan_mode = DualTableOptions::PlanMode::kForceEdit;
  }
  auto reopened = OpenTable("t");
  ASSERT_TRUE(reopened.ok());
  auto count = (*reopened)->CountRows();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 150u);
}

}  // namespace
}  // namespace dtl::dual
