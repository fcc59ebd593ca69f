// Deterministic background-maintenance tests: a ManualSchedulerClock makes
// scheduler rounds fire only on demand (Quiesce/Wake), so the assertions
// below never sleep and never race the daemon — each Quiesce() is exactly
// one observable maintenance round.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/background_scheduler.h"
#include "dualtable/dual_table.h"
#include "fs/filesystem.h"

namespace dtl::dual {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64}, {"amount", DataType::kDouble}});
}

std::vector<Row> IdRows(int64_t lo, int64_t hi) {
  std::vector<Row> rows;
  rows.reserve(hi - lo);
  for (int64_t i = lo; i < hi; ++i) {
    rows.push_back(Row{Value::Int64(i), Value::Double(i * 0.5)});
  }
  return rows;
}

table::ScanSpec IdRange(int64_t lo, int64_t hi) {
  table::ScanSpec spec;
  spec.predicate_columns = {0};
  spec.predicate = [lo, hi](const Row& row) {
    return !row[0].is_null() && row[0].AsInt64() >= lo && row[0].AsInt64() < hi;
  };
  return spec;
}

std::shared_ptr<BackgroundScheduler> ManualScheduler() {
  return std::make_shared<BackgroundScheduler>(std::chrono::milliseconds(1),
                                               std::make_unique<ManualSchedulerClock>());
}

TEST(ManualSchedulerClockTest, RoundsFireOnlyOnDemand) {
  auto scheduler = ManualScheduler();
  std::atomic<int> polls{0};
  const uint64_t job = scheduler->Register("count", [&polls] { ++polls; });
  // Register() wakes the daemon for one prompt poll; Quiesce() guarantees a
  // fresh round has completed. Between the two the job ran once or twice.
  scheduler->Quiesce();
  const int after_first = polls.load();
  EXPECT_GE(after_first, 1);
  EXPECT_LE(after_first, 2);
  // With a manual clock there is no timer: absent another Quiesce/Wake the
  // count is frozen, and each further Quiesce adds exactly one round.
  EXPECT_EQ(polls.load(), after_first);
  scheduler->Quiesce();
  EXPECT_EQ(polls.load(), after_first + 1);
  scheduler->Quiesce();
  EXPECT_EQ(polls.load(), after_first + 2);
  scheduler->Unregister(job);
  scheduler->Shutdown();
}

class BackgroundMaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<fs::SimFileSystem>();
    auto meta = MetadataTable::Open(fs_.get());
    ASSERT_TRUE(meta.ok());
    metadata_ = std::move(*meta);
    cluster_ = std::make_unique<fs::ClusterModel>();
    scheduler_ = ManualScheduler();
  }

  void TearDown() override { scheduler_->Shutdown(); }

  Result<std::shared_ptr<DualTable>> OpenTable(DualTableOptions options) {
    options.writer_options.stripe_rows = 32;
    options.plan_mode = DualTableOptions::PlanMode::kForceEdit;
    options.scheduler = scheduler_;
    options.background_compaction = true;
    return DualTable::Open(fs_.get(), metadata_.get(), cluster_.get(), "bg",
                           TestSchema(), options);
  }

  static Status Bump(DualTable* table, int64_t lo, int64_t hi) {
    table::Assignment assign;
    assign.column = 1;
    assign.input_columns = {1};
    assign.compute = [](const Row& row) { return Value::Double(row[1].AsDouble() + 1.0); };
    return table->Update(IdRange(lo, hi), {assign}).status();
  }

  std::unique_ptr<fs::SimFileSystem> fs_;
  std::unique_ptr<MetadataTable> metadata_;
  std::unique_ptr<fs::ClusterModel> cluster_;
  std::shared_ptr<BackgroundScheduler> scheduler_;
};

TEST_F(BackgroundMaintenanceTest, FoldsDenseFileKeepsSparseFile) {
  DualTableOptions options;
  options.incremental_density_override = 0.5;
  // Keep the byte-debt fallback out of the way: this test watches only the
  // density-driven selection.
  options.compact_threshold = 10.0;
  auto table = OpenTable(options);
  ASSERT_TRUE(table.ok());
  // Two master files (one per INSERT): ids [0,200) and [200,400).
  ASSERT_TRUE((*table)->InsertRows(IdRows(0, 200)).ok());
  ASSERT_TRUE((*table)->InsertRows(IdRows(200, 400)).ok());
  ASSERT_TRUE(Bump(table->get(), 0, 180).ok());    // dense: 90% of file 1
  ASSERT_TRUE(Bump(table->get(), 200, 210).ok());  // sparse: 5% of file 2

  auto before = (*table)->PreviewIncrementalCompaction();
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->files.size(), 2u);
  EXPECT_EQ(before->selected_files(), 1u);
  EXPECT_EQ(before->total_delta_rows(), 190u);
  const uint64_t dense_id = before->files[0].file_id;
  const uint64_t sparse_id = before->files[1].file_id;
  ASSERT_TRUE(before->files[0].selected);
  ASSERT_FALSE(before->files[1].selected);

  // One maintenance round folds the dense file and leaves the sparse one —
  // and its attached deltas — untouched.
  scheduler_->Quiesce();
  auto after = (*table)->PreviewIncrementalCompaction();
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->files.size(), 2u);
  EXPECT_EQ(after->total_delta_rows(), 10u);
  EXPECT_EQ(after->selected_files(), 0u);
  for (const FileCompactionPlan& f : after->files) {
    EXPECT_NE(f.file_id, dense_id) << "dense file should have been replaced";
    if (f.file_id == sparse_id) {
      EXPECT_EQ(f.delta_rows, 10u);
    } else {
      EXPECT_EQ(f.delta_rows, 0u);  // the dense file's replacement is clean
    }
  }

  // Below threshold the table idles: further rounds change neither the file
  // set nor the remaining deltas.
  scheduler_->Quiesce();
  scheduler_->Quiesce();
  auto idle = (*table)->PreviewIncrementalCompaction();
  ASSERT_TRUE(idle.ok());
  ASSERT_EQ(idle->files.size(), after->files.size());
  for (size_t i = 0; i < idle->files.size(); ++i) {
    EXPECT_EQ(idle->files[i].file_id, after->files[i].file_id);
    EXPECT_EQ(idle->files[i].delta_rows, after->files[i].delta_rows);
  }

  // The folded update survived the rewrite; the sparse update still reads
  // through UNION READ.
  auto rows = table::CollectRows(table->get(), table::ScanSpec{});
  ASSERT_TRUE(rows.ok());
  uint64_t total = 0, bumped = 0;
  for (const Row& row : *rows) {
    ++total;
    if (row[1].AsDouble() == row[0].AsInt64() * 0.5 + 1.0) ++bumped;
  }
  EXPECT_EQ(total, 400u);
  EXPECT_EQ(bumped, 190u);
}

TEST_F(BackgroundMaintenanceTest, ByteDebtFallbackRunsFullCompact) {
  DualTableOptions options;
  // No file ever reaches the density bar, but the byte debt crosses the
  // (tiny) compact threshold: maintenance falls back to the full rewrite.
  options.incremental_density_override = 0.99;
  options.compact_threshold = 0.0001;
  auto table = OpenTable(options);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->InsertRows(IdRows(0, 200)).ok());
  ASSERT_TRUE((*table)->InsertRows(IdRows(200, 400)).ok());
  ASSERT_TRUE(Bump(table->get(), 0, 20).ok());
  ASSERT_TRUE(Bump(table->get(), 200, 220).ok());
  ASSERT_TRUE((*table)->NeedsCompaction());

  const std::vector<MasterFileInfo> before = (*table)->master()->files();
  ASSERT_EQ(before.size(), 2u);
  scheduler_->Quiesce();
  EXPECT_FALSE((*table)->NeedsCompaction());
  auto plan = (*table)->PreviewIncrementalCompaction();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->total_delta_rows(), 0u);
  // Full COMPACT gives each file holding a delta one clean replacement.
  ASSERT_EQ(plan->files.size(), 2u);
  for (const FileCompactionPlan& f : plan->files) {
    EXPECT_NE(f.file_id, before[0].file_id);
    EXPECT_NE(f.file_id, before[1].file_id);
  }

  auto rows = table::CollectRows(table->get(), table::ScanSpec{});
  ASSERT_TRUE(rows.ok());
  uint64_t total = 0, bumped = 0;
  for (const Row& row : *rows) {
    ++total;
    if (row[1].AsDouble() == row[0].AsInt64() * 0.5 + 1.0) ++bumped;
  }
  EXPECT_EQ(total, 400u);
  EXPECT_EQ(bumped, 40u);
}

TEST_F(BackgroundMaintenanceTest, IncrementalFoldConvergesByteDebtToZero) {
  DualTableOptions options;
  options.incremental_density_override = 0.05;
  options.compact_threshold = 0.0001;
  auto table = OpenTable(options);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->InsertRows(IdRows(0, 200)).ok());
  ASSERT_TRUE(Bump(table->get(), 0, 100).ok());
  ASSERT_TRUE((*table)->NeedsCompaction());

  // The fold covers every live delta, so a single round clears the attached
  // store outright — the debt metric must land at zero, not hover on
  // tombstones the fold itself wrote.
  scheduler_->Quiesce();
  EXPECT_FALSE((*table)->NeedsCompaction());
  EXPECT_TRUE((*table)->attached()->Empty());
}

}  // namespace
}  // namespace dtl::dual
