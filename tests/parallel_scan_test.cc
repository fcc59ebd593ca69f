// Differential test suite for the morsel-driven parallel executor: every
// parallel result (rows, counts, aggregates, merged ScanMeter counts) must
// be IDENTICAL to the serial UNION READ scan at parallelism 1, 2, 7 and 16,
// over tables carrying interleaved EDIT updates and deletes. Aggregate
// inputs are multiples of 0.5, so double sums are exact and therefore
// order-independent — "identical" means EXPECT_EQ, not EXPECT_NEAR.
//
// Also covered here: the COMPACT layout + crash sweep (the manifest rename
// must stay the single commit point of the per-file fold), and the
// background-compaction scheduler regression (write-only workloads must not
// accumulate compaction debt).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/background_scheduler.h"
#include "common/thread_pool.h"
#include "dualtable/dual_table.h"
#include "exec/operators.h"
#include "exec/parallel_scan.h"
#include "fs/fault_injection.h"
#include "fs/filesystem.h"
#include "kv/store.h"
#include "sql/session.h"
#include "table/scan_stats.h"

namespace dtl {
namespace {

constexpr int64_t kDays = 36;

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"day", DataType::kDate},
                 {"amount", DataType::kDouble},
                 {"tag", DataType::kString}});
}

// amount is a multiple of 0.5 and every update adds a multiple of 0.5, so
// all aggregate sums stay exactly representable (see file comment).
Row MakeRow(int64_t i) {
  return Row{Value::Int64(i), Value::Date(i % kDays), Value::Double(i * 0.5),
             Value::String("t" + std::to_string(i % 7))};
}

Status InsertRange(dual::DualTable* table, int64_t begin, int64_t end) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(end - begin));
  for (int64_t i = begin; i < end; ++i) rows.push_back(MakeRow(i));
  return table->InsertRows(rows);
}

Status UpdateWhere(dual::DualTable* table, const std::function<bool(int64_t)>& pred,
                   double bump) {
  table::ScanSpec filter;
  filter.predicate_columns = {0};
  filter.predicate = [pred](const Row& row) { return pred(row[0].AsInt64()); };
  table::Assignment a;
  a.column = 2;
  a.input_columns = {2};
  a.compute = [bump](const Row& row) { return Value::Double(row[2].AsDouble() + bump); };
  return table->Update(filter, {a}).status();
}

Status DeleteWhere(dual::DualTable* table, const std::function<bool(int64_t)>& pred) {
  table::ScanSpec filter;
  filter.predicate_columns = {0};
  filter.predicate = [pred](const Row& row) { return pred(row[0].AsInt64()); };
  return table->Delete(filter).status();
}

/// Serial baseline: the production ScanBatches path, metered into `meter`.
Result<std::vector<Row>> SerialRows(dual::DualTable* table, table::ScanSpec spec,
                                    table::ScanMeter* meter) {
  spec.meter = meter;
  DTL_ASSIGN_OR_RETURN(auto it, table->ScanBatches(spec));
  std::vector<Row> rows;
  table::RowBatch batch;
  Row scratch;
  while (it->Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.MaterializeRow(i, &scratch);
      rows.push_back(scratch);
    }
  }
  DTL_RETURN_NOT_OK(it->status());
  return rows;
}

void ExpectRowsEqual(const std::vector<Row>& serial, const std::vector<Row>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(RowToString(serial[i]), RowToString(parallel[i])) << "row " << i;
  }
}

void ExpectMetersEqual(const table::ScanSnapshot& serial,
                       const table::ScanSnapshot& parallel) {
  EXPECT_EQ(serial.batches, parallel.batches);
  EXPECT_EQ(serial.rows, parallel.rows);
  EXPECT_EQ(serial.bytes, parallel.bytes);
  EXPECT_EQ(serial.passthrough_batches, parallel.passthrough_batches);
  EXPECT_EQ(serial.patched_rows, parallel.patched_rows);
  EXPECT_EQ(serial.masked_rows, parallel.masked_rows);
  EXPECT_EQ(serial.predicate_drops, parallel.predicate_drops);
  EXPECT_EQ(serial.materialized_rows, parallel.materialized_rows);
}

const std::vector<size_t> kDegrees = {1, 2, 7, 16};

class ParallelScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<fs::SimFileSystem>();
    auto meta = dual::MetadataTable::Open(fs_.get());
    ASSERT_TRUE(meta.ok());
    metadata_ = std::move(*meta);
    cluster_ = std::make_unique<fs::ClusterModel>();
    pool_ = std::make_unique<ThreadPool>(4);
  }

  dual::DualTableOptions BaseOptions() {
    dual::DualTableOptions options;
    options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
    options.writer_options.stripe_rows = 256;
    options.scan_batch_rows = 100;  // misaligned with stripe_rows on purpose
    return options;
  }

  Result<std::shared_ptr<dual::DualTable>> OpenTable(const std::string& name,
                                                     dual::DualTableOptions options) {
    return dual::DualTable::Open(fs_.get(), metadata_.get(), cluster_.get(), name,
                                 TestSchema(), options);
  }

  /// Three master files + interleaved EDIT updates/deletes touching all of
  /// them (head, tail, modulo stripes in the middle).
  void BuildGridTable(dual::DualTable* table) {
    ASSERT_TRUE(InsertRange(table, 0, 2000).ok());
    ASSERT_TRUE(InsertRange(table, 2000, 3500).ok());
    ASSERT_TRUE(InsertRange(table, 3500, 4200).ok());
    ASSERT_TRUE(UpdateWhere(table, [](int64_t id) { return id % 7 == 3; }, 100.0).ok());
    ASSERT_TRUE(DeleteWhere(table, [](int64_t id) { return id % 13 == 5; }).ok());
    ASSERT_TRUE(UpdateWhere(table, [](int64_t id) { return id >= 3900; }, 0.5).ok());
    ASSERT_TRUE(DeleteWhere(table, [](int64_t id) { return id < 50; }).ok());
    ASSERT_EQ(table->master()->files().size(), 3u);
  }

  std::unique_ptr<fs::SimFileSystem> fs_;
  std::unique_ptr<dual::MetadataTable> metadata_;
  std::unique_ptr<fs::ClusterModel> cluster_;
  std::unique_ptr<ThreadPool> pool_;
};

TEST_F(ParallelScanTest, RowsAndMetersMatchSerialAtEveryDegree) {
  auto t = OpenTable("grid", BaseOptions());
  ASSERT_TRUE(t.ok());
  BuildGridTable(t->get());

  for (int with_predicate = 0; with_predicate < 2; ++with_predicate) {
    table::ScanSpec spec;
    if (with_predicate == 1) {
      spec.predicate_columns = {1};
      spec.predicate = [](const Row& row) {
        return !row[1].is_null() && row[1].AsInt64() < 20;
      };
    }
    table::ScanMeter serial_meter;
    auto serial = SerialRows(t->get(), spec, &serial_meter);
    ASSERT_TRUE(serial.ok());
    ASSERT_FALSE(serial->empty());

    for (size_t degree : kDegrees) {
      for (size_t morsel_stripes : std::vector<size_t>{1, 3}) {
        SCOPED_TRACE("predicate=" + std::to_string(with_predicate) + " parallelism=" +
                     std::to_string(degree) + " morsel_stripes=" +
                     std::to_string(morsel_stripes));
        table::ScanMeter parallel_meter;
        table::ScanSpec pspec = spec;
        pspec.meter = &parallel_meter;
        exec::ParallelScanOptions popts;
        popts.pool = pool_.get();
        popts.parallelism = degree;
        popts.morsel_stripes = morsel_stripes;
        exec::ParallelScanner scanner(t->get(), pspec, popts);
        auto rows = scanner.CollectRows();
        ASSERT_TRUE(rows.ok());
        ExpectRowsEqual(*serial, *rows);
        ExpectMetersEqual(serial_meter.Snapshot(), parallel_meter.Snapshot());
      }
    }
  }
}

TEST_F(ParallelScanTest, AggregatesMatchSerialAtEveryDegree) {
  auto t = OpenTable("agg", BaseOptions());
  ASSERT_TRUE(t.ok());
  BuildGridTable(t->get());

  auto serial = SerialRows(t->get(), table::ScanSpec{}, nullptr);
  ASSERT_TRUE(serial.ok());
  int64_t count = 0, isum = 0, min_day = INT64_MAX, max_day = INT64_MIN;
  double dsum = 0;
  for (const Row& row : *serial) {
    ++count;
    isum += row[0].AsInt64();
    dsum += row[2].AsDouble();
    min_day = std::min(min_day, row[1].AsInt64());
    max_day = std::max(max_day, row[1].AsInt64());
  }

  std::vector<exec::AggSpec> aggs;
  aggs.push_back({exec::AggKind::kCountStar, {}});
  aggs.push_back({exec::AggKind::kSum, [](const Row& r) { return r[0]; }});
  aggs.push_back({exec::AggKind::kSum, [](const Row& r) { return r[2]; }});
  aggs.push_back({exec::AggKind::kMin, [](const Row& r) { return r[1]; }});
  aggs.push_back({exec::AggKind::kMax, [](const Row& r) { return r[1]; }});
  aggs.push_back({exec::AggKind::kAvg, [](const Row& r) { return r[2]; }});

  for (size_t degree : kDegrees) {
    SCOPED_TRACE("parallelism=" + std::to_string(degree));
    exec::ParallelScanOptions popts;
    popts.pool = pool_.get();
    popts.parallelism = degree;
    exec::ParallelScanner scanner(t->get(), table::ScanSpec{}, popts);

    auto n = scanner.Count();
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, static_cast<uint64_t>(count));

    exec::ParallelScanner agg_scanner(t->get(), table::ScanSpec{}, popts);
    auto row = agg_scanner.Aggregate(aggs);
    ASSERT_TRUE(row.ok());
    ASSERT_EQ(row->size(), aggs.size());
    EXPECT_EQ((*row)[0].AsInt64(), count);
    EXPECT_EQ((*row)[1].AsInt64(), isum);
    // Exact by construction (multiples of 0.5), so EQ rather than NEAR.
    EXPECT_EQ((*row)[2].AsDouble(), dsum);
    EXPECT_EQ((*row)[3].AsInt64(), min_day);
    EXPECT_EQ((*row)[4].AsInt64(), max_day);
    EXPECT_EQ((*row)[5].AsDouble(), dsum / static_cast<double>(count));
  }
}

TEST_F(ParallelScanTest, EmptyTableEdgeCases) {
  auto t = OpenTable("empty", BaseOptions());
  ASSERT_TRUE(t.ok());

  exec::ParallelScanOptions popts;
  popts.pool = pool_.get();
  popts.parallelism = 16;
  exec::ParallelScanner scanner(t->get(), table::ScanSpec{}, popts);
  auto rows = scanner.CollectRows();
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());

  exec::ParallelScanner counter(t->get(), table::ScanSpec{}, popts);
  auto n = counter.Count();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);

  // SQL empty-input semantics: COUNT 0, SUM/MIN/AVG NULL — one row always.
  std::vector<exec::AggSpec> aggs;
  aggs.push_back({exec::AggKind::kCountStar, {}});
  aggs.push_back({exec::AggKind::kSum, [](const Row& r) { return r[2]; }});
  aggs.push_back({exec::AggKind::kMin, [](const Row& r) { return r[0]; }});
  aggs.push_back({exec::AggKind::kAvg, [](const Row& r) { return r[2]; }});
  exec::ParallelScanner agg_scanner(t->get(), table::ScanSpec{}, popts);
  auto row = agg_scanner.Aggregate(aggs);
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row->size(), 4u);
  EXPECT_EQ((*row)[0].AsInt64(), 0);
  EXPECT_TRUE((*row)[1].is_null());
  EXPECT_TRUE((*row)[2].is_null());
  EXPECT_TRUE((*row)[3].is_null());
}

TEST_F(ParallelScanTest, SingleStripeAndAllDeletedEdgeCases) {
  // Single stripe, fewer rows than one batch: parallelism must clamp to the
  // single morsel and still match serial.
  auto t = OpenTable("tiny", BaseOptions());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(InsertRange(t->get(), 0, 50).ok());
  ASSERT_TRUE(UpdateWhere(t->get(), [](int64_t id) { return id % 2 == 0; }, 1.0).ok());

  table::ScanMeter serial_meter;
  auto serial = SerialRows(t->get(), table::ScanSpec{}, &serial_meter);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->size(), 50u);
  for (size_t degree : kDegrees) {
    SCOPED_TRACE("parallelism=" + std::to_string(degree));
    table::ScanMeter parallel_meter;
    table::ScanSpec spec;
    spec.meter = &parallel_meter;
    exec::ParallelScanOptions popts;
    popts.pool = pool_.get();
    popts.parallelism = degree;
    exec::ParallelScanner scanner(t->get(), spec, popts);
    auto rows = scanner.CollectRows();
    ASSERT_TRUE(rows.ok());
    ExpectRowsEqual(*serial, *rows);
    ExpectMetersEqual(serial_meter.Snapshot(), parallel_meter.Snapshot());
    serial_meter.Reset();
    auto again = SerialRows(t->get(), table::ScanSpec{}, &serial_meter);
    ASSERT_TRUE(again.ok());
  }

  // Every row deleted: master stripes still decode, zero rows survive.
  ASSERT_TRUE(DeleteWhere(t->get(), [](int64_t) { return true; }).ok());
  exec::ParallelScanOptions popts;
  popts.pool = pool_.get();
  popts.parallelism = 7;
  exec::ParallelScanner scanner(t->get(), table::ScanSpec{}, popts);
  auto rows = scanner.CollectRows();
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  exec::ParallelScanner counter(t->get(), table::ScanSpec{}, popts);
  auto n = counter.Count();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST_F(ParallelScanTest, CompactReplacesEachDeltaHoldingFileOnce) {
  auto t = OpenTable("cfold", BaseOptions());
  ASSERT_TRUE(t.ok());
  BuildGridTable(t->get());
  const std::vector<dual::MasterFileInfo> before = t->get()->master()->files();
  auto expected = SerialRows(t->get(), table::ScanSpec{}, nullptr);
  ASSERT_TRUE(expected.ok());

  auto stats = t->get()->Compact();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->files_selected, 3u);

  // Every file held a delta, so each got exactly one replacement, drawn in
  // file order: the rows come back in the same UNION READ order.
  const std::vector<dual::MasterFileInfo> after = t->get()->master()->files();
  ASSERT_EQ(after.size(), 3u);
  EXPECT_GT(after[0].file_id, before[2].file_id);
  EXPECT_LT(after[0].file_id, after[1].file_id);
  EXPECT_LT(after[1].file_id, after[2].file_id);
  auto rows = SerialRows(t->get(), table::ScanSpec{}, nullptr);
  ASSERT_TRUE(rows.ok());
  ExpectRowsEqual(*expected, *rows);

  // COMPACT folded the attached table into the new generation.
  EXPECT_EQ(t->get()->attached()->store()->ApproximateCellCount(), 0u);
  EXPECT_FALSE(t->get()->NeedsCompaction());
}

TEST_F(ParallelScanTest, CompactKeepsDeltaFreeFilesAndCopiesCleanStripes) {
  auto t = OpenTable("ckeep", BaseOptions());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(InsertRange(t->get(), 0, 2000).ok());
  ASSERT_TRUE(InsertRange(t->get(), 2000, 3500).ok());
  ASSERT_TRUE(InsertRange(t->get(), 3500, 4200).ok());
  // Deltas in the first file's first stripe only.
  ASSERT_TRUE(UpdateWhere(t->get(), [](int64_t id) { return id < 100; }, 1.0).ok());
  ASSERT_TRUE(DeleteWhere(t->get(), [](int64_t id) { return id == 7; }).ok());
  const std::vector<dual::MasterFileInfo> before = t->get()->master()->files();
  ASSERT_EQ(before.size(), 3u);

  auto stats = t->get()->Compact();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->files_selected, 1u);
  EXPECT_EQ(stats->stripes_rewritten, 1u);
  EXPECT_GT(stats->stripes_copied, 0u);

  // The delta-free files keep their IDs; the dirty one has one replacement.
  const std::vector<dual::MasterFileInfo> after = t->get()->master()->files();
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[0].file_id, before[1].file_id);
  EXPECT_EQ(after[1].file_id, before[2].file_id);
  EXPECT_GT(after[2].file_id, before[2].file_id);
  EXPECT_EQ(after[2].num_rows, 1999u);
  EXPECT_TRUE(t->get()->attached()->Empty());

  auto rows = SerialRows(t->get(), table::ScanSpec{}, nullptr);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4199u);
  for (const Row& row : *rows) {
    const int64_t id = row[0].AsInt64();
    EXPECT_NE(id, 7);
    EXPECT_EQ(row[2].AsDouble(), id * 0.5 + (id < 100 ? 1.0 : 0.0)) << "id " << id;
  }
}

// --- COMPACT crash sweep ----------------------------------------------------------

std::vector<uint64_t> SweepPoints(uint64_t total) {
  constexpr uint64_t kDefaultPoints = 25;
  std::vector<uint64_t> points;
  const char* full = std::getenv("DTL_FAULT_SWEEP_FULL");
  if ((full != nullptr && std::string(full) == "1") || total <= kDefaultPoints) {
    for (uint64_t k = 1; k <= total; ++k) points.push_back(k);
    return points;
  }
  uint64_t last = 0;
  for (uint64_t i = 1; i <= kDefaultPoints; ++i) {
    const uint64_t k = std::max<uint64_t>(1, total * i / kDefaultPoints);
    if (k != last) points.push_back(k);
    last = k;
  }
  return points;
}

struct CompactSweepEnv {
  std::unique_ptr<dual::MetadataTable> metadata;
  std::unique_ptr<fs::ClusterModel> cluster;
  std::shared_ptr<dual::DualTable> table;
};

std::unique_ptr<CompactSweepEnv> CompactSweepSetup(fs::SimFileSystem* fs, bool populate) {
  auto env = std::make_unique<CompactSweepEnv>();
  auto metadata = dual::MetadataTable::Open(fs);
  if (!metadata.ok()) return nullptr;
  env->metadata = std::move(*metadata);
  env->cluster = std::make_unique<fs::ClusterModel>();
  dual::DualTableOptions options;
  options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  options.writer_options.stripe_rows = 32;
  auto table = dual::DualTable::Open(fs, env->metadata.get(), env->cluster.get(),
                                     "sweep", TestSchema(), options);
  if (!table.ok()) return nullptr;
  env->table = std::move(*table);
  if (!populate) return env;
  if (!InsertRange(env->table.get(), 0, 120).ok()) return nullptr;
  if (!InsertRange(env->table.get(), 120, 220).ok()) return nullptr;
  if (!InsertRange(env->table.get(), 220, 300).ok()) return nullptr;
  if (!UpdateWhere(env->table.get(), [](int64_t id) { return id % 3 == 0; }, 10.0).ok()) {
    return nullptr;
  }
  if (!DeleteWhere(env->table.get(), [](int64_t id) { return id >= 260; }).ok()) {
    return nullptr;
  }
  return env;
}

std::vector<std::string> LogicalRowStrings(dual::DualTable* table) {
  auto rows = SerialRows(table, table::ScanSpec{}, nullptr);
  if (!rows.ok()) return {std::string("scan error: ") + rows.status().ToString()};
  std::vector<std::string> out;
  out.reserve(rows->size());
  for (const Row& row : *rows) out.push_back(RowToString(row));
  std::sort(out.begin(), out.end());
  return out;
}

// COMPACT is logically a no-op: at EVERY crash point inside the per-file
// fold, the reopened table must show exactly the pre-compact rows. The fold
// only stages files; the manifest rename is the one operation that changes
// what a reader sees.
TEST(CompactCrashSweepTest, ManifestRenameIsTheSingleCommitPoint) {
  uint64_t total_ops = 0;
  std::vector<std::string> expected;
  {
    fs::SimFileSystem fs;
    auto env = CompactSweepSetup(&fs, /*populate=*/true);
    ASSERT_NE(env, nullptr);
    ASSERT_GE(env->table->master()->files().size(), 2u);  // several replacements
    expected = LogicalRowStrings(env->table.get());
    ASSERT_FALSE(expected.empty());
    const uint64_t before = fs.MutatingOpCount();
    ASSERT_TRUE(env->table->Compact().ok());
    total_ops = fs.MutatingOpCount() - before;
    EXPECT_EQ(LogicalRowStrings(env->table.get()), expected);
  }
  ASSERT_GT(total_ops, 0u);

  for (const uint64_t k : SweepPoints(total_ops)) {
    SCOPED_TRACE("crash at mutating op " + std::to_string(k) + "/" +
                 std::to_string(total_ops));
    fs::SimFileSystem fs;
    {
      auto env = CompactSweepSetup(&fs, /*populate=*/true);
      ASSERT_NE(env, nullptr);
      fs::FaultPolicy policy;
      policy.mode = fs::FaultMode::kCrash;
      policy.trigger_after_ops = k;
      fs.SetFaultPolicy(policy);
      DTL_IGNORE_STATUS(env->table->Compact().status(),
                        "the sweep checks recovered state, not this status");
      // Process death: destructors run while the fs is still down.
    }
    fs.ClearFaultPolicy();
    auto reopened = CompactSweepSetup(&fs, /*populate=*/false);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(LogicalRowStrings(reopened->table.get()), expected);
  }
}

// --- background compaction scheduler ----------------------------------------------

// Regression: NeedsCompaction() used to be surfaced only via scans, so a
// write-only workload accumulated compaction debt forever. The background
// scheduler polls it now.
TEST(BackgroundCompactionTest, WriteOnlyWorkloadIsCompactedByScheduler) {
  fs::SimFileSystem fs;
  auto metadata = dual::MetadataTable::Open(&fs);
  ASSERT_TRUE(metadata.ok());
  fs::ClusterModel cluster;
  // Huge poll interval: rounds happen only when Quiesce/Wake asks, which
  // makes the pre/post assertions deterministic.
  auto scheduler = std::make_shared<BackgroundScheduler>(std::chrono::milliseconds(3600000));

  dual::DualTableOptions options;
  options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  options.writer_options.stripe_rows = 64;
  options.compact_threshold = 0.01;
  options.scheduler = scheduler;
  options.background_compaction = true;
  auto table = dual::DualTable::Open(&fs, metadata->get(), &cluster, "bg", TestSchema(),
                                     options);
  ASSERT_TRUE(table.ok());

  // Write-only: inserts + EDIT updates, never a scan.
  ASSERT_TRUE(InsertRange(table->get(), 0, 800).ok());
  ASSERT_TRUE(UpdateWhere(table->get(), [](int64_t id) { return id % 2 == 0; }, 1.0).ok());
  ASSERT_TRUE((*table)->NeedsCompaction());

  scheduler->Quiesce();  // one full round: the poll job runs Compact()

  EXPECT_FALSE((*table)->NeedsCompaction());
  EXPECT_EQ((*table)->attached()->store()->ApproximateCellCount(), 0u);
  auto rows = SerialRows(table->get(), table::ScanSpec{}, nullptr);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 800u);

  table->reset();  // unregisters its poll job (blocking out an in-flight one)
  scheduler->Shutdown();
}

TEST(BackgroundCompactionTest, WithoutSchedulerDebtAccumulates) {
  fs::SimFileSystem fs;
  auto metadata = dual::MetadataTable::Open(&fs);
  ASSERT_TRUE(metadata.ok());
  fs::ClusterModel cluster;
  dual::DualTableOptions options;
  options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  options.writer_options.stripe_rows = 64;
  options.compact_threshold = 0.01;
  auto table = dual::DualTable::Open(&fs, metadata->get(), &cluster, "nobg", TestSchema(),
                                     options);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(InsertRange(table->get(), 0, 800).ok());
  ASSERT_TRUE(UpdateWhere(table->get(), [](int64_t id) { return id % 2 == 0; }, 1.0).ok());
  // No scan, no scheduler: the debt just sits there.
  EXPECT_TRUE((*table)->NeedsCompaction());
}

TEST(BackgroundCompactionTest, KvStoreDefersSizeTieredMergesToScheduler) {
  fs::SimFileSystem fs;
  auto scheduler = std::make_shared<BackgroundScheduler>(std::chrono::milliseconds(3600000));
  kv::KvStoreOptions options;
  options.dir = "/hbase/bg";
  options.memtable_flush_bytes = 512;  // flush on nearly every write burst
  options.l0_compaction_trigger = 2;
  options.scheduler = scheduler;
  auto store = kv::KvStore::Open(&fs, options);
  ASSERT_TRUE(store.ok());

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        (*store)->Put("r" + std::to_string(i % 37), 0, "v" + std::to_string(i)).ok());
  }
  // WriteCell never merged inline — it only woke the scheduler. One full
  // round later the L0 run count is back under the trigger.
  scheduler->Quiesce();
  EXPECT_LE((*store)->NumSstables(), static_cast<size_t>(options.l0_compaction_trigger));
  for (int i = 0; i < 200; ++i) {
    auto got = (*store)->Get("r" + std::to_string(i % 37), 0);
    ASSERT_TRUE(got.ok());
  }
  store->reset();
  scheduler->Shutdown();
}

// --- SQL layer --------------------------------------------------------------------

Result<std::vector<std::string>> RunScriptAndQuery(sql::Session* session,
                                                   const std::string& query) {
  std::vector<std::string> script;
  script.push_back("CREATE TABLE t (id BIGINT, day BIGINT, price DOUBLE)");
  for (int chunk = 0; chunk < 3; ++chunk) {
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = chunk * 200; i < (chunk + 1) * 200; ++i) {
      if (i % 200 != 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 36) + ", " +
                std::to_string(i * 0.5) + ")";
    }
    script.push_back(insert);
  }
  script.push_back("UPDATE t SET price = price + 100 WHERE id < 120");
  script.push_back("DELETE FROM t WHERE id >= 560");
  for (const std::string& stmt : script) {
    DTL_RETURN_NOT_OK(session->Execute(stmt).status());
  }
  DTL_ASSIGN_OR_RETURN(sql::QueryResult result, session->Execute(query));
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const Row& row : result.rows) rows.push_back(RowToString(row));
  return rows;
}

TEST(ParallelSqlTest, GlobalAggregatesMatchSerialSession) {
  sql::SessionOptions parallel_options;
  parallel_options.pool_threads = 4;
  parallel_options.parallelism = 4;
  parallel_options.morsel_stripes = 2;
  parallel_options.dual_defaults.writer_options.stripe_rows = 64;
  parallel_options.dual_defaults.scan_batch_rows = 48;
  parallel_options.dual_defaults.plan_mode =
      dual::DualTableOptions::PlanMode::kForceEdit;
  sql::SessionOptions serial_options = parallel_options;
  serial_options.parallelism = 1;

  const std::vector<std::string> queries = {
      // Parallel fast path: single DualTable, global aggregates only.
      "SELECT COUNT(*), SUM(price), MIN(price), MAX(price), AVG(price) FROM t",
      "SELECT COUNT(*), SUM(id) FROM t WHERE day < 12",
      "SELECT COUNT(*) FROM t WHERE id >= 900",  // empty input
      // Serial fallbacks (order-sensitive / grouped plans must not change).
      "SELECT day, COUNT(*) FROM t GROUP BY day",
      "SELECT id, price FROM t WHERE id < 5 ORDER BY id",
  };
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    auto parallel_session = sql::Session::Create(parallel_options);
    ASSERT_TRUE(parallel_session.ok());
    auto serial_session = sql::Session::Create(serial_options);
    ASSERT_TRUE(serial_session.ok());
    auto parallel_rows = RunScriptAndQuery(parallel_session->get(), query);
    ASSERT_TRUE(parallel_rows.ok());
    auto serial_rows = RunScriptAndQuery(serial_session->get(), query);
    ASSERT_TRUE(serial_rows.ok());
    EXPECT_EQ(*parallel_rows, *serial_rows);
  }
}

TEST(ParallelSqlTest, BackgroundCompactionSessionKnob) {
  sql::SessionOptions options;
  options.pool_threads = 2;
  options.background_compaction = true;
  options.dual_defaults.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  options.dual_defaults.writer_options.stripe_rows = 64;
  options.dual_defaults.compact_threshold = 0.01;
  auto session = sql::Session::Create(options);
  ASSERT_TRUE(session.ok());
  ASSERT_NE((*session)->scheduler(), nullptr);

  ASSERT_TRUE((*session)->Execute("CREATE TABLE t (id BIGINT, v DOUBLE)").ok());
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 400; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i * 0.5) + ")";
  }
  ASSERT_TRUE((*session)->Execute(insert).ok());
  ASSERT_TRUE((*session)->Execute("UPDATE t SET v = v + 1 WHERE id < 200").ok());

  (*session)->scheduler()->Quiesce();
  auto count = (*session)->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->rows.size(), 1u);
  EXPECT_EQ(count->rows[0][0].AsInt64(), 400);
  // Session teardown: scheduler shutdown before pool/tables — must not hang
  // or race (the destructor ordering contract).
}

}  // namespace
}  // namespace dtl
