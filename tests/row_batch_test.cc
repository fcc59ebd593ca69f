// Tests for the vectorized read path: RowBatch/ColumnVector mechanics,
// the row<->batch adapters, and the batch scan pipeline edge cases (empty
// table, stripe-aligned batch boundaries, projection-only scans, fully
// deleted batches, and planted modifications through the batch UNION READ).
#include <gtest/gtest.h>

#include <deque>

#include "dualtable/dual_table.h"
#include "dualtable/record_id.h"
#include "fs/filesystem.h"
#include "table/row_batch.h"
#include "table/scan_stats.h"
#include "table/storage_table.h"

namespace dtl::table {
namespace {

// --- ColumnVector / RowBatch mechanics ---------------------------------------------

/// Typed cells of `type` holding `values` (each NULL or of the type's kind).
ColumnData Cells(DataType type, const std::vector<Value>& values) {
  ColumnData cells;
  cells.Reset(type);
  for (const Value& v : values) EXPECT_TRUE(cells.Append(v)) << v.ToString();
  return cells;
}

ColumnData Ints(int64_t n, int64_t scale = 1) {
  std::vector<Value> values;
  for (int64_t i = 0; i < n; ++i) values.push_back(Value::Int64(i * scale));
  return Cells(DataType::kInt64, values);
}

/// A patch as UNION READ decodes it from the attached store.
Value::Encoded Patch(const Value& v) {
  std::string bytes;
  v.EncodeTo(&bytes);
  Slice in(bytes);
  Value::Encoded out;
  EXPECT_TRUE(Value::DecodeEncoded(&in, &out).ok());
  // Strings point into `bytes`; keep them alive in a static copy that never
  // relocates.
  static std::deque<std::string> keep;
  if (out.kind == DataType::kString) {
    keep.push_back(out.bytes.ToString());
    out.bytes = Slice(keep.back());
  }
  return out;
}

TEST(ColumnVectorTest, AbsentReadsAsNull) {
  ColumnVector col;
  EXPECT_TRUE(col.absent());
  EXPECT_TRUE(col.at(0).is_null());
  EXPECT_EQ(col.data(), nullptr);
  EXPECT_EQ(col.type(), DataType::kNull);
}

TEST(ColumnVectorTest, ViewIsZeroCopyWindow) {
  const ColumnData storage = Ints(6, 10);
  ColumnVector col;
  col.SetView(&storage, 2, 3);
  EXPECT_TRUE(col.is_view());
  EXPECT_EQ(col.data(), &storage);
  EXPECT_EQ(col.offset(), 2u);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.type(), DataType::kInt64);
  EXPECT_EQ(col.at(0).AsInt64(), 20);
  EXPECT_EQ(col.at(2).AsInt64(), 40);
}

TEST(ColumnVectorTest, OwnedHoldsItsCellsAcrossMoves) {
  ColumnVector col;
  col.SetOwned(Cells(DataType::kString, {Value::String("a"), Value::Null()}));
  EXPECT_FALSE(col.is_view());
  EXPECT_FALSE(col.absent());
  std::vector<ColumnVector> moved;
  moved.push_back(std::move(col));
  moved.resize(8);  // reallocates: the owned cells must not move under data()
  EXPECT_EQ(moved[0].at(0).AsString(), "a");
  EXPECT_TRUE(moved[0].at(1).is_null());
  const ColumnVector copy = moved[0];  // a deep copy, not a view of moved[0]
  moved[0].MakeMutable(DataType::kString, 2)->Set(0, Patch(Value::String("b")));
  EXPECT_EQ(copy.at(0).AsString(), "a");
  EXPECT_EQ(moved[0].at(0).AsString(), "b");
}

TEST(ColumnVectorTest, MakeMutableCopiesViewOnceForEveryType) {
  const std::vector<std::pair<DataType, std::vector<Value>>> cases = {
      {DataType::kInt64, {Value::Int64(1), Value::Null(), Value::Int64(3)}},
      {DataType::kDate, {Value::Date(100), Value::Date(101), Value::Null()}},
      {DataType::kDouble, {Value::Null(), Value::Double(-0.0), Value::Double(2.5)}},
      {DataType::kBool, {Value::Bool(true), Value::Null(), Value::Bool(false)}},
      {DataType::kString, {Value::String("x"), Value::String(""), Value::Null()}},
  };
  const std::vector<Value> patches = {Value::Int64(99), Value::Date(7),
                                      Value::Double(9.5), Value::Bool(false),
                                      Value::String("patched")};
  for (size_t t = 0; t < cases.size(); ++t) {
    const auto& [type, values] = cases[t];
    SCOPED_TRACE(DataTypeName(type));
    // A window [1, 3) of a four-cell column: the copy covers only it.
    std::vector<Value> padded = values;
    padded.insert(padded.begin(), values[0]);
    const ColumnData storage = Cells(type, padded);
    ColumnVector col;
    col.SetView(&storage, 1, 3);
    ColumnData* cells = col.MakeMutable(type, 3);
    ASSERT_NE(cells, &storage);  // copy-on-write
    EXPECT_EQ(col.MakeMutable(type, 3), cells);  // already owned: no second copy
    EXPECT_EQ(cells->size, 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(col.at(i).Compare(values[i]), 0) << i;
      EXPECT_EQ(cells->IsNull(i), values[i].is_null()) << i;
    }
    // Patch a NULL cell and NULL out a set one; the view's storage is untouched.
    const size_t null_at = values[0].is_null() ? 0 : values[1].is_null() ? 1 : 2;
    const size_t set_at = null_at == 0 ? 1 : 0;
    ASSERT_TRUE(cells->Set(null_at, Patch(patches[t])));
    ASSERT_TRUE(cells->Set(set_at, Patch(Value::Null())));
    EXPECT_EQ(col.at(null_at).Compare(patches[t]), 0);
    EXPECT_TRUE(col.at(set_at).is_null());
    for (size_t i = 0; i < padded.size(); ++i) {
      EXPECT_EQ(storage.ValueAt(i).Compare(padded[i]), 0) << i;
    }
    // A patch of another kind changes nothing.
    const Value other = type == DataType::kString ? Value::Int64(1) : Value::String("s");
    EXPECT_FALSE(cells->Set(2, Patch(other)));
  }
}

TEST(ColumnVectorTest, MakeMutableMaterializesAbsentAsTypedNulls) {
  ColumnVector col;
  ColumnData* cells = col.MakeMutable(DataType::kDouble, 3);
  EXPECT_EQ(cells->type, DataType::kDouble);
  EXPECT_TRUE(col.at(0).is_null());
  ASSERT_TRUE(cells->Set(2, Patch(Value::Double(7.5))));
  EXPECT_TRUE(col.at(0).is_null());
  EXPECT_TRUE(col.at(1).is_null());
  EXPECT_EQ(col.at(2).AsDouble(), 7.5);
}

TEST(ColumnVectorTest, StringPatchAppendsToTheArenaAndRepointsOneCell) {
  // A dictionary-like view: two cells share one key's bytes.
  ColumnData storage;
  storage.Reset(DataType::kString);
  ASSERT_TRUE(storage.Append(Value::String("key")));
  storage.strings.push_back(storage.strings[0]);
  storage.size = 2;
  ColumnVector col;
  col.SetView(&storage, 0, 2);
  ColumnData* cells = col.MakeMutable(DataType::kString, 2);
  const size_t arena_before = cells->arena.size();
  EXPECT_EQ(arena_before, 3u);  // the shared key is copied once
  const std::string longer(100, 'z');
  ASSERT_TRUE(cells->Set(1, Patch(Value::String(longer))));
  EXPECT_EQ(cells->arena.size(), arena_before + longer.size());
  EXPECT_EQ(col.at(0).AsString(), "key");
  EXPECT_EQ(col.at(1).AsString(), longer);
  EXPECT_EQ(cells->strings[0].offset, 0u);  // the other cell still points at its key
}

TEST(RowBatchTest, SelectionCompressesVisibleRows) {
  RowBatch batch;
  batch.Reset(1, 5);
  batch.column(0).SetOwned(Ints(5));
  EXPECT_EQ(batch.size(), 5u);

  batch.SetSelection({1, 3});
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.ValueAt(0, 0).AsInt64(), 1);
  EXPECT_EQ(batch.ValueAt(0, 1).AsInt64(), 3);

  batch.TruncateSelection(1);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.ValueAt(0, 0).AsInt64(), 1);
}

TEST(RowBatchTest, TruncateWithoutSelectionCreatesPrefix) {
  RowBatch batch;
  batch.Reset(1, 4);
  batch.TruncateSelection(2);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.row_index(1), 1u);
}

TEST(RowBatchTest, FilterAllPassCreatesNoSelection) {
  RowBatch batch;
  batch.Reset(1, 4);
  batch.column(0).SetOwned(Ints(4));
  Row scratch;
  size_t dropped = batch.FilterSelected([](const Row&) { return true; }, &scratch);
  EXPECT_EQ(dropped, 0u);
  EXPECT_FALSE(batch.has_selection());  // pass-through fast path
}

TEST(RowBatchTest, FilterDropsAndCompressesExistingSelection) {
  RowBatch batch;
  batch.Reset(1, 6);
  batch.column(0).SetOwned(Ints(6));
  Row scratch;
  auto even = [](const Row& row) { return row[0].AsInt64() % 2 == 0; };
  EXPECT_EQ(batch.FilterSelected(even, &scratch), 3u);
  ASSERT_EQ(batch.size(), 3u);
  // Second filter compresses the existing selection in place.
  auto small = [](const Row& row) { return row[0].AsInt64() < 4; };
  EXPECT_EQ(batch.FilterSelected(small, &scratch), 1u);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.ValueAt(0, 0).AsInt64(), 0);
  EXPECT_EQ(batch.ValueAt(0, 1).AsInt64(), 2);
}

TEST(RowBatchTest, FilterCopiesOnlyThePredicateColumns) {
  RowBatch batch;
  batch.Reset(3, 4);
  std::vector<Value> c;
  for (int i = 0; i < 4; ++i) c.push_back(Value::String("s" + std::to_string(i)));
  batch.column(0).SetOwned(Ints(4));
  batch.column(1).SetOwned(Ints(4, 10));
  batch.column(2).SetOwned(Cells(DataType::kString, c));
  Row scratch;
  int calls = 0;
  auto pred = [&calls](const Row& row) {
    // Debug builds also call this with the full-width row; in the
    // list-filtered call the unlisted cells 0 and 2 read NULL.
    if (row[0].is_null()) {
      ++calls;
      EXPECT_TRUE(row[2].is_null());
    }
    return row[1].AsInt64() >= 20;
  };
  const std::vector<size_t> columns = {1};
  EXPECT_EQ(batch.FilterSelected(pred, &scratch, columns), 2u);
  EXPECT_EQ(calls, 4);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.ValueAt(0, 0).AsInt64(), 2);
  EXPECT_EQ(batch.ValueAt(0, 1).AsInt64(), 3);
}

TEST(RowBatchTest, ContiguousRecordIdsFollowSelection) {
  RowBatch batch;
  batch.Reset(1, 4);
  batch.SetContiguousRecordIds(100);
  batch.SetSelection({0, 2, 3});
  EXPECT_EQ(batch.record_id(0), 100u);
  EXPECT_EQ(batch.record_id(1), 102u);
  EXPECT_EQ(batch.record_id(2), 103u);
}

TEST(RowBatchTest, MaterializeRowIsFullWidthWithAbsentNull) {
  RowBatch batch;
  batch.Reset(3, 2);
  batch.column(1).SetOwned(Cells(DataType::kInt64, {Value::Int64(5), Value::Int64(6)}));
  Row row;
  batch.MaterializeRow(1, &row);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_TRUE(row[0].is_null());
  EXPECT_EQ(row[1].AsInt64(), 6);
  EXPECT_TRUE(row[2].is_null());
}

// --- batch scan pipeline over a DualTable ------------------------------------------

class BatchScanTest : public ::testing::Test {
 protected:
  void Open(size_t stripe_rows, size_t batch_rows) {
    fs_ = std::make_unique<fs::SimFileSystem>();
    auto meta = dual::MetadataTable::Open(fs_.get());
    ASSERT_TRUE(meta.ok());
    metadata_ = std::move(*meta);
    cluster_ = std::make_unique<fs::ClusterModel>();

    dual::DualTableOptions options;
    options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
    options.writer_options.stripe_rows = stripe_rows;
    options.scan_batch_rows = batch_rows;
    auto t = dual::DualTable::Open(
        fs_.get(), metadata_.get(), cluster_.get(), "b",
        Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}}), options);
    ASSERT_TRUE(t.ok());
    table_ = *t;
  }

  void InsertSequential(int n) {
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) rows.push_back({Value::Int64(i), Value::Int64(i * 10)});
    ASSERT_TRUE(table_->InsertRows(rows).ok());
  }

  /// Drains Scan (batch path by default) into (record_id, row) pairs.
  static std::vector<std::pair<uint64_t, Row>> Drain(RowIterator* it) {
    std::vector<std::pair<uint64_t, Row>> out;
    while (it->Next()) out.emplace_back(it->record_id(), it->row());
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    return out;
  }

  std::unique_ptr<fs::SimFileSystem> fs_;
  std::unique_ptr<dual::MetadataTable> metadata_;
  std::unique_ptr<fs::ClusterModel> cluster_;
  std::shared_ptr<dual::DualTable> table_;
};

TEST_F(BatchScanTest, EmptyTableYieldsNoBatches) {
  Open(8, 4);
  auto batches = table_->ScanBatches(ScanSpec{});
  ASSERT_TRUE(batches.ok());
  RowBatch batch;
  EXPECT_FALSE((*batches)->Next(&batch));
  EXPECT_TRUE((*batches)->status().ok());

  auto rows = CollectRows(table_.get(), ScanSpec{});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(BatchScanTest, BatchBoundaryExactlyAtStripeEdge) {
  Open(/*stripe_rows=*/8, /*batch_rows=*/8);
  InsertSequential(24);  // exactly 3 stripes, batch == stripe
  auto batches = table_->ScanBatches(ScanSpec{});
  ASSERT_TRUE(batches.ok());
  RowBatch batch;
  int count = 0;
  uint64_t next_expected_value = 0;
  while ((*batches)->Next(&batch)) {
    EXPECT_EQ(batch.size(), 8u);
    EXPECT_TRUE(batch.contiguous_record_ids());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch.ValueAt(0, i).AsInt64(),
                static_cast<int64_t>(next_expected_value++));
    }
    ++count;
  }
  EXPECT_TRUE((*batches)->status().ok());
  EXPECT_EQ(count, 3);
  EXPECT_EQ(next_expected_value, 24u);
}

TEST_F(BatchScanTest, BatchSmallerThanStripeCoversAllRows) {
  Open(/*stripe_rows=*/10, /*batch_rows=*/3);  // 10 % 3 != 0: ragged tail per stripe
  InsertSequential(25);
  auto rows = CollectRows(table_.get(), ScanSpec{});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 25u);
  for (int i = 0; i < 25; ++i) EXPECT_EQ((*rows)[i][0].AsInt64(), i);
}

TEST_F(BatchScanTest, ProjectionOnlyScanLeavesOtherColumnsNull) {
  Open(8, 4);
  InsertSequential(10);
  ScanSpec narrow;
  narrow.projection = {1};
  auto rows = CollectRows(table_.get(), narrow);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE((*rows)[i][0].is_null());
    EXPECT_EQ((*rows)[i][1].AsInt64(), i * 10);
  }
}

TEST_F(BatchScanTest, FullyDeletedBatchIsSkippedNotEmitted) {
  Open(/*stripe_rows=*/8, /*batch_rows=*/4);
  InsertSequential(12);
  // Delete physical rows [0, 4): exactly the first batch.
  const uint64_t file_id = table_->master()->files()[0].file_id;
  for (uint64_t r = 0; r < 4; ++r) {
    ASSERT_TRUE(table_->attached()->PutDeleteMarker(dual::MakeRecordId(file_id, r)).ok());
  }
  table_->PublishEditCommit();
  auto batches = table_->ScanBatches(ScanSpec{});
  ASSERT_TRUE(batches.ok());
  RowBatch batch;
  size_t total = 0;
  while ((*batches)->Next(&batch)) {
    EXPECT_GT(batch.size(), 0u);  // contract: no empty batches emitted
    total += batch.size();
  }
  EXPECT_TRUE((*batches)->status().ok());
  EXPECT_EQ(total, 8u);
  EXPECT_EQ(*table_->CountRows(), 8u);
}

TEST_F(BatchScanTest, BatchPathAppliesPlantedModifications) {
  Open(/*stripe_rows=*/10, /*batch_rows=*/4);  // misaligned on purpose
  InsertSequential(57);
  InsertSequential(13);  // second master file
  // Mixed modifications: updates, deletes, update-after-delete.
  const auto& files = table_->master()->files();
  ASSERT_EQ(files.size(), 2u);
  const uint64_t f0 = files[0].file_id;
  const uint64_t f1 = files[1].file_id;
  auto* att = table_->attached();
  ASSERT_TRUE(att->PutUpdate(dual::MakeRecordId(f0, 3), 1, Value::Int64(-1)).ok());
  ASSERT_TRUE(att->PutUpdate(dual::MakeRecordId(f0, 4), 1, Value::Int64(-4)).ok());
  ASSERT_TRUE(att->PutUpdate(dual::MakeRecordId(f0, 39), 0, Value::Int64(1000)).ok());
  ASSERT_TRUE(att->PutDeleteMarker(dual::MakeRecordId(f0, 40)).ok());
  ASSERT_TRUE(att->PutDeleteMarker(dual::MakeRecordId(f1, 0)).ok());
  ASSERT_TRUE(att->PutDeleteMarker(dual::MakeRecordId(f1, 5)).ok());
  ASSERT_TRUE(att->PutUpdate(dual::MakeRecordId(f1, 5), 1,
                             Value::Int64(7)).ok());  // stays deleted
  table_->PublishEditCommit();

  ScanSpec spec;
  spec.projection = {0, 1};
  spec.predicate_columns = {0};
  spec.predicate = [](const Row& row) { return row[0].AsInt64() % 3 != 0; };
  auto batch_scan = table_->Scan(spec);  // batch path + adapter
  ASSERT_TRUE(batch_scan.ok());
  auto rows = Drain(batch_scan->get());

  // Expected: every row (id = r, v = 10r) of both files in record-ID order,
  // minus deleted records, with the planted cells patched, filtered AFTER
  // patching (row 39's new id 1000 passes where 39 would not; row 3's patch
  // is filtered out with it).
  std::vector<std::pair<uint64_t, Row>> expected;
  for (int64_t r = 0; r < 57; ++r) {
    if (r == 40) continue;
    Row row = {Value::Int64(r == 39 ? 1000 : r),
               Value::Int64(r == 3 ? -1 : r == 4 ? -4 : r * 10)};
    if (row[0].AsInt64() % 3 != 0) expected.emplace_back(dual::MakeRecordId(f0, r), row);
  }
  for (int64_t r = 0; r < 13; ++r) {
    if (r == 0 || r == 5 || r % 3 == 0) continue;
    expected.emplace_back(dual::MakeRecordId(f1, r),
                          Row{Value::Int64(r), Value::Int64(r * 10)});
  }
  ASSERT_EQ(expected.size(), 45u);
  EXPECT_EQ(expected[2].first, dual::MakeRecordId(f0, 4));
  EXPECT_EQ(expected[26].first, dual::MakeRecordId(f0, 39));
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].first, expected[i].first) << "record id at row " << i;
    EXPECT_EQ(RowToString(rows[i].second), RowToString(expected[i].second))
        << "row " << i;
  }
}

TEST_F(BatchScanTest, MismatchedPatchFailsTheScan) {
  // The ORC writer refuses a cell whose kind does not match its column; a
  // patch that holds one fails the UNION READ the same way instead of
  // landing in a typed column.
  Open(/*stripe_rows=*/8, /*batch_rows=*/4);
  InsertSequential(10);
  const uint64_t file_id = table_->master()->files()[0].file_id;
  ASSERT_TRUE(
      table_->attached()->PutUpdate(dual::MakeRecordId(file_id, 6), 1, Value::String("x"))
          .ok());
  table_->PublishEditCommit();
  auto batches = table_->ScanBatches(ScanSpec{});
  ASSERT_TRUE(batches.ok());
  RowBatch batch;
  size_t rows = 0;
  while ((*batches)->Next(&batch)) rows += batch.size();
  EXPECT_EQ(rows, 4u);  // the first batch, before the patched one
  EXPECT_TRUE((*batches)->status().IsInvalidArgument())
      << (*batches)->status().ToString();
  EXPECT_NE((*batches)->status().ToString().find("column v of type bigint"),
            std::string::npos)
      << (*batches)->status().ToString();
  // A projection without the patched column never decodes the patch.
  ScanSpec narrow;
  narrow.projection = {0};
  auto ids = CollectRows(table_.get(), narrow);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(ids->size(), 10u);
}

TEST_F(BatchScanTest, RowBatchAdapterRoundTripPreservesRowsAndIds) {
  Open(10, 4);
  InsertSequential(33);
  ScanSpec spec;
  // Scan rows -> batches -> rows must equal the scan's rows directly.
  auto direct = table_->Scan(spec);
  ASSERT_TRUE(direct.ok());
  auto direct_rows = Drain(direct->get());
  ASSERT_EQ(direct_rows.size(), 33u);

  auto inner = table_->Scan(spec);
  ASSERT_TRUE(inner.ok());
  auto round_trip = std::make_unique<BatchToRowAdapter>(
      std::make_unique<RowToBatchAdapter>(std::move(*inner),
                                          table_->schema().num_fields(), 5));
  auto rt_rows = Drain(round_trip.get());
  ASSERT_EQ(direct_rows.size(), rt_rows.size());
  for (size_t i = 0; i < direct_rows.size(); ++i) {
    EXPECT_EQ(direct_rows[i].first, rt_rows[i].first);
    for (size_t c = 0; c < direct_rows[i].second.size(); ++c) {
      EXPECT_EQ(direct_rows[i].second[c].Compare(rt_rows[i].second[c]), 0);
    }
  }
}

TEST_F(BatchScanTest, MasterPredicateEmitsFullPassBatchesAndSkipsAllDropped) {
  Open(/*stripe_rows=*/4, /*batch_rows=*/4);
  InsertSequential(16);
  ScanSpec spec;
  spec.predicate_columns = {0};
  spec.predicate = [](const Row& row) { return row[0].AsInt64() < 8; };
  // apply_predicate=true is the Hive(HDFS) batch-scan configuration: the
  // master iterator filters itself instead of deferring to UNION READ.
  auto it = table_->master()->NewBatchScanIterator(spec, /*apply_predicate=*/true,
                                                   /*batch_rows=*/4);
  ASSERT_TRUE(it.ok());
  RowBatch batch;
  int64_t expected = 0;
  while ((*it)->Next(&batch)) {
    ASSERT_GT(batch.size(), 0u);  // all-dropped batches must be skipped
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch.ValueAt(0, i).AsInt64(), expected++);
    }
  }
  EXPECT_TRUE((*it)->status().ok());
  EXPECT_EQ(expected, 8);  // the two fully-passing batches were emitted intact
}

TEST_F(BatchScanTest, PassthroughBatchesAreMeteredOnUnmodifiedTable) {
  Open(8, 4);
  InsertSequential(16);
  ScanMeter meter;
  ScanSpec spec;
  spec.meter = &meter;
  auto rows = CollectRows(table_.get(), spec);
  ASSERT_TRUE(rows.ok());
  const ScanSnapshot delta = meter.Snapshot();
  EXPECT_EQ(delta.rows, 16u);
  EXPECT_EQ(delta.batches, 4u);  // 2 stripes x 2 batches each
  EXPECT_EQ(delta.passthrough_batches, 4u);  // empty attached: all pass through
  EXPECT_EQ(delta.masked_rows, 0u);
  EXPECT_EQ(delta.patched_rows, 0u);
}

}  // namespace
}  // namespace dtl::table
