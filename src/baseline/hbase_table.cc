#include "baseline/hbase_table.h"

#include "common/coding.h"
#include "table/scan_stats.h"

namespace dtl::baseline {

namespace {

std::string RowKey(uint64_t id) {
  std::string key;
  PutBigEndian64(&key, id);
  return key;
}

/// Fills schema-typed batches straight from the KV rows: each visible cell
/// of a required column is decoded into its column the way UNION READ
/// decodes a patch, then the predicate runs over the batch. Every scanned
/// row pays the LSM merge and a per-cell decode — the structural reason
/// Hive(HBase) loses batch-read benchmarks.
class HBaseBatchIterator : public table::BatchIterator {
 public:
  HBaseBatchIterator(std::unique_ptr<kv::RowScanner> rows, table::ScanSpec spec,
                     const Schema& schema)
      : rows_(std::move(rows)),
        spec_(std::move(spec)),
        schema_(schema),
        required_(spec_.RequiredColumns(schema.num_fields())),
        needed_(schema.num_fields(), false),
        columns_(schema.num_fields()) {
    for (size_t c : required_) needed_[c] = true;
  }

  bool Next(table::RowBatch* batch) override {
    while (Fill(batch)) {
      if (spec_.predicate) {
        const size_t dropped =
            batch->FilterSelected(spec_.predicate, &scratch_, spec_.predicate_columns);
        if (spec_.meter != nullptr) spec_.meter->AddPredicateDrops(dropped);
      }
      if (!batch->empty()) return true;
    }
    return false;
  }
  const Status& status() const override { return status_; }

 private:
  /// Decodes up to kDefaultBatchRows data rows into the iterator's columns
  /// and points `*batch` at them; false at end or error.
  bool Fill(table::RowBatch* batch) {
    if (!status_.ok()) return false;
    for (size_t c : required_) {
      columns_[c].ResetNulls(schema_.field(c).type, table::kDefaultBatchRows);
    }
    ids_.clear();
    while (ids_.size() < table::kDefaultBatchRows && rows_->Next()) {
      const kv::RowView& view = rows_->view();
      if (view.row().size() != 8) continue;  // non-data row
      const size_t idx = ids_.size();
      for (const kv::Cell& cell : view.cells) {
        const uint32_t c = cell.key.qualifier;
        if (c >= needed_.size() || !needed_[c]) continue;
        Slice bytes(cell.value.value);
        status_ = Value::DecodeEncoded(&bytes, &cell_);
        if (!status_.ok()) return false;
        if (!columns_[c].Set(idx, cell_)) {
          const Field& field = schema_.field(c);
          status_ = Status::InvalidArgument("cell of column " + field.name + " of type " +
                                            DataTypeName(field.type) + " holds a " +
                                            DataTypeName(cell_.kind) + " value");
          return false;
        }
      }
      ids_.push_back(DecodeBigEndian64(view.row().data()));
    }
    if (!rows_->status().ok()) {
      status_ = rows_->status();
      return false;
    }
    if (ids_.empty()) return false;
    const size_t n = ids_.size();
    batch->Reset(schema_.num_fields(), n);
    for (size_t c : required_) batch->column(c).SetView(&columns_[c], 0, n);
    batch->SetRecordIds(ids_);
    if (spec_.meter != nullptr) spec_.meter->AddBatch(n, 0);
    return true;
  }

  std::unique_ptr<kv::RowScanner> rows_;
  table::ScanSpec spec_;
  Schema schema_;
  std::vector<size_t> required_;
  std::vector<bool> needed_;
  /// The current batch's cells, viewed by the batch until the next call.
  std::vector<table::ColumnData> columns_;
  std::vector<uint64_t> ids_;
  Value::Encoded cell_;
  Row scratch_;
  Status status_;
};

}  // namespace

Result<std::shared_ptr<HBaseTable>> HBaseTable::Open(fs::SimFileSystem* fs,
                                                     const std::string& name,
                                                     Schema schema,
                                                     HBaseTableOptions options) {
  options.store_options.dir = "/hbase/" + name;
  std::string dir = options.store_options.dir;
  auto hbase = std::shared_ptr<HBaseTable>(
      new HBaseTable(fs, name, std::move(schema), std::move(dir)));
  DTL_ASSIGN_OR_RETURN(hbase->store_,
                       kv::KvStore::Open(fs, std::move(options.store_options)));
  return hbase;
}

Result<uint64_t> HBaseTable::NextRowId() {
  if (!row_id_loaded_) {
    // Recover the high-water mark with one full key scan (open-time cost).
    auto scanner = store_->NewCellScanner();
    uint64_t max_id = 0;
    while (scanner->Valid()) {
      const std::string& row = scanner->key().row;
      if (row.size() == 8) max_id = std::max(max_id, DecodeBigEndian64(row.data()));
      scanner->Next();
    }
    DTL_RETURN_NOT_OK(scanner->status());
    next_row_id_ = max_id + 1;
    row_id_loaded_ = true;
  }
  return next_row_id_++;
}

Result<std::unique_ptr<table::BatchIterator>> HBaseTable::ScanBatches(
    const table::ScanSpec& spec) {
  return std::unique_ptr<table::BatchIterator>(
      std::make_unique<HBaseBatchIterator>(store_->NewRowScanner(), spec, schema_));
}

Status HBaseTable::InsertRows(const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    if (row.size() != schema_.num_fields()) {
      return Status::InvalidArgument("row arity does not match schema");
    }
    DTL_ASSIGN_OR_RETURN(uint64_t id, NextRowId());
    const std::string key = RowKey(id);
    for (size_t c = 0; c < row.size(); ++c) {
      if (row[c].is_null()) continue;  // sparse storage: NULLs are absent cells
      std::string encoded;
      row[c].EncodeTo(&encoded);
      DTL_RETURN_NOT_OK(store_->Put(key, static_cast<uint32_t>(c), encoded));
    }
  }
  return Status::OK();
}

Status HBaseTable::OverwriteRows(const std::vector<Row>& rows) {
  DTL_RETURN_NOT_OK(store_->Clear());
  next_row_id_ = 1;
  row_id_loaded_ = true;
  return InsertRows(rows);
}

Result<table::DmlResult> HBaseTable::Update(
    const table::ScanSpec& filter, const std::vector<table::Assignment>& assignments) {
  table::DmlResult result;
  result.plan = table::DmlPlan::kInPlace;
  // Phase 1: collect matches (cannot write into a live scan).
  std::vector<std::pair<uint64_t, Row>> matches;
  {
    table::ScanSpec scan = filter;
    std::vector<size_t> needed = filter.predicate_columns;
    for (const auto& a : assignments) {
      needed.insert(needed.end(), a.input_columns.begin(), a.input_columns.end());
    }
    if (needed.empty()) needed.push_back(0);
    scan.projection = needed;
    DTL_ASSIGN_OR_RETURN(auto it, ScanBatches(scan));
    DTL_RETURN_NOT_OK(table::ForEachRow(it.get(), [&](uint64_t id, Row* row) {
      ++result.rows_matched;
      matches.emplace_back(id, *row);
      return Status::OK();
    }));
    result.rows_scanned = result.rows_matched;
  }
  // Phase 2: put only the changed cells.
  for (const auto& [id, row] : matches) {
    const std::string key = RowKey(id);
    for (const table::Assignment& a : assignments) {
      std::string encoded;
      a.compute(row).EncodeTo(&encoded);
      DTL_RETURN_NOT_OK(store_->Put(key, static_cast<uint32_t>(a.column), encoded));
    }
  }
  return result;
}

Result<table::DmlResult> HBaseTable::Delete(const table::ScanSpec& filter) {
  table::DmlResult result;
  result.plan = table::DmlPlan::kInPlace;
  std::vector<uint64_t> matches;
  {
    table::ScanSpec scan = filter;
    scan.projection =
        filter.predicate_columns.empty() ? std::vector<size_t>{0} : filter.predicate_columns;
    DTL_ASSIGN_OR_RETURN(auto it, ScanBatches(scan));
    DTL_RETURN_NOT_OK(table::ForEachRow(it.get(), [&](uint64_t id, Row*) {
      ++result.rows_matched;
      matches.push_back(id);
      return Status::OK();
    }));
  }
  for (uint64_t id : matches) {
    DTL_RETURN_NOT_OK(store_->DeleteRow(RowKey(id)));
  }
  return result;
}

Status HBaseTable::Drop() {
  DTL_RETURN_NOT_OK(store_->Clear());
  return fs_->DeleteRecursively(dir_);
}

}  // namespace dtl::baseline
