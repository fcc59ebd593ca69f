#include "baseline/hbase_table.h"

#include "common/coding.h"

namespace dtl::baseline {

namespace {

std::string RowKey(uint64_t id) {
  std::string key;
  PutBigEndian64(&key, id);
  return key;
}

/// Materializes KV rows into relational rows, applying spec columns and
/// predicate. Pays a per-cell decode on every scanned row — the structural
/// reason Hive(HBase) loses batch-read benchmarks.
class HBaseRowIterator : public table::RowIterator {
 public:
  HBaseRowIterator(std::unique_ptr<kv::RowScanner> rows, table::ScanSpec spec,
                   size_t num_fields)
      : rows_(std::move(rows)), spec_(std::move(spec)), num_fields_(num_fields) {
    required_ = spec_.RequiredColumns(num_fields_);
    needed_.assign(num_fields_, false);
    for (size_t c : required_) needed_[c] = true;
  }

  bool Next() override {
    while (rows_->Next()) {
      const kv::RowView& view = rows_->view();
      if (view.row().size() != 8) continue;  // non-data row
      row_.assign(num_fields_, Value::Null());
      bool bad = false;
      for (const kv::Cell& cell : view.cells) {
        if (cell.key.qualifier >= num_fields_) continue;
        if (!needed_[cell.key.qualifier]) continue;
        Slice in(cell.value.value);
        Value v;
        Status st = Value::DecodeFrom(&in, &v);
        if (!st.ok()) {
          status_ = st;
          bad = true;
          break;
        }
        row_[cell.key.qualifier] = std::move(v);
      }
      if (bad) return false;
      if (spec_.predicate && !spec_.predicate(row_)) continue;
      record_id_ = DecodeBigEndian64(view.row().data());
      return true;
    }
    status_ = rows_->status();
    return false;
  }

  const Row& row() const override { return row_; }
  uint64_t record_id() const override { return record_id_; }
  const Status& status() const override { return status_; }

 private:
  std::unique_ptr<kv::RowScanner> rows_;
  table::ScanSpec spec_;
  size_t num_fields_;
  std::vector<size_t> required_;
  std::vector<bool> needed_;
  Row row_;
  uint64_t record_id_ = 0;
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

Result<std::unique_ptr<table::RowIterator>> HBaseTable::Scan(const table::ScanSpec& spec) {
  return std::unique_ptr<table::RowIterator>(
      new HBaseRowIterator(store_->NewRowScanner(), spec, schema_.num_fields()));
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
    DTL_ASSIGN_OR_RETURN(auto it, Scan(scan));
    while (it->Next()) {
      ++result.rows_matched;
      matches.emplace_back(it->record_id(), it->row());
    }
    DTL_RETURN_NOT_OK(it->status());
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
    DTL_ASSIGN_OR_RETURN(auto it, Scan(scan));
    while (it->Next()) {
      ++result.rows_matched;
      matches.push_back(it->record_id());
    }
    DTL_RETURN_NOT_OK(it->status());
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
