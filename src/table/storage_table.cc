#include "table/storage_table.h"

#include <algorithm>

#include "table/scan_stats.h"

namespace dtl::table {

// --- adapters ---------------------------------------------------------------------

bool BatchToRowAdapter::Next() {
  while (true) {
    if (!loaded_ || index_ >= batch_.size()) {
      loaded_ = false;
      if (!batches_->Next(&batch_)) return false;
      if (batch_.empty()) continue;  // producers shouldn't emit these; be safe
      loaded_ = true;
      index_ = 0;
    }
    batch_.MaterializeRow(index_, &row_);
    record_id_ = batch_.record_id(index_);
    ++index_;
    (meter_ != nullptr ? *meter_ : GlobalScanMeter()).AddMaterializedRows(1);
    return true;
  }
}

bool RowToBatchAdapter::Next(RowBatch* batch) {
  std::vector<std::vector<Value>> columns(num_columns_);
  std::vector<uint64_t> ids;
  size_t n = 0;
  while (n < capacity_ && rows_->Next()) {
    const Row& row = rows_->row();
    for (size_t c = 0; c < num_columns_; ++c) {
      columns[c].push_back(c < row.size() ? row[c] : Value::Null());
    }
    ids.push_back(rows_->record_id());
    ++n;
  }
  if (n == 0) return false;
  batch->Reset(num_columns_, n);
  for (size_t c = 0; c < num_columns_; ++c) {
    batch->column(c).SetOwned(std::move(columns[c]));
  }
  batch->SetRecordIds(std::move(ids));
  (meter_ != nullptr ? *meter_ : GlobalScanMeter()).AddBatch(n, 0);
  return true;
}

const char* DmlPlanName(DmlPlan plan) {
  switch (plan) {
    case DmlPlan::kOverwrite:
      return "OVERWRITE";
    case DmlPlan::kEdit:
      return "EDIT";
    case DmlPlan::kInPlace:
      return "INPLACE";
    case DmlPlan::kDelta:
      return "DELTA";
  }
  return "?";
}

std::vector<size_t> ScanSpec::RequiredColumns(size_t num_fields) const {
  if (projection.empty()) {
    std::vector<size_t> all(num_fields);
    for (size_t i = 0; i < num_fields; ++i) all[i] = i;
    return all;
  }
  std::vector<size_t> required = projection;
  required.insert(required.end(), predicate_columns.begin(), predicate_columns.end());
  std::sort(required.begin(), required.end());
  required.erase(std::unique(required.begin(), required.end()), required.end());
  return required;
}

Result<std::unique_ptr<BatchIterator>> StorageTable::ScanBatches(const ScanSpec& spec) {
  DTL_ASSIGN_OR_RETURN(auto it, Scan(spec));
  return std::unique_ptr<BatchIterator>(new RowToBatchAdapter(
      std::move(it), schema().num_fields(), kDefaultBatchRows, spec.meter));
}

Result<uint64_t> StorageTable::CountRows() {
  ScanSpec spec;
  // Project the narrowest single column; counting does not need data, but a
  // scan must materialize something.
  spec.projection = {0};
  DTL_ASSIGN_OR_RETURN(auto it, Scan(spec));
  uint64_t count = 0;
  while (it->Next()) ++count;
  DTL_RETURN_NOT_OK(it->status());
  return count;
}

Result<std::vector<Row>> CollectRows(StorageTable* table, const ScanSpec& spec) {
  DTL_ASSIGN_OR_RETURN(auto it, table->Scan(spec));
  std::vector<Row> rows;
  while (it->Next()) rows.push_back(it->row());
  DTL_RETURN_NOT_OK(it->status());
  return rows;
}

Result<std::vector<Row>> CollectBatchRows(BatchIterator* it) {
  std::vector<Row> rows;
  RowBatch batch;
  while (it->Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      Row row;
      batch.MaterializeRow(i, &row);
      rows.push_back(std::move(row));
    }
  }
  DTL_RETURN_NOT_OK(it->status());
  return rows;
}

}  // namespace dtl::table
