#include "table/storage_table.h"

#include <algorithm>

namespace dtl::table {

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

Result<uint64_t> StorageTable::CountRows() {
  ScanSpec spec;
  // Project the narrowest single column; counting reads no cell, but a scan
  // must materialize something.
  spec.projection = {0};
  DTL_ASSIGN_OR_RETURN(auto it, ScanBatches(spec));
  uint64_t count = 0;
  RowBatch batch;
  while (it->Next(&batch)) count += batch.size();
  DTL_RETURN_NOT_OK(it->status());
  return count;
}

Status ForEachRow(BatchIterator* it,
                  const std::function<Status(uint64_t record_id, Row* row)>& fn) {
  RowBatch batch;
  Row row;
  while (it->Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.MaterializeRow(i, &row);
      DTL_RETURN_NOT_OK(fn(batch.record_id(i), &row));
    }
  }
  return it->status();
}

Result<std::vector<Row>> CollectRows(StorageTable* table, const ScanSpec& spec) {
  DTL_ASSIGN_OR_RETURN(auto it, table->ScanBatches(spec));
  std::vector<Row> rows;
  DTL_RETURN_NOT_OK(ForEachRow(it.get(), [&rows](uint64_t, Row* row) {
    rows.push_back(*row);
    return Status::OK();
  }));
  return rows;
}

}  // namespace dtl::table
