#include "baseline/hive_table.h"

namespace dtl::baseline {

Result<std::shared_ptr<HiveTable>> HiveTable::Open(fs::SimFileSystem* fs,
                                                   dual::MetadataTable* metadata,
                                                   const std::string& name, Schema schema,
                                                   HiveTableOptions options) {
  auto hive = std::shared_ptr<HiveTable>(new HiveTable(name, schema, std::move(options)));
  DTL_ASSIGN_OR_RETURN(
      hive->storage_, dual::MasterTable::Open(fs, metadata, name, std::move(schema),
                                              hive->options_.warehouse_dir,
                                              hive->options_.writer_options));
  return hive;
}

Result<std::unique_ptr<table::RowIterator>> HiveTable::Scan(const table::ScanSpec& spec) {
  // Row consumers ride the batch pipeline too (same as DualTable::Scan), so
  // the Hive baseline shares the decoded-stripe cache and the hive-vs-dual
  // read comparison stays apples to apples.
  DTL_ASSIGN_OR_RETURN(auto it, ScanBatches(spec));
  return std::unique_ptr<table::RowIterator>(
      new table::BatchToRowAdapter(std::move(it), spec.meter));
}

Result<std::unique_ptr<table::BatchIterator>> HiveTable::ScanBatches(
    const table::ScanSpec& spec) {
  DTL_ASSIGN_OR_RETURN(auto it,
                       storage_->NewBatchScanIterator(spec, /*apply_predicate=*/true));
  return std::unique_ptr<table::BatchIterator>(std::move(it));
}

Status HiveTable::InsertRows(const std::vector<Row>& rows) {
  if (rows.empty()) return Status::OK();
  DTL_ASSIGN_OR_RETURN(auto writer, storage_->NewFileWriter());
  for (const Row& row : rows) DTL_RETURN_NOT_OK(writer->Append(row));
  DTL_ASSIGN_OR_RETURN(auto info, writer->Close());
  return storage_->RegisterFile(std::move(info));
}

Status HiveTable::OverwriteRows(const std::vector<Row>& rows) {
  dual::StagedFileWriter out(storage_.get(), options_.rewrite_file_rows);
  for (const Row& row : rows) DTL_RETURN_NOT_OK(out.Append(row));
  DTL_ASSIGN_OR_RETURN(std::vector<dual::MasterFileInfo> files, out.Finish());
  return storage_->ReplaceAllFiles(std::move(files));
}

Status HiveTable::Rewrite(const std::function<bool(Row*)>& transform) {
  // INSERT OVERWRITE: read every record and every column, write everything
  // back — cost proportional to total data, not modified data. The output
  // replaces every file it reads, so the scan admits nothing to the cache.
  table::ScanSpec all;
  DTL_ASSIGN_OR_RETURN(auto it, storage_->NewBatchScanIterator(
                                    all, /*apply_predicate=*/false,
                                    table::kDefaultBatchRows, orc::CacheFill::kNoAdmit));
  dual::StagedFileWriter out(storage_.get(), options_.rewrite_file_rows);
  table::RowBatch batch;
  Row row;
  while (it->Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.MaterializeRow(i, &row);
      if (transform(&row)) DTL_RETURN_NOT_OK(out.Append(row));
    }
  }
  DTL_RETURN_NOT_OK(it->status());
  DTL_ASSIGN_OR_RETURN(std::vector<dual::MasterFileInfo> files, out.Finish());
  return storage_->ReplaceAllFiles(std::move(files));
}

Result<table::DmlResult> HiveTable::Update(
    const table::ScanSpec& filter, const std::vector<table::Assignment>& assignments) {
  table::DmlResult result;
  result.plan = table::DmlPlan::kOverwrite;
  result.rows_scanned = storage_->TotalRows();
  auto transform = [&](Row* row) {
    if (!filter.predicate || filter.predicate(*row)) {
      ++result.rows_matched;
      for (const table::Assignment& a : assignments) (*row)[a.column] = a.compute(*row);
    }
    return true;
  };
  DTL_RETURN_NOT_OK(Rewrite(transform));
  return result;
}

Result<table::DmlResult> HiveTable::Delete(const table::ScanSpec& filter) {
  table::DmlResult result;
  result.plan = table::DmlPlan::kOverwrite;
  result.rows_scanned = storage_->TotalRows();
  auto transform = [&](Row* row) {
    if (!filter.predicate || filter.predicate(*row)) {
      ++result.rows_matched;
      return false;
    }
    return true;
  };
  DTL_RETURN_NOT_OK(Rewrite(transform));
  return result;
}

Status HiveTable::Drop() { return storage_->Drop(); }

}  // namespace dtl::baseline
