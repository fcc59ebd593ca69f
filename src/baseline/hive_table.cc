#include "baseline/hive_table.h"

namespace dtl::baseline {

namespace {

/// Adapts MasterScanIterator to the storage RowIterator interface.
class MasterRowIterator : public table::RowIterator {
 public:
  explicit MasterRowIterator(std::unique_ptr<dual::MasterScanIterator> it)
      : it_(std::move(it)) {}
  bool Next() override { return it_->Next(); }
  const Row& row() const override { return it_->row(); }
  uint64_t record_id() const override { return it_->record_id(); }
  const Status& status() const override { return it_->status(); }

 private:
  std::unique_ptr<dual::MasterScanIterator> it_;
};

}  // namespace

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
  std::vector<dual::MasterFileInfo> new_files;
  if (!rows.empty()) {
    std::unique_ptr<dual::MasterFileWriter> writer;
    for (const Row& row : rows) {
      if (writer == nullptr) {
        DTL_ASSIGN_OR_RETURN(writer, storage_->NewFileWriter());
      }
      DTL_RETURN_NOT_OK(writer->Append(row));
      if (writer->rows_written() >= options_.rewrite_file_rows) {
        DTL_ASSIGN_OR_RETURN(auto info, writer->Close());
        new_files.push_back(std::move(info));
        writer.reset();
      }
    }
    if (writer != nullptr) {
      DTL_ASSIGN_OR_RETURN(auto info, writer->Close());
      new_files.push_back(std::move(info));
    }
  }
  return storage_->ReplaceAllFiles(std::move(new_files));
}

Result<uint64_t> HiveTable::Rewrite(const std::function<bool(Row*)>& transform) {
  // INSERT OVERWRITE: read every record and every column, write everything
  // back — cost proportional to total data, not modified data.
  table::ScanSpec all;
  DTL_ASSIGN_OR_RETURN(auto it, storage_->NewScanIterator(all, /*apply_predicate=*/false));

  std::vector<dual::MasterFileInfo> new_files;
  std::unique_ptr<dual::MasterFileWriter> writer;
  uint64_t rows_out = 0;
  Row row;
  while (it->Next()) {
    row = it->row();
    if (!transform(&row)) continue;
    if (writer == nullptr) {
      DTL_ASSIGN_OR_RETURN(writer, storage_->NewFileWriter());
    }
    DTL_RETURN_NOT_OK(writer->Append(row));
    ++rows_out;
    if (writer->rows_written() >= options_.rewrite_file_rows) {
      DTL_ASSIGN_OR_RETURN(auto info, writer->Close());
      new_files.push_back(std::move(info));
      writer.reset();
    }
  }
  DTL_RETURN_NOT_OK(it->status());
  if (writer != nullptr) {
    DTL_ASSIGN_OR_RETURN(auto info, writer->Close());
    new_files.push_back(std::move(info));
  }
  DTL_RETURN_NOT_OK(storage_->ReplaceAllFiles(std::move(new_files)));
  return rows_out;
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
  DTL_ASSIGN_OR_RETURN(uint64_t rows, Rewrite(transform));
  (void)rows;
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
  DTL_ASSIGN_OR_RETURN(uint64_t rows, Rewrite(transform));
  (void)rows;
  return result;
}

Status HiveTable::Drop() { return storage_->Drop(); }

}  // namespace dtl::baseline
