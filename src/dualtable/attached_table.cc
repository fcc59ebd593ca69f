#include "dualtable/attached_table.h"

#include "dualtable/record_id.h"

namespace dtl::dual {

Result<std::unique_ptr<AttachedTable>> AttachedTable::Open(
    fs::SimFileSystem* fs, const std::string& table_name, kv::KvStoreOptions options) {
  options.dir = "/hbase/" + table_name + "_attached";
  std::string dir = options.dir;
  DTL_ASSIGN_OR_RETURN(auto store, kv::KvStore::Open(fs, std::move(options)));
  return std::unique_ptr<AttachedTable>(
      new AttachedTable(fs, std::move(dir), std::move(store)));
}

Status AttachedTable::PutUpdate(uint64_t record_id, uint32_t column, const Value& value) {
  if (column >= kDeleteMarkerQualifier) {
    return Status::InvalidArgument("column ordinal collides with reserved qualifiers");
  }
  std::string encoded;
  value.EncodeTo(&encoded);
  return store_->Put(RecordIdKey(record_id), column, encoded);
}

Status AttachedTable::PutDeleteMarker(uint64_t record_id) {
  return store_->Put(RecordIdKey(record_id), kDeleteMarkerQualifier, "");
}

Result<std::optional<RecordModification>> AttachedTable::GetModificationAt(
    const kv::KvSnapshot& snapshot, uint64_t record_id) const {
  // One bounded scan positioned at the record's key retrieves the whole row.
  auto scanner = NewScannerAt(snapshot, record_id, record_id + 1);
  if (scanner->Next()) {
    return std::optional<RecordModification>(scanner->modification());
  }
  DTL_RETURN_NOT_OK(scanner->status());
  return std::optional<RecordModification>();
}

std::unique_ptr<ModificationScanner> AttachedTable::NewScannerAt(
    const kv::KvSnapshot& snapshot, uint64_t start_id, uint64_t end_id) const {
  std::string start_key = RecordIdKey(start_id);
  auto rows = store_->NewRowScannerAt(snapshot, start_id == 0 ? nullptr : &start_key);
  return std::unique_ptr<ModificationScanner>(
      new ModificationScanner(std::move(rows), end_id));
}

Status AttachedTable::GetUpdateHistory(uint64_t record_id, uint32_t column,
                                       int max_versions,
                                       std::vector<std::pair<uint64_t, Value>>* out) {
  out->clear();
  std::vector<std::pair<uint64_t, std::string>> raw;
  DTL_RETURN_NOT_OK(store_->GetVersions(RecordIdKey(record_id), column, max_versions, &raw));
  for (auto& [ts, encoded] : raw) {
    Slice in(encoded);
    Value v;
    DTL_RETURN_NOT_OK(Value::DecodeFrom(&in, &v));
    out->emplace_back(ts, std::move(v));
  }
  return Status::OK();
}

Status AttachedTable::Drop() {
  DTL_RETURN_NOT_OK(store_->Clear());
  return fs_->DeleteRecursively(dir_);
}

bool ModificationScanner::Next() {
  if (!status_.ok()) return false;
  if (!rows_->Next()) {
    status_ = rows_->status();
    return false;
  }
  const kv::RowView& view = rows_->view();
  if (view.row().size() != 8) {
    status_ = Status::Corruption("attached table row key is not a record ID");
    return false;
  }
  const uint64_t id = RecordIdFromKey(view.row());
  if (id >= end_id_) return false;
  // The visible cells arrive in qualifier order, the delete marker last.
  mod_.Reset(id);
  for (const kv::Cell& cell : view.cells) {
    if (cell.key.qualifier == kDeleteMarkerQualifier) {
      mod_.deleted = true;
    } else {
      mod_.AddUpdate(cell.key.qualifier, Slice(cell.value.value));
    }
  }
  return true;
}

}  // namespace dtl::dual
