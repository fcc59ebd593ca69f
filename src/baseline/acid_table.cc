#include "baseline/acid_table.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "orc/reader.h"

namespace dtl::baseline {

namespace {
constexpr int64_t kOpUpdate = 0;
constexpr int64_t kOpDelete = 1;
}  // namespace

/// Merge-on-read iterator: base scan + preloaded delta map overlay.
class AcidRowIterator : public table::RowIterator {
 public:
  AcidRowIterator(std::unique_ptr<table::RowIterator> base, AcidTable::DeltaMap deltas,
                  table::ScanSpec spec)
      : base_(std::move(base)), deltas_(std::move(deltas)), spec_(std::move(spec)) {}

  bool Next() override {
    while (base_->Next()) {
      const uint64_t id = base_->record_id();
      auto it = deltas_.find(id);
      if (it == deltas_.end()) {
        row_ = base_->row();
      } else if (it->second.deleted) {
        continue;
      } else {
        row_ = it->second.row;  // whole updated record replaces the base row
      }
      if (spec_.predicate && !spec_.predicate(row_)) continue;
      record_id_ = id;
      return true;
    }
    status_ = base_->status();
    return false;
  }

  const Row& row() const override { return row_; }
  uint64_t record_id() const override { return record_id_; }
  const Status& status() const override { return status_; }

 private:
  std::unique_ptr<table::RowIterator> base_;
  AcidTable::DeltaMap deltas_;
  table::ScanSpec spec_;
  Row row_;
  uint64_t record_id_ = 0;
  Status status_;
};

Result<std::shared_ptr<AcidTable>> AcidTable::Open(fs::SimFileSystem* fs,
                                                   dual::MetadataTable* metadata,
                                                   const std::string& name, Schema schema,
                                                   AcidTableOptions options) {
  auto acid =
      std::shared_ptr<AcidTable>(new AcidTable(fs, name, schema, std::move(options)));
  DTL_ASSIGN_OR_RETURN(
      acid->base_, dual::MasterTable::Open(fs, metadata, name, std::move(schema),
                                           acid->options_.warehouse_dir,
                                           acid->options_.writer_options));
  DTL_RETURN_NOT_OK(fs->CreateDir(acid->DeltaDir()));
  DTL_ASSIGN_OR_RETURN(auto names, fs->ListDir(acid->DeltaDir()));
  std::vector<std::pair<uint64_t, std::string>> found;
  for (const std::string& n : names) {
    // A crash can leave a staged-but-uncommitted delta_*.orc.tmp; that
    // statement was never acknowledged, so discard it.
    if (n.size() >= 4 && n.compare(n.size() - 4, 4, ".tmp") == 0) {
      DTL_RETURN_NOT_OK(fs->Delete(fs::JoinPath(acid->DeltaDir(), n)));
      continue;
    }
    if (n.rfind("delta_", 0) != 0) continue;
    uint64_t txn = 0;
    auto r = std::from_chars(n.data() + 6, n.data() + n.size(), txn);
    if (r.ec != std::errc()) continue;
    if (std::string(r.ptr, n.data() + n.size() - r.ptr) != ".orc") continue;
    found.emplace_back(txn, fs::JoinPath(acid->DeltaDir(), n));
    acid->next_txn_ = std::max(acid->next_txn_, txn + 1);
  }
  std::sort(found.begin(), found.end());
  for (auto& [txn, path] : found) acid->delta_files_.push_back(path);
  return acid;
}

Schema AcidTable::DeltaSchema() const {
  std::vector<Field> fields;
  fields.push_back(Field{"__op", DataType::kInt64});
  fields.push_back(Field{"__record_id", DataType::kInt64});
  for (const Field& f : schema_.fields()) fields.push_back(f);
  return Schema(std::move(fields));
}

std::string AcidTable::DeltaDir() const {
  return fs::JoinPath(options_.warehouse_dir, name_ + "_delta");
}

std::string AcidTable::DeltaPath(uint64_t txn) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "delta_%08llu.orc", static_cast<unsigned long long>(txn));
  return fs::JoinPath(DeltaDir(), buf);
}

Result<AcidTable::DeltaMap> AcidTable::LoadDeltas() const {
  DeltaMap map;
  uint64_t txn_index = 0;
  for (const std::string& path : delta_files_) {
    ++txn_index;
    DTL_ASSIGN_OR_RETURN(auto reader, orc::OrcReader::Open(fs_, path));
    // Full sequential read of the delta file — the cost Hive ACID pays that
    // DualTable's random-access attached table avoids.
    for (size_t s = 0; s < reader->num_stripes(); ++s) {
      DTL_ASSIGN_OR_RETURN(orc::StripeBatch batch, reader->ReadStripe(s));
      if (batch.columns.size() < 2) {
        return Status::Corruption("malformed delta schema in " + path);
      }
      for (size_t i = 0; i < batch.num_rows; ++i) {
        const Value& op = batch.at(0, i);
        const Value& rid = batch.at(1, i);
        if (op.is_null() || rid.is_null()) {
          return Status::Corruption("malformed delta row in " + path);
        }
        DeltaEntry entry;
        entry.txn = txn_index;
        entry.deleted = op.AsInt64() == kOpDelete;
        const uint64_t record_id = static_cast<uint64_t>(rid.AsInt64());
        if (!entry.deleted) {
          entry.row.reserve(batch.columns.size() - 2);
          for (size_t c = 2; c < batch.columns.size(); ++c) entry.row.push_back(batch.at(c, i));
        }
        auto existing = map.find(record_id);
        if (existing == map.end() || existing->second.txn <= entry.txn) {
          map[record_id] = std::move(entry);  // latest transaction wins
        }
      }
    }
  }
  return map;
}

Result<std::unique_ptr<table::RowIterator>> AcidTable::Scan(const table::ScanSpec& spec) {
  DTL_ASSIGN_OR_RETURN(DeltaMap deltas, LoadDeltas());
  table::ScanSpec base_spec = spec;
  if (!deltas.empty()) {
    // Updated records replace whole rows, so projection pruning must keep
    // every column that could come from a delta; read full rows.
    base_spec.projection.clear();
    base_spec.bounds.clear();
  }
  // Nothing admits ACID's base columns to the stripe cache, so every scan
  // decodes what it reads, as a merge-on-read over plain files does.
  DTL_ASSIGN_OR_RETURN(auto base_it, base_->NewBatchScanIterator(
                                         base_spec, /*apply_predicate=*/false,
                                         table::kDefaultBatchRows, orc::CacheFill::kNoAdmit));
  auto base_rows = std::make_unique<table::BatchToRowAdapter>(std::move(base_it), spec.meter);
  return std::unique_ptr<table::RowIterator>(
      new AcidRowIterator(std::move(base_rows), std::move(deltas), spec));
}

Status AcidTable::InsertRows(const std::vector<Row>& rows) {
  if (rows.empty()) return Status::OK();
  DTL_ASSIGN_OR_RETURN(auto writer, base_->NewFileWriter());
  for (const Row& row : rows) DTL_RETURN_NOT_OK(writer->Append(row));
  DTL_ASSIGN_OR_RETURN(auto info, writer->Close());
  return base_->RegisterFile(std::move(info));
}

Status AcidTable::OverwriteRows(const std::vector<Row>& rows) {
  dual::StagedFileWriter out(base_.get(), options_.rewrite_file_rows);
  for (const Row& row : rows) DTL_RETURN_NOT_OK(out.Append(row));
  DTL_ASSIGN_OR_RETURN(std::vector<dual::MasterFileInfo> files, out.Finish());
  DTL_RETURN_NOT_OK(base_->ReplaceAllFiles(std::move(files)));
  return DropDeltaFiles();
}

Status AcidTable::WriteDeltaFile(uint64_t txn, const std::vector<Row>& delta_rows) {
  // Stage + rename: the rename is the statement's commit point, so a crash
  // mid-write leaves no torn delta and the statement simply never happened.
  const std::string path = DeltaPath(txn);
  DTL_ASSIGN_OR_RETURN(auto writer,
                       orc::OrcWriter::Create(fs_, path + ".tmp", DeltaSchema(), txn,
                                              options_.writer_options));
  for (const Row& row : delta_rows) DTL_RETURN_NOT_OK(writer->Append(row));
  DTL_RETURN_NOT_OK(writer->Close());
  DTL_RETURN_NOT_OK(fs_->Rename(path + ".tmp", path));
  delta_files_.push_back(path);
  return Status::OK();
}

Result<table::DmlResult> AcidTable::Update(
    const table::ScanSpec& filter, const std::vector<table::Assignment>& assignments) {
  table::DmlResult result;
  result.plan = table::DmlPlan::kDelta;
  result.rows_scanned = base_->TotalRows();

  std::vector<Row> delta_rows;
  {
    table::ScanSpec scan = filter;  // full rows: deltas store whole records
    scan.projection.clear();
    DTL_ASSIGN_OR_RETURN(auto it, Scan(scan));
    while (it->Next()) {
      ++result.rows_matched;
      Row updated = it->row();
      for (const table::Assignment& a : assignments) updated[a.column] = a.compute(it->row());
      Row delta;
      delta.reserve(updated.size() + 2);
      delta.push_back(Value::Int64(kOpUpdate));
      delta.push_back(Value::Int64(static_cast<int64_t>(it->record_id())));
      delta.insert(delta.end(), updated.begin(), updated.end());
      delta_rows.push_back(std::move(delta));
    }
    DTL_RETURN_NOT_OK(it->status());
  }
  DTL_RETURN_NOT_OK(WriteDeltaFile(next_txn_++, delta_rows));
  return result;
}

Result<table::DmlResult> AcidTable::Delete(const table::ScanSpec& filter) {
  table::DmlResult result;
  result.plan = table::DmlPlan::kDelta;
  result.rows_scanned = base_->TotalRows();

  std::vector<Row> delta_rows;
  {
    table::ScanSpec scan = filter;
    scan.projection = filter.predicate_columns.empty() ? std::vector<size_t>{0}
                                                       : filter.predicate_columns;
    DTL_ASSIGN_OR_RETURN(auto it, Scan(scan));
    const size_t width = schema_.num_fields();
    while (it->Next()) {
      ++result.rows_matched;
      Row delta;
      delta.reserve(width + 2);
      delta.push_back(Value::Int64(kOpDelete));
      delta.push_back(Value::Int64(static_cast<int64_t>(it->record_id())));
      delta.insert(delta.end(), width, Value::Null());
      delta_rows.push_back(std::move(delta));
    }
    DTL_RETURN_NOT_OK(it->status());
  }
  DTL_RETURN_NOT_OK(WriteDeltaFile(next_txn_++, delta_rows));
  return result;
}

Status AcidTable::MinorCompact() {
  if (delta_files_.size() <= 1) return Status::OK();
  DTL_ASSIGN_OR_RETURN(DeltaMap deltas, LoadDeltas());
  std::vector<Row> merged;
  merged.reserve(deltas.size());
  const size_t width = schema_.num_fields();
  for (auto& [record_id, entry] : deltas) {
    Row delta;
    delta.push_back(Value::Int64(entry.deleted ? kOpDelete : kOpUpdate));
    delta.push_back(Value::Int64(static_cast<int64_t>(record_id)));
    if (entry.deleted) {
      delta.insert(delta.end(), width, Value::Null());
    } else {
      delta.insert(delta.end(), entry.row.begin(), entry.row.end());
    }
    merged.push_back(std::move(delta));
  }
  std::vector<std::string> old = std::move(delta_files_);
  delta_files_.clear();
  DTL_RETURN_NOT_OK(WriteDeltaFile(next_txn_++, merged));
  for (const std::string& path : old) DTL_RETURN_NOT_OK(fs_->Delete(path));
  return Status::OK();
}

Status AcidTable::MajorCompact() {
  if (delta_files_.empty()) return Status::OK();
  table::ScanSpec all;
  DTL_ASSIGN_OR_RETURN(auto it, Scan(all));
  dual::StagedFileWriter out(base_.get(), options_.rewrite_file_rows);
  while (it->Next()) DTL_RETURN_NOT_OK(out.Append(it->row()));
  DTL_RETURN_NOT_OK(it->status());
  DTL_ASSIGN_OR_RETURN(std::vector<dual::MasterFileInfo> files, out.Finish());
  DTL_RETURN_NOT_OK(base_->ReplaceAllFiles(std::move(files)));
  return DropDeltaFiles();
}

Status AcidTable::DropDeltaFiles() {
  std::vector<std::string> old = std::move(delta_files_);
  delta_files_.clear();
  for (const std::string& path : old) DTL_RETURN_NOT_OK(fs_->Delete(path));
  return Status::OK();
}

uint64_t AcidTable::DeltaBytes() const {
  uint64_t total = 0;
  for (const std::string& path : delta_files_) {
    auto size = fs_->FileSize(path);
    if (size.ok()) total += *size;
  }
  return total;
}

Status AcidTable::Drop() {
  DTL_RETURN_NOT_OK(base_->Drop());
  return fs_->DeleteRecursively(DeltaDir());
}

}  // namespace dtl::baseline
