// Hive ACID baseline (HIVE-5317, compared conceptually in paper §V-C):
// unmodified data in a base table, each transaction appending a delta file
// IN THE SAME HDFS STORAGE FORMAT. The reader merge-sorts the base with
// every delta to build the up-to-date view; because deltas are plain files,
// they must be scanned sequentially in full — the structural difference from
// DualTable's randomly accessible HBase attached table.
//
// Delta row layout: [op BIGINT (0=update,1=delete)][record_id BIGINT][.. full
// base-schema record ..] — Hive ACID "puts the whole updated record into
// delta tables, even if only one cell is changed".
#pragma once

#include <map>
#include <memory>
#include <string>

#include "dualtable/master_table.h"
#include "dualtable/metadata.h"
#include "fs/filesystem.h"
#include "table/storage_table.h"

namespace dtl::baseline {

struct AcidTableOptions {
  orc::WriterOptions writer_options;
  std::string warehouse_dir = "/warehouse";
  uint64_t rewrite_file_rows = 1ull << 20;
};

class AcidTable : public table::StorageTable {
 public:
  static Result<std::shared_ptr<AcidTable>> Open(fs::SimFileSystem* fs,
                                                 dual::MetadataTable* metadata,
                                                 const std::string& name, Schema schema,
                                                 AcidTableOptions options = {});

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  Result<std::unique_ptr<table::RowIterator>> Scan(const table::ScanSpec& spec) override;
  Status InsertRows(const std::vector<Row>& rows) override;
  Status OverwriteRows(const std::vector<Row>& rows) override;

  /// Writes one new delta file holding the full updated records.
  Result<table::DmlResult> Update(const table::ScanSpec& filter,
                                  const std::vector<table::Assignment>& assignments) override;

  /// Writes one new delta file holding delete records.
  Result<table::DmlResult> Delete(const table::ScanSpec& filter) override;

  Status Drop() override;

  /// Minor compaction: merges every delta file into a single delta file.
  Status MinorCompact();

  /// Major compaction: folds all deltas into a new base generation.
  Status MajorCompact();

  size_t NumDeltaFiles() const { return delta_files_.size(); }
  uint64_t DeltaBytes() const;

 private:
  struct DeltaEntry {
    uint64_t txn = 0;
    bool deleted = false;
    Row row;
  };
  using DeltaMap = std::map<uint64_t, DeltaEntry>;  // record_id -> latest entry

  AcidTable(fs::SimFileSystem* fs, std::string name, Schema schema,
            AcidTableOptions options)
      : fs_(fs), name_(std::move(name)), schema_(std::move(schema)),
        options_(std::move(options)) {}

  Schema DeltaSchema() const;
  std::string DeltaDir() const;
  std::string DeltaPath(uint64_t txn) const;

  /// Sequentially scans every delta file and resolves latest-txn-wins.
  Result<DeltaMap> LoadDeltas() const;

  /// Appends delta rows as transaction `txn`.
  Status WriteDeltaFile(uint64_t txn, const std::vector<Row>& delta_rows);

  /// Deletes every delta file once a new base generation has folded them.
  Status DropDeltaFiles();

  fs::SimFileSystem* fs_;
  std::string name_;
  Schema schema_;
  AcidTableOptions options_;
  std::unique_ptr<dual::MasterTable> base_;
  std::vector<std::string> delta_files_;  // ascending txn order
  uint64_t next_txn_ = 1;

  friend class AcidRowIterator;
};

}  // namespace dtl::baseline
