// The storage-agnostic table interface every system under test implements.
// The SQL executor, the benches, and the examples talk only to this.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "table/row_batch.h"
#include "table/spec.h"

namespace dtl::table {

/// Pull iterator over scan results. Rows are full schema width; columns
/// outside the scan's required set are NULL.
class RowIterator {
 public:
  virtual ~RowIterator() = default;

  /// Advances; false at end or error (check status()).
  virtual bool Next() = 0;
  virtual const Row& row() const = 0;
  /// DualTable record ID of the current row; 0 for systems without one.
  virtual uint64_t record_id() const { return 0; }
  virtual const Status& status() const = 0;
};

/// Pull iterator over scan results in column-major batches — the vectorized
/// sibling of RowIterator. Producers fill the caller's batch (so one batch's
/// storage is reused across the scan) and never emit empty batches.
class BatchIterator {
 public:
  virtual ~BatchIterator() = default;

  /// Fills `*batch` with the next non-empty batch. False at end or error
  /// (check status()). The batch contents stay valid until the next call.
  virtual bool Next(RowBatch* batch) = 0;
  virtual const Status& status() const = 0;
};

class ScanMeter;

/// Presents a BatchIterator as a RowIterator: materializes one (reused) row
/// at a time. This is how row-at-a-time consumers (joins, aggregates, DML
/// scans) ride the batch read path unchanged. Each row is charged to
/// `meter` as materialized (not counted when null).
class BatchToRowAdapter : public RowIterator {
 public:
  explicit BatchToRowAdapter(std::unique_ptr<BatchIterator> batches,
                             ScanMeter* meter = nullptr)
      : batches_(std::move(batches)), meter_(meter) {}

  bool Next() override;
  const Row& row() const override { return row_; }
  uint64_t record_id() const override { return record_id_; }
  const Status& status() const override { return batches_->status(); }

 private:
  std::unique_ptr<BatchIterator> batches_;
  ScanMeter* meter_;
  RowBatch batch_;
  size_t index_ = 0;
  bool loaded_ = false;
  Row row_;
  uint64_t record_id_ = 0;
};

/// Presents a RowIterator as a BatchIterator by buffering up to `capacity`
/// rows per batch (owned typed columns, each of the kind of its first
/// non-NULL cell; a column mixing kinds fails the scan). Default
/// ScanBatches() for storage systems without a native batch path. Each
/// batch is charged to `meter` (not counted when null).
class RowToBatchAdapter : public BatchIterator {
 public:
  RowToBatchAdapter(std::unique_ptr<RowIterator> rows, size_t num_columns,
                    size_t capacity = kDefaultBatchRows, ScanMeter* meter = nullptr)
      : rows_(std::move(rows)), num_columns_(num_columns), capacity_(capacity),
        meter_(meter) {}

  bool Next(RowBatch* batch) override;
  const Status& status() const override {
    return status_.ok() ? rows_->status() : status_;
  }

 private:
  std::unique_ptr<RowIterator> rows_;
  size_t num_columns_;
  size_t capacity_;
  ScanMeter* meter_;
  Status status_;
};

/// A named table in some storage system.
class StorageTable {
 public:
  virtual ~StorageTable() = default;

  virtual const std::string& name() const = 0;
  virtual const Schema& schema() const = 0;

  /// Sequential scan honoring the spec (projection, predicate, pruning).
  virtual Result<std::unique_ptr<RowIterator>> Scan(const ScanSpec& spec) = 0;

  /// Vectorized sequential scan. Default: the row scan repackaged through a
  /// RowToBatchAdapter; storage systems with a native batch path override.
  virtual Result<std::unique_ptr<BatchIterator>> ScanBatches(const ScanSpec& spec);

  /// Appends rows (INSERT INTO / LOAD).
  virtual Status InsertRows(const std::vector<Row>& rows) = 0;

  /// Replaces the table's entire contents (INSERT OVERWRITE TABLE).
  virtual Status OverwriteRows(const std::vector<Row>& rows) = 0;

  /// UPDATE <table> SET <assignments> WHERE <predicate>.
  virtual Result<DmlResult> Update(const ScanSpec& filter,
                                   const std::vector<Assignment>& assignments) = 0;

  /// DELETE FROM <table> WHERE <predicate>.
  virtual Result<DmlResult> Delete(const ScanSpec& filter) = 0;

  /// Total number of live rows (post-merge view).
  virtual Result<uint64_t> CountRows();

  /// Removes all backing storage.
  virtual Status Drop() = 0;
};

/// Drains a scan into memory (tests/examples; not for big tables).
Result<std::vector<Row>> CollectRows(StorageTable* table, const ScanSpec& spec);

/// Drains a batch iterator into materialized rows (tests/equivalence).
Result<std::vector<Row>> CollectBatchRows(BatchIterator* it);

}  // namespace dtl::table
