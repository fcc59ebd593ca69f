// The storage-agnostic table interface every system under test implements.
// The SQL executor, the benches, and the examples talk only to this.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "table/row_batch.h"
#include "table/spec.h"

namespace dtl::table {

/// Pull iterator over scan results in column-major batches: the one form
/// every storage scan takes. Producers fill the caller's batch (so one
/// batch's storage is reused across the scan) and never emit empty batches.
/// Rows are full schema width; columns outside the scan's required set are
/// absent and read NULL.
class BatchIterator {
 public:
  virtual ~BatchIterator() = default;

  /// Fills `*batch` with the next non-empty batch. False at end or error
  /// (check status()). The batch contents stay valid until the next call.
  virtual bool Next(RowBatch* batch) = 0;
  virtual const Status& status() const = 0;
};

/// A named table in some storage system.
class StorageTable {
 public:
  virtual ~StorageTable() = default;

  virtual const std::string& name() const = 0;
  virtual const Schema& schema() const = 0;

  /// Sequential scan honoring the spec (projection, predicate, pruning), in
  /// record-ID order; each batch is charged to `spec.meter` once.
  virtual Result<std::unique_ptr<BatchIterator>> ScanBatches(const ScanSpec& spec) = 0;

  /// Appends rows (INSERT INTO / LOAD).
  virtual Status InsertRows(const std::vector<Row>& rows) = 0;

  /// Replaces the table's entire contents (INSERT OVERWRITE TABLE).
  virtual Status OverwriteRows(const std::vector<Row>& rows) = 0;

  /// UPDATE <table> SET <assignments> WHERE <predicate>.
  virtual Result<DmlResult> Update(const ScanSpec& filter,
                                   const std::vector<Assignment>& assignments) = 0;

  /// DELETE FROM <table> WHERE <predicate>.
  virtual Result<DmlResult> Delete(const ScanSpec& filter) = 0;

  /// Total number of live rows (post-merge view): the sum of a one-column
  /// scan's batch sizes.
  Result<uint64_t> CountRows();

  /// Removes all backing storage.
  virtual Status Drop() = 0;
};

/// The push drain: hands `fn` each visible row of `it` in order, as one
/// reused full-width row (absent columns NULL) with its record ID (0 when the
/// producer set none). Stops at the first error `fn` returns. Outside the
/// operator tree's leaf (exec::ScanOperator), this is the one place rows are
/// made from batches.
Status ForEachRow(BatchIterator* it,
                  const std::function<Status(uint64_t record_id, Row* row)>& fn);

/// Drains a scan into memory (tests/examples; not for big tables).
Result<std::vector<Row>> CollectRows(StorageTable* table, const ScanSpec& spec);

}  // namespace dtl::table
