// UNION READ (paper §III-C): merges the Master Table's sorted record-ID
// stream with the Attached Table's sorted modification stream. Because both
// streams are ordered by record ID, the merge is a single linear pass —
// "it only needs to read through and merge two sorted ID lists" (§V-B).
#pragma once

#include <memory>

#include "dualtable/attached_table.h"
#include "dualtable/master_table.h"
#include "table/storage_table.h"

namespace dtl::dual {

/// Vectorized UNION READ: consumes contiguous-record-ID batches from the
/// master scan and merges the sorted modification stream into them in place.
/// A batch with no modifications in its ID range passes through untouched —
/// zero-copy stripe views, no per-row work — which is the common case the
/// paper's §V-B "cheap merge" argument rests on. Deleted records are masked
/// via the selection vector; updates are decoded straight into copy-on-write
/// typed batch columns — a string patch appends to the owned copy's arena and
/// repoints one cell — and only into the columns the scan materializes (an
/// absent column reads NULL to every consumer, patched or not). A patch whose
/// kind does not match its column fails the scan with InvalidArgument, as the
/// ORC writer refuses such a cell. The predicate runs AFTER the merge, over
/// its own columns, so it sees current values.
class UnionReadBatchIterator : public table::BatchIterator {
 public:
  /// `master` must emit contiguous-record-ID batches (MasterScanBatchIterator
  /// does: each batch is a slice of one stripe of one file), must read
  /// `spec`'s required columns, and must NOT have applied the predicate
  /// already. `spec.meter` receives the merge's pass-through / patch / mask
  /// / drop counts (not counted when null).
  UnionReadBatchIterator(std::unique_ptr<MasterScanBatchIterator> master,
                         std::unique_ptr<ModificationScanner> attached,
                         const table::ScanSpec& spec, const Schema& schema);

  bool Next(table::RowBatch* batch) override;
  const Status& status() const override { return status_; }

  /// Pins an owner (the Snapshot this iterator reads from) for the iterator's
  /// lifetime so generation GC and KV keepalives outlive the scan.
  void AnchorSnapshot(std::shared_ptr<const void> anchor) {
    anchor_ = std::move(anchor);
  }

 private:
  std::shared_ptr<const void> anchor_;
  /// Patches/masks the batch with attached modifications; false on error.
  bool ApplyModifications(table::RowBatch* batch);

  std::unique_ptr<MasterScanBatchIterator> master_;
  std::unique_ptr<ModificationScanner> attached_;
  Schema schema_;
  table::ScanPredicate predicate_;
  std::vector<size_t> predicate_columns_;
  /// patched_[c]: column c is materialized by the scan, so updates to it
  /// are decoded into the batch.
  std::vector<bool> patched_;
  table::ScanMeter* meter_;

  bool attached_valid_ = false;
  bool attached_primed_ = false;
  /// Record-ID monotonicity watermark: master batches must arrive in
  /// nondecreasing ID order (checked with DTL_DCHECK in ApplyModifications).
  uint64_t next_expected_id_ = 0;
  /// Per-batch delete mask, reused across batches.
  std::vector<bool> deleted_;
  /// The patch being applied, decoded in place (strings point into the
  /// attached scanner's buffer).
  Value::Encoded patch_;
  Row scratch_;
  Status status_;
};

}  // namespace dtl::dual
