// Column-major row batches: the unit of data movement on the vectorized
// read path (ORC stripe -> master scan -> UNION READ -> executor). A batch
// holds up to ~1024 rows as per-column value vectors plus a per-row record-ID
// column and an optional selection vector, so filters and delete masks
// compress the visible row set without moving any cell data.
//
// Columns come in three states:
//   - view:   a zero-copy pointer into storage someone else owns (typically a
//             decoded ORC StripeBatch, kept alive via the batch's anchor);
//   - owned:  a private copy, created lazily when a consumer needs to patch
//             cells in place (UNION READ overlaying attached updates);
//   - absent: not materialized by the scan; reads as NULL (matching the
//             row-path convention that non-required columns are NULL).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/schema.h"
#include "common/value.h"
#include "table/spec.h"

namespace dtl::table {

/// Rows per batch on the vectorized read path. Large enough to amortize
/// per-batch bookkeeping, small enough to stay cache-resident.
inline constexpr size_t kDefaultBatchRows = 1024;

/// One column of a RowBatch; see file comment for the three states.
class ColumnVector {
 public:
  ColumnVector() = default;

  /// Back to the absent state (reads as NULL).
  void Reset() {
    view_ = nullptr;
    size_ = 0;
    absent_ = true;
    owned_.clear();
  }

  /// Zero-copy: points at `size` values owned elsewhere.
  void SetView(const Value* data, size_t size) {
    view_ = data;
    size_ = size;
    absent_ = false;
    owned_.clear();
  }

  /// Takes ownership of the values.
  void SetOwned(std::vector<Value> values) {
    owned_ = std::move(values);
    view_ = owned_.data();
    size_ = owned_.size();
    absent_ = false;
  }

  bool absent() const { return absent_; }
  bool is_view() const { return !absent_ && owned_.empty(); }
  size_t size() const { return size_; }

  /// Cell `i` (physical row index); NULL for absent columns.
  const Value& at(size_t i) const {
    if (absent_) return NullValue();
    DTL_DCHECK_LT(i, size_);
    return view_[i];
  }

  /// Raw cell storage (view or owned); nullptr for absent columns.
  const Value* data() const { return absent_ ? nullptr : view_; }

  /// Copy-on-write: after this call the column owns its cells and they may
  /// be patched through the returned pointer. Absent columns materialize as
  /// `size` NULLs.
  Value* MakeMutable(size_t size);

  static const Value& NullValue();

 private:
  const Value* view_ = nullptr;
  size_t size_ = 0;
  bool absent_ = true;
  std::vector<Value> owned_;
};

/// A column-major batch of rows. Physical rows are [0, num_rows); consumers
/// see the *selected* rows — all of them until a selection vector is set.
class RowBatch {
 public:
  RowBatch() = default;

  /// Reinitializes to `num_rows` physical rows over `num_columns` absent
  /// columns, no selection, no record IDs, no anchor. Reuses storage.
  void Reset(size_t num_columns, size_t num_rows);

  size_t num_columns() const { return num_columns_; }
  /// Physical rows (before selection).
  size_t num_rows() const { return num_rows_; }
  /// Visible rows (after selection).
  size_t size() const { return has_selection_ ? selection_.size() : num_rows_; }
  bool empty() const { return size() == 0; }

  ColumnVector& column(size_t c) {
    DTL_DCHECK_LT(c, num_columns_);
    return columns_[c];
  }
  const ColumnVector& column(size_t c) const {
    DTL_DCHECK_LT(c, num_columns_);
    return columns_[c];
  }

  // --- selection vector ---
  bool has_selection() const { return has_selection_; }
  /// Physical row index of visible row `i`.
  size_t row_index(size_t i) const {
    DTL_DCHECK_LT(i, size());
    return has_selection_ ? selection_[i] : i;
  }
  /// Installs an explicit selection (ascending physical indices < num_rows).
  void SetSelection(std::vector<uint32_t> selection) {
#ifndef NDEBUG
    for (size_t i = 0; i < selection.size(); ++i) {
      DTL_DCHECK_LT(selection[i], num_rows_);
      if (i > 0) DTL_DCHECK_LT(selection[i - 1], selection[i]);
    }
#endif
    selection_ = std::move(selection);
    has_selection_ = true;
  }
  void ClearSelection() {
    has_selection_ = false;
    selection_.clear();
  }

  /// Keeps only the first `n` visible rows (LIMIT).
  void TruncateSelection(size_t n);

  /// Filters the visible rows through `pred`. Each candidate is copied into
  /// `*scratch` (reused, full width), but only its `columns` — the
  /// predicate's own, ScanSpec::predicate_columns — are copied; the other
  /// cells read NULL. An empty `columns` copies every column. Debug builds
  /// also test the full-width row and check that both verdicts agree, which
  /// catches a caller whose list misses a column its predicate reads.
  /// Compresses the selection in place; when nothing is dropped and no
  /// selection existed, none is created (the pass-through fast path).
  /// Returns the number dropped. Drops are charged to `meter`, or to the
  /// global meter when null.
  size_t FilterSelected(const RowPredicateFn& pred, Row* scratch,
                        ScanMeter* meter = nullptr,
                        std::span<const size_t> columns = {});

  // --- record IDs ---
  /// Record IDs ascending contiguously from `first` (a master-file slice).
  void SetContiguousRecordIds(uint64_t first) {
    contiguous_ids_ = true;
    first_record_id_ = first;
    record_ids_.clear();
  }
  /// Explicit per-physical-row record IDs.
  void SetRecordIds(std::vector<uint64_t> ids) {
    contiguous_ids_ = false;
    record_ids_ = std::move(ids);
  }
  bool contiguous_record_ids() const { return contiguous_ids_; }
  bool has_record_ids() const { return contiguous_ids_ || !record_ids_.empty(); }
  /// Record ID of visible row `i` (0 when the producer set none).
  uint64_t record_id(size_t i) const {
    const size_t phys = row_index(i);
    if (contiguous_ids_) return first_record_id_ + phys;
    return phys < record_ids_.size() ? record_ids_[phys] : 0;
  }

  /// Cell (`c`, visible row `i`).
  const Value& ValueAt(size_t c, size_t i) const { return columns_[c].at(row_index(i)); }

  /// Copies visible row `i` into `*row` as a full-width row (absent columns
  /// NULL), reusing the row's storage.
  void MaterializeRow(size_t i, Row* row) const {
    MaterializePhysical(row_index(i), row);
  }

  /// Holds the backing storage of view columns alive (e.g. the decoded
  /// stripe). Cleared by Reset().
  void SetAnchor(std::shared_ptr<const void> anchor) { anchor_ = std::move(anchor); }
  const std::shared_ptr<const void>& anchor() const { return anchor_; }

 private:
  /// MaterializeRow by physical row index.
  void MaterializePhysical(size_t phys, Row* row) const;
  /// FilterSelected's verdict on physical row `phys`.
  bool Passes(const RowPredicateFn& pred, std::span<const size_t> columns, size_t phys,
              Row* scratch) const;

  size_t num_columns_ = 0;
  size_t num_rows_ = 0;
  std::vector<ColumnVector> columns_;
  bool has_selection_ = false;
  std::vector<uint32_t> selection_;
  bool contiguous_ids_ = false;
  uint64_t first_record_id_ = 0;
  std::vector<uint64_t> record_ids_;
  std::shared_ptr<const void> anchor_;
};

}  // namespace dtl::table
