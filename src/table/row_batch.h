// Column-major row batches: the unit of data movement on the vectorized
// read path (ORC stripe -> master scan -> UNION READ -> executor). A batch
// holds up to ~1024 rows as per-column typed cells (table/column_data.h)
// plus a per-row record-ID column and an optional selection vector, so
// filters and delete masks compress the visible row set without moving any
// cell data.
//
// Columns come in three states:
//   - view:   a zero-copy window onto typed cells someone else owns
//             (typically a decoded ORC stripe column, kept alive via the
//             batch's anchor);
//   - owned:  a private copy, created lazily when a consumer needs to patch
//             cells in place (UNION READ overlaying attached updates);
//   - absent: not materialized by the scan; reads as NULL (matching the
//             row-path convention that non-required columns are NULL).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/schema.h"
#include "common/value.h"
#include "table/column_data.h"
#include "table/spec.h"

namespace dtl::table {

/// Rows per batch on the vectorized read path. Large enough to amortize
/// per-batch bookkeeping, small enough to stay cache-resident.
inline constexpr size_t kDefaultBatchRows = 1024;

/// One column of a RowBatch; see file comment for the three states. Cell i
/// of the column is cell `offset() + i` of data().
class ColumnVector {
 public:
  ColumnVector() = default;
  ColumnVector(const ColumnVector& other) { *this = other; }
  ColumnVector& operator=(const ColumnVector& other);
  ColumnVector(ColumnVector&&) noexcept = default;
  ColumnVector& operator=(ColumnVector&&) noexcept = default;

  /// Back to the absent state (reads as NULL). Owned buffers keep their
  /// capacity for the next patch.
  void Reset() {
    data_ = nullptr;
    offset_ = 0;
    size_ = 0;
    owned_active_ = false;
  }

  /// Zero-copy: cells [offset, offset + size) of `data`, owned elsewhere.
  void SetView(const ColumnData* data, size_t offset, size_t size) {
    DTL_DCHECK_LE(offset + size, data->size);
    data_ = data;
    offset_ = offset;
    size_ = size;
    owned_active_ = false;
  }

  /// Zero-copy: a view of whatever `src` reads now (its view or its owned
  /// cells); valid while `src` is neither patched nor reset.
  void SetViewOf(const ColumnVector& src) {
    if (src.absent()) {
      Reset();
    } else {
      SetView(src.data_, src.offset_, src.size_);
    }
  }

  /// Takes ownership of the cells.
  void SetOwned(ColumnData cells);

  bool absent() const { return data_ == nullptr; }
  bool is_view() const { return data_ != nullptr && !owned_active_; }
  size_t size() const { return size_; }
  /// The cells' type; kNull for an absent column.
  DataType type() const { return data_ == nullptr ? DataType::kNull : data_->type; }
  /// The cells this column reads (nullptr when absent), from offset().
  const ColumnData* data() const { return data_; }
  size_t offset() const { return offset_; }

  /// Cell `i` (physical row index) as a Value; NULL for absent columns.
  /// Row consumers only: kernels read the typed cells.
  Value at(size_t i) const {
    if (data_ == nullptr) return Value::Null();
    DTL_DCHECK_LT(i, size_);
    return data_->ValueAt(offset_ + i);
  }
  /// Cell `i` into `*out`, reusing the buffer of a string `*out` holds.
  void AssignTo(size_t i, Value* out) const {
    if (data_ == nullptr) {
      *out = Value::Null();
      return;
    }
    DTL_DCHECK_LT(i, size_);
    data_->AssignTo(offset_ + i, out);
  }

  /// Copy-on-write: after this call the column owns its cells (offset 0),
  /// which may be patched through the returned pointer. A view copies its
  /// window; an absent column materializes as `size` NULLs of type `type`.
  ColumnData* MakeMutable(DataType type, size_t size);

 private:
  const ColumnData* data_ = nullptr;
  size_t offset_ = 0;
  size_t size_ = 0;
  bool owned_active_ = false;
  /// Heap-held so data_ stays valid when the vector moves; kept across
  /// Reset() so a patched batch reuses its buffers.
  std::unique_ptr<ColumnData> owned_;
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

  /// Filters the visible rows through `pred`: each compiled term runs
  /// column-at-a-time over the typed columns and the selection vector, then
  /// the residual closure tests each survivor. For the residual a candidate
  /// is copied into `*scratch` (reused, full width), but only its `columns`
  /// — the predicate's own, ScanSpec::predicate_columns — are copied; the
  /// other cells read NULL. An empty `columns` copies every column. Debug
  /// builds also test each candidate's full-width row against the
  /// predicate's row form and check the verdicts agree, which catches a
  /// kernel that disagrees with its closure and a caller whose list misses a
  /// column its residual reads. Compresses the selection in place; when
  /// nothing is dropped and no selection existed, none is created (the
  /// pass-through fast path). Returns the number dropped, for the caller to
  /// charge to its scan's meter.
  size_t FilterSelected(const ScanPredicate& pred, Row* scratch,
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
  Value ValueAt(size_t c, size_t i) const { return columns_[c].at(row_index(i)); }

  /// Copies visible row `i` into `*row` as a full-width row (absent columns
  /// NULL), reusing the row's storage: string cells are assigned in place.
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
  /// The residual's verdict on physical row `phys`.
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
