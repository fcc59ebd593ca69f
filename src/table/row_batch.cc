#include "table/row_batch.h"

#include "table/scan_stats.h"

namespace dtl::table {

const Value& ColumnVector::NullValue() {
  static const Value kNull = Value::Null();
  return kNull;
}

Value* ColumnVector::MakeMutable(size_t size) {
  if (!absent_ && !owned_.empty()) return owned_.data();
  if (absent_) {
    owned_.assign(size, Value::Null());
    size_ = size;
  } else {
    owned_.assign(view_, view_ + size_);
  }
  absent_ = false;
  view_ = owned_.data();
  return owned_.data();
}

void RowBatch::Reset(size_t num_columns, size_t num_rows) {
  num_columns_ = num_columns;
  num_rows_ = num_rows;
  if (columns_.size() < num_columns) columns_.resize(num_columns);
  for (size_t c = 0; c < num_columns; ++c) columns_[c].Reset();
  has_selection_ = false;
  selection_.clear();
  contiguous_ids_ = false;
  first_record_id_ = 0;
  record_ids_.clear();
  anchor_.reset();
}

void RowBatch::TruncateSelection(size_t n) {
  if (n >= size()) return;
  if (!has_selection_) {
    selection_.resize(n);
    for (size_t i = 0; i < n; ++i) selection_[i] = static_cast<uint32_t>(i);
    has_selection_ = true;
  } else {
    selection_.resize(n);
  }
}

void RowBatch::MaterializePhysical(size_t phys, Row* row) const {
  row->resize(num_columns_);
  for (size_t c = 0; c < num_columns_; ++c) (*row)[c] = columns_[c].at(phys);
}

bool RowBatch::Passes(const RowPredicateFn& pred, std::span<const size_t> columns,
                      size_t phys, Row* scratch) const {
  if (columns.empty()) {
    MaterializePhysical(phys, scratch);
    return pred(*scratch);
  }
  for (size_t c : columns) (*scratch)[c] = columns_[c].at(phys);
  const bool verdict = pred(*scratch);
#ifndef NDEBUG
  // A predicate that reads a column outside its list sees NULL there and can
  // decide differently from the full-width row: the caller's list is short.
  Row full;
  MaterializePhysical(phys, &full);
  DTL_DCHECK_EQ(pred(full), verdict);
#endif
  return verdict;
}

size_t RowBatch::FilterSelected(const RowPredicateFn& pred, Row* scratch,
                                ScanMeter* meter, std::span<const size_t> columns) {
  const size_t before = size();
  if (before == 0) return 0;
  // Cells outside `columns` are never written below, so they read NULL.
  if (!columns.empty()) scratch->assign(num_columns_, Value::Null());
  if (!has_selection_) {
    // Fast path: scan for the first drop before touching the selection.
    size_t first_drop = 0;
    for (; first_drop < num_rows_; ++first_drop) {
      if (!Passes(pred, columns, first_drop, scratch)) break;
    }
    if (first_drop == num_rows_) return 0;  // everything survives, no selection
    selection_.clear();
    selection_.reserve(num_rows_);
    for (size_t i = 0; i < first_drop; ++i) selection_.push_back(static_cast<uint32_t>(i));
    for (size_t i = first_drop + 1; i < num_rows_; ++i) {
      if (Passes(pred, columns, i, scratch)) selection_.push_back(static_cast<uint32_t>(i));
    }
    has_selection_ = true;
  } else {
    size_t out = 0;
    for (size_t i = 0; i < selection_.size(); ++i) {
      if (Passes(pred, columns, selection_[i], scratch)) selection_[out++] = selection_[i];
    }
    selection_.resize(out);
  }
  const size_t dropped = before - size();
  (meter != nullptr ? *meter : GlobalScanMeter()).AddPredicateDrops(dropped);
  return dropped;
}

}  // namespace dtl::table
