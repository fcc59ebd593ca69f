#include "table/row_batch.h"

#include <algorithm>

namespace dtl::table {

ColumnVector& ColumnVector::operator=(const ColumnVector& other) {
  if (this == &other) return *this;
  if (!other.owned_active_) {
    data_ = other.data_;
    offset_ = other.offset_;
    size_ = other.size_;
    owned_active_ = false;
    return *this;
  }
  if (owned_ == nullptr) owned_ = std::make_unique<ColumnData>();
  *owned_ = *other.owned_;
  data_ = owned_.get();
  offset_ = 0;
  size_ = other.size_;
  owned_active_ = true;
  return *this;
}

void ColumnVector::SetOwned(ColumnData cells) {
  if (owned_ == nullptr) owned_ = std::make_unique<ColumnData>();
  *owned_ = std::move(cells);
  data_ = owned_.get();
  offset_ = 0;
  size_ = owned_->size;
  owned_active_ = true;
}

ColumnData* ColumnVector::MakeMutable(DataType type, size_t size) {
  if (owned_active_) return owned_.get();
  if (owned_ == nullptr) owned_ = std::make_unique<ColumnData>();
  if (data_ == nullptr) {
    owned_->ResetNulls(type, size);
    size_ = size;
  } else {
    owned_->CopyFrom(*data_, offset_, size_);
  }
  data_ = owned_.get();
  offset_ = 0;
  owned_active_ = true;
  return owned_.get();
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
  for (size_t c = 0; c < num_columns_; ++c) columns_[c].AssignTo(phys, &(*row)[c]);
}

bool RowBatch::Passes(const RowPredicateFn& pred, std::span<const size_t> columns,
                      size_t phys, Row* scratch) const {
  if (columns.empty()) {
    MaterializePhysical(phys, scratch);
    return pred(*scratch);
  }
  for (size_t c : columns) columns_[c].AssignTo(phys, &(*scratch)[c]);
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

size_t RowBatch::FilterSelected(const ScanPredicate& pred, Row* scratch,
                                std::span<const size_t> columns) {
  const size_t before = size();
  if (before == 0) return 0;
#ifndef NDEBUG
  std::vector<uint32_t> candidates(before);
  for (size_t i = 0; i < before; ++i) candidates[i] = static_cast<uint32_t>(row_index(i));
#endif
  const bool had_selection = has_selection_;
  if (!had_selection) {
    selection_.resize(num_rows_);
    for (size_t i = 0; i < num_rows_; ++i) selection_[i] = static_cast<uint32_t>(i);
  }
  // Kernels first, column at a time; each narrows the selection in place.
  size_t n = selection_.size();
  for (const ScanTerm& term : pred.terms()) {
    if (n == 0) break;
    n = term.Filter(*this, selection_.data(), n);
  }
  if (pred.residual() && n > 0) {
    // Cells outside `columns` are never written below, so they read NULL.
    if (!columns.empty()) scratch->assign(num_columns_, Value::Null());
    size_t kept = 0;
    for (size_t k = 0; k < n; ++k) {
      if (Passes(pred.residual(), columns, selection_[k], scratch)) {
        selection_[kept++] = selection_[k];
      }
    }
    n = kept;
  }
  selection_.resize(n);
  // Everything survived a batch with no selection: leave it without one.
  has_selection_ = had_selection || n < num_rows_;
  if (!has_selection_) selection_.clear();
#ifndef NDEBUG
  // The kernels and the residual must keep exactly the rows the predicate's
  // row form accepts on the full-width row.
  Row full;
  for (uint32_t phys : candidates) {
    MaterializePhysical(phys, &full);
    const bool kept = !has_selection_ || std::binary_search(selection_.begin(),
                                                            selection_.end(), phys);
    DTL_DCHECK_EQ(pred(full), kept);
  }
#endif
  return before - size();
}

}  // namespace dtl::table
