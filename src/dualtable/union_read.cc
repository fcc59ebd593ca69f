#include "dualtable/union_read.h"

#include "common/check.h"
#include "table/scan_stats.h"

namespace dtl::dual {

UnionReadBatchIterator::UnionReadBatchIterator(
    std::unique_ptr<MasterScanBatchIterator> master,
    std::unique_ptr<ModificationScanner> attached, const table::ScanSpec& spec,
    const Schema& schema)
    : master_(std::move(master)),
      attached_(std::move(attached)),
      schema_(schema),
      predicate_(spec.predicate),
      predicate_columns_(spec.predicate_columns),
      patched_(schema.num_fields(), false),
      meter_(spec.meter) {
  for (size_t c : spec.RequiredColumns(schema.num_fields())) patched_[c] = true;
}

bool UnionReadBatchIterator::ApplyModifications(table::RowBatch* batch) {
  if (!attached_primed_) {
    attached_valid_ = attached_->Next();
    attached_primed_ = true;
    if (!attached_->status().ok()) {
      status_ = attached_->status();
      return false;
    }
  }
  const size_t n = batch->num_rows();
  // The whole merge rests on two orderings: master batches carry contiguous
  // record IDs (each batch is a slice of one stripe) and arrive in
  // nondecreasing ID order, so the attached stream can be consumed in one
  // forward pass.
  DTL_CHECK(batch->contiguous_record_ids());
  const uint64_t first_id = batch->record_id(0);
  const uint64_t last_id = first_id + (n - 1);
  DTL_DCHECK_GE(first_id, next_expected_id_);
  next_expected_id_ = last_id + 1;
  while (attached_valid_ && attached_->modification().record_id < first_id) {
    attached_valid_ = attached_->Next();
  }
  if (!attached_->status().ok()) {
    status_ = attached_->status();
    return false;
  }
  if (!attached_valid_ || attached_->modification().record_id > last_id) {
    // No modification touches this batch: the stripe views flow through
    // untouched. This is the whole point of the batch merge.
    if (meter_ != nullptr) meter_->AddPassthroughBatch();
    return true;
  }

  size_t num_deleted = 0;
  size_t num_patched = 0;
  while (attached_valid_ && attached_->modification().record_id <= last_id) {
    const RecordModification& mod = attached_->modification();
    const size_t idx = static_cast<size_t>(mod.record_id - first_id);
    if (mod.deleted) {
      if (num_deleted == 0) deleted_.assign(n, false);
      if (!deleted_[idx]) {
        deleted_[idx] = true;
        ++num_deleted;
      }
    } else {
      bool touched = false;
      for (size_t u = 0; u < mod.num_updates(); ++u) {
        const uint32_t column = mod.column(u);
        if (column >= patched_.size() || !patched_[column]) continue;
        Slice bytes = mod.value_bytes(u);
        status_ = Value::DecodeEncoded(&bytes, &patch_);
        if (!status_.ok()) return false;
        const Field& field = schema_.field(column);
        if (!batch->column(column).MakeMutable(field.type, n)->Set(idx, patch_)) {
          status_ = Status::InvalidArgument(
              "attached patch of column " + field.name + " of type " +
              DataTypeName(field.type) + " holds a " + DataTypeName(patch_.kind) +
              " value");
          return false;
        }
        touched = true;
      }
      if (touched) ++num_patched;
    }
    attached_valid_ = attached_->Next();
  }
  if (!attached_->status().ok()) {
    status_ = attached_->status();
    return false;
  }

  if (num_deleted > 0) {
    std::vector<uint32_t> selection;
    selection.reserve(n - num_deleted);
    for (size_t i = 0; i < n; ++i) {
      if (!deleted_[i]) selection.push_back(static_cast<uint32_t>(i));
    }
    batch->SetSelection(std::move(selection));
    if (meter_ != nullptr) meter_->AddMaskedRows(num_deleted);
  }
  if (num_patched > 0 && meter_ != nullptr) meter_->AddPatchedRows(num_patched);
  return true;
}

bool UnionReadBatchIterator::Next(table::RowBatch* batch) {
  if (!status_.ok()) return false;
  while (master_->Next(batch)) {
    if (batch->num_rows() == 0) continue;
    if (!ApplyModifications(batch)) return false;
    if (predicate_) {
      const size_t dropped = batch->FilterSelected(predicate_, &scratch_, predicate_columns_);
      if (meter_ != nullptr) meter_->AddPredicateDrops(dropped);
    }
    if (batch->size() == 0) continue;  // every row deleted or filtered out
    return true;
  }
  if (!master_->status().ok()) status_ = master_->status();
  return false;
}

}  // namespace dtl::dual
