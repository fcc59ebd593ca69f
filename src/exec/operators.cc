#include "exec/operators.h"

#include <algorithm>

namespace dtl::exec {

// --- HashJoinOperator ------------------------------------------------------------

size_t HashJoinOperator::KeyHash::operator()(const Row& key) const {
  size_t h = 0;
  for (const Value& v : key) h = h * 1315423911u + v.HashCode();
  return h;
}

bool HashJoinOperator::KeyEq::operator()(const Row& a, const Row& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

HashJoinOperator::HashJoinOperator(std::unique_ptr<Operator> probe,
                                   std::unique_ptr<Operator> build,
                                   std::vector<ValueFn> probe_keys,
                                   std::vector<ValueFn> build_keys, size_t build_width,
                                   Kind kind)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)),
      build_width_(build_width),
      kind_(kind) {}

Row HashJoinOperator::MakeKey(const Row& row, const std::vector<ValueFn>& fns) const {
  Row key;
  key.reserve(fns.size());
  for (const auto& fn : fns) key.push_back(fn(row));
  return key;
}

Status HashJoinOperator::BuildTable() {
  while (build_->Next()) {
    Row key = MakeKey(build_->row(), build_keys_);
    // SQL join semantics: NULL keys never match.
    bool has_null = std::any_of(key.begin(), key.end(),
                                [](const Value& v) { return v.is_null(); });
    if (has_null) continue;
    hash_[std::move(key)].push_back(build_->row());
  }
  DTL_RETURN_NOT_OK(build_->status());
  built_ = true;
  return Status::OK();
}

bool HashJoinOperator::Next() {
  if (!built_) {
    status_ = BuildTable();
    if (!status_.ok()) return false;
  }
  while (true) {
    if (matches_ != nullptr && match_index_ < matches_->size()) {
      const Row& probe_row = probe_->row();
      const Row& build_row = (*matches_)[match_index_++];
      out_ = probe_row;
      out_.insert(out_.end(), build_row.begin(), build_row.end());
      return true;
    }
    matches_ = nullptr;
    if (!probe_->Next()) {
      status_ = probe_->status();
      return false;
    }
    Row key = MakeKey(probe_->row(), probe_keys_);
    bool has_null = std::any_of(key.begin(), key.end(),
                                [](const Value& v) { return v.is_null(); });
    auto it = has_null ? hash_.end() : hash_.find(key);
    if (it != hash_.end()) {
      matches_ = &it->second;
      match_index_ = 0;
      continue;
    }
    if (kind_ == Kind::kLeftOuter) {
      out_ = probe_->row();
      out_.insert(out_.end(), build_width_, Value::Null());
      return true;
    }
  }
}

// --- AggState ----------------------------------------------------------------------

Status AggState::Update(const AggSpec& spec, const Row& in) {
  if (spec.kind == AggKind::kCountStar) {
    ++count;
    return Status::OK();
  }
  Value v = spec.input(in);
  if (v.is_null()) return Status::OK();  // SQL: aggregates skip NULLs
  switch (spec.kind) {
    case AggKind::kCount:
      ++count;
      break;
    case AggKind::kSum:
    case AggKind::kAvg: {
      ++count;
      if (v.is_double()) {
        sum_is_double = true;
        sum += v.AsDouble();
      } else if (v.is_int64()) {
        isum += v.AsInt64();
        sum += static_cast<double>(v.AsInt64());
      } else {
        return Status::InvalidArgument("SUM/AVG over non-numeric value");
      }
      break;
    }
    case AggKind::kMin:
      if (!seen || v.Compare(min) < 0) min = v;
      seen = true;
      break;
    case AggKind::kMax:
      if (!seen || v.Compare(max) > 0) max = v;
      seen = true;
      break;
    case AggKind::kCountStar:
      break;
  }
  return Status::OK();
}

void AggState::Merge(AggKind kind, const AggState& other) {
  count += other.count;
  // SUM/AVG partials: the double lane accumulates everything, the int lane
  // only ints; promotion sticks if ANY worker saw a double — identical to
  // the order the serial loop would have seen.
  sum += other.sum;
  isum += other.isum;
  sum_is_double |= other.sum_is_double;
  if (kind == AggKind::kMin && other.seen) {
    if (!seen || other.min.Compare(min) < 0) min = other.min;
    seen = true;
  }
  if (kind == AggKind::kMax && other.seen) {
    if (!seen || other.max.Compare(max) > 0) max = other.max;
    seen = true;
  }
}

Value AggState::Finalize(AggKind kind) const {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kCountStar:
      return Value::Int64(count);
    case AggKind::kSum:
      if (count == 0) return Value::Null();
      return sum_is_double ? Value::Double(sum) : Value::Int64(isum);
    case AggKind::kAvg:
      return count == 0 ? Value::Null()
                        : Value::Double(sum / static_cast<double>(count));
    case AggKind::kMin:
      return seen ? min : Value::Null();
    case AggKind::kMax:
      return seen ? max : Value::Null();
  }
  return Value::Null();
}

// --- HashAggregateOperator ---------------------------------------------------------

HashAggregateOperator::HashAggregateOperator(std::unique_ptr<Operator> child,
                                             std::vector<ValueFn> group_keys,
                                             std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_keys_(std::move(group_keys)),
      aggs_(std::move(aggs)) {}

namespace {

struct RowHash {
  size_t operator()(const Row& key) const {
    size_t h = 0;
    for (const Value& v : key) h = h * 1315423911u + v.HashCode();
    return h;
  }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

}  // namespace

Status HashAggregateOperator::Materialize() {
  std::unordered_map<Row, std::vector<AggState>, RowHash, RowEq> groups;
  if (group_keys_.empty()) {
    groups.emplace(Row{}, std::vector<AggState>(aggs_.size()));  // global aggregate
  }
  while (child_->Next()) {
    const Row& in = child_->row();
    Row key;
    key.reserve(group_keys_.size());
    for (const auto& fn : group_keys_) key.push_back(fn(in));
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) it->second.resize(aggs_.size());
    for (size_t a = 0; a < aggs_.size(); ++a) {
      DTL_RETURN_NOT_OK(it->second[a].Update(aggs_[a], in));
    }
  }
  DTL_RETURN_NOT_OK(child_->status());

  results_.reserve(groups.size());
  for (auto& [key, states] : groups) {
    Row out = key;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      out.push_back(states[a].Finalize(aggs_[a].kind));
    }
    results_.push_back(std::move(out));
  }
  // Deterministic output order for tests.
  std::sort(results_.begin(), results_.end(), [&](const Row& a, const Row& b) {
    for (size_t i = 0; i < group_keys_.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  materialized_ = true;
  return Status::OK();
}

bool HashAggregateOperator::Next() {
  if (!materialized_) {
    status_ = Materialize();
    if (!status_.ok()) return false;
  }
  if (index_ >= results_.size()) return false;
  out_ = results_[index_++];
  return true;
}

// --- SortOperator ------------------------------------------------------------------

SortOperator::SortOperator(std::unique_ptr<Operator> child, std::vector<ValueFn> keys,
                           std::vector<bool> ascending)
    : child_(std::move(child)), keys_(std::move(keys)), ascending_(std::move(ascending)) {}

bool SortOperator::Next() {
  if (!materialized_) {
    while (child_->Next()) rows_.push_back(child_->row());
    status_ = child_->status();
    if (!status_.ok()) return false;
    std::stable_sort(rows_.begin(), rows_.end(), [this](const Row& a, const Row& b) {
      for (size_t i = 0; i < keys_.size(); ++i) {
        int c = keys_[i](a).Compare(keys_[i](b));
        if (c != 0) return ascending_[i] ? c < 0 : c > 0;
      }
      return false;
    });
    materialized_ = true;
  }
  if (index_ >= rows_.size()) return false;
  ++index_;
  return true;
}

Result<std::vector<Row>> Collect(Operator* op) {
  std::vector<Row> rows;
  while (op->Next()) rows.push_back(op->row());
  DTL_RETURN_NOT_OK(op->status());
  return rows;
}

// --- BatchProjectOperator ----------------------------------------------------------

bool BatchProjectOperator::Next(table::RowBatch* batch) {
  if (!child_->Next(&in_)) return false;
  // Zero-copy: point each output column at the referenced input column and
  // forward the selection. `in_` is a member, so the views stay valid until
  // the next call, and the anchor keeps any stripe storage alive.
  batch->Reset(columns_.size(), in_.num_rows());
  for (size_t i = 0; i < columns_.size(); ++i) {
    batch->column(i).SetViewOf(in_.column(columns_[i]));
  }
  if (in_.has_selection()) {
    std::vector<uint32_t> selection;
    selection.reserve(in_.size());
    for (size_t i = 0; i < in_.size(); ++i) {
      selection.push_back(static_cast<uint32_t>(in_.row_index(i)));
    }
    batch->SetSelection(std::move(selection));
  }
  batch->SetAnchor(in_.anchor());
  return true;
}

Result<std::vector<Row>> CollectBatches(BatchOperator* op) {
  std::vector<Row> rows;
  table::RowBatch batch;
  Row row;
  while (op->Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.MaterializeRow(i, &row);
      rows.push_back(row);
    }
  }
  DTL_RETURN_NOT_OK(op->status());
  return rows;
}

}  // namespace dtl::exec
