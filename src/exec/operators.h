// Volcano-style relational operators used by the SQL executor. Operators
// are storage-agnostic: value extraction is injected as std::functions so
// this layer does not depend on the SQL expression representation.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "table/storage_table.h"

namespace dtl::exec {

/// Pull operator. Schema-free: rows are positional; the planner tracks
/// column meaning.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual bool Next() = 0;
  virtual const Row& row() const = 0;
  virtual const Status& status() const = 0;
};

/// Extracts a value from a row (compiled expression).
using ValueFn = std::function<Value(const Row&)>;
/// Row predicate.
using PredFn = std::function<bool(const Row&)>;

/// Shared empty row, returned by materializing operators whose row() is
/// called before the first successful Next().
inline const Row& EmptyRow() {
  static const Row kEmpty;
  return kEmpty;
}

/// Adapts a storage RowIterator.
class ScanOperator : public Operator {
 public:
  explicit ScanOperator(std::unique_ptr<table::RowIterator> it) : it_(std::move(it)) {}
  bool Next() override { return it_->Next(); }
  const Row& row() const override { return it_->row(); }
  const Status& status() const override { return it_->status(); }

 private:
  std::unique_ptr<table::RowIterator> it_;
};

/// Emits rows from memory (VALUES lists, subplan results).
class RowsOperator : public Operator {
 public:
  explicit RowsOperator(std::vector<Row> rows) : rows_(std::move(rows)) {}
  bool Next() override {
    if (index_ >= rows_.size()) return false;
    ++index_;
    return true;
  }
  const Row& row() const override {
    return index_ == 0 ? EmptyRow() : rows_[index_ - 1];
  }
  const Status& status() const override { return status_; }

 private:
  std::vector<Row> rows_;
  size_t index_ = 0;
  Status status_;
};

class FilterOperator : public Operator {
 public:
  FilterOperator(std::unique_ptr<Operator> child, PredFn pred)
      : child_(std::move(child)), pred_(std::move(pred)) {}
  bool Next() override {
    while (child_->Next()) {
      if (pred_(child_->row())) return true;
    }
    return false;
  }
  const Row& row() const override { return child_->row(); }
  const Status& status() const override { return child_->status(); }

 private:
  std::unique_ptr<Operator> child_;
  PredFn pred_;
};

/// Computes an output row from each input row.
class ProjectOperator : public Operator {
 public:
  ProjectOperator(std::unique_ptr<Operator> child, std::vector<ValueFn> exprs)
      : child_(std::move(child)), exprs_(std::move(exprs)) {}
  bool Next() override {
    if (!child_->Next()) return false;
    out_.clear();
    out_.reserve(exprs_.size());
    for (const auto& e : exprs_) out_.push_back(e(child_->row()));
    return true;
  }
  const Row& row() const override { return out_; }
  const Status& status() const override { return child_->status(); }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<ValueFn> exprs_;
  Row out_;
};

/// Hash equi-join; output row = probe row ++ build row. Build side is fully
/// materialized (Hive's map join). Supports INNER and LEFT OUTER (probe
/// side preserved, build columns NULL).
class HashJoinOperator : public Operator {
 public:
  enum class Kind { kInner, kLeftOuter };

  HashJoinOperator(std::unique_ptr<Operator> probe, std::unique_ptr<Operator> build,
                   std::vector<ValueFn> probe_keys, std::vector<ValueFn> build_keys,
                   size_t build_width, Kind kind);

  bool Next() override;
  const Row& row() const override { return out_; }
  const Status& status() const override { return status_; }

 private:
  struct KeyHash {
    size_t operator()(const Row& key) const;
  };
  struct KeyEq {
    bool operator()(const Row& a, const Row& b) const;
  };

  Status BuildTable();
  Row MakeKey(const Row& row, const std::vector<ValueFn>& fns) const;

  std::unique_ptr<Operator> probe_;
  std::unique_ptr<Operator> build_;
  std::vector<ValueFn> probe_keys_;
  std::vector<ValueFn> build_keys_;
  size_t build_width_;
  Kind kind_;

  bool built_ = false;
  std::unordered_map<Row, std::vector<Row>, KeyHash, KeyEq> hash_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_index_ = 0;
  Row out_;
  Status status_;
};

/// Aggregate function kinds supported by HashAggregateOperator.
enum class AggKind { kCount, kCountStar, kSum, kMin, kMax, kAvg };

struct AggSpec {
  AggKind kind = AggKind::kCountStar;
  ValueFn input;  // unused for kCountStar
};

/// Mergeable accumulator for one aggregate call. HashAggregateOperator keeps
/// one per (group, agg); a parallel scan keeps one per (worker, agg) and
/// folds the partials together with Merge at the barrier — Update + Merge +
/// Finalize reproduce serial SQL semantics exactly (NULL inputs skipped,
/// SUM's int64 arithmetic unless a double ever appears, SUM/AVG of zero
/// inputs = NULL, COUNT(*) counts rows).
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool sum_is_double = false;
  int64_t isum = 0;
  Value min;
  Value max;
  bool seen = false;

  /// Folds one input row in. InvalidArgument on SUM/AVG over non-numerics.
  [[nodiscard]] Status Update(const AggSpec& spec, const Row& in);

  /// Folds another partial state for the same aggregate kind in. Merge order
  /// does not affect any Finalize result.
  void Merge(AggKind kind, const AggState& other);

  /// The aggregate's SQL result value.
  Value Finalize(AggKind kind) const;
};

/// Hash GROUP BY; output row = group keys ++ aggregate results. With no
/// group keys produces exactly one global-aggregate row (even on empty
/// input, matching SQL semantics).
class HashAggregateOperator : public Operator {
 public:
  HashAggregateOperator(std::unique_ptr<Operator> child, std::vector<ValueFn> group_keys,
                        std::vector<AggSpec> aggs);

  bool Next() override;
  const Row& row() const override { return out_; }
  const Status& status() const override { return status_; }

 private:
  Status Materialize();

  std::unique_ptr<Operator> child_;
  std::vector<ValueFn> group_keys_;
  std::vector<AggSpec> aggs_;
  bool materialized_ = false;
  std::vector<Row> results_;
  size_t index_ = 0;
  Row out_;
  Status status_;
};

/// Full sort (ORDER BY). Comparators applied in order; `ascending[i]` pairs
/// with `keys[i]`.
class SortOperator : public Operator {
 public:
  SortOperator(std::unique_ptr<Operator> child, std::vector<ValueFn> keys,
               std::vector<bool> ascending);
  bool Next() override;
  const Row& row() const override {
    return index_ == 0 ? EmptyRow() : rows_[index_ - 1];
  }
  const Status& status() const override { return status_; }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<ValueFn> keys_;
  std::vector<bool> ascending_;
  bool materialized_ = false;
  std::vector<Row> rows_;
  size_t index_ = 0;
  Status status_;
};

class LimitOperator : public Operator {
 public:
  LimitOperator(std::unique_ptr<Operator> child, uint64_t limit)
      : child_(std::move(child)), limit_(limit) {}
  bool Next() override {
    if (emitted_ >= limit_) return false;
    if (!child_->Next()) return false;
    ++emitted_;
    return true;
  }
  const Row& row() const override { return child_->row(); }
  const Status& status() const override { return child_->status(); }

 private:
  std::unique_ptr<Operator> child_;
  uint64_t limit_;
  uint64_t emitted_ = 0;
};

/// Drains an operator tree.
Result<std::vector<Row>> Collect(Operator* op);

// --- Vectorized (batch-at-a-time) operators ----------------------------------------
//
// Same pull contract as table::BatchIterator: producers fill the caller's
// RowBatch, never emit an empty batch, and the contents stay valid until the
// next call. The executor uses this family for the SELECT fast path (scan ->
// project -> limit; the scan applies the pushed predicate) and bridges to the
// row operators above with table::BatchToRowAdapter where batches end (joins,
// aggregates, sorts).

/// Batch pull operator.
using BatchOperator = table::BatchIterator;

/// Adapts a storage BatchIterator (the leaf of a batch pipeline).
class BatchScanOperator : public BatchOperator {
 public:
  explicit BatchScanOperator(std::unique_ptr<table::BatchIterator> it)
      : it_(std::move(it)) {}
  bool Next(table::RowBatch* batch) override { return it_->Next(batch); }
  const Status& status() const override { return it_->status(); }

 private:
  std::unique_ptr<table::BatchIterator> it_;
};

/// Vectorized projection of bare column references: output column i is a
/// zero-copy view of input column `columns[i]`, and the selection is
/// forwarded. Output batches carry no record IDs (projection derives new
/// rows). Computed outputs are evaluated on the rows a route collects.
class BatchProjectOperator : public BatchOperator {
 public:
  BatchProjectOperator(std::unique_ptr<BatchOperator> child, std::vector<size_t> columns)
      : child_(std::move(child)), columns_(std::move(columns)) {}
  bool Next(table::RowBatch* batch) override;
  const Status& status() const override { return child_->status(); }

 private:
  std::unique_ptr<BatchOperator> child_;
  std::vector<size_t> columns_;
  table::RowBatch in_;
};

/// Vectorized LIMIT: truncates the selection of the batch that crosses the
/// limit instead of counting rows one at a time.
class BatchLimitOperator : public BatchOperator {
 public:
  BatchLimitOperator(std::unique_ptr<BatchOperator> child, uint64_t limit)
      : child_(std::move(child)), remaining_(limit) {}
  bool Next(table::RowBatch* batch) override {
    if (remaining_ == 0) return false;
    if (!child_->Next(batch)) return false;
    if (batch->size() > remaining_) batch->TruncateSelection(static_cast<size_t>(remaining_));
    remaining_ -= batch->size();
    return true;
  }
  const Status& status() const override { return child_->status(); }

 private:
  std::unique_ptr<BatchOperator> child_;
  uint64_t remaining_;
};

/// Drains a batch operator tree into rows.
Result<std::vector<Row>> CollectBatches(BatchOperator* op);

}  // namespace dtl::exec
