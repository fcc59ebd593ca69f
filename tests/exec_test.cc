#include <gtest/gtest.h>

#include "exec/operators.h"

namespace dtl::exec {
namespace {

std::unique_ptr<Operator> MakeRows(std::vector<Row> rows) {
  return std::make_unique<RowsOperator>(std::move(rows));
}

Row R(std::initializer_list<int64_t> values) {
  Row row;
  for (int64_t v : values) row.push_back(Value::Int64(v));
  return row;
}

ValueFn Col(size_t i) {
  return [i](const Row& row) { return row[i]; };
}

TEST(OperatorTest, FilterKeepsMatches) {
  auto plan = std::make_unique<FilterOperator>(
      MakeRows({R({1}), R({2}), R({3}), R({4})}),
      [](const Row& row) { return row[0].AsInt64() % 2 == 0; });
  auto rows = Collect(plan.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][0].AsInt64(), 2);
}

TEST(OperatorTest, ProjectComputes) {
  auto plan = std::make_unique<ProjectOperator>(
      MakeRows({R({3, 4})}),
      std::vector<ValueFn>{[](const Row& row) {
        return Value::Int64(row[0].AsInt64() + row[1].AsInt64());
      }});
  auto rows = Collect(plan.get());
  ASSERT_EQ((*rows)[0][0].AsInt64(), 7);
}

TEST(OperatorTest, InnerHashJoinMatchesKeys) {
  auto probe = MakeRows({R({1, 10}), R({2, 20}), R({3, 30})});
  auto build = MakeRows({R({2, 200}), R({3, 300}), R({3, 301}), R({9, 900})});
  auto plan = std::make_unique<HashJoinOperator>(
      std::move(probe), std::move(build), std::vector<ValueFn>{Col(0)},
      std::vector<ValueFn>{Col(0)}, 2, HashJoinOperator::Kind::kInner);
  auto rows = Collect(plan.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);  // key2 ×1, key3 ×2
  for (const Row& row : *rows) {
    EXPECT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0].AsInt64(), row[2].AsInt64());
  }
}

TEST(OperatorTest, LeftOuterJoinPreservesProbeRows) {
  auto probe = MakeRows({R({1}), R({2})});
  auto build = MakeRows({R({2, 200})});
  auto plan = std::make_unique<HashJoinOperator>(
      std::move(probe), std::move(build), std::vector<ValueFn>{Col(0)},
      std::vector<ValueFn>{Col(0)}, 2, HashJoinOperator::Kind::kLeftOuter);
  auto rows = Collect(plan.get());
  ASSERT_EQ(rows->size(), 2u);
  // Unmatched probe row gets NULL build columns.
  EXPECT_TRUE((*rows)[0][1].is_null());
  EXPECT_EQ((*rows)[1][2].AsInt64(), 200);
}

TEST(OperatorTest, JoinNullKeysNeverMatch) {
  std::vector<Row> probe_rows = {{Value::Null(), Value::Int64(1)}};
  std::vector<Row> build_rows = {{Value::Null(), Value::Int64(2)}};
  auto plan = std::make_unique<HashJoinOperator>(
      MakeRows(probe_rows), MakeRows(build_rows), std::vector<ValueFn>{Col(0)},
      std::vector<ValueFn>{Col(0)}, 2, HashJoinOperator::Kind::kInner);
  auto rows = Collect(plan.get());
  EXPECT_TRUE(rows->empty());
}

TEST(OperatorTest, AggregateGroupsAndComputes) {
  auto input = MakeRows({R({1, 10}), R({1, 20}), R({2, 5})});
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kSum, Col(1)});
  aggs.push_back(AggSpec{AggKind::kCountStar, nullptr});
  aggs.push_back(AggSpec{AggKind::kMax, Col(1)});
  auto plan = std::make_unique<HashAggregateOperator>(
      std::move(input), std::vector<ValueFn>{Col(0)}, std::move(aggs));
  auto rows = Collect(plan.get());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][0].AsInt64(), 1);
  EXPECT_EQ((*rows)[0][1].AsInt64(), 30);
  EXPECT_EQ((*rows)[0][2].AsInt64(), 2);
  EXPECT_EQ((*rows)[0][3].AsInt64(), 20);
}

TEST(OperatorTest, GlobalAggregateOnEmptyInputYieldsOneRow) {
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kCountStar, nullptr});
  aggs.push_back(AggSpec{AggKind::kSum, Col(0)});
  auto plan = std::make_unique<HashAggregateOperator>(MakeRows({}), std::vector<ValueFn>{},
                                                      std::move(aggs));
  auto rows = Collect(plan.get());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].AsInt64(), 0);
  EXPECT_TRUE((*rows)[0][1].is_null());  // SUM of nothing is NULL
}

TEST(OperatorTest, AggregatesSkipNulls) {
  std::vector<Row> input = {{Value::Int64(5)}, {Value::Null()}, {Value::Int64(15)}};
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kAvg, Col(0)});
  aggs.push_back(AggSpec{AggKind::kCount, Col(0)});
  auto plan = std::make_unique<HashAggregateOperator>(
      MakeRows(input), std::vector<ValueFn>{}, std::move(aggs));
  auto rows = Collect(plan.get());
  EXPECT_DOUBLE_EQ((*rows)[0][0].AsDouble(), 10.0);
  EXPECT_EQ((*rows)[0][1].AsInt64(), 2);
}

TEST(OperatorTest, SortAscendingDescending) {
  auto plan = std::make_unique<SortOperator>(
      MakeRows({R({3, 1}), R({1, 2}), R({2, 3})}), std::vector<ValueFn>{Col(0)},
      std::vector<bool>{false});
  auto rows = Collect(plan.get());
  EXPECT_EQ((*rows)[0][0].AsInt64(), 3);
  EXPECT_EQ((*rows)[2][0].AsInt64(), 1);
}

TEST(OperatorTest, LimitStopsEarly) {
  auto plan = std::make_unique<LimitOperator>(
      MakeRows({R({1}), R({2}), R({3})}), 2);
  auto rows = Collect(plan.get());
  EXPECT_EQ(rows->size(), 2u);
}

/// In-memory RowIterator source for feeding the batch adapters.
class VectorRowIterator : public table::RowIterator {
 public:
  explicit VectorRowIterator(std::vector<Row> rows) : rows_(std::move(rows)) {}
  bool Next() override {
    if (index_ >= rows_.size()) return false;
    row_ = rows_[index_++];
    return true;
  }
  const Row& row() const override { return row_; }
  const Status& status() const override { return status_; }

 private:
  std::vector<Row> rows_;
  size_t index_ = 0;
  Row row_;
  Status status_;
};

/// Child operator that fails immediately with an error status.
class FailingOperator : public Operator {
 public:
  bool Next() override {
    status_ = Status::Internal("child exploded");
    return false;
  }
  const Row& row() const override { return EmptyRow(); }
  const Status& status() const override { return status_; }

 private:
  Status status_;
};

TEST(OperatorSafetyTest, RowBeforeNextIsSafe) {
  // row() on a never-advanced materializing operator must not index
  // rows_[-1]; it returns the shared empty row.
  RowsOperator rows({R({1}), R({2})});
  EXPECT_TRUE(rows.row().empty());

  SortOperator sort(MakeRows({R({2}), R({1})}), {Col(0)}, {true});
  EXPECT_TRUE(sort.row().empty());
}

TEST(OperatorSafetyTest, CollectOnEmptyOperatorsIsSafe) {
  RowsOperator empty_rows({});
  EXPECT_TRUE(empty_rows.row().empty());
  auto rows = Collect(&empty_rows);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());

  SortOperator empty_sort(MakeRows({}), {Col(0)}, {true});
  auto sorted = Collect(&empty_sort);
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE(sorted->empty());
}

TEST(OperatorSafetyTest, CollectSurfacesChildStatus) {
  SortOperator sort(std::make_unique<FailingOperator>(), {Col(0)}, {true});
  auto rows = Collect(&sort);
  EXPECT_FALSE(rows.ok());
  EXPECT_TRUE(sort.row().empty());  // still safe to touch after the error
}

/// Filters each child batch through a row predicate's selection, as a
/// storage-side scan filter does.
class SelectingOperator : public BatchOperator {
 public:
  SelectingOperator(std::unique_ptr<BatchOperator> child, table::ScanPredicate pred)
      : child_(std::move(child)), pred_(std::move(pred)) {}
  bool Next(table::RowBatch* batch) override {
    while (child_->Next(batch)) {
      batch->FilterSelected(pred_, &scratch_);
      if (!batch->empty()) return true;
    }
    return false;
  }
  const Status& status() const override { return child_->status(); }

 private:
  std::unique_ptr<BatchOperator> child_;
  table::ScanPredicate pred_;
  Row scratch_;
};

// The vectorized route's computed outputs, pushed filter and LIMIT are
// checked at SQL level: EngineTest.VectorizedComputedOutputsMatchOperatorTree.
TEST(BatchOperatorTest, ZeroCopyProjectionForwardsSelection) {
  std::vector<Row> input;
  for (int i = 0; i < 8; ++i) input.push_back(R({i, i * 3}));
  std::unique_ptr<BatchOperator> plan = std::make_unique<BatchScanOperator>(
      std::make_unique<table::RowToBatchAdapter>(
          std::make_unique<VectorRowIterator>(std::move(input)), 2, 8));
  plan = std::make_unique<SelectingOperator>(
      std::move(plan), [](const Row& row) { return row[0].AsInt64() >= 4; });
  // Pure column refs: projection must not copy cells.
  plan =
      std::make_unique<BatchProjectOperator>(std::move(plan), std::vector<size_t>{1, 0});
  plan = std::make_unique<BatchLimitOperator>(std::move(plan), 3);
  auto out = CollectBatches(plan.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ((*out)[0][0].AsInt64(), 12);
  EXPECT_EQ((*out)[0][1].AsInt64(), 4);
  EXPECT_EQ((*out)[2][0].AsInt64(), 18);
  EXPECT_EQ((*out)[2][1].AsInt64(), 6);
}

TEST(BatchOperatorTest, ProjectedColumnsAreViewsOfTheInput) {
  std::vector<Row> input;
  for (int i = 0; i < 4; ++i) input.push_back(R({i, i * 3}));
  BatchProjectOperator project(
      std::make_unique<table::RowToBatchAdapter>(
          std::make_unique<VectorRowIterator>(std::move(input)), 2, 4),
      std::vector<size_t>{1});
  table::RowBatch batch;
  ASSERT_TRUE(project.Next(&batch));
  EXPECT_TRUE(batch.column(0).is_view());
  EXPECT_EQ(batch.column(0).type(), DataType::kInt64);
  EXPECT_EQ(batch.ValueAt(0, 3).AsInt64(), 9);
}

}  // namespace
}  // namespace dtl::exec
