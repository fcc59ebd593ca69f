#include <gtest/gtest.h>

#include "sql/binder.h"
#include "sql/parser.h"

namespace dtl::sql {
namespace {

Scope TwoTableScope() {
  Scope scope;
  scope.AddTable("a", Schema({{"x", DataType::kInt64}, {"y", DataType::kString}}));
  scope.AddTable("b", Schema({{"x", DataType::kInt64}, {"z", DataType::kDouble}}));
  return scope;
}

exec::ValueFn Bind(const std::string& text, const Scope& scope) {
  auto expr = ParseExpression(text);
  EXPECT_TRUE(expr.ok()) << expr.status().ToString();
  auto bound = BindScalar(**expr, scope);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return bound.ok() ? bound->fn : exec::ValueFn();
}

TEST(ScopeTest, QualifiedAndUnqualifiedResolution) {
  Scope scope = TwoTableScope();
  EXPECT_EQ(*scope.Resolve("a", "x"), 0u);
  EXPECT_EQ(*scope.Resolve("b", "x"), 2u);
  EXPECT_EQ(*scope.Resolve("", "y"), 1u);   // unique unqualified
  EXPECT_EQ(*scope.Resolve("", "z"), 3u);
  EXPECT_TRUE(scope.Resolve("", "x").status().IsInvalidArgument());  // ambiguous
  EXPECT_TRUE(scope.Resolve("", "nope").status().IsNotFound());
  EXPECT_TRUE(scope.Resolve("c", "x").status().IsNotFound());
}

TEST(ScopeTest, ResolutionIsCaseInsensitive) {
  Scope scope;
  scope.AddTable("T", Schema({{"Col", DataType::kInt64}}));
  EXPECT_TRUE(scope.Resolve("t", "col").ok());
  EXPECT_TRUE(scope.Resolve("T", "COL").ok());
}

TEST(BindScalarTest, ArithmeticNullPropagation) {
  Scope scope = TwoTableScope();
  auto fn = Bind("a.x + 1", scope);
  Row row{Value::Int64(41), Value::Null(), Value::Null(), Value::Null()};
  EXPECT_EQ(fn(row).AsInt64(), 42);
  Row null_row{Value::Null(), Value::Null(), Value::Null(), Value::Null()};
  EXPECT_TRUE(fn(null_row).is_null());
}

TEST(BindScalarTest, DivisionByZeroIsNull) {
  Scope scope = TwoTableScope();
  auto fn = Bind("a.x / 0", scope);
  Row row{Value::Int64(5), Value::Null(), Value::Null(), Value::Null()};
  EXPECT_TRUE(fn(row).is_null());
}

TEST(BindScalarTest, ThreeValuedAndOr) {
  Scope scope = TwoTableScope();
  Row row{Value::Null(), Value::Null(), Value::Null(), Value::Null()};
  // FALSE AND NULL = FALSE; TRUE OR NULL = TRUE; TRUE AND NULL = NULL.
  EXPECT_FALSE(Bind("1 = 2 and a.x = 1", scope)(row).is_null());
  EXPECT_FALSE(Bind("1 = 2 and a.x = 1", scope)(row).AsBool());
  EXPECT_TRUE(Bind("1 = 1 or a.x = 1", scope)(row).AsBool());
  EXPECT_TRUE(Bind("1 = 1 and a.x = 1", scope)(row).is_null());
}

TEST(BindScalarTest, InListWithNullNeedle) {
  Scope scope = TwoTableScope();
  auto fn = Bind("a.x in (1, 2)", scope);
  Row row{Value::Null(), Value::Null(), Value::Null(), Value::Null()};
  EXPECT_TRUE(fn(row).is_null());
  Row hit{Value::Int64(2), Value::Null(), Value::Null(), Value::Null()};
  EXPECT_TRUE(fn(hit).AsBool());
}

TEST(BindScalarTest, CoalesceAndIf) {
  Scope scope = TwoTableScope();
  Row row{Value::Null(), Value::String("fallback"), Value::Null(), Value::Null()};
  EXPECT_EQ(Bind("coalesce(a.x, 7)", scope)(row).AsInt64(), 7);
  EXPECT_EQ(Bind("if(a.x is null, 'yes', 'no')", scope)(row).AsString(), "yes");
}

TEST(BindScalarTest, ColumnsTracked) {
  Scope scope = TwoTableScope();
  auto expr = ParseExpression("a.x + b.z * 2");
  auto bound = BindScalar(**expr, scope);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->columns, (std::vector<size_t>{0, 3}));
}

TEST(BindScalarTest, AggregateRejected) {
  Scope scope = TwoTableScope();
  auto expr = ParseExpression("sum(a.x)");
  EXPECT_FALSE(BindScalar(**expr, scope).ok());
}

TEST(AggregateBindTest, CollectDedupsStructurally) {
  auto expr = ParseExpression("sum(x) + sum(x) + count(*)");
  ASSERT_TRUE(expr.ok());
  std::vector<const Expr*> aggs;
  CollectAggregates(**expr, &aggs);
  EXPECT_EQ(aggs.size(), 2u);  // sum(x) deduped
}

TEST(ConjunctTest, SplitFlattensAndTree) {
  auto expr = ParseExpression("a = 1 and (b = 2 and c = 3) and d = 4");
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(**expr, &conjuncts);
  EXPECT_EQ(conjuncts.size(), 4u);
}

TEST(ConjunctTest, OrIsNotSplit) {
  auto expr = ParseExpression("a = 1 or b = 2");
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(**expr, &conjuncts);
  EXPECT_EQ(conjuncts.size(), 1u);
}

TEST(BoundsTest, ExtractionFromComparisons) {
  Scope scope;
  scope.AddTable("t", Schema({{"day", DataType::kInt64}, {"v", DataType::kDouble}}));
  auto expr = ParseExpression("day >= 5 and day < 10 and v = 2.5 and day + 1 = 3");
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(**expr, &conjuncts);
  auto bound = BindScanPredicate(conjuncts, scope);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  // The arithmetic conjunct is the residual; the three comparisons compile.
  EXPECT_EQ(bound->kernel, (std::vector<bool>{true, true, true, false}));
  EXPECT_EQ(bound->predicate.terms().size(), 3u);
  EXPECT_TRUE(static_cast<bool>(bound->predicate.residual()));
  const std::vector<table::ColumnBound>& bounds = bound->bounds;
  ASSERT_EQ(bounds.size(), 3u);  // day>=5, day<10, v=2.5; the arithmetic one skipped
  EXPECT_EQ(bounds[0].column, 0u);
  EXPECT_EQ(bounds[0].lower->AsInt64(), 5);
  EXPECT_FALSE(bounds[0].upper.has_value());
  EXPECT_EQ(bounds[1].upper->AsInt64(), 10);
  EXPECT_EQ(bounds[2].column, 1u);
  EXPECT_EQ(bounds[2].lower->Compare(*bounds[2].upper), 0);  // equality pins both
}

TEST(BoundsTest, FlippedLiteralComparison) {
  Scope scope;
  scope.AddTable("t", Schema({{"day", DataType::kInt64}}));
  auto expr = ParseExpression("5 < day");  // means day > 5
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(**expr, &conjuncts);
  auto bound = BindScanPredicate(conjuncts, scope);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_EQ(bound->predicate.terms().size(), 1u);
  EXPECT_EQ(bound->predicate.terms()[0].op, table::CompareOp::kGt);
  const std::vector<table::ColumnBound>& bounds = bound->bounds;
  ASSERT_EQ(bounds.size(), 1u);
  ASSERT_TRUE(bounds[0].lower.has_value());
  EXPECT_EQ(bounds[0].lower->AsInt64(), 5);
}

TEST(PostAggregateTest, GroupKeyAndAggSlots) {
  Scope scope;
  scope.AddTable("t", Schema({{"g", DataType::kInt64}, {"v", DataType::kInt64}}));
  auto group = ParseExpression("g");
  auto agg = ParseExpression("sum(v)");
  auto out = ParseExpression("g + sum(v) * 2");
  std::vector<const Expr*> groups = {group->get()};
  std::vector<const Expr*> aggs = {agg->get()};
  auto fn = BindPostAggregate(**out, groups, aggs, scope);
  ASSERT_TRUE(fn.ok());
  // Post-agg row layout: [g, sum(v)].
  Row row{Value::Int64(10), Value::Int64(5)};
  EXPECT_EQ((*fn)(row).AsInt64(), 20);
}

TEST(PostAggregateTest, StrayColumnRejected) {
  Scope scope;
  scope.AddTable("t", Schema({{"g", DataType::kInt64}, {"v", DataType::kInt64}}));
  auto group = ParseExpression("g");
  auto out = ParseExpression("v");  // not grouped, not aggregated
  std::vector<const Expr*> groups = {group->get()};
  std::vector<const Expr*> aggs;
  EXPECT_FALSE(BindPostAggregate(**out, groups, aggs, scope).ok());
}

}  // namespace
}  // namespace dtl::sql
