// Seeded kernel-vs-closure differential for compiled scan predicates. Each
// pushed conjunct of the forms `col op lit`, `lit op col`, `col [NOT] IN
// (lits)` and `col op col` compiles (sql::CompileScanTerm) into a typed
// ScanTerm; RowBatch::FilterSelected runs it column-at-a-time. Over typed
// batches with NULLs, NaN, ±0.0, INT64_MIN/MAX, empty, NUL and high-byte
// strings — as owned columns and as views at odd offsets, with and without a
// prior selection — every term's batch verdict must equal the bound
// closure's verdict on the materialized row, and so must the term's row form.
// Literals cover int literals on double columns and the reverse, and IN lists
// with NULL and duplicate items.
//
// Reproduction: the seed is printed on entry; re-run a failure with
// DTL_KERNEL_SEED=<seed>.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "sql/binder.h"
#include "sql/parser.h"
#include "table/row_batch.h"
#include "table/scan_predicate.h"

namespace dtl::table {
namespace {

// Columns: one per type, plus a second int, double, date and string column
// for `col op col` terms.
enum Col : size_t { kI, kD, kS, kB, kDt, kI2, kD2, kDt2, kS2, kNumCols };

Schema KernelSchema() {
  return Schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"b", DataType::kBool},
                 {"dt", DataType::kDate},
                 {"i2", DataType::kInt64},
                 {"d2", DataType::kDouble},
                 {"dt2", DataType::kDate},
                 {"s2", DataType::kString}});
}

constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max();
const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

const std::vector<int64_t>& SpecialInts() {
  static const std::vector<int64_t> v = {0,       1,  -1, 2,  3, kIntMin, kIntMax,
                                         kIntMax - 1, (int64_t{1} << 53) + 1,
                                         int64_t{1} << 53, -7};
  return v;
}

const std::vector<double>& SpecialDoubles() {
  static const std::vector<double> v = {
      0.0,  -0.0,  1.0, -1.0, 2.5, 3.0, kNaN, kInf, -kInf, 9007199254740992.0,
      9.223372036854775807e18, -9.223372036854775808e18};
  return v;
}

const std::vector<std::string>& SpecialStrings() {
  static const std::vector<std::string> v = {
      "", "a", "ab", "abc", "b", std::string("\0", 1), std::string("a\0b", 3),
      "\xff", "\x80z", "\xff\xff", "MAIL", "SHIP"};
  return v;
}

class KernelDifferential {
 public:
  explicit KernelDifferential(uint64_t seed) : rng_(seed) {
    scope_.AddTable("t", KernelSchema());
  }

  void Run(size_t rounds) {
    for (size_t r = 0; r < rounds; ++r) {
      const size_t rows = Pick(6) == 0 ? 0 : 1 + Pick(70);
      std::vector<Row> data(rows);
      for (Row& row : data) row = RandomRow();
      for (int t = 0; t < 12; ++t) CheckTerm(data);
    }
  }

  size_t checked() const { return checked_; }
  size_t compiled() const { return compiled_; }

 private:
  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }

  Value RandomInt() {
    if (Pick(4) == 0) return Value::Int64(static_cast<int64_t>(Pick(9)) - 4);
    return Value::Int64(SpecialInts()[Pick(SpecialInts().size())]);
  }
  Value RandomDouble() {
    if (Pick(4) == 0) return Value::Double(static_cast<double>(Pick(9)) * 0.5 - 2.0);
    return Value::Double(SpecialDoubles()[Pick(SpecialDoubles().size())]);
  }
  Value RandomString() {
    return Value::String(SpecialStrings()[Pick(SpecialStrings().size())]);
  }
  Value RandomDate() { return Value::Date(static_cast<int64_t>(9000 + Pick(6))); }

  Value RandomCell(size_t c) {
    if (Pick(7) == 0) return Value::Null();
    switch (c) {
      case kI:
      case kI2:
        return RandomInt();
      case kD:
      case kD2:
        return RandomDouble();
      case kS:
      case kS2:
        return RandomString();
      case kB:
        return Value::Bool(Pick(2) == 0);
      default:
        return RandomDate();
    }
  }

  Row RandomRow() {
    Row row(kNumCols);
    for (size_t c = 0; c < kNumCols; ++c) row[c] = RandomCell(c);
    return row;
  }

  /// A literal for a term on column `c`: usually of its own domain, with int
  /// literals on double columns and double literals on int columns.
  Value RandomLiteral(size_t c) {
    switch (c) {
      case kI:
      case kI2:
      case kDt:
      case kDt2:
        return Pick(3) == 0 ? RandomDouble() : (c == kDt || c == kDt2 ? RandomDate()
                                                                      : RandomInt());
      case kD:
      case kD2:
        return Pick(3) == 0 ? RandomInt() : RandomDouble();
      case kS:
      case kS2:
        return RandomString();
      default:
        return Value::Bool(Pick(2) == 0);
    }
  }

  static const char* Name(size_t c) {
    static const char* kNames[] = {"i", "d", "s", "b", "dt", "i2", "d2", "dt2", "s2"};
    return kNames[c];
  }

  /// A random conjunct; its literals are set after parsing so they can be
  /// NaN, INT64_MIN or NULL, which SQL text cannot spell.
  sql::ExprPtr RandomConjunct() {
    static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
    const std::string op = kOps[Pick(6)];
    const size_t c = Pick(kNumCols);
    switch (Pick(4)) {
      case 0:
      case 1: {
        const bool flipped = Pick(2) == 0;
        auto expr = sql::ParseExpression(
            flipped ? "0 " + op + " " + Name(c) : std::string(Name(c)) + " " + op + " 0");
        EXPECT_TRUE(expr.ok());
        (*expr)->args[flipped ? 0 : 1]->literal = RandomLiteral(c);
        return std::move(*expr);
      }
      case 2: {
        const size_t items = 1 + Pick(4);
        std::string text = std::string(Name(c)) + (Pick(2) == 0 ? " NOT IN (" : " IN (");
        for (size_t k = 0; k < items; ++k) text += k == 0 ? "0" : ", 0";
        auto expr = sql::ParseExpression(text + ")");
        EXPECT_TRUE(expr.ok());
        for (size_t k = 1; k < (*expr)->args.size(); ++k) {
          // NULL and duplicate items.
          (*expr)->args[k]->literal =
              Pick(5) == 0 ? Value::Null()
              : (k > 1 && Pick(3) == 0) ? (*expr)->args[k - 1]->literal
                                        : RandomLiteral(c);
        }
        return std::move(*expr);
      }
      default: {
        // Same-domain column pairs: dates, ints, doubles, int vs double,
        // strings.
        static const std::pair<size_t, size_t> kPairs[] = {
            {kDt, kDt2}, {kI, kI2}, {kD, kD2}, {kI, kD},
            {kD2, kI2},  {kS, kS2}, {kDt, kI}};
        const auto [a, b] = kPairs[Pick(std::size(kPairs))];
        auto expr = sql::ParseExpression(std::string(Name(a)) + " " + op + " " + Name(b));
        EXPECT_TRUE(expr.ok());
        return std::move(*expr);
      }
    }
  }

  /// Lays `data` out as typed columns. With `offset`, each column is a view
  /// `offset` rows into storage that starts with other rows, so validity
  /// bits and arrays are read at an unaligned window.
  void Build(const std::vector<Row>& data, size_t offset, RowBatch* batch) {
    storage_.assign(kNumCols, ColumnData());
    const Schema schema = KernelSchema();
    batch->Reset(kNumCols, data.size());
    for (size_t c = 0; c < kNumCols; ++c) {
      ColumnData& cells = storage_[c];
      cells.Reset(schema.field(c).type);
      for (size_t k = 0; k < offset; ++k) ASSERT_TRUE(cells.Append(RandomCell(c)));
      for (const Row& row : data) ASSERT_TRUE(cells.Append(row[c]));
      if (offset == 0 && Pick(2) == 0) {
        batch->column(c).SetOwned(cells);
      } else {
        batch->column(c).SetView(&cells, offset, data.size());
      }
    }
  }

  void CheckTerm(const std::vector<Row>& data) {
    sql::ExprPtr expr = RandomConjunct();
    const std::string text = expr->ToString();
    SCOPED_TRACE(text);
    const std::optional<ScanTerm> term = sql::CompileScanTerm(*expr, scope_);
    auto closure = sql::BindScalar(*expr, scope_);
    ASSERT_TRUE(closure.ok()) << closure.status().ToString();
    // Every template above is in one Value::Compare domain, so it compiles.
    ASSERT_TRUE(term.has_value());
    ++compiled_;
    const ScanPredicate pred({*term}, nullptr);

    RowBatch batch;
    Build(data, Pick(3) == 0 ? 1 + Pick(13) : 0, &batch);
    std::vector<uint32_t> visible;
    if (!data.empty() && Pick(3) == 0) {
      for (uint32_t i = 0; i < data.size(); ++i) {
        if (Pick(3) != 0) visible.push_back(i);
      }
      batch.SetSelection(visible);
    } else {
      for (uint32_t i = 0; i < data.size(); ++i) visible.push_back(i);
    }
    std::vector<uint32_t> expected;
    for (uint32_t i : visible) {
      const bool verdict = sql::ValueIsTrue(closure->fn(data[i]));
      EXPECT_EQ(term->Matches(data[i]), verdict)
          << "row form, row " << RowToString(data[i]);
      if (verdict) expected.push_back(i);
    }
    Row scratch;
    batch.FilterSelected(pred, &scratch);
    std::vector<uint32_t> kept;
    for (size_t i = 0; i < batch.size(); ++i) {
      kept.push_back(static_cast<uint32_t>(batch.row_index(i)));
    }
    EXPECT_EQ(kept, expected) << "batch verdict differs from the closure";
    if (kept != expected) {
      for (uint32_t i : visible) {
        const bool batch_kept = std::binary_search(kept.begin(), kept.end(), i);
        const bool closure_kept = std::binary_search(expected.begin(), expected.end(), i);
        if (batch_kept != closure_kept) {
          ADD_FAILURE() << "row " << i << " (" << RowToString(data[i]) << "): batch "
                        << batch_kept << ", closure " << closure_kept;
        }
      }
    }
    ++checked_;
  }

  std::mt19937_64 rng_;
  sql::Scope scope_;
  std::vector<ColumnData> storage_;
  size_t checked_ = 0;
  size_t compiled_ = 0;
};

TEST(PredicateKernelTest, EveryTermMatchesItsClosure) {
  const char* env = std::getenv("DTL_KERNEL_SEED");
  const uint64_t seed = env != nullptr ? std::strtoull(env, nullptr, 10) : 20261019;
  std::printf("predicate kernel differential seed %llu\n",
              static_cast<unsigned long long>(seed));
  KernelDifferential harness(seed);
  harness.Run(400);
  EXPECT_GT(harness.checked(), 4000u);
}

/// Builds a one-column batch of `type` over `values`.
void OneColumn(DataType type, const std::vector<Value>& values, ColumnData* cells,
               RowBatch* batch) {
  cells->Reset(type);
  for (const Value& v : values) ASSERT_TRUE(cells->Append(v));
  batch->Reset(1, values.size());
  batch->column(0).SetView(cells, 0, values.size());
}

std::vector<size_t> Survivors(RowBatch* batch, const ScanTerm& term) {
  Row scratch;
  batch->FilterSelected(ScanPredicate({term}, nullptr), &scratch);
  std::vector<size_t> out;
  for (size_t i = 0; i < batch->size(); ++i) out.push_back(batch->row_index(i));
  return out;
}

TEST(PredicateKernelTest, NanAndSignedZeroFollowValueCompare) {
  // Value::Compare sees NaN as equal to every number, and -0.0 equal to 0.0.
  ColumnData cells;
  RowBatch batch;
  OneColumn(DataType::kDouble,
            {Value::Double(kNaN), Value::Double(-0.0), Value::Double(1.0), Value::Null()},
            &cells, &batch);
  ScanTerm eq;
  eq.column = 0;
  eq.op = CompareOp::kEq;
  eq.literal = Value::Int64(0);
  EXPECT_EQ(Survivors(&batch, eq), (std::vector<size_t>{0, 1}));
  ScanTerm lt = eq;
  lt.op = CompareOp::kLt;
  lt.literal = Value::Double(kNaN);
  OneColumn(DataType::kDouble,
            {Value::Double(kNaN), Value::Double(-0.0), Value::Double(1.0), Value::Null()},
            &cells, &batch);
  EXPECT_TRUE(Survivors(&batch, lt).empty());  // nothing is below NaN
}

TEST(PredicateKernelTest, NotInWithANullItemIsNeverTrue) {
  ColumnData cells;
  RowBatch batch;
  ScanTerm not_in;
  not_in.kind = ScanTerm::Kind::kInList;
  not_in.column = 0;
  not_in.negated = true;
  not_in.items = {Value::Int64(1)};
  not_in.null_item = true;
  OneColumn(DataType::kInt64, {Value::Int64(1), Value::Int64(2), Value::Null()}, &cells,
            &batch);
  EXPECT_TRUE(Survivors(&batch, not_in).empty());
  not_in.null_item = false;
  OneColumn(DataType::kInt64, {Value::Int64(1), Value::Int64(2), Value::Null()}, &cells,
            &batch);
  EXPECT_EQ(Survivors(&batch, not_in), (std::vector<size_t>{1}));
}

TEST(PredicateKernelTest, MismatchedKindsFallBackToValueOrder) {
  // A term whose literal is outside the column's domain never compiles from
  // SQL, but a hand-built one still answers as Value::Compare would: strings
  // sort after every number.
  sql::Scope scope;
  scope.AddTable("t", KernelSchema());
  auto expr = sql::ParseExpression("s < 5");
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(sql::CompileScanTerm(**expr, scope).has_value());
  ColumnData cells;
  RowBatch batch;
  OneColumn(DataType::kString, {Value::String("a"), Value::Null()}, &cells, &batch);
  ScanTerm gt;
  gt.column = 0;
  gt.op = CompareOp::kGt;
  gt.literal = Value::Int64(5);
  EXPECT_EQ(Survivors(&batch, gt), (std::vector<size_t>{0}));
}

TEST(PredicateKernelTest, PredicateRowFormRunsTermsThenResidual) {
  ScanTerm small;
  small.column = 0;
  small.op = CompareOp::kLt;
  small.literal = Value::Int64(10);
  int residual_calls = 0;
  const ScanPredicate pred({small}, [&residual_calls](const Row& row) {
    ++residual_calls;
    return row[0].AsInt64() % 2 == 0;
  });
  EXPECT_TRUE(static_cast<bool>(pred));
  EXPECT_TRUE(pred(Row{Value::Int64(4)}));
  EXPECT_FALSE(pred(Row{Value::Int64(5)}));
  EXPECT_FALSE(pred(Row{Value::Int64(12)}));  // the term rejects first
  EXPECT_EQ(residual_calls, 2);
  EXPECT_FALSE(static_cast<bool>(ScanPredicate()));
  // A plain lambda assigns as a residual-only predicate.
  ScanPredicate lambda = [](const Row& row) { return row[0].is_null(); };
  EXPECT_TRUE(lambda.terms().empty());
  EXPECT_TRUE(lambda(Row{Value::Null()}));
}

}  // namespace
}  // namespace dtl::table
