// Pushed scan predicates. The SQL layer compiles each pushed conjunct of the
// forms `col op lit`, `col [NOT] IN (lits)` and `col op col` into a typed
// ScanTerm; every other conjunct goes into one residual row closure.
// RowBatch::FilterSelected runs the terms column-at-a-time over a batch's
// typed columns and selection vector, then the residual on the survivors;
// every row consumer (index lookups, rewrites, the baselines) calls the same
// ScanPredicate's row form, so no consumer can evaluate half a predicate.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/schema.h"

namespace dtl::table {

class RowBatch;

/// Inclusive value bounds on one column, used for stripe-level pruning
/// against ORC statistics. A scan may carry several.
struct ColumnBound {
  size_t column = 0;
  std::optional<Value> lower;
  std::optional<Value> upper;
};

/// Row filter evaluated over a full-schema-width row. Only the spec's
/// predicate_columns are guaranteed current: a storage-side filter copies
/// just those cells of each candidate (RowBatch::FilterSelected), and the
/// other cells may read NULL. Shared so operators can hold copies cheaply.
using RowPredicateFn = std::function<bool(const Row&)>;

/// A comparison operator of a compiled term.
enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// The operator SQL spells `op` ("=", "<>", "<", "<=", ">", ">="); nullopt
/// for anything else.
std::optional<CompareOp> ParseCompareOp(std::string_view op);

/// The operator with its operands swapped: `lit < col` is `col > lit`.
CompareOp FlipCompareOp(CompareOp op);

/// Whether non-NULL values of types `a` and `b` compare by value in
/// Value::Compare (numbers with numbers, strings with strings, booleans with
/// booleans) rather than by kind order; the SQL layer compiles a term only
/// when they do.
bool SameCompareDomain(DataType a, DataType b);

/// One pushed conjunct compiled into a typed selection kernel. Its verdict
/// is SQL's WHERE verdict on the conjunct, as the bound closure computes it:
/// TRUE only, every comparison three-way through Value::Compare (an int64
/// meets a double as a double, NaN compares equal to every number), and a
/// NULL operand never TRUE.
struct ScanTerm {
  enum class Kind : uint8_t {
    kCompare,         // column op literal
    kCompareColumns,  // column op other
    kInList,          // column [NOT] IN (items)
  };
  Kind kind = Kind::kCompare;
  size_t column = 0;
  CompareOp op = CompareOp::kEq;
  /// kCompare: the literal; never NULL (a NULL literal is never TRUE and is
  /// left to the residual).
  Value literal;
  /// kCompareColumns: the right-hand column.
  size_t other = 0;
  /// kInList: the non-NULL items, whether a NULL item was listed (NOT IN is
  /// then never TRUE), and whether the list is negated.
  std::vector<Value> items;
  bool null_item = false;
  bool negated = false;

  /// The verdict on a full-width row.
  bool Matches(const Row& row) const;

  /// Keeps, in order, those of the `n` physical rows listed in `sel` for
  /// which the term holds over `batch`'s typed columns, and returns how many
  /// remain. Numeric comparisons run as a dense mask over the batch's rows
  /// in loops the compiler can vectorize, then compact the selection.
  size_t Filter(const RowBatch& batch, uint32_t* sel, size_t n) const;

  /// The stripe bound a `col op lit` term implies (strict bounds widen to
  /// inclusive); nullopt for `<>`, IN lists and column comparisons.
  std::optional<ColumnBound> Bound() const;
};

/// A scan's whole pushed predicate: compiled terms plus a residual closure
/// for every other conjunct, all ANDed. Assignable from any
/// `bool(const Row&)` callable, which becomes a residual-only predicate.
class ScanPredicate {
 public:
  ScanPredicate() = default;
  ScanPredicate(std::vector<ScanTerm> terms, RowPredicateFn residual)
      : terms_(std::move(terms)), residual_(std::move(residual)) {}
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, ScanPredicate> &&
             std::is_invocable_r_v<bool, const F&, const Row&>)
  ScanPredicate(F fn)  // NOLINT(google-explicit-constructor): lambdas assign
      : residual_(std::move(fn)) {}

  /// False when the predicate accepts every row.
  explicit operator bool() const {
    return !terms_.empty() || static_cast<bool>(residual_);
  }

  /// The row form: every term, then the residual.
  bool operator()(const Row& row) const {
    for (const ScanTerm& term : terms_) {
      if (!term.Matches(row)) return false;
    }
    return !residual_ || residual_(row);
  }

  const std::vector<ScanTerm>& terms() const { return terms_; }
  const RowPredicateFn& residual() const { return residual_; }

 private:
  std::vector<ScanTerm> terms_;
  RowPredicateFn residual_;
};

}  // namespace dtl::table
