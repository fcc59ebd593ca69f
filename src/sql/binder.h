// Name resolution and expression compilation: turns parsed Exprs into
// closures over positional rows (exec::ValueFn). Three-valued logic follows
// SQL: NULL propagates through arithmetic and comparisons; AND/OR short-
// circuit on FALSE/TRUE.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "exec/operators.h"
#include "sql/ast.h"
#include "table/spec.h"

namespace dtl::sql {

/// Column visible to expression binding.
struct ScopeColumn {
  std::string qualifier;  // table alias (lowercase)
  std::string name;       // column name (lowercase)
  DataType type = DataType::kNull;
};

/// Flattened row layout of the current FROM/JOIN chain: the row seen by
/// compiled expressions is the concatenation of all added tables.
class Scope {
 public:
  void AddTable(const std::string& qualifier, const Schema& schema);

  /// Resolves [qualifier.]name to a flat ordinal; errors on unknown or
  /// ambiguous names.
  Result<size_t> Resolve(const std::string& qualifier, const std::string& name) const;

  size_t num_columns() const { return columns_.size(); }
  const ScopeColumn& column(size_t i) const { return columns_[i]; }

 private:
  std::vector<ScopeColumn> columns_;
};

/// A compiled scalar expression plus bookkeeping for pushdown.
struct BoundExpr {
  exec::ValueFn fn;
  std::vector<size_t> columns;  // flat ordinals the expression reads
};

/// Compiles a scalar expression; fails if it contains an aggregate call.
Result<BoundExpr> BindScalar(const Expr& expr, const Scope& scope);

/// True when the expression tree contains an aggregate function call.
bool ContainsAggregate(const Expr& expr);

/// Appends the distinct aggregate calls of `expr` (structural dedup).
void CollectAggregates(const Expr& expr, std::vector<const Expr*>* out);

/// Compiles an expression evaluated AFTER aggregation, over rows laid out as
/// [group keys..., aggregate results...]. Subtrees equal to a group key or an
/// aggregate call become slot references; stray column refs are errors.
Result<exec::ValueFn> BindPostAggregate(const Expr& expr,
                                        const std::vector<const Expr*>& group_exprs,
                                        const std::vector<const Expr*>& agg_exprs,
                                        const Scope& scope);

/// Builds the exec::AggSpec for one aggregate call node.
Result<exec::AggSpec> BindAggregateCall(const Expr& expr, const Scope& scope);

/// Splits a conjunction into its top-level AND terms.
void SplitConjuncts(const Expr& expr, std::vector<const Expr*>* out);

/// Wraps a compiled boolean expression as a row predicate (NULL/non-bool ⇒
/// row rejected, per SQL WHERE semantics).
table::RowPredicateFn MakePredicate(exec::ValueFn fn);

/// A conjunction compiled once: `fn` accepts a row when every conjunct is
/// TRUE (null when there are no conjuncts); `columns` are the flat ordinals
/// the conjuncts read, ascending.
struct BoundPredicate {
  table::RowPredicateFn fn;
  std::vector<size_t> columns;
};
Result<BoundPredicate> BindConjunction(const std::vector<const Expr*>& conjuncts,
                                       const Scope& scope);

/// The kernel term for one conjunct of the form `col op lit` (either side),
/// `col [NOT] IN (lits)` or `col op col`, where op is a comparison, every
/// literal's kind meets the column's declared type in Value::Compare's own
/// domain (numbers with numbers, strings with strings, booleans with
/// booleans) and a compared literal is not NULL; nullopt for anything else.
std::optional<table::ScanTerm> CompileScanTerm(const Expr& conjunct, const Scope& scope);

/// A scan's pushed conjuncts compiled in one pass: each that CompileScanTerm
/// takes becomes a kernel term, every other one joins the residual closure.
struct BoundScanPredicate {
  table::ScanPredicate predicate;
  /// Flat ordinals any conjunct reads, ascending.
  std::vector<size_t> columns;
  /// Stripe bounds implied by the `col op lit` terms.
  std::vector<table::ColumnBound> bounds;
  /// Per conjunct, in order: a kernel term (true) or residual (false).
  std::vector<bool> kernel;
};
Result<BoundScanPredicate> BindScanPredicate(const std::vector<const Expr*>& conjuncts,
                                             const Scope& scope);

/// Truthiness used by filters: TRUE only.
bool ValueIsTrue(const Value& v);

}  // namespace dtl::sql
