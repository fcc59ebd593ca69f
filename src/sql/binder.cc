#include "sql/binder.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>

#include "table/column_data.h"

namespace dtl::sql {

namespace {

std::string ToLower(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

bool IsAggregateName(const std::string& name) {
  return name == "sum" || name == "count" || name == "min" || name == "max" ||
         name == "avg";
}

// --- scalar evaluation kernels ---

Value EvalArithmetic(const std::string& op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (op == "/") {
    auto x = a.ToNumeric();
    auto y = b.ToNumeric();
    if (!x.ok() || !y.ok()) return Value::Null();
    if (*y == 0) return Value::Null();  // SQL: division by zero yields NULL (Hive)
    return Value::Double(*x / *y);
  }
  if (a.is_int64() && b.is_int64()) {
    const int64_t x = a.AsInt64(), y = b.AsInt64();
    if (op == "+") return Value::Int64(x + y);
    if (op == "-") return Value::Int64(x - y);
    if (op == "*") return Value::Int64(x * y);
    if (op == "%") return y == 0 ? Value::Null() : Value::Int64(x % y);
  }
  auto x = a.ToNumeric();
  auto y = b.ToNumeric();
  if (!x.ok() || !y.ok()) return Value::Null();
  if (op == "+") return Value::Double(*x + *y);
  if (op == "-") return Value::Double(*x - *y);
  if (op == "*") return Value::Double(*x * *y);
  if (op == "%") return *y == 0 ? Value::Null() : Value::Double(std::fmod(*x, *y));
  return Value::Null();
}

Value EvalComparison(const std::string& op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  const int c = a.Compare(b);
  if (op == "=") return Value::Bool(c == 0);
  if (op == "<>") return Value::Bool(c != 0);
  if (op == "<") return Value::Bool(c < 0);
  if (op == "<=") return Value::Bool(c <= 0);
  if (op == ">") return Value::Bool(c > 0);
  if (op == ">=") return Value::Bool(c >= 0);
  return Value::Null();
}

}  // namespace

bool ValueIsTrue(const Value& v) { return v.is_bool() && v.AsBool(); }

void Scope::AddTable(const std::string& qualifier, const Schema& schema) {
  const std::string q = ToLower(qualifier);
  for (const Field& f : schema.fields()) {
    columns_.push_back(ScopeColumn{q, ToLower(f.name), f.type});
  }
}

Result<size_t> Scope::Resolve(const std::string& qualifier, const std::string& name) const {
  const std::string q = ToLower(qualifier);
  const std::string n = ToLower(name);
  size_t found = 0;
  size_t index = 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name != n) continue;
    if (!q.empty() && columns_[i].qualifier != q) continue;
    ++found;
    index = i;
  }
  if (found == 0) {
    return Status::NotFound("unknown column: " + (q.empty() ? n : q + "." + n));
  }
  if (found > 1) {
    return Status::InvalidArgument("ambiguous column: " + (q.empty() ? n : q + "." + n));
  }
  return index;
}

bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == Expr::Kind::kFuncCall && IsAggregateName(expr.func_name)) return true;
  for (const auto& a : expr.args) {
    if (ContainsAggregate(*a)) return true;
  }
  return false;
}

void CollectAggregates(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == Expr::Kind::kFuncCall && IsAggregateName(expr.func_name)) {
    for (const Expr* existing : *out) {
      if (existing->Equals(expr)) return;
    }
    out->push_back(&expr);
    return;  // aggregates do not nest
  }
  for (const auto& a : expr.args) CollectAggregates(*a, out);
}

void SplitConjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == Expr::Kind::kBinary && expr.op == "and") {
    SplitConjuncts(*expr.args[0], out);
    SplitConjuncts(*expr.args[1], out);
    return;
  }
  out->push_back(&expr);
}

namespace {

/// Compiles the node given already-compiled children (shared between the
/// scalar and post-aggregate binders).
Result<exec::ValueFn> CompileNode(const Expr& expr, std::vector<exec::ValueFn> children) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral: {
      Value v = expr.literal;
      return exec::ValueFn([v](const Row&) { return v; });
    }
    case Expr::Kind::kBinary: {
      const std::string op = expr.op;
      auto lhs = std::move(children[0]);
      auto rhs = std::move(children[1]);
      if (op == "and") {
        return exec::ValueFn([lhs, rhs](const Row& row) {
          Value a = lhs(row);
          if (a.is_bool() && !a.AsBool()) return Value::Bool(false);
          Value b = rhs(row);
          if (b.is_bool() && !b.AsBool()) return Value::Bool(false);
          if (a.is_null() || b.is_null()) return Value::Null();
          return Value::Bool(true);
        });
      }
      if (op == "or") {
        return exec::ValueFn([lhs, rhs](const Row& row) {
          Value a = lhs(row);
          if (a.is_bool() && a.AsBool()) return Value::Bool(true);
          Value b = rhs(row);
          if (b.is_bool() && b.AsBool()) return Value::Bool(true);
          if (a.is_null() || b.is_null()) return Value::Null();
          return Value::Bool(false);
        });
      }
      if (op == "+" || op == "-" || op == "*" || op == "/" || op == "%") {
        return exec::ValueFn([op, lhs, rhs](const Row& row) {
          return EvalArithmetic(op, lhs(row), rhs(row));
        });
      }
      return exec::ValueFn([op, lhs, rhs](const Row& row) {
        return EvalComparison(op, lhs(row), rhs(row));
      });
    }
    case Expr::Kind::kUnary: {
      auto child = std::move(children[0]);
      if (expr.op == "not") {
        return exec::ValueFn([child](const Row& row) {
          Value v = child(row);
          if (v.is_null()) return Value::Null();
          if (!v.is_bool()) return Value::Null();
          return Value::Bool(!v.AsBool());
        });
      }
      if (expr.op == "-") {
        return exec::ValueFn([child](const Row& row) {
          Value v = child(row);
          if (v.is_null()) return Value::Null();
          if (v.is_int64()) return Value::Int64(-v.AsInt64());
          if (v.is_double()) return Value::Double(-v.AsDouble());
          return Value::Null();
        });
      }
      return Status::InvalidArgument("unknown unary operator " + expr.op);
    }
    case Expr::Kind::kIsNull: {
      auto child = std::move(children[0]);
      const bool negated = expr.negated;
      return exec::ValueFn([child, negated](const Row& row) {
        return Value::Bool(child(row).is_null() != negated);
      });
    }
    case Expr::Kind::kInList: {
      const bool negated = expr.negated;
      auto needle = std::move(children[0]);
      std::vector<exec::ValueFn> items(std::make_move_iterator(children.begin() + 1),
                                       std::make_move_iterator(children.end()));
      return exec::ValueFn([needle, items, negated](const Row& row) {
        Value v = needle(row);
        if (v.is_null()) return Value::Null();
        bool any_null = false;
        for (const auto& item : items) {
          Value w = item(row);
          if (w.is_null()) {
            any_null = true;
            continue;
          }
          if (v.Compare(w) == 0) return Value::Bool(!negated);
        }
        if (any_null) return Value::Null();
        return Value::Bool(negated);
      });
    }
    case Expr::Kind::kFuncCall: {
      const std::string& name = expr.func_name;
      if (name == "if") {
        if (children.size() != 3) return Status::InvalidArgument("IF needs 3 arguments");
        auto cond = std::move(children[0]);
        auto then_fn = std::move(children[1]);
        auto else_fn = std::move(children[2]);
        return exec::ValueFn([cond, then_fn, else_fn](const Row& row) {
          return ValueIsTrue(cond(row)) ? then_fn(row) : else_fn(row);
        });
      }
      if (name == "coalesce") {
        if (children.empty()) {
          return Status::InvalidArgument("COALESCE needs at least 1 argument");
        }
        auto items = std::move(children);
        return exec::ValueFn([items](const Row& row) {
          for (const auto& item : items) {
            Value v = item(row);
            if (!v.is_null()) return v;
          }
          return Value::Null();
        });
      }
      if (name == "abs") {
        if (children.size() != 1) return Status::InvalidArgument("ABS needs 1 argument");
        auto child = std::move(children[0]);
        return exec::ValueFn([child](const Row& row) {
          Value v = child(row);
          if (v.is_null()) return Value::Null();
          if (v.is_int64()) return Value::Int64(std::llabs(v.AsInt64()));
          if (v.is_double()) return Value::Double(std::fabs(v.AsDouble()));
          return Value::Null();
        });
      }
      return Status::InvalidArgument("unknown function: " + name);
    }
    case Expr::Kind::kColumnRef:
      return Status::Internal("column ref must be compiled by the caller");
  }
  return Status::Internal("unreachable expression kind");
}

Result<BoundExpr> BindScalarImpl(const Expr& expr, const Scope& scope,
                                 std::set<size_t>* columns) {
  if (expr.kind == Expr::Kind::kColumnRef) {
    DTL_ASSIGN_OR_RETURN(size_t ordinal, scope.Resolve(expr.qualifier, expr.column));
    columns->insert(ordinal);
    BoundExpr out;
    out.fn = [ordinal](const Row& row) {
      return ordinal < row.size() ? row[ordinal] : Value::Null();
    };
    return out;
  }
  if (expr.kind == Expr::Kind::kFuncCall && IsAggregateName(expr.func_name)) {
    return Status::InvalidArgument("aggregate " + expr.func_name +
                                   " is not allowed in this context");
  }
  std::vector<exec::ValueFn> children;
  children.reserve(expr.args.size());
  for (const auto& arg : expr.args) {
    DTL_ASSIGN_OR_RETURN(BoundExpr child, BindScalarImpl(*arg, scope, columns));
    children.push_back(std::move(child.fn));
  }
  DTL_ASSIGN_OR_RETURN(exec::ValueFn fn, CompileNode(expr, std::move(children)));
  BoundExpr out;
  out.fn = std::move(fn);
  return out;
}

}  // namespace

Result<BoundExpr> BindScalar(const Expr& expr, const Scope& scope) {
  std::set<size_t> columns;
  DTL_ASSIGN_OR_RETURN(BoundExpr out, BindScalarImpl(expr, scope, &columns));
  out.columns.assign(columns.begin(), columns.end());
  return out;
}

Result<exec::AggSpec> BindAggregateCall(const Expr& expr, const Scope& scope) {
  if (expr.kind != Expr::Kind::kFuncCall || !IsAggregateName(expr.func_name)) {
    return Status::InvalidArgument("not an aggregate call: " + expr.ToString());
  }
  exec::AggSpec spec;
  if (expr.func_name == "count" && expr.star_arg) {
    spec.kind = exec::AggKind::kCountStar;
    return spec;
  }
  if (expr.args.size() != 1) {
    return Status::InvalidArgument(expr.func_name + " needs exactly one argument");
  }
  DTL_ASSIGN_OR_RETURN(BoundExpr input, BindScalar(*expr.args[0], scope));
  spec.input = std::move(input.fn);
  if (expr.func_name == "count") {
    spec.kind = exec::AggKind::kCount;
  } else if (expr.func_name == "sum") {
    spec.kind = exec::AggKind::kSum;
  } else if (expr.func_name == "min") {
    spec.kind = exec::AggKind::kMin;
  } else if (expr.func_name == "max") {
    spec.kind = exec::AggKind::kMax;
  } else {
    spec.kind = exec::AggKind::kAvg;
  }
  return spec;
}

Result<exec::ValueFn> BindPostAggregate(const Expr& expr,
                                        const std::vector<const Expr*>& group_exprs,
                                        const std::vector<const Expr*>& agg_exprs,
                                        const Scope& scope) {
  // Subtree equal to a group key?
  for (size_t i = 0; i < group_exprs.size(); ++i) {
    if (group_exprs[i]->Equals(expr)) {
      const size_t slot = i;
      return exec::ValueFn([slot](const Row& row) { return row[slot]; });
    }
  }
  // An aggregate call?
  for (size_t j = 0; j < agg_exprs.size(); ++j) {
    if (agg_exprs[j]->Equals(expr)) {
      const size_t slot = group_exprs.size() + j;
      return exec::ValueFn([slot](const Row& row) { return row[slot]; });
    }
  }
  if (expr.kind == Expr::Kind::kColumnRef) {
    return Status::InvalidArgument("column " + expr.ToString() +
                                   " must appear in GROUP BY or inside an aggregate");
  }
  if (expr.kind == Expr::Kind::kLiteral) {
    Value v = expr.literal;
    return exec::ValueFn([v](const Row&) { return v; });
  }
  std::vector<exec::ValueFn> children;
  children.reserve(expr.args.size());
  for (const auto& arg : expr.args) {
    DTL_ASSIGN_OR_RETURN(exec::ValueFn child,
                         BindPostAggregate(*arg, group_exprs, agg_exprs, scope));
    children.push_back(std::move(child));
  }
  return CompileNode(expr, std::move(children));
}

table::RowPredicateFn MakePredicate(exec::ValueFn fn) {
  return [fn = std::move(fn)](const Row& row) { return ValueIsTrue(fn(row)); };
}

namespace {

/// Accepts a row when every one of `fns` is TRUE; null when there are none.
table::RowPredicateFn AllTrue(std::vector<exec::ValueFn> fns) {
  if (fns.empty()) return nullptr;
  return [fns = std::move(fns)](const Row& row) {
    for (const auto& fn : fns) {
      if (!ValueIsTrue(fn(row))) return false;
    }
    return true;
  };
}

}  // namespace

Result<BoundPredicate> BindConjunction(const std::vector<const Expr*>& conjuncts,
                                       const Scope& scope) {
  BoundPredicate out;
  std::vector<exec::ValueFn> fns;
  std::set<size_t> columns;
  for (const Expr* c : conjuncts) {
    DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*c, scope));
    fns.push_back(std::move(bound.fn));
    columns.insert(bound.columns.begin(), bound.columns.end());
  }
  out.fn = AllTrue(std::move(fns));
  out.columns.assign(columns.begin(), columns.end());
  return out;
}

std::optional<table::ScanTerm> CompileScanTerm(const Expr& conjunct, const Scope& scope) {
  auto column_of = [&scope](const Expr& e) -> std::optional<size_t> {
    if (e.kind != Expr::Kind::kColumnRef) return std::nullopt;
    auto ordinal = scope.Resolve(e.qualifier, e.column);
    if (!ordinal.ok()) return std::nullopt;
    return *ordinal;
  };
  table::ScanTerm term;
  if (conjunct.kind == Expr::Kind::kBinary) {
    std::optional<table::CompareOp> op = table::ParseCompareOp(conjunct.op);
    if (!op.has_value()) return std::nullopt;
    const Expr* lhs = conjunct.args[0].get();
    const Expr* rhs = conjunct.args[1].get();
    if (lhs->kind == Expr::Kind::kLiteral && rhs->kind == Expr::Kind::kColumnRef) {
      std::swap(lhs, rhs);
      op = table::FlipCompareOp(*op);
    }
    const std::optional<size_t> column = column_of(*lhs);
    if (!column.has_value()) return std::nullopt;
    const DataType type = scope.column(*column).type;
    term.column = *column;
    term.op = *op;
    if (rhs->kind == Expr::Kind::kLiteral) {
      if (!table::SameCompareDomain(type, table::KindOf(rhs->literal))) {
        return std::nullopt;
      }
      term.kind = table::ScanTerm::Kind::kCompare;
      term.literal = rhs->literal;
      return term;
    }
    const std::optional<size_t> other = column_of(*rhs);
    if (!other.has_value() ||
        !table::SameCompareDomain(type, scope.column(*other).type)) {
      return std::nullopt;
    }
    term.kind = table::ScanTerm::Kind::kCompareColumns;
    term.other = *other;
    return term;
  }
  if (conjunct.kind != Expr::Kind::kInList) return std::nullopt;
  const std::optional<size_t> column = column_of(*conjunct.args[0]);
  if (!column.has_value()) return std::nullopt;
  const DataType type = scope.column(*column).type;
  term.kind = table::ScanTerm::Kind::kInList;
  term.column = *column;
  term.negated = conjunct.negated;
  for (size_t i = 1; i < conjunct.args.size(); ++i) {
    const Expr& item = *conjunct.args[i];
    if (item.kind != Expr::Kind::kLiteral) return std::nullopt;
    if (item.literal.is_null()) {
      term.null_item = true;
    } else if (table::SameCompareDomain(type, table::KindOf(item.literal))) {
      term.items.push_back(item.literal);
    } else {
      return std::nullopt;
    }
  }
  return term;
}

Result<BoundScanPredicate> BindScanPredicate(const std::vector<const Expr*>& conjuncts,
                                             const Scope& scope) {
  BoundScanPredicate out;
  std::vector<table::ScanTerm> terms;
  std::vector<exec::ValueFn> residual;
  std::set<size_t> columns;
  for (const Expr* c : conjuncts) {
    // Binding every conjunct reports unknown columns and misplaced
    // aggregates exactly as the closure would, compiled or not.
    DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*c, scope));
    columns.insert(bound.columns.begin(), bound.columns.end());
    std::optional<table::ScanTerm> term = CompileScanTerm(*c, scope);
    out.kernel.push_back(term.has_value());
    if (!term.has_value()) {
      residual.push_back(std::move(bound.fn));
      continue;
    }
    if (std::optional<table::ColumnBound> stripe_bound = term->Bound()) {
      out.bounds.push_back(std::move(*stripe_bound));
    }
    terms.push_back(std::move(*term));
  }
  out.predicate = table::ScanPredicate(std::move(terms), AllTrue(std::move(residual)));
  out.columns.assign(columns.begin(), columns.end());
  return out;
}

}  // namespace dtl::sql
