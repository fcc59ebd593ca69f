#include "sql/engine.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "baseline/acid_table.h"
#include "common/stopwatch.h"
#include "dualtable/dual_table.h"
#include "exec/operators.h"
#include "exec/parallel_scan.h"
#include "obs/metric_names.h"
#include "obs/query_log.h"
#include "obs/recorder.h"
#include "orc/stripe_cache.h"
#include "table/csv.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace dtl::sql {

namespace {

/// Recursively resolves every column ref in `expr` and records the flat
/// ordinals; returns the first resolution error.
Status CollectColumns(const Expr& expr, const Scope& scope, std::set<size_t>* out) {
  if (expr.kind == Expr::Kind::kColumnRef) {
    DTL_ASSIGN_OR_RETURN(size_t ordinal, scope.Resolve(expr.qualifier, expr.column));
    out->insert(ordinal);
    return Status::OK();
  }
  for (const auto& a : expr.args) DTL_RETURN_NOT_OK(CollectColumns(*a, scope, out));
  return Status::OK();
}

/// Replaces column refs matching a SELECT alias with a clone of the aliased
/// expression (HiveQL allows aliases in GROUP BY / HAVING / ORDER BY).
ExprPtr SubstituteAliases(const Expr& expr, const std::vector<SelectItem>& items) {
  if (expr.kind == Expr::Kind::kColumnRef && expr.qualifier.empty()) {
    for (const SelectItem& item : items) {
      if (!item.star && !item.alias.empty() && item.alias == expr.column) {
        return item.expr->Clone();
      }
    }
  }
  ExprPtr copy = expr.Clone();
  for (auto& a : copy->args) a = SubstituteAliases(*a, items);
  return copy;
}

struct TableSlot {
  std::string qualifier;
  std::shared_ptr<table::StorageTable> storage;  // null for derived tables
  std::shared_ptr<std::vector<Row>> derived_rows;  // FROM (SELECT ...) results
  size_t offset = 0;  // first flat ordinal of this table
  size_t width = 0;
  /// Statement snapshot, acquired at bind time when `storage` is a
  /// DualTable. Every scan of this slot — serial, vectorized, parallel,
  /// split — reads from it, so one statement sees one consistent view of
  /// each table no matter what commits concurrently (repeatable read at
  /// statement granularity).
  dual::SnapshotPtr snapshot;
};

/// Schema for a derived table: column names from the subquery's output,
/// types inferred from the first non-null value per column.
Schema DeriveSchema(const QueryResult& result) {
  std::vector<Field> fields;
  for (size_t c = 0; c < result.column_names.size(); ++c) {
    DataType type = DataType::kString;
    for (const Row& row : result.rows) {
      if (c >= row.size() || row[c].is_null()) continue;
      if (row[c].is_int64()) type = DataType::kInt64;
      else if (row[c].is_double()) type = DataType::kDouble;
      else if (row[c].is_bool()) type = DataType::kBool;
      else type = DataType::kString;
      break;
    }
    fields.push_back(Field{result.column_names[c], type});
  }
  return Schema(std::move(fields));
}

/// Index of the table a flat ordinal belongs to.
size_t TableOf(const std::vector<TableSlot>& slots, size_t ordinal) {
  for (size_t i = 0; i < slots.size(); ++i) {
    if (ordinal >= slots[i].offset && ordinal < slots[i].offset + slots[i].width) return i;
  }
  return slots.size();
}

/// Scans `conjuncts` for one the secondary index can answer: `col = lit` or a
/// non-negated `col IN (lit, ...)` where `col` is indexed and every literal's
/// kind matches the column type exactly (mixed-kind comparisons fall back to
/// the scan path, which owns the coercion semantics). NULL literals never
/// match a row, so they contribute no probe. Returns false when no conjunct
/// qualifies.
bool FindIndexProbe(const std::vector<const Expr*>& conjuncts, const Scope& scope,
                    const Schema& schema, const dual::SecondaryIndex& index,
                    size_t* column, std::vector<Value>* probes) {
  for (const Expr* c : conjuncts) {
    const Expr* col_ref = nullptr;
    std::vector<const Value*> lits;
    if (c->kind == Expr::Kind::kBinary && c->op == "=") {
      const Expr* lhs = c->args[0].get();
      const Expr* rhs = c->args[1].get();
      if (lhs->kind == Expr::Kind::kLiteral && rhs->kind == Expr::Kind::kColumnRef) {
        std::swap(lhs, rhs);
      }
      if (lhs->kind == Expr::Kind::kColumnRef && rhs->kind == Expr::Kind::kLiteral) {
        col_ref = lhs;
        lits.push_back(&rhs->literal);
      }
    } else if (c->kind == Expr::Kind::kInList && !c->negated &&
               c->args[0]->kind == Expr::Kind::kColumnRef) {
      col_ref = c->args[0].get();
      for (size_t i = 1; i < c->args.size() && col_ref != nullptr; ++i) {
        if (c->args[i]->kind != Expr::Kind::kLiteral) {
          col_ref = nullptr;
        } else {
          lits.push_back(&c->args[i]->literal);
        }
      }
    }
    if (col_ref == nullptr) continue;
    auto ordinal = scope.Resolve(col_ref->qualifier, col_ref->column);
    if (!ordinal.ok() || !index.IndexesColumn(*ordinal)) continue;
    const DataType type = schema.field(*ordinal).type;
    bool kinds_ok = true;
    std::vector<Value> vals;
    for (const Value* lit : lits) {
      if (lit->is_null()) continue;
      const bool kind_match =
          (lit->is_int64() && (type == DataType::kInt64 || type == DataType::kDate)) ||
          (lit->is_string() && type == DataType::kString);
      if (!kind_match) {
        kinds_ok = false;
        break;
      }
      vals.push_back(*lit);
    }
    if (!kinds_ok) continue;
    *column = *ordinal;
    *probes = std::move(vals);
    return true;
  }
  return false;
}

/// The keyed-DML route (DESIGN.md §13): the probe an EDIT on `dual` takes its
/// matches from — found by the same FindIndexProbe the SELECT fast path runs
/// — or nullopt when the table has no index or the WHERE offers no probe.
std::optional<dual::IndexProbe> FindDmlIndexProbe(const Expr* where, const Scope& scope,
                                                  dual::DualTable* dual) {
  if (where == nullptr || dual->secondary_index() == nullptr) return std::nullopt;
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(*where, &conjuncts);
  dual::IndexProbe probe;
  if (!FindIndexProbe(conjuncts, scope, dual->schema(), *dual->secondary_index(),
                      &probe.column, &probe.values)) {
    return std::nullopt;
  }
  return probe;
}

/// The DML result message; names the index route when the EDIT took it.
std::string DmlMessage(const char* verb, const table::DmlResult& dml) {
  return std::string(verb) + " " + std::to_string(dml.rows_matched) + " rows via " +
         table::DmlPlanName(dml.plan) + " plan" +
         (dml.index_lookup ? " (index lookup)" : "");
}

/// EXPLAIN lines for a DualTable UPDATE/DELETE: the plan choice the executor
/// will make (same DualTable::PlanUpdate/PlanDelete resolution, ratio labelled
/// by its source) and the index route exactly when the executor takes it.
void ExplainDualDml(const dual::DualTable& dual, const dual::DmlPlanChoice& choice,
                    const std::optional<dual::IndexProbe>& probe,
                    const std::function<void(const std::string&)>& emit) {
  if (choice.cost_model) {
    emit("  ratio: " + std::to_string(choice.ratio) + " (" +
         dual::RatioSourceName(choice.ratio_source) + ")");
    emit("  cost model: " + choice.decision.ToString());
  }
  emit(std::string("  plan: ") + table::DmlPlanName(choice.plan) +
       (choice.cost_model ? "" : " (forced by plan mode)"));
  if (choice.plan == table::DmlPlan::kEdit && probe.has_value()) {
    emit("  index lookup: column '" + dual.schema().field(probe->column).name + "', " +
         std::to_string(probe->values.size()) + " probe(s)");
  }
}

/// Row-at-a-time trace decorator: charges each Next()'s wall time and the
/// emitted row to a flat child node of the execute node. Only inserted when
/// the session tracer is active, so untraced queries pay nothing.
class TracedOperator : public exec::Operator {
 public:
  TracedOperator(std::unique_ptr<exec::Operator> child, obs::TraceNode* node)
      : child_(std::move(child)), node_(node) {}
  bool Next() override {
    Stopwatch watch;
    const bool has = child_->Next();
    node_->stats.wall_seconds += watch.ElapsedSeconds();
    if (has) ++node_->stats.rows;
    return has;
  }
  const Row& row() const override { return child_->row(); }
  const Status& status() const override { return child_->status(); }

 private:
  std::unique_ptr<exec::Operator> child_;
  obs::TraceNode* node_;
};

/// Batch-pipeline analog of TracedOperator: also counts batches and the
/// decoded payload bytes flowing through the stage.
class TracedBatchOperator : public exec::BatchOperator {
 public:
  TracedBatchOperator(std::unique_ptr<exec::BatchOperator> child, obs::TraceNode* node)
      : child_(std::move(child)), node_(node) {}
  bool Next(table::RowBatch* batch) override {
    Stopwatch watch;
    const bool has = child_->Next(batch);
    node_->stats.wall_seconds += watch.ElapsedSeconds();
    if (has) {
      ++node_->stats.batches;
      node_->stats.rows += batch->size();
    }
    return has;
  }
  const Status& status() const override { return child_->status(); }

 private:
  std::unique_ptr<exec::BatchOperator> child_;
  obs::TraceNode* node_;
};

}  // namespace

Result<Value> CoerceValue(const Value& v, DataType type, const std::string& column) {
  if (v.is_null()) return v;
  switch (type) {
    case DataType::kInt64:
    case DataType::kDate:
      if (v.is_int64()) return v;
      if (v.is_double()) return Value::Int64(static_cast<int64_t>(v.AsDouble()));
      break;
    case DataType::kDouble: {
      auto n = v.ToNumeric();
      if (n.ok()) return Value::Double(*n);
      break;
    }
    case DataType::kString:
      if (v.is_string()) return v;
      return Value::String(v.ToString());
    case DataType::kBool:
      if (v.is_bool()) return v;
      break;
    case DataType::kNull:
      break;
  }
  return Status::InvalidArgument("cannot store " + v.ToString() + " into column " +
                                 column + " of type " + DataTypeName(type));
}

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < column_names.size(); ++i) {
    if (i > 0) out += "\t";
    out += column_names[i];
  }
  if (!column_names.empty()) out += "\n";
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    out += RowToString(rows[r]);
    out += "\n";
  }
  if (rows.size() > max_rows) {
    out += "... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  if (!message.empty()) {
    out += message;
    out += "\n";
  }
  return out;
}

Result<QueryResult> Engine::Execute(const std::string& sql) {
  Stopwatch parse_watch;
  DTL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  last_parse_seconds_ = parse_watch.ElapsedSeconds();
  last_sql_ = sql;
  auto result = ExecuteStatement(stmt);
  last_sql_.clear();
  return result;
}

namespace {

const char* StatementKindName(const Statement& stmt) {
  if (std::get_if<SelectStmt>(&stmt)) return "select";
  if (std::get_if<CreateTableStmt>(&stmt)) return "create";
  if (std::get_if<DropTableStmt>(&stmt)) return "drop";
  if (std::get_if<InsertStmt>(&stmt)) return "insert";
  if (std::get_if<UpdateStmt>(&stmt)) return "update";
  if (std::get_if<DeleteStmt>(&stmt)) return "delete";
  if (std::get_if<CompactStmt>(&stmt)) return "compact";
  if (std::get_if<ShowTablesStmt>(&stmt)) return "show_tables";
  if (std::get_if<ShowStatsStmt>(&stmt)) return "show_stats";
  if (std::get_if<MergeStmt>(&stmt)) return "merge";
  if (std::get_if<LoadStmt>(&stmt)) return "load";
  if (const auto* e = std::get_if<ExplainStmt>(&stmt)) {
    return e->analyze ? "explain_analyze" : "explain";
  }
  return "unknown";
}

}  // namespace

Result<QueryResult> Engine::ExecuteStatement(const Statement& stmt) {
  obs::QueryLog* log = exec_.query_log;
  // The SHOW introspection forms are excluded: logging SHOW STATS QUERIES
  // would make the log describe itself.
  const bool capture = log != nullptr && !std::holds_alternative<ShowTablesStmt>(stmt) &&
                       !std::holds_alternative<ShowStatsStmt>(stmt);
  if (!capture) return DispatchStatement(stmt);

  // Capture reads individual meters, NOT MetricsRegistry::Snapshot(): a full
  // snapshot evaluates every view and copies every histogram, which costs
  // more than a small SELECT — the observability-overhead contract
  // (DESIGN.md §10) rules it out of the statement path.
  const table::ScanMeter* scan_meter =
      exec_.scan_meter != nullptr ? exec_.scan_meter : &table::GlobalScanMeter();
  const table::ScanSnapshot scan_before = scan_meter->Snapshot();
  const orc::StripeCacheStats cache_before = orc::StripeCache::Default()->Stats();
  const uint64_t probes_before =
      exec_.metrics != nullptr
          ? exec_.metrics->SumCounterFamily(obs::names::kIndexCounterLookups)
          : 0;
  fs::IoSnapshot io_before;
  const bool modeled = exec_.tracer != nullptr && exec_.tracer->io() != nullptr &&
                       exec_.tracer->cluster() != nullptr;
  if (modeled) io_before = exec_.tracer->io()->Snapshot();

  Stopwatch wall;
  auto result = DispatchStatement(stmt);

  obs::QueryLogRecord record;
  record.kind = StatementKindName(stmt);
  record.sql = last_sql_;
  record.wall_seconds = wall.ElapsedSeconds();
  if (modeled) {
    record.modeled_seconds =
        exec_.tracer->cluster()->JobSeconds(exec_.tracer->io()->Snapshot() - io_before);
  }
  if (result.ok()) {
    record.ok = true;
    record.rows = result->rows.size() + result->affected_rows;
  } else {
    record.ok = false;
    record.error = result.status().message();
  }
  record.bytes_decoded = (scan_meter->Snapshot() - scan_before).bytes;
  const orc::StripeCacheStats cache_after = orc::StripeCache::Default()->Stats();
  record.stripe_cache_hits = cache_after.hits - cache_before.hits;
  if (exec_.metrics != nullptr) {
    record.index_probes =
        exec_.metrics->SumCounterFamily(obs::names::kIndexCounterLookups) -
        probes_before;
    // The age is a point-in-time view, and evaluating the family invokes a
    // view callback (table lookup + tracker mutex) per registered table —
    // too dear for every fast statement. Slow statements are the ones whose
    // records get read for diagnosis, so only they pay for the deep context.
    const double slow_at = log->slow_threshold_seconds();
    if (slow_at > 0 && record.wall_seconds >= slow_at) {
      record.snapshot_age_seconds =
          exec_.metrics->MaxViewFamily(obs::names::kSnapshotOldestSeconds);
    }
  }
  log->Append(std::move(record));
  return result;
}

Result<QueryResult> Engine::DispatchStatement(const Statement& stmt) {
  // One unlabeled increment per statement plus a per-kind labeled counter
  // for the statement kinds that also open trace spans.
  if (exec_.metrics != nullptr) {
    exec_.metrics->counter(obs::names::kSqlStatements)->Inc();
  }
  auto count = [this](const char* kind) {
    if (exec_.metrics != nullptr) {
      exec_.metrics->counter(obs::names::kSqlStatements, kind)->Inc();
    }
  };
  if (const auto* s = std::get_if<SelectStmt>(&stmt)) {
    count(obs::names::kSpanSelect);
    obs::Span span(exec_.tracer, obs::names::kSpanSelect);
    return ExecuteSelect(*s);
  }
  if (const auto* s = std::get_if<CreateTableStmt>(&stmt)) return ExecuteCreate(*s);
  if (const auto* s = std::get_if<DropTableStmt>(&stmt)) return ExecuteDrop(*s);
  if (const auto* s = std::get_if<InsertStmt>(&stmt)) {
    count(obs::names::kSpanInsert);
    obs::Span span(exec_.tracer, obs::names::kSpanInsert);
    return ExecuteInsert(*s);
  }
  if (const auto* s = std::get_if<UpdateStmt>(&stmt)) {
    count(obs::names::kSpanUpdate);
    obs::Span span(exec_.tracer, obs::names::kSpanUpdate);
    return ExecuteUpdate(*s);
  }
  if (const auto* s = std::get_if<DeleteStmt>(&stmt)) {
    count(obs::names::kSpanDelete);
    obs::Span span(exec_.tracer, obs::names::kSpanDelete);
    return ExecuteDelete(*s);
  }
  if (const auto* s = std::get_if<CompactStmt>(&stmt)) {
    count(obs::names::kSpanCompact);
    obs::Span span(exec_.tracer, obs::names::kSpanCompact);
    return ExecuteCompact(*s);
  }
  if (std::get_if<ShowTablesStmt>(&stmt)) return ExecuteShowTables();
  if (const auto* s = std::get_if<ShowStatsStmt>(&stmt)) return ExecuteShowStats(*s);
  if (const auto* s = std::get_if<MergeStmt>(&stmt)) {
    count(obs::names::kSpanMerge);
    obs::Span span(exec_.tracer, obs::names::kSpanMerge);
    return ExecuteMerge(*s);
  }
  if (const auto* s = std::get_if<LoadStmt>(&stmt)) return ExecuteLoad(*s);
  if (const auto* s = std::get_if<ExplainStmt>(&stmt)) return ExecuteExplain(*s);
  return Status::Internal("unhandled statement kind");
}

Result<QueryResult> Engine::ExecuteSelect(const SelectStmt& stmt) {
  // Everything before the execute node is "bind": resolution, expression
  // binding, and plan assembly. EXPLAIN ANALYZE reports it as one leaf.
  obs::Tracer* tracer = exec_.tracer;
  const bool traced = tracer != nullptr && tracer->active();
  Stopwatch bind_watch;

  // ---- resolve tables and build the flat scope ----
  std::vector<TableSlot> slots;
  Scope scope;
  auto add_table = [&](const TableRef& ref) -> Status {
    TableSlot slot;
    slot.qualifier = ref.EffectiveName();
    slot.offset = scope.num_columns();
    if (ref.subquery != nullptr) {
      DTL_ASSIGN_OR_RETURN(QueryResult sub, ExecuteSelect(*ref.subquery));
      Schema schema = DeriveSchema(sub);
      slot.derived_rows = std::make_shared<std::vector<Row>>(std::move(sub.rows));
      slot.width = schema.num_fields();
      scope.AddTable(slot.qualifier, schema);
    } else {
      DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(ref.table));
      slot.storage = entry.table;
      slot.width = entry.table->schema().num_fields();
      scope.AddTable(slot.qualifier, entry.table->schema());
      if (auto* dual = dynamic_cast<dual::DualTable*>(entry.table.get())) {
        slot.snapshot = dual->AcquireSnapshot();
      }
    }
    slots.push_back(std::move(slot));
    return Status::OK();
  };
  DTL_RETURN_NOT_OK(add_table(stmt.from));
  for (const JoinClause& join : stmt.joins) DTL_RETURN_NOT_OK(add_table(join.table));

  // ---- normalize aliased expressions ----
  ExprPtr where = stmt.where ? SubstituteAliases(*stmt.where, stmt.items) : nullptr;
  ExprPtr having = stmt.having ? SubstituteAliases(*stmt.having, stmt.items) : nullptr;
  std::vector<ExprPtr> group_by;
  for (const auto& g : stmt.group_by) group_by.push_back(SubstituteAliases(*g, stmt.items));
  std::vector<ExprPtr> order_exprs;
  for (const auto& o : stmt.order_by) {
    order_exprs.push_back(SubstituteAliases(*o.expr, stmt.items));
  }

  // ---- expand stars and collect referenced columns ----
  std::vector<const Expr*> select_exprs;
  std::vector<std::string> column_names;
  std::vector<ExprPtr> star_storage;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      for (size_t i = 0; i < scope.num_columns(); ++i) {
        star_storage.push_back(
            MakeColumnRef(scope.column(i).qualifier, scope.column(i).name));
        select_exprs.push_back(star_storage.back().get());
        column_names.push_back(scope.column(i).name);
      }
      continue;
    }
    select_exprs.push_back(item.expr.get());
    if (!item.alias.empty()) {
      column_names.push_back(item.alias);
    } else if (item.expr->kind == Expr::Kind::kColumnRef) {
      column_names.push_back(item.expr->column);
    } else {
      column_names.push_back(item.expr->ToString());
    }
  }

  std::set<size_t> needed;
  for (const Expr* e : select_exprs) DTL_RETURN_NOT_OK(CollectColumns(*e, scope, &needed));
  if (where) DTL_RETURN_NOT_OK(CollectColumns(*where, scope, &needed));
  if (having) DTL_RETURN_NOT_OK(CollectColumns(*having, scope, &needed));
  for (const auto& g : group_by) DTL_RETURN_NOT_OK(CollectColumns(*g, scope, &needed));
  for (const auto& o : order_exprs) DTL_RETURN_NOT_OK(CollectColumns(*o, scope, &needed));
  for (const JoinClause& join : stmt.joins) {
    DTL_RETURN_NOT_OK(CollectColumns(*join.on, scope, &needed));
  }

  // ---- classify WHERE conjuncts for pushdown ----
  std::vector<const Expr*> conjuncts;
  if (where) SplitConjuncts(*where, &conjuncts);
  std::vector<std::vector<const Expr*>> pushed(slots.size());
  std::vector<const Expr*> residual;
  for (const Expr* c : conjuncts) {
    if (ContainsAggregate(*c)) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
    std::set<size_t> cols;
    DTL_RETURN_NOT_OK(CollectColumns(*c, scope, &cols));
    std::set<size_t> tables;
    for (size_t ord : cols) tables.insert(TableOf(slots, ord));
    bool pushable = tables.size() <= 1;
    size_t target = tables.empty() ? 0 : *tables.begin();
    // Pushing below the NULL-producing side of a LEFT OUTER JOIN would
    // change semantics; keep those conjuncts above the join.
    if (pushable && target > 0 && stmt.joins[target - 1].left_outer) pushable = false;
    if (pushable) {
      pushed[target].push_back(c);
    } else {
      residual.push_back(c);
    }
  }

  // ---- per-table scans ----
  auto local_scope = [&](const TableSlot& slot) {
    Scope local;
    if (slot.storage != nullptr) {
      local.AddTable(slot.qualifier, slot.storage->schema());
    } else {
      std::vector<Field> fields;
      for (size_t i = slot.offset; i < slot.offset + slot.width; ++i) {
        fields.push_back(Field{scope.column(i).name, scope.column(i).type});
      }
      local.AddTable(slot.qualifier, Schema(std::move(fields)));
    }
    return local;
  };

  // Execute node of the trace tree; operator decorators hang flat child
  // nodes off it. Created lazily right before each execution strategy so
  // untraced queries skip the whole apparatus.
  obs::TraceNode* exec_node = nullptr;
  auto traced_op = [&](std::unique_ptr<exec::Operator> op, const char* name,
                       std::string detail =
                           std::string()) -> std::unique_ptr<exec::Operator> {
    if (exec_node == nullptr) return op;
    return std::make_unique<TracedOperator>(
        std::move(op), tracer->AddNode(name, std::move(detail), exec_node));
  };
  auto traced_bop = [&](std::unique_ptr<exec::BatchOperator> op, const char* name,
                        std::string detail =
                            std::string()) -> std::unique_ptr<exec::BatchOperator> {
    if (exec_node == nullptr) return op;
    return std::make_unique<TracedBatchOperator>(
        std::move(op), tracer->AddNode(name, std::move(detail), exec_node));
  };

  auto build_scan = [&](size_t slot_index) -> Result<std::unique_ptr<exec::Operator>> {
    const TableSlot& slot = slots[slot_index];
    // Rebind pushed conjuncts against a single-table scope.
    Scope local = local_scope(slot);
    if (slot.storage == nullptr) {
      // Derived table: materialized rows, filtered in memory.
      std::unique_ptr<exec::Operator> op =
          std::make_unique<exec::RowsOperator>(*slot.derived_rows);
      if (!pushed[slot_index].empty()) {
        std::vector<exec::ValueFn> fns;
        for (const Expr* c : pushed[slot_index]) {
          DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*c, local));
          fns.push_back(std::move(bound.fn));
        }
        op = std::make_unique<exec::FilterOperator>(std::move(op),
                                                    [fns](const Row& row) {
                                                      for (const auto& fn : fns) {
                                                        if (!ValueIsTrue(fn(row))) return false;
                                                      }
                                                      return true;
                                                    });
      }
      return op;
    }
    table::ScanSpec spec;
    spec.meter = exec_.scan_meter;
    for (size_t ord : needed) {
      if (TableOf(slots, ord) == slot_index) spec.projection.push_back(ord - slot.offset);
    }
    if (spec.projection.empty()) spec.projection.push_back(0);
    if (!pushed[slot_index].empty()) {
      // AND together the pushed conjuncts.
      std::vector<exec::ValueFn> fns;
      std::set<size_t> pred_cols;
      for (const Expr* c : pushed[slot_index]) {
        DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*c, local));
        fns.push_back(std::move(bound.fn));
        pred_cols.insert(bound.columns.begin(), bound.columns.end());
      }
      spec.predicate = [fns](const Row& row) {
        for (const auto& fn : fns) {
          if (!ValueIsTrue(fn(row))) return false;
        }
        return true;
      };
      spec.predicate_columns.assign(pred_cols.begin(), pred_cols.end());
      spec.bounds = ExtractBounds(pushed[slot_index], local);
    }
    std::unique_ptr<table::RowIterator> it;
    if (slot.snapshot != nullptr) {
      auto* dual = static_cast<dual::DualTable*>(slot.storage.get());
      DTL_ASSIGN_OR_RETURN(it, dual->ScanAt(slot.snapshot, spec));
    } else {
      DTL_ASSIGN_OR_RETURN(it, slot.storage->Scan(spec));
    }
    return traced_op(std::make_unique<exec::ScanOperator>(std::move(it)),
                     obs::names::kOpScan, slot.qualifier);
  };

  bool has_aggregate = having != nullptr;
  for (const Expr* e : select_exprs) has_aggregate |= ContainsAggregate(*e);
  for (const auto& o : order_exprs) has_aggregate |= ContainsAggregate(*o);
  has_aggregate |= !group_by.empty();

  // ---- parallel global-aggregate fast path ----
  // Single-DualTable global aggregates (no GROUP BY/HAVING/ORDER BY) are
  // order-insensitive: morsel workers build partial AggStates, merged at one
  // barrier, and the result is identical to the serial plan. Everything else
  // stays on the serial iterators below — that is the ordering contract.
  if (exec_.parallelism > 1 && exec_.pool != nullptr && stmt.joins.empty() &&
      slots.size() == 1 && slots[0].storage != nullptr && has_aggregate &&
      group_by.empty() && having == nullptr && order_exprs.empty()) {
    auto* dual = dynamic_cast<dual::DualTable*>(slots[0].storage.get());
    if (dual != nullptr) {
      Scope local = local_scope(slots[0]);
      table::ScanSpec spec;
      spec.meter = exec_.scan_meter;
      for (size_t ord : needed) spec.projection.push_back(ord);
      if (spec.projection.empty()) spec.projection.push_back(0);
      if (!pushed[0].empty()) {
        std::vector<exec::ValueFn> fns;
        std::set<size_t> pred_cols;
        for (const Expr* c : pushed[0]) {
          DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*c, local));
          fns.push_back(std::move(bound.fn));
          pred_cols.insert(bound.columns.begin(), bound.columns.end());
        }
        spec.predicate = [fns](const Row& row) {
          for (const auto& fn : fns) {
            if (!ValueIsTrue(fn(row))) return false;
          }
          return true;
        };
        spec.predicate_columns.assign(pred_cols.begin(), pred_cols.end());
        spec.bounds = ExtractBounds(pushed[0], local);
      }
      std::vector<const Expr*> agg_ptrs;
      for (const Expr* e : select_exprs) CollectAggregates(*e, &agg_ptrs);
      std::vector<exec::AggSpec> agg_specs;
      for (const Expr* a : agg_ptrs) {
        DTL_ASSIGN_OR_RETURN(exec::AggSpec aspec, BindAggregateCall(*a, scope));
        agg_specs.push_back(std::move(aspec));
      }
      exec::ParallelScanOptions popts;
      popts.pool = exec_.pool;
      popts.parallelism = exec_.parallelism;
      popts.morsel_stripes = exec_.morsel_stripes;
      popts.metrics = exec_.metrics;
      popts.snapshot = slots[0].snapshot;
      exec::ParallelScanner scanner(dual, std::move(spec), popts);
      if (traced) {
        tracer->AddLeaf(obs::names::kSpanBind, bind_watch.ElapsedSeconds());
        exec_node = tracer->AddNode(obs::names::kSpanExecute);
        tracer->AddNode(obs::names::kOpParallelScan, slots[0].qualifier, exec_node);
      }
      obs::Span exec_span(tracer, exec_node);
      DTL_ASSIGN_OR_RETURN(Row agg_row, scanner.Aggregate(agg_specs));
      // agg_row holds the finalized aggregates in agg_ptrs order — the same
      // layout HashAggregateOperator emits for a keyless aggregate, so the
      // post-aggregate binder applies unchanged.
      std::vector<const Expr*> group_ptrs;
      Row out;
      out.reserve(select_exprs.size());
      for (const Expr* e : select_exprs) {
        DTL_ASSIGN_OR_RETURN(exec::ValueFn fn,
                             BindPostAggregate(*e, group_ptrs, agg_ptrs, scope));
        out.push_back(fn(agg_row));
      }
      QueryResult result;
      result.column_names = std::move(column_names);
      if (!stmt.limit.has_value() || *stmt.limit > 0) {
        result.rows.push_back(std::move(out));
      }
      return result;
    }
  }

  // ---- index point-lookup fast path ----
  // `WHERE <indexed col> = <lit>` (or IN (...)) on a single DualTable resolves
  // through the secondary index: candidate record ids -> targeted stripe
  // fetches through the shared cache -> delta patch -> probe re-verify. All
  // pushed conjuncts still run as the residual predicate and record-id order
  // equals scan order, so the output is identical to the full-scan plan.
  if (stmt.joins.empty() && slots.size() == 1 && slots[0].storage != nullptr &&
      !has_aggregate && order_exprs.empty() && slots[0].snapshot != nullptr &&
      slots[0].snapshot->has_index && !pushed[0].empty()) {
    const TableSlot& slot = slots[0];
    auto* dual = static_cast<dual::DualTable*>(slot.storage.get());
    Scope local = local_scope(slot);
    size_t probe_column = 0;
    std::vector<Value> probes;
    if (dual->secondary_index() != nullptr &&
        FindIndexProbe(pushed[0], local, slot.storage->schema(),
                       *dual->secondary_index(), &probe_column, &probes)) {
      table::ScanSpec spec;
      spec.meter = exec_.scan_meter;
      for (size_t ord : needed) spec.projection.push_back(ord);
      if (spec.projection.empty()) spec.projection.push_back(0);
      std::vector<exec::ValueFn> fns;
      std::set<size_t> pred_cols;
      for (const Expr* c : pushed[0]) {
        DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*c, local));
        fns.push_back(std::move(bound.fn));
        pred_cols.insert(bound.columns.begin(), bound.columns.end());
      }
      spec.predicate = [fns](const Row& row) {
        for (const auto& fn : fns) {
          if (!ValueIsTrue(fn(row))) return false;
        }
        return true;
      };
      spec.predicate_columns.assign(pred_cols.begin(), pred_cols.end());
      std::vector<exec::ValueFn> output_fns;
      for (const Expr* e : select_exprs) {
        DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*e, scope));
        output_fns.push_back(std::move(bound.fn));
      }
      obs::TraceNode* lookup_node = nullptr;
      if (traced) {
        tracer->AddLeaf(obs::names::kSpanBind, bind_watch.ElapsedSeconds());
        exec_node = tracer->AddNode(obs::names::kSpanExecute);
        lookup_node = tracer->AddNode(obs::names::kOpIndexLookup, slot.qualifier,
                                      exec_node);
      }
      obs::Span exec_span(tracer, exec_node);
      Stopwatch lookup_watch;
      DTL_ASSIGN_OR_RETURN(auto matches,
                           dual->IndexLookupAt(slot.snapshot, probe_column, probes, spec));
      if (lookup_node != nullptr) {
        lookup_node->stats.wall_seconds += lookup_watch.ElapsedSeconds();
        lookup_node->stats.rows += matches.size();
      }
      QueryResult result;
      result.column_names = std::move(column_names);
      for (auto& [rid, row] : matches) {
        (void)rid;
        if (stmt.limit.has_value() && result.rows.size() >= *stmt.limit) break;
        Row out_row;
        out_row.reserve(output_fns.size());
        for (const auto& fn : output_fns) out_row.push_back(fn(row));
        result.rows.push_back(std::move(out_row));
      }
      return result;
    }
  }

  // ---- vectorized fast path ----
  // Single-table SELECT with no join/aggregate/order runs batch-at-a-time:
  // storage batches (predicate applied inside the scan, same contract as the
  // row path) -> vectorized projection -> vectorized limit. Rows are only
  // materialized at the result boundary. On a single-table query every WHERE
  // conjunct is pushable, so `residual` is necessarily empty here.
  if (stmt.joins.empty() && slots.size() == 1 && slots[0].storage != nullptr &&
      !has_aggregate && order_exprs.empty()) {
    const TableSlot& slot = slots[0];
    Scope local = local_scope(slot);
    table::ScanSpec spec;
    spec.meter = exec_.scan_meter;
    for (size_t ord : needed) spec.projection.push_back(ord);
    if (spec.projection.empty()) spec.projection.push_back(0);
    if (!pushed[0].empty()) {
      std::vector<exec::ValueFn> fns;
      std::set<size_t> pred_cols;
      for (const Expr* c : pushed[0]) {
        DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*c, local));
        fns.push_back(std::move(bound.fn));
        pred_cols.insert(bound.columns.begin(), bound.columns.end());
      }
      spec.predicate = [fns](const Row& row) {
        for (const auto& fn : fns) {
          if (!ValueIsTrue(fn(row))) return false;
        }
        return true;
      };
      spec.predicate_columns.assign(pred_cols.begin(), pred_cols.end());
      spec.bounds = ExtractBounds(pushed[0], local);
    }
    if (traced) exec_node = tracer->AddNode(obs::names::kSpanExecute);
    std::unique_ptr<table::BatchIterator> it;
    if (slot.snapshot != nullptr) {
      auto* dual = static_cast<dual::DualTable*>(slot.storage.get());
      DTL_ASSIGN_OR_RETURN(it, dual->ScanBatchesAt(slot.snapshot, spec));
    } else {
      DTL_ASSIGN_OR_RETURN(it, slot.storage->ScanBatches(spec));
    }
    std::unique_ptr<exec::BatchOperator> bplan = traced_bop(
        std::make_unique<exec::BatchScanOperator>(std::move(it)),
        obs::names::kOpScan, slot.qualifier);
    std::vector<exec::ValueFn> output_fns;
    std::vector<int> column_refs;
    for (const Expr* e : select_exprs) {
      DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*e, scope));
      column_refs.push_back(e->kind == Expr::Kind::kColumnRef && bound.columns.size() == 1
                                ? static_cast<int>(*bound.columns.begin())
                                : -1);
      output_fns.push_back(std::move(bound.fn));
    }
    bplan = traced_bop(std::make_unique<exec::BatchProjectOperator>(
                           std::move(bplan), std::move(output_fns),
                           std::move(column_refs)),
                       obs::names::kOpProject);
    if (stmt.limit.has_value()) {
      bplan = traced_bop(
          std::make_unique<exec::BatchLimitOperator>(std::move(bplan), *stmt.limit),
          obs::names::kOpLimit);
    }
    QueryResult result;
    result.column_names = std::move(column_names);
    if (traced) tracer->AddLeaf(obs::names::kSpanBind, bind_watch.ElapsedSeconds());
    {
      obs::Span exec_span(tracer, exec_node);
      DTL_ASSIGN_OR_RETURN(result.rows, exec::CollectBatches(bplan.get()));
    }
    return result;
  }

  // ---- join tree (left-deep; probe = accumulated left, build = new table) ----
  if (traced) exec_node = tracer->AddNode(obs::names::kSpanExecute);
  DTL_ASSIGN_OR_RETURN(std::unique_ptr<exec::Operator> plan, build_scan(0));
  for (size_t j = 0; j < stmt.joins.size(); ++j) {
    const JoinClause& join = stmt.joins[j];
    const TableSlot& right = slots[j + 1];
    // Split the ON condition into equi pairs (left vs right) + residual.
    std::vector<const Expr*> on_terms;
    SplitConjuncts(*join.on, &on_terms);
    std::vector<exec::ValueFn> probe_keys;
    std::vector<exec::ValueFn> build_keys;
    std::vector<const Expr*> on_residual;
    Scope right_scope = local_scope(right);
    for (const Expr* term : on_terms) {
      bool handled = false;
      if (term->kind == Expr::Kind::kBinary && term->op == "=") {
        const Expr* a = term->args[0].get();
        const Expr* b = term->args[1].get();
        std::set<size_t> ca, cb;
        Status sa = CollectColumns(*a, scope, &ca);
        Status sb = CollectColumns(*b, scope, &cb);
        if (sa.ok() && sb.ok() && !ca.empty() && !cb.empty()) {
          auto side = [&](const std::set<size_t>& cols) {
            bool all_right = true, all_left = true;
            for (size_t ord : cols) {
              if (TableOf(slots, ord) == j + 1) {
                all_left = false;
              } else if (TableOf(slots, ord) <= j) {
                all_right = false;
              }
            }
            return all_right ? 1 : (all_left ? 0 : -1);
          };
          int side_a = side(ca), side_b = side(cb);
          if (side_a == 0 && side_b == 1) {
            DTL_ASSIGN_OR_RETURN(BoundExpr pk, BindScalar(*a, scope));
            DTL_ASSIGN_OR_RETURN(BoundExpr bk, BindScalar(*b, right_scope));
            probe_keys.push_back(std::move(pk.fn));
            build_keys.push_back(std::move(bk.fn));
            handled = true;
          } else if (side_a == 1 && side_b == 0) {
            DTL_ASSIGN_OR_RETURN(BoundExpr pk, BindScalar(*b, scope));
            DTL_ASSIGN_OR_RETURN(BoundExpr bk, BindScalar(*a, right_scope));
            probe_keys.push_back(std::move(pk.fn));
            build_keys.push_back(std::move(bk.fn));
            handled = true;
          }
        }
      }
      if (!handled) on_residual.push_back(term);
    }
    if (probe_keys.empty()) {
      return Status::NotSupported("JOIN requires at least one equi condition in ON");
    }
    if (join.left_outer && !on_residual.empty()) {
      return Status::NotSupported("LEFT OUTER JOIN supports only equi ON conditions");
    }
    DTL_ASSIGN_OR_RETURN(std::unique_ptr<exec::Operator> build_op, build_scan(j + 1));
    plan = traced_op(
        std::make_unique<exec::HashJoinOperator>(
            std::move(plan), std::move(build_op), std::move(probe_keys),
            std::move(build_keys), right.width,
            join.left_outer ? exec::HashJoinOperator::Kind::kLeftOuter
                            : exec::HashJoinOperator::Kind::kInner),
        obs::names::kOpJoin, right.qualifier);
    // Residual ON terms of an inner join become a post-join filter.
    if (!on_residual.empty()) {
      std::vector<exec::ValueFn> fns;
      for (const Expr* term : on_residual) {
        DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*term, scope));
        fns.push_back(std::move(bound.fn));
      }
      plan = traced_op(std::make_unique<exec::FilterOperator>(
                           std::move(plan),
                           [fns](const Row& row) {
                             for (const auto& fn : fns) {
                               if (!ValueIsTrue(fn(row))) return false;
                             }
                             return true;
                           }),
                       obs::names::kOpFilter);
    }
  }

  // ---- residual WHERE ----
  if (!residual.empty()) {
    std::vector<exec::ValueFn> fns;
    for (const Expr* c : residual) {
      DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*c, scope));
      fns.push_back(std::move(bound.fn));
    }
    plan = traced_op(
        std::make_unique<exec::FilterOperator>(std::move(plan),
                                               [fns](const Row& row) {
                                                 for (const auto& fn : fns) {
                                                   if (!ValueIsTrue(fn(row))) return false;
                                                 }
                                                 return true;
                                               }),
        obs::names::kOpFilter);
  }

  // ---- aggregation / projection ----
  std::vector<exec::ValueFn> output_fns;
  if (has_aggregate) {
    std::vector<const Expr*> group_ptrs;
    for (const auto& g : group_by) group_ptrs.push_back(g.get());
    std::vector<const Expr*> agg_ptrs;
    for (const Expr* e : select_exprs) CollectAggregates(*e, &agg_ptrs);
    if (having) CollectAggregates(*having, &agg_ptrs);
    for (const auto& o : order_exprs) CollectAggregates(*o, &agg_ptrs);

    std::vector<exec::ValueFn> key_fns;
    for (const Expr* g : group_ptrs) {
      DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*g, scope));
      key_fns.push_back(std::move(bound.fn));
    }
    std::vector<exec::AggSpec> agg_specs;
    for (const Expr* a : agg_ptrs) {
      DTL_ASSIGN_OR_RETURN(exec::AggSpec spec, BindAggregateCall(*a, scope));
      agg_specs.push_back(std::move(spec));
    }
    plan = traced_op(std::make_unique<exec::HashAggregateOperator>(
                         std::move(plan), std::move(key_fns), std::move(agg_specs)),
                     obs::names::kOpAggregate);
    if (having) {
      DTL_ASSIGN_OR_RETURN(exec::ValueFn fn,
                           BindPostAggregate(*having, group_ptrs, agg_ptrs, scope));
      plan = traced_op(
          std::make_unique<exec::FilterOperator>(std::move(plan), MakePredicate(fn)),
          obs::names::kOpFilter);
    }
    if (!order_exprs.empty()) {
      std::vector<exec::ValueFn> sort_keys;
      std::vector<bool> ascending;
      for (size_t i = 0; i < order_exprs.size(); ++i) {
        DTL_ASSIGN_OR_RETURN(
            exec::ValueFn fn,
            BindPostAggregate(*order_exprs[i], group_ptrs, agg_ptrs, scope));
        sort_keys.push_back(std::move(fn));
        ascending.push_back(stmt.order_by[i].ascending);
      }
      plan = traced_op(std::make_unique<exec::SortOperator>(
                           std::move(plan), std::move(sort_keys), std::move(ascending)),
                       obs::names::kOpSort);
    }
    for (const Expr* e : select_exprs) {
      DTL_ASSIGN_OR_RETURN(exec::ValueFn fn,
                           BindPostAggregate(*e, group_ptrs, agg_ptrs, scope));
      output_fns.push_back(std::move(fn));
    }
  } else {
    if (!order_exprs.empty()) {
      std::vector<exec::ValueFn> sort_keys;
      std::vector<bool> ascending;
      for (size_t i = 0; i < order_exprs.size(); ++i) {
        DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*order_exprs[i], scope));
        sort_keys.push_back(std::move(bound.fn));
        ascending.push_back(stmt.order_by[i].ascending);
      }
      plan = traced_op(std::make_unique<exec::SortOperator>(
                           std::move(plan), std::move(sort_keys), std::move(ascending)),
                       obs::names::kOpSort);
    }
    for (const Expr* e : select_exprs) {
      DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*e, scope));
      output_fns.push_back(std::move(bound.fn));
    }
  }
  plan = traced_op(
      std::make_unique<exec::ProjectOperator>(std::move(plan), std::move(output_fns)),
      obs::names::kOpProject);
  if (stmt.limit.has_value()) {
    plan = traced_op(std::make_unique<exec::LimitOperator>(std::move(plan), *stmt.limit),
                     obs::names::kOpLimit);
  }

  QueryResult result;
  result.column_names = std::move(column_names);
  if (traced) tracer->AddLeaf(obs::names::kSpanBind, bind_watch.ElapsedSeconds());
  {
    obs::Span exec_span(tracer, exec_node);
    DTL_ASSIGN_OR_RETURN(result.rows, exec::Collect(plan.get()));
  }
  return result;
}

Result<QueryResult> Engine::ExecuteCreate(const CreateTableStmt& stmt) {
  if (catalog_->Contains(stmt.table)) {
    if (stmt.if_not_exists) {
      QueryResult result;
      result.message = "table " + stmt.table + " already exists (skipped)";
      return result;
    }
    return Status::AlreadyExists("table already exists: " + stmt.table);
  }
  std::vector<Field> fields;
  for (const ColumnDef& def : stmt.columns) {
    DTL_ASSIGN_OR_RETURN(DataType type, ParseDataType(def.type_name));
    fields.push_back(Field{def.name, type});
  }
  Schema schema(std::move(fields));
  table::TableKind kind = table::TableKind::kDual;
  if (!stmt.stored_as.empty()) {
    DTL_ASSIGN_OR_RETURN(kind, table::ParseTableKind(stmt.stored_as));
  }
  std::vector<size_t> indexed_columns;
  if (!stmt.index_columns.empty()) {
    if (kind != table::TableKind::kDual) {
      return Status::InvalidArgument("INDEX (...) requires a dualtable");
    }
    for (const std::string& name : stmt.index_columns) {
      const std::optional<size_t> ordinal = schema.IndexOf(name);
      if (!ordinal.has_value()) {
        return Status::InvalidArgument("INDEX names unknown column: " + name);
      }
      indexed_columns.push_back(*ordinal);
    }
  }
  DTL_ASSIGN_OR_RETURN(auto storage, factory_(stmt.table, kind, schema, indexed_columns));
  DTL_RETURN_NOT_OK(catalog_->Register(stmt.table, kind, std::move(storage)));
  QueryResult result;
  result.message = "created " + std::string(table::TableKindName(kind)) + " table " +
                   stmt.table + " (" + schema.ToString() + ")";
  return result;
}

Result<QueryResult> Engine::ExecuteDrop(const DropTableStmt& stmt) {
  auto entry = catalog_->Lookup(stmt.table);
  if (!entry.ok()) {
    if (stmt.if_exists && entry.status().IsNotFound()) {
      QueryResult result;
      result.message = "table " + stmt.table + " does not exist (skipped)";
      return result;
    }
    return entry.status();
  }
  DTL_RETURN_NOT_OK(entry->table->Drop());
  DTL_RETURN_NOT_OK(catalog_->Unregister(stmt.table));
  QueryResult result;
  result.message = "dropped table " + stmt.table;
  return result;
}

Result<QueryResult> Engine::ExecuteInsert(const InsertStmt& stmt) {
  DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(stmt.table));
  const Schema& schema = entry.table->schema();
  std::vector<Row> rows;

  if (stmt.select != nullptr) {
    // INSERT [OVERWRITE] ... SELECT: the paper's Listing-2 idiom.
    DTL_ASSIGN_OR_RETURN(QueryResult sub, ExecuteSelect(*stmt.select));
    rows.reserve(sub.rows.size());
    for (Row& in : sub.rows) {
      if (in.size() != schema.num_fields()) {
        return Status::InvalidArgument("INSERT SELECT arity mismatch: expected " +
                                       std::to_string(schema.num_fields()) + " columns");
      }
      Row row;
      row.reserve(in.size());
      for (size_t i = 0; i < in.size(); ++i) {
        DTL_ASSIGN_OR_RETURN(
            Value v, CoerceValue(in[i], schema.field(i).type, schema.field(i).name));
        row.push_back(std::move(v));
      }
      rows.push_back(std::move(row));
    }
  } else {
    Scope empty_scope;
    Row dummy;
    rows.reserve(stmt.rows.size());
    for (const auto& tuple : stmt.rows) {
      if (tuple.size() != schema.num_fields()) {
        return Status::InvalidArgument("INSERT arity mismatch: expected " +
                                       std::to_string(schema.num_fields()) + " values");
      }
      Row row;
      row.reserve(tuple.size());
      for (size_t i = 0; i < tuple.size(); ++i) {
        DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*tuple[i], empty_scope));
        DTL_ASSIGN_OR_RETURN(Value v, CoerceValue(bound.fn(dummy), schema.field(i).type,
                                                  schema.field(i).name));
        row.push_back(std::move(v));
      }
      rows.push_back(std::move(row));
    }
  }

  if (stmt.overwrite) {
    DTL_RETURN_NOT_OK(entry.table->OverwriteRows(rows));
  } else {
    DTL_RETURN_NOT_OK(entry.table->InsertRows(rows));
  }
  QueryResult result;
  result.affected_rows = rows.size();
  result.message = std::string(stmt.overwrite ? "overwrote table with " : "inserted ") +
                   std::to_string(rows.size()) + " rows";
  return result;
}

Result<QueryResult> Engine::ExecuteUpdate(const UpdateStmt& stmt) {
  DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(stmt.table));
  const Schema& schema = entry.table->schema();
  Scope scope;
  scope.AddTable(stmt.alias.empty() ? stmt.table : stmt.alias, schema);

  table::ScanSpec filter;
  filter.meter = exec_.scan_meter;
  if (stmt.where) {
    DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*stmt.where, scope));
    filter.predicate = MakePredicate(bound.fn);
    filter.predicate_columns = bound.columns;
    std::vector<const Expr*> conjuncts;
    SplitConjuncts(*stmt.where, &conjuncts);
    filter.bounds = ExtractBounds(conjuncts, scope);
  }

  std::vector<table::Assignment> assignments;
  for (const auto& [column, expr] : stmt.assignments) {
    auto ordinal = schema.IndexOf(column);
    if (!ordinal.has_value()) {
      return Status::NotFound("unknown column in SET: " + column);
    }
    DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*expr, scope));
    table::Assignment a;
    a.column = *ordinal;
    const DataType type = schema.field(*ordinal).type;
    const std::string name = schema.field(*ordinal).name;
    auto fn = bound.fn;
    a.compute = [fn, type, name](const Row& row) {
      auto coerced = CoerceValue(fn(row), type, name);
      return coerced.ok() ? *coerced : Value::Null();
    };
    a.input_columns = bound.columns;
    assignments.push_back(std::move(a));
  }

  Result<table::DmlResult> dml = Status::Internal("unset");
  if (entry.kind == table::TableKind::kDual) {
    auto* dual = dynamic_cast<dual::DualTable*>(entry.table.get());
    dml = dual->UpdateWithHint(filter, assignments, stmt.ratio_hint,
                               FindDmlIndexProbe(stmt.where.get(), scope, dual));
  } else {
    dml = entry.table->Update(filter, assignments);
  }
  DTL_RETURN_NOT_OK(dml.status());
  QueryResult result;
  result.affected_rows = dml->rows_matched;
  result.dml_plan = table::DmlPlanName(dml->plan);
  result.message = DmlMessage("updated", *dml);
  return result;
}

Result<QueryResult> Engine::ExecuteDelete(const DeleteStmt& stmt) {
  DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(stmt.table));
  Scope scope;
  scope.AddTable(stmt.table, entry.table->schema());

  table::ScanSpec filter;
  filter.meter = exec_.scan_meter;
  if (stmt.where) {
    DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*stmt.where, scope));
    filter.predicate = MakePredicate(bound.fn);
    filter.predicate_columns = bound.columns;
    std::vector<const Expr*> conjuncts;
    SplitConjuncts(*stmt.where, &conjuncts);
    filter.bounds = ExtractBounds(conjuncts, scope);
  }

  Result<table::DmlResult> dml = Status::Internal("unset");
  if (entry.kind == table::TableKind::kDual) {
    auto* dual = dynamic_cast<dual::DualTable*>(entry.table.get());
    dml = dual->DeleteWithHint(filter, stmt.ratio_hint,
                               FindDmlIndexProbe(stmt.where.get(), scope, dual));
  } else {
    dml = entry.table->Delete(filter);
  }
  DTL_RETURN_NOT_OK(dml.status());
  QueryResult result;
  result.affected_rows = dml->rows_matched;
  result.dml_plan = table::DmlPlanName(dml->plan);
  result.message = DmlMessage("deleted", *dml);
  return result;
}

Result<QueryResult> Engine::ExecuteCompact(const CompactStmt& stmt) {
  DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(stmt.table));
  QueryResult result;
  if (stmt.incremental) {
    if (entry.kind != table::TableKind::kDual) {
      return Status::NotSupported("COMPACT INCREMENTAL supports dualtable tables only");
    }
    auto* dual = dynamic_cast<dual::DualTable*>(entry.table.get());
    DTL_ASSIGN_OR_RETURN(auto stats, dual->CompactIncremental(exec_.tracer));
    result.message = "incremental compact of " + stmt.table + ": " + stats.ToString();
    return result;
  }
  if (entry.kind == table::TableKind::kDual) {
    auto* dual = dynamic_cast<dual::DualTable*>(entry.table.get());
    DTL_RETURN_NOT_OK(dual->Compact());
  } else if (entry.kind == table::TableKind::kAcid) {
    auto* acid = dynamic_cast<baseline::AcidTable*>(entry.table.get());
    DTL_RETURN_NOT_OK(acid->MajorCompact());
  } else {
    return Status::NotSupported("COMPACT supports dualtable and acid tables only");
  }
  result.message = "compacted table " + stmt.table;
  return result;
}

namespace {

struct RowKeyHash {
  size_t operator()(const Row& key) const {
    size_t h = 0;
    for (const Value& v : key) h = h * 1315423911u + v.HashCode();
    return h;
  }
};
struct RowKeyEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

}  // namespace

Result<QueryResult> Engine::ExecuteMerge(const MergeStmt& stmt) {
  DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(stmt.table));
  const Schema& schema = entry.table->schema();

  // Resolve key ordinals.
  std::vector<size_t> key_ordinals;
  for (const std::string& name : stmt.key_columns) {
    auto ordinal = schema.IndexOf(name);
    if (!ordinal.has_value()) return Status::NotFound("unknown key column: " + name);
    key_ordinals.push_back(*ordinal);
  }

  // Evaluate source tuples and index them by key.
  Scope empty_scope;
  Row dummy;
  auto source = std::make_shared<std::unordered_map<Row, Row, RowKeyHash, RowKeyEq>>();
  for (const auto& tuple : stmt.rows) {
    if (tuple.size() != schema.num_fields()) {
      return Status::InvalidArgument("MERGE tuple arity mismatch: expected " +
                                     std::to_string(schema.num_fields()) + " values");
    }
    Row row;
    row.reserve(tuple.size());
    for (size_t i = 0; i < tuple.size(); ++i) {
      DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*tuple[i], empty_scope));
      DTL_ASSIGN_OR_RETURN(Value v, CoerceValue(bound.fn(dummy), schema.field(i).type,
                                                schema.field(i).name));
      row.push_back(std::move(v));
    }
    Row key;
    for (size_t ord : key_ordinals) key.push_back(row[ord]);
    (*source)[std::move(key)] = std::move(row);
  }

  // Pass 1: which source keys already exist in the table?
  auto matched = std::make_shared<std::unordered_map<Row, Row, RowKeyHash, RowKeyEq>>();
  {
    table::ScanSpec probe;
    probe.meter = exec_.scan_meter;
    probe.projection = key_ordinals;
    probe.predicate_columns = key_ordinals;
    auto key_ords = key_ordinals;
    probe.predicate = [source, key_ords](const Row& row) {
      Row key;
      key.reserve(key_ords.size());
      for (size_t ord : key_ords) key.push_back(row[ord]);
      return source->count(key) > 0;
    };
    DTL_ASSIGN_OR_RETURN(auto it, entry.table->Scan(probe));
    while (it->Next()) {
      Row key;
      for (size_t ord : key_ordinals) key.push_back(it->row()[ord]);
      (*matched)[std::move(key)] = Row{};
    }
    DTL_RETURN_NOT_OK(it->status());
  }

  QueryResult result;
  // Pass 2: update matched rows to the source values of their key.
  if (!matched->empty()) {
    table::ScanSpec filter;
    filter.meter = exec_.scan_meter;
    filter.predicate_columns = key_ordinals;
    auto key_ords = key_ordinals;
    filter.predicate = [matched, key_ords](const Row& row) {
      Row key;
      key.reserve(key_ords.size());
      for (size_t ord : key_ords) key.push_back(row[ord]);
      return matched->count(key) > 0;
    };
    std::vector<table::Assignment> assignments;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      bool is_key = false;
      for (size_t ord : key_ordinals) is_key |= ord == c;
      if (is_key) continue;
      table::Assignment a;
      a.column = c;
      a.input_columns = key_ordinals;
      a.compute = [source, key_ords, c](const Row& row) {
        Row key;
        key.reserve(key_ords.size());
        for (size_t ord : key_ords) key.push_back(row[ord]);
        auto it = source->find(key);
        return it == source->end() ? Value::Null() : it->second[c];
      };
      assignments.push_back(std::move(a));
    }
    Result<table::DmlResult> dml = Status::Internal("unset");
    if (entry.kind == table::TableKind::kDual) {
      auto* dual = dynamic_cast<dual::DualTable*>(entry.table.get());
      dml = dual->UpdateWithHint(filter, assignments, stmt.ratio_hint);
    } else {
      dml = entry.table->Update(filter, assignments);
    }
    DTL_RETURN_NOT_OK(dml.status());
    result.affected_rows += dml->rows_matched;
    result.dml_plan = table::DmlPlanName(dml->plan);
  }

  // Pass 3: insert the source tuples whose keys did not match.
  std::vector<Row> inserts;
  for (const auto& [key, row] : *source) {
    if (matched->count(key) == 0) inserts.push_back(row);
  }
  if (!inserts.empty()) {
    DTL_RETURN_NOT_OK(entry.table->InsertRows(inserts));
    result.affected_rows += inserts.size();
  }
  result.message = "merged: " + std::to_string(matched->size()) + " updated, " +
                   std::to_string(inserts.size()) + " inserted";
  return result;
}

Result<QueryResult> Engine::ExecuteLoad(const LoadStmt& stmt) {
  if (fs_ == nullptr) {
    return Status::NotSupported("LOAD DATA requires a file system");
  }
  DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(stmt.table));
  DTL_ASSIGN_OR_RETURN(auto rows,
                       table::ReadCsvFile(fs_, stmt.path, entry.table->schema()));
  if (stmt.overwrite) {
    DTL_RETURN_NOT_OK(entry.table->OverwriteRows(rows));
  } else {
    DTL_RETURN_NOT_OK(entry.table->InsertRows(rows));
  }
  QueryResult result;
  result.affected_rows = rows.size();
  result.message = "loaded " + std::to_string(rows.size()) + " rows from " + stmt.path;
  return result;
}

Result<QueryResult> Engine::ExecuteExplain(const ExplainStmt& stmt) {
  if (stmt.analyze) return ExecuteExplainAnalyze(stmt);
  QueryResult result;
  result.column_names = {"plan"};
  auto emit = [&result](const std::string& line) {
    result.rows.push_back(Row{Value::String(line)});
  };

  if (const auto* update = std::get_if<UpdateStmt>(stmt.inner.get())) {
    DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(update->table));
    emit("UPDATE " + update->table + " (" + table::TableKindName(entry.kind) + ")");
    if (update->where) emit("  where: " + update->where->ToString());
    if (entry.kind == table::TableKind::kDual) {
      auto* dual = dynamic_cast<dual::DualTable*>(entry.table.get());
      Scope scope;
      scope.AddTable(update->alias.empty() ? update->table : update->alias,
                     dual->schema());
      ExplainDualDml(*dual, dual->PlanUpdate(update->ratio_hint),
                     FindDmlIndexProbe(update->where.get(), scope, dual), emit);
      emit("  crossover ratio: " +
           std::to_string(dual->cost_model().UpdateCrossoverRatio(
               dual->master()->TotalBytes())));
    } else {
      emit("  plan: full INSERT OVERWRITE rewrite");
    }
    return result;
  }
  if (const auto* del = std::get_if<DeleteStmt>(stmt.inner.get())) {
    DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(del->table));
    emit("DELETE FROM " + del->table + " (" + table::TableKindName(entry.kind) + ")");
    if (del->where) emit("  where: " + del->where->ToString());
    if (entry.kind == table::TableKind::kDual) {
      auto* dual = dynamic_cast<dual::DualTable*>(entry.table.get());
      Scope scope;
      scope.AddTable(del->table, dual->schema());
      ExplainDualDml(*dual, dual->PlanDelete(del->ratio_hint),
                     FindDmlIndexProbe(del->where.get(), scope, dual), emit);
    } else {
      emit("  plan: full INSERT OVERWRITE rewrite");
    }
    return result;
  }
  if (const auto* select = std::get_if<SelectStmt>(stmt.inner.get())) {
    auto describe_ref = [&](const TableRef& ref) -> Result<std::string> {
      if (ref.subquery != nullptr) return "(subquery) " + ref.EffectiveName();
      DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(ref.table));
      return ref.table + " (" + table::TableKindName(entry.kind) +
             (entry.kind == table::TableKind::kDual ? ", UNION READ scan)" : ")");
    };
    DTL_ASSIGN_OR_RETURN(std::string from, describe_ref(select->from));
    emit("SELECT: scan " + from);
    for (const JoinClause& join : select->joins) {
      DTL_ASSIGN_OR_RETURN(std::string right, describe_ref(join.table));
      emit(std::string("  ") + (join.left_outer ? "left outer " : "") + "hash join " +
           right + " on " + join.on->ToString());
    }
    if (select->where) {
      std::vector<const Expr*> conjuncts;
      SplitConjuncts(*select->where, &conjuncts);
      emit("  filter: " + std::to_string(conjuncts.size()) +
           " conjunct(s), single-table terms pushed into scans");
      // Surface the index point-lookup route when the single-table plan
      // would take it (same detection the executor runs).
      if (select->joins.empty() && select->from.subquery == nullptr) {
        auto entry = catalog_->Lookup(select->from.table);
        if (entry.ok() && entry->kind == table::TableKind::kDual) {
          auto* dual = dynamic_cast<dual::DualTable*>(entry->table.get());
          if (dual != nullptr && dual->secondary_index() != nullptr) {
            Scope probe_scope;
            probe_scope.AddTable(select->from.EffectiveName(), entry->table->schema());
            size_t col = 0;
            std::vector<Value> probes;
            if (FindIndexProbe(conjuncts, probe_scope, entry->table->schema(),
                               *dual->secondary_index(), &col, &probes)) {
              emit("  index lookup: column '" +
                   entry->table->schema().field(col).name + "', " +
                   std::to_string(probes.size()) + " probe(s)");
            }
          }
        }
      }
    }
    if (!select->group_by.empty() || select->having) emit("  hash aggregate");
    if (!select->order_by.empty()) emit("  sort");
    if (select->limit) emit("  limit " + std::to_string(*select->limit));
    return result;
  }
  if (const auto* compact = std::get_if<CompactStmt>(stmt.inner.get())) {
    DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(compact->table));
    if (compact->incremental && entry.kind == table::TableKind::kDual) {
      auto* dual = dynamic_cast<dual::DualTable*>(entry.table.get());
      emit("COMPACT INCREMENTAL " + compact->table);
      DTL_ASSIGN_OR_RETURN(auto plan, dual->PreviewIncrementalCompaction());
      std::istringstream lines(plan.ToString());
      for (std::string line; std::getline(lines, line);) emit("  " + line);
      return result;
    }
    emit(std::string(compact->incremental ? "COMPACT INCREMENTAL " : "COMPACT ") +
         compact->table + " (" + table::TableKindName(entry.kind) + "): full rewrite");
    return result;
  }
  emit("statement executes directly (no plan choices)");
  return result;
}

Result<QueryResult> Engine::ExecuteExplainAnalyze(const ExplainStmt& stmt) {
  obs::Tracer* tracer = exec_.tracer;
  if (tracer == nullptr) {
    return Status::NotSupported("EXPLAIN ANALYZE requires a session tracer");
  }
  if (tracer->active()) {
    return Status::InvalidArgument("EXPLAIN ANALYZE cannot nest inside a traced query");
  }
  tracer->Begin(obs::names::kSpanQuery);
  Result<QueryResult> inner = Status::Internal("unset");
  {
    // Adopt the root so the whole statement's wall/io/scan lands on `query`.
    obs::Span root_span(tracer, tracer->current());
    // Execute() already parsed the statement; report that as a leaf.
    tracer->AddLeaf(obs::names::kSpanParse, last_parse_seconds_);
    inner = ExecuteStatement(*stmt.inner);
  }
  obs::Trace trace = tracer->End();
  DTL_RETURN_NOT_OK(inner.status());

  QueryResult result;
  result.column_names = {"analyze"};
  for (const std::string& line : trace.RenderTextLines()) {
    result.rows.push_back(Row{Value::String(line)});
  }
  result.affected_rows = inner->affected_rows;
  result.dml_plan = inner->dml_plan;
  result.message = inner->message;
  return result;
}

Result<QueryResult> Engine::ExecuteShowTables() {
  QueryResult result;
  result.column_names = {"table_name", "storage"};
  for (const std::string& name : catalog_->TableNames()) {
    auto entry = catalog_->Lookup(name);
    if (!entry.ok()) continue;
    result.rows.push_back(
        Row{Value::String(name), Value::String(table::TableKindName(entry->kind))});
  }
  return result;
}

Result<QueryResult> Engine::ExecuteShowStats(const ShowStatsStmt& stmt) {
  QueryResult result;
  if (stmt.what == ShowStatsStmt::What::kQueries) {
    if (exec_.query_log == nullptr) {
      return Status::InvalidArgument(
          "SHOW STATS QUERIES requires the session query log (observability on)");
    }
    result.column_names = {"kind",       "wall_seconds",  "modeled_seconds",
                           "rows",       "bytes_decoded", "stripe_cache_hits",
                           "index_probes", "snapshot_age_seconds", "slow",
                           "ok",         "sql"};
    for (const obs::QueryLogRecord& r : exec_.query_log->Tail(50)) {
      result.rows.push_back(Row{
          Value::String(r.kind), Value::Double(r.wall_seconds),
          Value::Double(r.modeled_seconds), Value::Int64(static_cast<int64_t>(r.rows)),
          Value::Int64(static_cast<int64_t>(r.bytes_decoded)),
          Value::Int64(static_cast<int64_t>(r.stripe_cache_hits)),
          Value::Int64(static_cast<int64_t>(r.index_probes)),
          Value::Double(r.snapshot_age_seconds), Value::Bool(r.slow),
          Value::Bool(r.ok), Value::String(r.ok ? r.sql : r.sql + " -- " + r.error)});
    }
    return result;
  }

  if (exec_.metrics == nullptr) {
    return Status::InvalidArgument(
        "SHOW STATS requires the session metrics registry (observability on)");
  }
  const obs::MetricsSnapshot snap = exec_.metrics->Snapshot();

  if (stmt.what == ShowStatsStmt::What::kHistograms) {
    // Windowed percentiles come from the recorder's window when one is wired
    // (its clock drives slot rotation); lifetime percentiles always render.
    std::map<std::string, obs::HistogramSnapshot> window;
    if (exec_.recorder != nullptr) window = exec_.recorder->WindowSnapshots();
    result.column_names = {"histogram",  "count",      "p50",        "p95",
                           "p99",        "max",        "window_count",
                           "window_p50", "window_p95", "window_p99"};
    for (const auto& [name, h] : snap.histograms) {
      obs::HistogramSnapshot w;
      auto it = window.find(name);
      if (it != window.end()) w = it->second;
      result.rows.push_back(Row{
          Value::String(name), Value::Int64(static_cast<int64_t>(h.count)),
          Value::Int64(static_cast<int64_t>(h.ValueAtQuantile(0.50))),
          Value::Int64(static_cast<int64_t>(h.ValueAtQuantile(0.95))),
          Value::Int64(static_cast<int64_t>(h.ValueAtQuantile(0.99))),
          Value::Int64(static_cast<int64_t>(h.max)),
          Value::Int64(static_cast<int64_t>(w.count)),
          Value::Int64(static_cast<int64_t>(w.ValueAtQuantile(0.50))),
          Value::Int64(static_cast<int64_t>(w.ValueAtQuantile(0.95))),
          Value::Int64(static_cast<int64_t>(w.ValueAtQuantile(0.99)))});
    }
    return result;
  }

  result.column_names = {"metric", "kind", "value"};
  for (const auto& [name, v] : snap.counters) {
    result.rows.push_back(Row{Value::String(name), Value::String("counter"),
                              Value::Double(static_cast<double>(v))});
  }
  for (const auto& [name, v] : snap.gauges) {
    result.rows.push_back(Row{Value::String(name), Value::String("gauge"),
                              Value::Double(static_cast<double>(v))});
  }
  for (const auto& [name, v] : snap.views) {
    result.rows.push_back(
        Row{Value::String(name), Value::String("view"), Value::Double(v)});
  }
  return result;
}

}  // namespace dtl::sql
