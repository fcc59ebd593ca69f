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
#include "table/scan_stats.h"
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

/// The top-level AND terms of an optional WHERE clause.
std::vector<const Expr*> Conjuncts(const ExprPtr& where) {
  std::vector<const Expr*> out;
  if (where != nullptr) SplitConjuncts(*where, &out);
  return out;
}

/// The EXPLAIN text of an expression list, `sep` between items.
std::string ExprsText(const std::vector<const Expr*>& exprs, const char* sep) {
  std::string out;
  for (const Expr* e : exprs) out += (out.empty() ? "" : sep) + e->ToString();
  return out;
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
/// matches from — found by the same FindIndexProbe the SELECT planner runs —
/// or nullopt when the table has no index or the WHERE offers no probe.
std::optional<dual::IndexProbe> FindDmlIndexProbe(
    const std::vector<const Expr*>& conjuncts, const Scope& scope,
    dual::DualTable* dual) {
  if (dual->secondary_index() == nullptr) return std::nullopt;
  dual::IndexProbe probe;
  if (!FindIndexProbe(conjuncts, scope, dual->schema(), *dual->secondary_index(),
                      &probe.column, &probe.values)) {
    return std::nullopt;
  }
  return probe;
}

/// The scan a table's conjuncts push into: `projection` (empty = every
/// column), the conjuncts compiled into the predicate's kernel terms and
/// residual, and the stripe bounds the terms imply. SELECT builds one per
/// table; UPDATE/DELETE one for the WHERE. `kernel` (optional) receives, per
/// conjunct, whether it compiled into a term.
Result<table::ScanSpec> BuildScanSpec(const std::vector<const Expr*>& conjuncts,
                                      const Scope& scope, std::vector<size_t> projection,
                                      table::ScanMeter* meter,
                                      std::vector<bool>* kernel = nullptr) {
  DTL_ASSIGN_OR_RETURN(BoundScanPredicate predicate, BindScanPredicate(conjuncts, scope));
  table::ScanSpec spec;
  spec.meter = meter;
  spec.projection = std::move(projection);
  spec.predicate = std::move(predicate.predicate);
  spec.predicate_columns = std::move(predicate.columns);
  spec.bounds = std::move(predicate.bounds);
  if (kernel != nullptr) *kernel = std::move(predicate.kernel);
  return spec;
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

/// EXPLAIN lines for a SelectPlan, each prefixed with `indent`; a derived
/// table's plan follows its scan line, two spaces deeper.
void ExplainSelect(const SelectPlan& plan, const std::string& indent,
                   const std::function<void(const std::string&)>& emit) {
  emit(indent + "SELECT");
  const std::string in = indent + "  ";
  emit(in + "route: " + SelectRouteName(plan.routes.front()));
  for (size_t i = 0; i < plan.tables.size(); ++i) {
    const SelectPlan::Table& t = plan.tables[i];
    std::string line = in + "scan " + t.qualifier + " (" + t.kind +
                       (t.snapshot != nullptr ? ", UNION READ scan)" : ")");
    // Each pushed conjunct names how it runs: a compiled kernel term or the
    // residual row closure.
    for (size_t c = 0; c < t.pushed.size(); ++c) {
      line += (c == 0 ? " where " : " AND ") + t.pushed[c]->ToString() +
              (t.kernel[c] ? " [kernel]" : " [row]");
    }
    emit(line);
    if (t.subquery != nullptr) ExplainSelect(*t.subquery, in + "  ", emit);
    if (i == 0 && plan.routes.front() == SelectRoute::kIndexLookup) {
      const std::string& column = t.storage->schema().field(plan.probe.column).name;
      emit(in + "index lookup: column '" + column + "', " +
           std::to_string(plan.probe.values.size()) + " probe(s)");
    }
    if (i > 0) {
      const SelectPlan::Join& join = plan.joins[i - 1];
      emit(in + (join.left_outer ? "left outer " : "") + "hash join " + t.qualifier +
           " on " + join.on_text);
    }
  }
  if (plan.residual) emit(in + "filter: " + ExprsText(plan.residual_conjuncts, " AND "));
  if (plan.aggregate) emit(in + "aggregate: " + plan.aggregate_text);
  if (!plan.sort_keys.empty()) emit(in + "sort: " + plan.sort_text);
  if (plan.limit.has_value()) emit(in + "limit " + std::to_string(*plan.limit));
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

/// Builds and drains the operators of one route of a SelectPlan. The plan is
/// read, never consumed. Traced statements hang one node per operator off
/// `exec_node` (null when untraced); a derived table's plan runs by its own
/// preferred route onto the same node.
class RouteRunner {
 public:
  RouteRunner(const ExecOptions& exec, obs::TraceNode* exec_node)
      : exec_(exec), exec_node_(exec_node) {}

  Result<std::vector<Row>> Run(const SelectPlan& plan, SelectRoute route) {
    switch (route) {
      case SelectRoute::kIndexLookup:
        return IndexLookup(plan);
      case SelectRoute::kParallelAggregate:
        return ParallelAggregate(plan);
      case SelectRoute::kVectorized:
        return Vectorized(plan);
      case SelectRoute::kOperatorTree:
        return OperatorTree(plan);
    }
    return Status::Internal("unknown SELECT route");
  }

 private:
  obs::TraceNode* AddNode(const char* name, std::string detail = {}) {
    return exec_node_ == nullptr
               ? nullptr
               : exec_.tracer->AddNode(name, std::move(detail), exec_node_);
  }
  std::unique_ptr<exec::Operator> Traced(std::unique_ptr<exec::Operator> op,
                                         const char* name, std::string detail = {}) {
    obs::TraceNode* node = AddNode(name, std::move(detail));
    if (node == nullptr) return op;
    return std::make_unique<TracedOperator>(std::move(op), node);
  }
  std::unique_ptr<exec::BatchOperator> Traced(std::unique_ptr<exec::BatchOperator> op,
                                              const char* name, std::string detail = {}) {
    obs::TraceNode* node = AddNode(name, std::move(detail));
    if (node == nullptr) return op;
    return std::make_unique<TracedBatchOperator>(std::move(op), node);
  }

  // Candidate record ids -> targeted stripe fetches through the shared
  // cache -> delta patch -> probe re-verify -> the whole pushed predicate.
  // Record-id order is scan order, so the rows equal the scan routes'.
  Result<std::vector<Row>> IndexLookup(const SelectPlan& plan) {
    const SelectPlan::Table& t = plan.tables[0];
    auto* dual = static_cast<dual::DualTable*>(t.storage.get());
    obs::TraceNode* node = AddNode(obs::names::kOpIndexLookup, t.qualifier);
    Stopwatch watch;
    DTL_ASSIGN_OR_RETURN(auto matches, dual->IndexLookupAt(t.snapshot, plan.probe.column,
                                                           plan.probe.values, t.scan));
    if (node != nullptr) {
      node->stats.wall_seconds += watch.ElapsedSeconds();
      node->stats.rows += matches.size();
    }
    std::vector<Row> rows;
    for (const auto& match : matches) {
      if (plan.limit.has_value() && rows.size() >= *plan.limit) break;
      rows.push_back(Project(plan, match.second));
    }
    return rows;
  }

  // Global aggregates are order-insensitive: morsel workers build partial
  // AggStates merged at one barrier, identical to the serial plan.
  Result<std::vector<Row>> ParallelAggregate(const SelectPlan& plan) {
    const SelectPlan::Table& t = plan.tables[0];
    exec::ParallelScanOptions popts;
    popts.pool = exec_.pool;
    popts.parallelism = exec_.parallelism;
    popts.morsel_stripes = exec_.morsel_stripes;
    popts.metrics = exec_.metrics;
    popts.snapshot = t.snapshot;
    exec::ParallelScanner scanner(static_cast<dual::DualTable*>(t.storage.get()), t.scan,
                                  popts);
    AddNode(obs::names::kOpParallelScan, t.qualifier);
    // The finalized aggregates in plan order: the row HashAggregateOperator
    // emits for a keyless aggregate, so the outputs apply unchanged.
    DTL_ASSIGN_OR_RETURN(Row agg_row, scanner.Aggregate(plan.aggregates));
    std::vector<Row> rows;
    if (plan.limit.has_value() && *plan.limit == 0) return rows;
    rows.push_back(Project(plan, agg_row));
    return rows;
  }

  // Storage batches (predicate applied inside the scan) -> vectorized
  // limit. Bare column outputs project as zero-copy views; computed outputs
  // are evaluated on each row as it is collected, as the index route does.
  Result<std::vector<Row>> Vectorized(const SelectPlan& plan) {
    const SelectPlan::Table& t = plan.tables[0];
    std::unique_ptr<table::BatchIterator> it;
    if (t.snapshot != nullptr) {
      auto* dual = static_cast<dual::DualTable*>(t.storage.get());
      DTL_ASSIGN_OR_RETURN(it, dual->ScanBatchesAt(t.snapshot, t.scan));
    } else {
      DTL_ASSIGN_OR_RETURN(it, t.storage->ScanBatches(t.scan));
    }
    std::unique_ptr<exec::BatchOperator> op =
        Traced(std::make_unique<exec::BatchScanOperator>(std::move(it)),
               obs::names::kOpScan, t.qualifier);
    const bool refs_only =
        !plan.output_columns.empty() &&
        std::all_of(plan.output_columns.begin(), plan.output_columns.end(),
                    [](int c) { return c >= 0; });
    if (refs_only) {
      op = Traced(std::make_unique<exec::BatchProjectOperator>(
                      std::move(op), std::vector<size_t>(plan.output_columns.begin(),
                                                         plan.output_columns.end())),
                  obs::names::kOpProject);
    }
    if (plan.limit.has_value()) {
      op = Traced(std::make_unique<exec::BatchLimitOperator>(std::move(op), *plan.limit),
                  obs::names::kOpLimit);
    }
    if (refs_only) return exec::CollectBatches(op.get());
    obs::TraceNode* node = AddNode(obs::names::kOpProject);
    std::vector<Row> rows;
    table::RowBatch batch;
    Row row;
    while (op->Next(&batch)) {
      Stopwatch watch;
      for (size_t i = 0; i < batch.size(); ++i) {
        batch.MaterializeRow(i, &row);
        rows.push_back(Project(plan, row));
      }
      if (node != nullptr) {
        node->stats.wall_seconds += watch.ElapsedSeconds();
        node->stats.rows += batch.size();
      }
    }
    DTL_RETURN_NOT_OK(op->status());
    return rows;
  }

  /// The plan's outputs evaluated on one input row.
  static Row Project(const SelectPlan& plan, const Row& input) {
    Row out;
    out.reserve(plan.outputs.size());
    for (const auto& fn : plan.outputs) out.push_back(fn(input));
    return out;
  }

  Result<std::unique_ptr<exec::Operator>> OpenTable(const SelectPlan::Table& t) {
    if (t.subquery != nullptr) {
      DTL_ASSIGN_OR_RETURN(std::vector<Row> rows,
                           Run(*t.subquery, t.subquery->routes.front()));
      std::unique_ptr<exec::Operator> op =
          std::make_unique<exec::RowsOperator>(std::move(rows));
      if (t.scan.predicate) {
        op = std::make_unique<exec::FilterOperator>(std::move(op), t.scan.predicate);
      }
      return op;
    }
    std::unique_ptr<table::RowIterator> it;
    if (t.snapshot != nullptr) {
      auto* dual = static_cast<dual::DualTable*>(t.storage.get());
      DTL_ASSIGN_OR_RETURN(it, dual->ScanAt(t.snapshot, t.scan));
    } else {
      DTL_ASSIGN_OR_RETURN(it, t.storage->Scan(t.scan));
    }
    return Traced(std::make_unique<exec::ScanOperator>(std::move(it)),
                  obs::names::kOpScan, t.qualifier);
  }

  // Left-deep join tree (probe = rows so far, build = next table), residual
  // filter, aggregate + HAVING, sort, project, limit.
  Result<std::vector<Row>> OperatorTree(const SelectPlan& plan) {
    DTL_ASSIGN_OR_RETURN(std::unique_ptr<exec::Operator> op, OpenTable(plan.tables[0]));
    for (size_t j = 0; j < plan.joins.size(); ++j) {
      const SelectPlan::Join& join = plan.joins[j];
      const SelectPlan::Table& right = plan.tables[j + 1];
      DTL_ASSIGN_OR_RETURN(std::unique_ptr<exec::Operator> build, OpenTable(right));
      op = Traced(std::make_unique<exec::HashJoinOperator>(
                      std::move(op), std::move(build), join.probe_keys, join.build_keys,
                      right.width,
                      join.left_outer ? exec::HashJoinOperator::Kind::kLeftOuter
                                      : exec::HashJoinOperator::Kind::kInner),
                  obs::names::kOpJoin, right.qualifier);
      if (join.residual) {
        op = Traced(std::make_unique<exec::FilterOperator>(std::move(op), join.residual),
                    obs::names::kOpFilter);
      }
    }
    if (plan.residual) {
      op = Traced(std::make_unique<exec::FilterOperator>(std::move(op), plan.residual),
                  obs::names::kOpFilter);
    }
    if (plan.aggregate) {
      op = Traced(std::make_unique<exec::HashAggregateOperator>(
                      std::move(op), plan.group_keys, plan.aggregates),
                  obs::names::kOpAggregate);
      if (plan.having) {
        op = Traced(std::make_unique<exec::FilterOperator>(std::move(op), plan.having),
                    obs::names::kOpFilter);
      }
    }
    if (!plan.sort_keys.empty()) {
      op = Traced(std::make_unique<exec::SortOperator>(std::move(op), plan.sort_keys,
                                                       plan.ascending),
                  obs::names::kOpSort);
    }
    op = Traced(std::make_unique<exec::ProjectOperator>(std::move(op), plan.outputs),
                obs::names::kOpProject);
    if (plan.limit.has_value()) {
      op = Traced(std::make_unique<exec::LimitOperator>(std::move(op), *plan.limit),
                  obs::names::kOpLimit);
    }
    return exec::Collect(op.get());
  }

  const ExecOptions& exec_;
  obs::TraceNode* exec_node_;
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

/// The scan.* registry counter of each ScanSnapshot field.
constexpr std::pair<const char*, uint64_t table::ScanSnapshot::*> kScanCounters[] = {
    {obs::names::kScanBatches, &table::ScanSnapshot::batches},
    {obs::names::kScanRows, &table::ScanSnapshot::rows},
    {obs::names::kScanBytes, &table::ScanSnapshot::bytes},
    {obs::names::kScanPassthroughBatches, &table::ScanSnapshot::passthrough_batches},
    {obs::names::kScanPatchedRows, &table::ScanSnapshot::patched_rows},
    {obs::names::kScanMaskedRows, &table::ScanSnapshot::masked_rows},
    {obs::names::kScanPredicateDrops, &table::ScanSnapshot::predicate_drops},
    {obs::names::kScanMaterializedRows, &table::ScanSnapshot::materialized_rows},
    {obs::names::kScanStripesSkipped, &table::ScanSnapshot::stripes_skipped},
    {obs::names::kScanStripesSkippedBloom, &table::ScanSnapshot::stripes_skipped_bloom},
    {obs::names::kScanFilesSkipped, &table::ScanSnapshot::files_skipped},
};

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

void Engine::set_exec_options(const ExecOptions& options) {
  exec_ = options;
  scan_counters_.clear();
  if (exec_.metrics == nullptr || exec_.scan_meter == nullptr) return;
  for (const auto& [name, field] : kScanCounters) {
    scan_counters_.push_back(exec_.metrics->counter(name));
  }
}

Result<QueryResult> Engine::ExecuteStatement(const Statement& stmt) {
  // EXPLAIN ANALYZE runs its inner statement through here again; only the
  // outermost call logs and publishes, so each statement counts once.
  if (statement_depth_ > 0) return DispatchStatement(stmt);
  obs::QueryLog* log = exec_.query_log;
  // The SHOW introspection forms are excluded: logging SHOW STATS QUERIES
  // would make the log describe itself.
  const bool capture = log != nullptr && !std::holds_alternative<ShowTablesStmt>(stmt) &&
                       !std::holds_alternative<ShowStatsStmt>(stmt);
  const bool publish = !scan_counters_.empty();
  if (!capture && !publish) return DispatchStatement(stmt);

  // Capture reads individual meters, NOT MetricsRegistry::Snapshot(): a full
  // snapshot evaluates every view and copies every histogram, which costs
  // more than a small SELECT — the observability-overhead contract
  // (DESIGN.md §10) rules it out of the statement path.
  auto scan_counts = [this] {
    return exec_.scan_meter != nullptr ? exec_.scan_meter->Snapshot()
                                       : table::ScanSnapshot();
  };
  const table::ScanSnapshot scan_before = scan_counts();
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
  ++statement_depth_;
  auto result = DispatchStatement(stmt);
  --statement_depth_;
  const double wall_seconds = wall.ElapsedSeconds();
  const table::ScanSnapshot scan = scan_counts() - scan_before;
  if (publish) {
    for (size_t i = 0; i < scan_counters_.size(); ++i) {
      const uint64_t n = scan.*kScanCounters[i].second;
      if (n > 0) scan_counters_[i]->Inc(n);
    }
  }
  if (!capture) return result;

  obs::QueryLogRecord record;
  record.kind = StatementKindName(stmt);
  record.sql = last_sql_;
  record.wall_seconds = wall_seconds;
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
  record.scan_bytes = scan.bytes;
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

const char* SelectRouteName(SelectRoute route) {
  switch (route) {
    case SelectRoute::kIndexLookup:
      return "index lookup";
    case SelectRoute::kParallelAggregate:
      return "parallel aggregate";
    case SelectRoute::kVectorized:
      return "vectorized scan";
    case SelectRoute::kOperatorTree:
      return "operator tree";
  }
  return "?";
}

Result<QueryResult> Engine::ExecuteSelect(const SelectStmt& stmt) {
  obs::Tracer* tracer = exec_.tracer;
  Stopwatch bind_watch;
  DTL_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(stmt));
  if (tracer != nullptr && tracer->active()) {
    tracer->AddLeaf(obs::names::kSpanBind, bind_watch.ElapsedSeconds());
  }
  return RunSelect(plan, plan.routes.front());
}

Result<QueryResult> Engine::RunSelect(const SelectPlan& plan, SelectRoute route) {
  if (std::find(plan.routes.begin(), plan.routes.end(), route) == plan.routes.end()) {
    return Status::InvalidArgument(std::string("route '") + SelectRouteName(route) +
                                   "' does not apply to this plan");
  }
  obs::TraceNode* exec_node =
      exec_.tracer != nullptr && exec_.tracer->active()
          ? exec_.tracer->AddNode(obs::names::kSpanExecute, SelectRouteName(route))
          : nullptr;
  obs::Span exec_span(exec_.tracer, exec_node);
  QueryResult result;
  DTL_ASSIGN_OR_RETURN(result.rows, RouteRunner(exec_, exec_node).Run(plan, route));
  result.column_names = plan.column_names;
  return result;
}

Result<SelectPlan> Engine::PlanSelect(const SelectStmt& stmt) {
  SelectPlan plan;

  // ---- resolve tables, pin snapshots, build the flat scope ----
  Scope scope;
  std::vector<Scope> locals;    // each table alone: pushed conjuncts, build keys
  std::vector<size_t> offsets;  // first flat ordinal of each table
  auto add_table = [&](const TableRef& ref) -> Status {
    SelectPlan::Table t;
    t.qualifier = ref.EffectiveName();
    Schema derived;
    const Schema* schema = &derived;
    if (ref.subquery != nullptr) {
      DTL_ASSIGN_OR_RETURN(SelectPlan child, PlanSelect(*ref.subquery));
      // Names only: no route reads a derived column's type.
      std::vector<Field> fields;
      for (const std::string& name : child.column_names) {
        fields.push_back(Field{name, DataType::kNull});
      }
      derived = Schema(std::move(fields));
      t.kind = "subquery";
      t.subquery = std::make_shared<const SelectPlan>(std::move(child));
    } else {
      DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(ref.table));
      schema = &entry.table->schema();
      t.kind = table::TableKindName(entry.kind);
      t.storage = entry.table;
      if (auto* dual = dynamic_cast<dual::DualTable*>(entry.table.get())) {
        t.snapshot = dual->AcquireSnapshot();
      }
    }
    t.width = schema->num_fields();
    offsets.push_back(scope.num_columns());
    scope.AddTable(t.qualifier, *schema);
    locals.emplace_back();
    locals.back().AddTable(t.qualifier, *schema);
    plan.tables.push_back(std::move(t));
    return Status::OK();
  };
  DTL_RETURN_NOT_OK(add_table(stmt.from));
  for (const JoinClause& join : stmt.joins) DTL_RETURN_NOT_OK(add_table(join.table));
  auto table_of = [&](size_t ordinal) {
    size_t i = 0;
    while (i + 1 < offsets.size() && ordinal >= offsets[i + 1]) ++i;
    return i;
  };

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
  std::vector<ExprPtr> star_storage;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      for (size_t i = 0; i < scope.num_columns(); ++i) {
        star_storage.push_back(
            MakeColumnRef(scope.column(i).qualifier, scope.column(i).name));
        select_exprs.push_back(star_storage.back().get());
        plan.column_names.push_back(scope.column(i).name);
      }
      continue;
    }
    select_exprs.push_back(item.expr.get());
    if (!item.alias.empty()) {
      plan.column_names.push_back(item.alias);
    } else if (item.expr->kind == Expr::Kind::kColumnRef) {
      plan.column_names.push_back(item.expr->column);
    } else {
      plan.column_names.push_back(item.expr->ToString());
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

  // ---- push single-table WHERE conjuncts into the scans ----
  const std::vector<const Expr*> conjuncts = Conjuncts(where);
  std::vector<std::vector<const Expr*>> pushed(plan.tables.size());
  std::vector<const Expr*> residual;
  for (const Expr* c : conjuncts) {
    if (ContainsAggregate(*c)) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
    std::set<size_t> cols;
    DTL_RETURN_NOT_OK(CollectColumns(*c, scope, &cols));
    std::set<size_t> tables;
    for (size_t ord : cols) tables.insert(table_of(ord));
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
  for (size_t i = 0; i < plan.tables.size(); ++i) {
    SelectPlan::Table& t = plan.tables[i];
    std::vector<size_t> projection;
    for (size_t ord : needed) {
      if (table_of(ord) == i) projection.push_back(ord - offsets[i]);
    }
    if (projection.empty()) projection.push_back(0);
    DTL_ASSIGN_OR_RETURN(t.scan, BuildScanSpec(pushed[i], locals[i], std::move(projection),
                                               exec_.scan_meter, &t.kernel));
    t.pushed = std::move(pushed[i]);
  }

  // ---- joins: ON splits into equi key pairs (left vs right) + residual ----
  for (size_t j = 0; j < stmt.joins.size(); ++j) {
    const JoinClause& clause = stmt.joins[j];
    SelectPlan::Join join;
    join.left_outer = clause.left_outer;
    join.on_text = clause.on->ToString();
    std::vector<const Expr*> on_terms;
    SplitConjuncts(*clause.on, &on_terms);
    std::vector<const Expr*> on_residual;
    // 1 = every column on the new (right) table, 0 = every column on the
    // left tables, -1 = mixed.
    auto side = [&](const std::set<size_t>& cols) {
      bool all_right = true, all_left = true;
      for (size_t ord : cols) {
        if (table_of(ord) == j + 1) {
          all_left = false;
        } else if (table_of(ord) <= j) {
          all_right = false;
        }
      }
      return all_right ? 1 : (all_left ? 0 : -1);
    };
    for (const Expr* term : on_terms) {
      bool handled = false;
      if (term->kind == Expr::Kind::kBinary && term->op == "=") {
        const Expr* a = term->args[0].get();
        const Expr* b = term->args[1].get();
        std::set<size_t> ca, cb;
        Status sa = CollectColumns(*a, scope, &ca);
        Status sb = CollectColumns(*b, scope, &cb);
        if (sa.ok() && sb.ok() && !ca.empty() && !cb.empty()) {
          const int side_a = side(ca), side_b = side(cb);
          if (side_a == 1 && side_b == 0) std::swap(a, b);
          if ((side_a == 0 && side_b == 1) || (side_a == 1 && side_b == 0)) {
            DTL_ASSIGN_OR_RETURN(BoundExpr pk, BindScalar(*a, scope));
            DTL_ASSIGN_OR_RETURN(BoundExpr bk, BindScalar(*b, locals[j + 1]));
            join.probe_keys.push_back(std::move(pk.fn));
            join.build_keys.push_back(std::move(bk.fn));
            handled = true;
          }
        }
      }
      if (!handled) on_residual.push_back(term);
    }
    if (join.probe_keys.empty()) {
      return Status::NotSupported("JOIN requires at least one equi condition in ON");
    }
    if (join.left_outer && !on_residual.empty()) {
      return Status::NotSupported("LEFT OUTER JOIN supports only equi ON conditions");
    }
    DTL_ASSIGN_OR_RETURN(BoundPredicate on_filter, BindConjunction(on_residual, scope));
    join.residual = std::move(on_filter.fn);
    plan.joins.push_back(std::move(join));
  }

  // ---- residual WHERE ----
  DTL_ASSIGN_OR_RETURN(BoundPredicate residual_filter, BindConjunction(residual, scope));
  plan.residual = std::move(residual_filter.fn);
  plan.residual_conjuncts = std::move(residual);
  plan.where = std::move(where);

  // ---- aggregation, sort, projection ----
  plan.aggregate = having != nullptr || !group_by.empty();
  for (const Expr* e : select_exprs) plan.aggregate |= ContainsAggregate(*e);
  for (const auto& o : order_exprs) plan.aggregate |= ContainsAggregate(*o);
  std::vector<const Expr*> group_ptrs;
  std::vector<const Expr*> agg_ptrs;
  // Output and sort expressions bind over the aggregate's [keys..., aggs...]
  // row when there is one, else over the joined row.
  auto bind_output = [&](const Expr& e) -> Result<exec::ValueFn> {
    if (plan.aggregate) return BindPostAggregate(e, group_ptrs, agg_ptrs, scope);
    DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(e, scope));
    return std::move(bound.fn);
  };
  if (plan.aggregate) {
    for (const auto& g : group_by) group_ptrs.push_back(g.get());
    for (const Expr* e : select_exprs) CollectAggregates(*e, &agg_ptrs);
    if (having) CollectAggregates(*having, &agg_ptrs);
    for (const auto& o : order_exprs) CollectAggregates(*o, &agg_ptrs);
    for (const Expr* g : group_ptrs) {
      DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*g, scope));
      plan.group_keys.push_back(std::move(bound.fn));
    }
    for (const Expr* a : agg_ptrs) {
      DTL_ASSIGN_OR_RETURN(exec::AggSpec spec, BindAggregateCall(*a, scope));
      plan.aggregates.push_back(std::move(spec));
    }
    plan.aggregate_text = ExprsText(agg_ptrs, ", ");
    if (!group_ptrs.empty()) {
      plan.aggregate_text += (plan.aggregate_text.empty() ? "group by " : " group by ") +
                             ExprsText(group_ptrs, ", ");
    }
    if (having) {
      DTL_ASSIGN_OR_RETURN(exec::ValueFn fn, bind_output(*having));
      plan.having = MakePredicate(std::move(fn));
      plan.aggregate_text += " having " + having->ToString();
    }
  }
  for (size_t i = 0; i < order_exprs.size(); ++i) {
    DTL_ASSIGN_OR_RETURN(exec::ValueFn fn, bind_output(*order_exprs[i]));
    plan.sort_keys.push_back(std::move(fn));
    plan.ascending.push_back(stmt.order_by[i].ascending);
    plan.sort_text += (i == 0 ? "" : ", ") + order_exprs[i]->ToString() +
                      (stmt.order_by[i].ascending ? "" : " DESC");
  }
  for (const Expr* e : select_exprs) {
    if (plan.aggregate) {
      DTL_ASSIGN_OR_RETURN(exec::ValueFn fn, bind_output(*e));
      plan.outputs.push_back(std::move(fn));
      plan.output_columns.push_back(-1);
      continue;
    }
    DTL_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*e, scope));
    plan.outputs.push_back(std::move(bound.fn));
    plan.output_columns.push_back(e->kind == Expr::Kind::kColumnRef
                                      ? static_cast<int>(bound.columns.front())
                                      : -1);
  }
  plan.limit = stmt.limit;

  // ---- routes, preferred first ----
  plan.routes.reserve(4);
  const SelectPlan::Table& first = plan.tables[0];
  const bool one_stored_table = plan.tables.size() == 1 && first.storage != nullptr;
  const bool streaming = one_stored_table && !plan.aggregate && order_exprs.empty();
  auto* dual = one_stored_table ? dynamic_cast<dual::DualTable*>(first.storage.get())
                                : nullptr;
  if (streaming && dual != nullptr && first.snapshot->has_index &&
      dual->secondary_index() != nullptr &&
      FindIndexProbe(first.pushed, locals[0], dual->schema(), *dual->secondary_index(),
                     &plan.probe.column, &plan.probe.values)) {
    plan.routes.push_back(SelectRoute::kIndexLookup);
  }
  if (dual != nullptr && plan.aggregate && group_by.empty() && having == nullptr &&
      order_exprs.empty() && exec_.parallelism > 1 && exec_.pool != nullptr) {
    plan.routes.push_back(SelectRoute::kParallelAggregate);
  }
  if (streaming) plan.routes.push_back(SelectRoute::kVectorized);
  plan.routes.push_back(SelectRoute::kOperatorTree);
  return plan;
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
  const std::vector<const Expr*> conjuncts = Conjuncts(stmt.where);
  DTL_ASSIGN_OR_RETURN(table::ScanSpec filter,
                       BuildScanSpec(conjuncts, scope, {}, exec_.scan_meter));

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
                               FindDmlIndexProbe(conjuncts, scope, dual));
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
  const std::vector<const Expr*> conjuncts = Conjuncts(stmt.where);
  DTL_ASSIGN_OR_RETURN(table::ScanSpec filter,
                       BuildScanSpec(conjuncts, scope, {}, exec_.scan_meter));

  Result<table::DmlResult> dml = Status::Internal("unset");
  if (entry.kind == table::TableKind::kDual) {
    auto* dual = dynamic_cast<dual::DualTable*>(entry.table.get());
    dml = dual->DeleteWithHint(filter, stmt.ratio_hint,
                               FindDmlIndexProbe(conjuncts, scope, dual));
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
  if (entry.kind == table::TableKind::kDual) {
    // Both forms run the one fold; full COMPACT plans it at density 0.
    auto* dual = dynamic_cast<dual::DualTable*>(entry.table.get());
    DTL_ASSIGN_OR_RETURN(auto stats, stmt.incremental ? dual->CompactIncremental(exec_.tracer)
                                                      : dual->Compact(exec_.tracer));
    result.message = std::string(stmt.incremental ? "incremental compact of "
                                                  : "compact of ") +
                     stmt.table + ": " + stats.ToString();
    return result;
  }
  if (stmt.incremental) {
    return Status::NotSupported("COMPACT INCREMENTAL supports dualtable tables only");
  }
  if (entry.kind != table::TableKind::kAcid) {
    return Status::NotSupported("COMPACT supports dualtable and acid tables only");
  }
  auto* acid = dynamic_cast<baseline::AcidTable*>(entry.table.get());
  DTL_RETURN_NOT_OK(acid->MajorCompact());
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
                     FindDmlIndexProbe(Conjuncts(update->where), scope, dual), emit);
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
                     FindDmlIndexProbe(Conjuncts(del->where), scope, dual), emit);
    } else {
      emit("  plan: full INSERT OVERWRITE rewrite");
    }
    return result;
  }
  if (const auto* select = std::get_if<SelectStmt>(stmt.inner.get())) {
    DTL_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(*select));
    ExplainSelect(plan, "", emit);
    return result;
  }
  if (const auto* compact = std::get_if<CompactStmt>(stmt.inner.get())) {
    DTL_ASSIGN_OR_RETURN(auto entry, catalog_->Lookup(compact->table));
    if (entry.kind == table::TableKind::kDual) {
      // The plan the fold will run: the cost-model threshold for
      // INCREMENTAL, density 0 (every file holding a delta) for full COMPACT.
      auto* dual = dynamic_cast<dual::DualTable*>(entry.table.get());
      emit((compact->incremental ? "COMPACT INCREMENTAL " : "COMPACT ") + compact->table);
      DTL_ASSIGN_OR_RETURN(auto plan, compact->incremental
                                          ? dual->PreviewIncrementalCompaction()
                                          : dual->PreviewFullCompaction());
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
                           "rows",       "scan_bytes",    "stripe_cache_hits",
                           "index_probes", "snapshot_age_seconds", "slow",
                           "ok",         "sql"};
    for (const obs::QueryLogRecord& r : exec_.query_log->Tail(50)) {
      result.rows.push_back(Row{
          Value::String(r.kind), Value::Double(r.wall_seconds),
          Value::Double(r.modeled_seconds), Value::Int64(static_cast<int64_t>(r.rows)),
          Value::Int64(static_cast<int64_t>(r.scan_bytes)),
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
