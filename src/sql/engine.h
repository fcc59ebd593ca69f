// Statement execution: plans each SELECT once into a SelectPlan (tables and
// their snapshots, pushed-down scans, bound join/aggregate/sort/project
// stages, and the routes that can run it) that EXPLAIN prints and the
// executor runs, and routes DML to the storage tables — DualTable DML
// carries the WITH RATIO hint into the cost model, mirroring the paper's
// DualTable parser that "will choose to generate a Hive-compatible statement
// ... or our UDTFs, based on the cost evaluator".
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dualtable/dual_table.h"
#include "exec/operators.h"
#include "fs/filesystem.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/ast.h"
#include "table/catalog.h"

namespace dtl::obs {
class MetricsRecorder;
class QueryLog;
}  // namespace dtl::obs

namespace dtl::sql {

/// The ways a SELECT can run, in the planner's order of preference
/// (DESIGN.md §15). Every route a plan lists returns the same rows in the
/// same order on the plan's snapshots.
enum class SelectRoute {
  /// `col = lit` / `col IN (...)` on an indexed column of one DualTable, no
  /// aggregate or ORDER BY: candidate record ids from the secondary index.
  kIndexLookup,
  /// Global aggregates (no GROUP BY/HAVING/ORDER BY) over one DualTable when
  /// the session runs parallel: morsel workers merged at one barrier.
  kParallelAggregate,
  /// One stored table, no aggregate or ORDER BY: scan, project and limit on
  /// batches.
  kVectorized,
  /// Row operators; runs every SELECT (joins, GROUP BY, ORDER BY, derived
  /// tables).
  kOperatorTree,
};

/// "index lookup", "parallel aggregate", "vectorized scan", "operator tree".
const char* SelectRouteName(SelectRoute route);

/// A SELECT as Engine::PlanSelect bound it. Expressions are compiled
/// closures and every table's snapshot is pinned, so the plan no longer
/// refers to the statement and can run, by any of its routes, any number of
/// times with the same answer. EXPLAIN prints the conjunct lists and the
/// `*_text` fields.
struct SelectPlan {
  struct Table {
    std::string qualifier;
    /// "dualtable", "hive", ... or "subquery".
    std::string kind;
    /// Null for a derived table, which runs `subquery` instead.
    std::shared_ptr<table::StorageTable> storage;
    std::shared_ptr<const SelectPlan> subquery;
    /// Statement snapshot of a DualTable, pinned at plan time.
    dual::SnapshotPtr snapshot;
    size_t width = 0;
    /// Projection (table-local ordinals), pushed conjuncts and their stripe
    /// bounds. A derived table uses only the predicate.
    table::ScanSpec scan;
    /// The conjuncts bound into scan.predicate; they point into `where`.
    std::vector<const Expr*> pushed;
    /// Per pushed conjunct: compiled into a kernel term (true) or left to
    /// the predicate's residual closure (false).
    std::vector<bool> kernel;
  };
  /// Left-deep hash join of tables[j + 1] (build) into the rows so far.
  struct Join {
    std::vector<exec::ValueFn> probe_keys;
    std::vector<exec::ValueFn> build_keys;
    /// Non-equi ON terms of an inner join; null when there are none.
    table::RowPredicateFn residual;
    bool left_outer = false;
    std::string on_text;
  };

  std::vector<Table> tables;
  std::vector<Join> joins;
  /// The WHERE clause after alias substitution, owned by the plan.
  ExprPtr where;
  /// WHERE conjuncts that span tables (or sit above an outer join); null
  /// when there are none.
  table::RowPredicateFn residual;
  std::vector<const Expr*> residual_conjuncts;

  bool aggregate = false;
  std::vector<exec::ValueFn> group_keys;
  std::vector<exec::AggSpec> aggregates;
  /// Bound over the aggregate output; null without HAVING.
  table::RowPredicateFn having;
  std::string aggregate_text;

  std::vector<exec::ValueFn> sort_keys;
  std::vector<bool> ascending;
  std::string sort_text;

  /// Bound over the aggregate output when `aggregate`, else over the joined
  /// row. `output_columns` holds a bare column ref's flat ordinal, else -1.
  std::vector<exec::ValueFn> outputs;
  std::vector<int> output_columns;
  std::vector<std::string> column_names;
  std::optional<uint64_t> limit;

  /// What the index route probes; set when `routes` holds kIndexLookup.
  dual::IndexProbe probe;
  /// The routes that apply, preferred first; kOperatorTree is always last.
  std::vector<SelectRoute> routes;
};

/// Execution knobs for parallel DualTable scans. Only order-insensitive
/// plans (single-table global aggregates) run parallel; everything else
/// keeps the serial iterator regardless of `parallelism`.
struct ExecOptions {
  /// Pool the morsel workers run on; nullptr keeps every plan serial.
  ThreadPool* pool = nullptr;
  /// Workers per parallel scan; <=1 keeps every plan serial.
  size_t parallelism = 1;
  /// Surviving stripes per scan morsel.
  size_t morsel_stripes = 1;

  // Observability hooks (all optional, not owned; must outlive the engine).
  /// Registry for the sql.statements counters and parallel-scan stats.
  obs::MetricsRegistry* metrics = nullptr;
  /// Session tracer; EXPLAIN ANALYZE requires it and the engine opens stage
  /// spans on it while it is active.
  obs::Tracer* tracer = nullptr;
  /// Session scan meter: every ScanSpec the engine builds counts into it,
  /// and each top-level statement's delta is added to the scan.* counters
  /// of `metrics`. Null leaves the engine's scans uncounted.
  table::ScanMeter* scan_meter = nullptr;
  /// Structured query log: every executed statement (except the SHOW
  /// introspection forms) appends one record with wall/modeled seconds and
  /// the registry deltas it caused.
  obs::QueryLog* query_log = nullptr;
  /// Background metrics recorder; SHOW STATS HISTOGRAMS reads its window.
  obs::MetricsRecorder* recorder = nullptr;
};

struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  uint64_t affected_rows = 0;
  /// Physical plan used by DML ("EDIT", "OVERWRITE", ...), empty otherwise.
  std::string dml_plan;
  std::string message;

  std::string ToString(size_t max_rows = 20) const;
};

/// Creates backing storage for CREATE TABLE and registers it in the
/// catalog. `indexed_columns` holds the ordinals named in an INDEX (...)
/// clause; only DualTables honor it.
using TableFactory = std::function<Status(const std::string& name, table::TableKind kind,
                                          const Schema& schema,
                                          const std::vector<size_t>& indexed_columns)>;

class Engine {
 public:
  /// `fs` is required for LOAD DATA INPATH; may be null otherwise.
  Engine(table::Catalog* catalog, TableFactory factory,
         const fs::SimFileSystem* fs = nullptr)
      : catalog_(catalog), factory_(std::move(factory)), fs_(fs) {}

  /// Parses and executes one statement.
  Result<QueryResult> Execute(const std::string& sql);

  Result<QueryResult> ExecuteStatement(const Statement& stmt);

  /// Resolves the tables and pins their snapshots, binds every expression,
  /// pushes single-table conjuncts into the scans, and lists the routes that
  /// apply, preferred first. Fails exactly where executing would: unknown
  /// columns, aggregates in WHERE, joins without an equi condition.
  Result<SelectPlan> PlanSelect(const SelectStmt& stmt);

  /// Runs `plan` by `route`, which must be one of plan.routes, on the plan's
  /// snapshots. Under an active tracer the work lands on one
  /// `execute(<route>)` node.
  Result<QueryResult> RunSelect(const SelectPlan& plan, SelectRoute route);

  /// Also resolves the scan.* counters when both `metrics` and
  /// `scan_meter` are set.
  void set_exec_options(const ExecOptions& options);
  const ExecOptions& exec_options() const { return exec_; }

 private:
  /// The per-kind dispatch body. ExecuteStatement wraps a top-level
  /// statement with query-log capture (wall clock, registry delta, modeled
  /// seconds) and the scan.* publish.
  Result<QueryResult> DispatchStatement(const Statement& stmt);
  /// PlanSelect, then RunSelect by the preferred route.
  Result<QueryResult> ExecuteSelect(const SelectStmt& stmt);
  Result<QueryResult> ExecuteCreate(const CreateTableStmt& stmt);
  Result<QueryResult> ExecuteDrop(const DropTableStmt& stmt);
  Result<QueryResult> ExecuteInsert(const InsertStmt& stmt);
  Result<QueryResult> ExecuteUpdate(const UpdateStmt& stmt);
  Result<QueryResult> ExecuteDelete(const DeleteStmt& stmt);
  Result<QueryResult> ExecuteCompact(const CompactStmt& stmt);
  Result<QueryResult> ExecuteShowTables();
  Result<QueryResult> ExecuteShowStats(const ShowStatsStmt& stmt);
  Result<QueryResult> ExecuteMerge(const MergeStmt& stmt);
  Result<QueryResult> ExecuteLoad(const LoadStmt& stmt);
  Result<QueryResult> ExecuteExplain(const ExplainStmt& stmt);
  Result<QueryResult> ExecuteExplainAnalyze(const ExplainStmt& stmt);

  table::Catalog* catalog_;
  TableFactory factory_;
  const fs::SimFileSystem* fs_;
  ExecOptions exec_;
  /// The scan.* counters, one per ScanSnapshot field in kScanCounters order;
  /// empty when scans are not published.
  std::vector<obs::Counter*> scan_counters_;
  /// ExecuteStatement calls in progress: EXPLAIN ANALYZE runs its inner
  /// statement through ExecuteStatement too, and only the outermost call
  /// logs and publishes.
  int statement_depth_ = 0;
  /// Wall seconds Execute() spent parsing the most recent statement; EXPLAIN
  /// ANALYZE reports it as the retrospective `parse` leaf of the trace.
  double last_parse_seconds_ = 0;
  /// SQL text of the statement Execute() is currently running; the query log
  /// records it (empty for statements executed via ExecuteStatement directly).
  std::string last_sql_;
};

/// Coerces a value to a column type (int→double widening, int↔date).
Result<Value> CoerceValue(const Value& v, DataType type, const std::string& column);

}  // namespace dtl::sql
