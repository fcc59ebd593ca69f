// A benchmark workload: one client issuing a fixed, seeded statement stream
// through sql::Session in a closed loop, with every answer checked against
// a benchmark-side reference.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dualtable/dual_table.h"
#include "harness.h"
#include "sql/session.h"
#include "table/spec.h"

namespace dtl::perfbench {

enum class Kind { kRead, kLookup, kDml, kCompact };

struct Template {
  std::string name;
  Kind kind = Kind::kRead;
};

/// One statement of a stream: its template, SQL text, and the parameters
/// the checker and the traced run's replay need.
struct Stmt {
  size_t tmpl = 0;
  std::string sql;
  std::vector<int64_t> params;
};

/// Work a statement does one layer down, replayed by the traced run on the
/// statement's snapshot: a UNION READ scan per table (with the statement's
/// projection and predicate), or an index probe for a point lookup.
struct ReplayScan {
  dual::DualTable* table = nullptr;
  table::ScanSpec spec;
  bool lookup = false;
  size_t column = 0;
  std::vector<Value> probes;
};

/// A DualTable the workload owns, with the label its kv.* views carry.
struct TableRef {
  std::string label;
  dual::DualTable* table = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual const std::vector<Template>& templates() const = 0;

  /// Creates a fresh session, loads the data, and warms up. Benchmark-side
  /// checking work runs with `clock` paused so it stays out of setup_s.
  /// Warm-up statements go through Issue() and count as attempted.
  virtual void Setup(SetupClock* clock) = 0;

  /// Statements in the measured phase: a fixed count per second of nominal
  /// run length (the `seconds` the workload was made with), never a
  /// wall-clock budget, so the same arguments always issue the same stream.
  virtual size_t MeasuredStatements() const = 0;

  /// Next statement of the seeded stream.
  virtual Stmt Next() = 0;

  /// Checks one result against the reference and advances the reference
  /// past a DML statement. Returns an empty string when the answer is right.
  virtual std::string Check(const Stmt& stmt, const sql::QueryResult& result) = 0;

  /// The work to replay one layer down for `stmt` (empty: none).
  virtual std::vector<ReplayScan> Replay(const Stmt& stmt) = 0;

  /// Logical bytes of the live rows (row count x mean row width).
  virtual double LiveLogicalBytes() const = 0;
  /// Mean logical width of one row of the written table, measured at load.
  virtual double MeanRowBytes() const = 0;
  /// Bite check: makes the reference deliberately wrong, so the checked
  /// statements must come out as failures.
  virtual void CorruptReference() = 0;

  /// Workload-specific facts for the report (e.g. folds in the phase).
  virtual std::string Describe() const { return ""; }

  /// Share of traced statements of this statement's template that the
  /// traced run replays.
  virtual double ReplayShare(const Stmt& stmt) const = 0;

  sql::Session* session() { return session_.get(); }
  const std::vector<TableRef>& tables() const { return tables_; }
  void ResetSession() {
    tables_.clear();
    session_.reset();
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Executes and checks one warm-up statement, counting failures; the
  /// check runs with `clock` paused.
  void Issue(const Stmt& stmt, SetupClock* clock);

  /// Counts one statement's outcome; `error` empty = success.
  void Tally(const std::string& error);

  /// Calls `fn` on every visible row of `table` (full width), read through
  /// DualTable::ScanBatches, until `fn` returns false.
  static void ForEachRow(dual::DualTable* table, const std::function<bool(const Row&)>& fn);

 protected:
  /// Replaces the session with a fresh one (BenchSessionOptions).
  void NewSession();
  /// Runs `CREATE TABLE name (<schema>) STORED AS DUALTABLE <suffix>` and
  /// returns the table, which the session's catalog owns.
  dual::DualTable* CreateDualTable(const std::string& name, const Schema& schema,
                                   const std::string& suffix = "");

  std::unique_ptr<sql::Session> session_;
  std::vector<TableRef> tables_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

std::unique_ptr<Workload> MakeGridEtl(uint64_t seed, int seconds);
std::unique_ptr<Workload> MakeTpchCold(uint64_t seed, int seconds);
std::unique_ptr<Workload> MakePointServe(uint64_t seed, int seconds);

/// Aborts the run (exit code 1, no result line) on a set-up failure the
/// benchmark cannot continue past, such as a table it could not create.
[[noreturn]] void Fatal(const std::string& what, const Status& status);

/// Runs set-up, the measured phase, and the report for one workload.
/// Returns the process exit code.
int RunWorkload(Workload* workload, const Args& args);

}  // namespace dtl::perfbench
