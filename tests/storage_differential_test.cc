// Storage differential oracle: one seeded stream of INSERT, UPDATE, DELETE
// and MERGE statements runs through SQL against the same table held by each
// storage system — DualTable, Hive, Hive(HBase) and Hive ACID — with
// DualTable COMPACT [INCREMENTAL] and ACID minor and major compaction
// interleaved. Every statement must affect the rows a model kept here says it
// does. After each step, random SELECTs (projections, kernel and residual
// predicates, IN lists, computed outputs, ORDER BY + LIMIT, global and
// grouped aggregates, a self-join) are planned on each table and run by every
// route their plan lists; each answer must equal the model's as a multiset,
// so all four systems agree. Doubles compare within a relative 1e-9.
//
// Columns hold BIGINT, DOUBLE, STRING and DATE cells with NULLs; doubles are
// multiples of 0.25, so sums are exact in any order.
//
// Reproduction: the seed is printed on entry; re-run a failure with
// DTL_DIFF_SEED=<seed> (and optionally DTL_DIFF_OPS=<n>).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "baseline/acid_table.h"
#include "sql/parser.h"
#include "sql/session.h"

namespace dtl::sql {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::strtoull(env, nullptr, 10) : fallback;
}

// Column ordinals of the differential table.
constexpr size_t kId = 0, kN = 1, kX = 2, kS = 3, kD = 4;

/// The storage systems under test, by table name and STORED AS kind.
constexpr std::pair<const char*, const char*> kTables[] = {
    {"t_dual", "DUALTABLE INDEX (id)"},
    {"t_hive", "HIVE"},
    {"t_hbase", "HBASE"},
    {"t_acid", "ACID"}};

/// A WHERE clause: its SQL (with `{}` standing for the row qualifier, empty
/// for a single table) and whether the model row satisfies it (TRUE only).
struct Pred {
  std::string sql;
  std::function<bool(const Row&)> holds;
};

std::string Literal(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_string()) return "'" + v.AsString() + "'";
  if (v.is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v.AsDouble());
    return buf;
  }
  return std::to_string(v.AsInt64());
}

/// SQL's `a op b` is TRUE: both operands non-NULL and the comparison holds.
bool CompareTrue(const Value& a, const std::string& op, const Value& b) {
  if (a.is_null() || b.is_null()) return false;
  const int c = a.Compare(b);
  if (op == "<") return c < 0;
  if (op == "<=") return c <= 0;
  if (op == ">") return c > 0;
  if (op == ">=") return c >= 0;
  if (op == "=") return c == 0;
  return c != 0;  // "<>"
}

/// Cells equal as answers: the same kind, doubles within a relative 1e-9.
bool SameCell(const Value& a, const Value& b) {
  if (a.is_double() && b.is_double()) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return a.is_null() == b.is_null() && a.is_int64() == b.is_int64() &&
         a.is_double() == b.is_double() && a.is_string() == b.is_string() &&
         a.Compare(b) == 0;
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

/// Empty when `got` and `want` are the same multiset; else the first
/// difference.
std::string MultisetDiff(std::vector<Row> got, std::vector<Row> want) {
  std::sort(got.begin(), got.end(), RowLess);
  std::sort(want.begin(), want.end(), RowLess);
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " rows, model has " + std::to_string(want.size());
  }
  for (size_t r = 0; r < got.size(); ++r) {
    bool same = got[r].size() == want[r].size();
    for (size_t c = 0; same && c < got[r].size(); ++c) {
      same = SameCell(got[r][c], want[r][c]);
    }
    if (!same) {
      return "row " + std::to_string(r) + " is " + RowToString(got[r]) + ", model has " +
             RowToString(want[r]);
    }
  }
  return "";
}

class StorageDifferentialHarness {
 public:
  StorageDifferentialHarness(uint64_t seed, uint64_t ops)
      : seed_(seed), ops_(ops), rng_(seed) {}

  void Run() {
    SessionOptions options;
    options.pool_threads = 2;
    options.parallelism = 2;  // DualTable aggregates also list the parallel route
    const uint64_t stripe_rows = 8 + rng_() % 24;
    options.dual_defaults.writer_options.stripe_rows = stripe_rows;
    options.dual_defaults.scan_batch_rows = 4 + rng_() % 28;
    options.dual_defaults.attached_options.memtable_flush_bytes = 2048;
    options.hive_defaults.writer_options.stripe_rows = stripe_rows;
    options.acid_defaults.writer_options.stripe_rows = stripe_rows;
    options.hbase_defaults.store_options.memtable_flush_bytes = 2048;
    auto session = Session::Create(options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    session_ = session->get();
    for (const auto& [name, kind] : kTables) {
      Exec(std::string("CREATE TABLE ") + name +
           " (id BIGINT, n BIGINT, x DOUBLE, s STRING, d DATE) STORED AS " + kind);
    }
    StepInsert();
    while (op_ < ops_ && !HasFatalFailure()) {
      ++op_;
      const uint64_t dice = rng_() % 100;
      if (dice < 25) {
        StepInsert();
      } else if (dice < 50) {
        StepUpdate();
      } else if (dice < 68) {
        StepDelete();
      } else if (dice < 84) {
        StepMerge();
      } else {
        StepCompact();
      }
      for (int i = 0; i < 3 && !HasFatalFailure(); ++i) CheckQuery();
    }
    EXPECT_GT(nonempty_answers_, 0u);
    EXPECT_GT(edit_plans_, 0u) << "no DualTable statement took the EDIT plan";
    for (const SelectRoute route :
         {SelectRoute::kIndexLookup, SelectRoute::kParallelAggregate,
          SelectRoute::kVectorized, SelectRoute::kOperatorTree}) {
      EXPECT_GT(route_runs_[static_cast<size_t>(route)], 0u)
          << SelectRouteName(route) << " never ran (seed " << seed_ << ")";
    }
  }

 private:
  static bool HasFatalFailure() { return ::testing::Test::HasFatalFailure(); }

  std::string Where(const std::string& what) const {
    return "seed " + std::to_string(seed_) + " op " + std::to_string(op_) + ": " + what;
  }

  QueryResult Exec(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << Where(sql) << ": " << result.status().ToString();
    if (!result.ok()) return QueryResult();
    if (result->dml_plan == "EDIT") ++edit_plans_;
    return std::move(*result);
  }

  /// Runs `dml` (with `{}` for the table name) on every table; each must
  /// affect `want` rows.
  void ExecEverywhere(const std::string& dml, uint64_t want) {
    for (const auto& [name, kind] : kTables) {
      std::string sql = dml;
      sql.replace(sql.find("{}"), 2, name);
      const QueryResult result = Exec(sql);
      if (HasFatalFailure()) return;
      EXPECT_EQ(result.affected_rows, want) << Where(sql);
    }
  }

  // --- values -----------------------------------------------------------------

  bool Null() { return rng_() % 5 == 0; }
  Value RandN() { return Null() ? Value::Null() : Value::Int64(rng_() % 20); }
  Value RandX() { return Null() ? Value::Null() : Value::Double((rng_() % 200) * 0.25); }
  Value RandS() {
    return Null() ? Value::Null() : Value::String("s" + std::to_string(rng_() % 8));
  }
  Value RandD() { return Null() ? Value::Null() : Value::Date(100 + rng_() % 60); }

  Row RandRow(int64_t id) {
    return Row{Value::Int64(id), RandN(), RandX(), RandS(), RandD()};
  }

  static std::string Tuple(const Row& row) {
    std::string sql = "(";
    for (size_t c = 0; c < row.size(); ++c) sql += (c > 0 ? ", " : "") + Literal(row[c]);
    return sql + ")";
  }

  int64_t SomeId() {
    return model_.empty() ? 1 : static_cast<int64_t>(rng_() % (next_id_ + 2));
  }

  // --- predicates -------------------------------------------------------------

  /// One conjunct over a row qualified by `q` ("" or "a."): a compiled kernel
  /// term or a residual the kernels cannot take.
  Pred Conjunct(const std::string& q) {
    static const char* kOps[] = {"<", "<=", ">", ">=", "=", "<>"};
    const std::string op = kOps[rng_() % 6];
    switch (rng_() % 11) {
      case 0: {
        const Value k = Value::Int64(rng_() % 20);
        return {q + "n " + op + " " + Literal(k),
                [op, k](const Row& r) { return CompareTrue(r[kN], op, k); }};
      }
      case 1: {
        const Value v = Value::Double((rng_() % 200) * 0.25);
        return {q + "x " + op + " " + Literal(v),
                [op, v](const Row& r) { return CompareTrue(r[kX], op, v); }};
      }
      case 2: {
        const Value s = Value::String("s" + std::to_string(rng_() % 8));
        return {q + "s " + op + " " + Literal(s),
                [op, s](const Row& r) { return CompareTrue(r[kS], op, s); }};
      }
      case 3: {
        const Value d = Value::Int64(100 + rng_() % 60);
        return {q + "d " + op + " " + Literal(d),
                [op, d](const Row& r) { return CompareTrue(r[kD], op, d); }};
      }
      case 4: {
        const Value k = Value::Int64(SomeId());
        return {q + "id " + op + " " + Literal(k),
                [op, k](const Row& r) { return CompareTrue(r[kId], op, k); }};
      }
      case 5: {
        std::vector<Value> ids;
        std::string sql = q + "id IN (";
        for (int i = 0, n = 1 + static_cast<int>(rng_() % 4); i < n; ++i) {
          ids.push_back(Value::Int64(SomeId()));
          sql += (i > 0 ? ", " : "") + Literal(ids.back());
        }
        return {sql + ")", [ids](const Row& r) {
                  for (const Value& v : ids) {
                    if (CompareTrue(r[kId], "=", v)) return true;
                  }
                  return false;
                }};
      }
      case 6: {
        const Value a = Value::String("s" + std::to_string(rng_() % 8));
        const Value b = Value::String("s" + std::to_string(rng_() % 8));
        return {q + "s IN (" + Literal(a) + ", " + Literal(b) + ")",
                [a, b](const Row& r) {
                  return CompareTrue(r[kS], "=", a) || CompareTrue(r[kS], "=", b);
                }};
      }
      case 7:
        return {q + "n IS NULL", [](const Row& r) { return r[kN].is_null(); }};
      case 8:
        return {q + "s IS NOT NULL", [](const Row& r) { return !r[kS].is_null(); }};
      case 9: {
        const Value k = Value::Int64(rng_() % 20);
        const Value s = Value::String("s" + std::to_string(rng_() % 8));
        return {"(" + q + "n < " + Literal(k) + " OR " + q + "s = " + Literal(s) + ")",
                [k, s](const Row& r) {
                  return CompareTrue(r[kN], "<", k) || CompareTrue(r[kS], "=", s);
                }};
      }
      default: {
        // Arithmetic over two columns: a residual, never TRUE on a NULL.
        const Value v = Value::Double((rng_() % 240) * 0.25);
        return {q + "x + " + q + "n > " + Literal(v), [v](const Row& r) {
                  if (r[kX].is_null() || r[kN].is_null()) return false;
                  return r[kX].AsDouble() + static_cast<double>(r[kN].AsInt64()) >
                         v.AsDouble();
                }};
      }
    }
  }

  /// Zero to two conjuncts; `sql` is empty for none.
  Pred RandPred(const std::string& q = "") {
    const uint64_t n = rng_() % 4 == 0 ? 0 : 1 + rng_() % 2;
    Pred pred{"", [](const Row&) { return true; }};
    for (uint64_t i = 0; i < n; ++i) {
      Pred c = Conjunct(q);
      pred.sql += (i > 0 ? " AND " : "") + c.sql;
      pred.holds = [a = pred.holds, b = c.holds](const Row& r) { return a(r) && b(r); };
    }
    return pred;
  }

  static std::string WhereSql(const Pred& pred) {
    return pred.sql.empty() ? "" : " WHERE " + pred.sql;
  }

  /// " WITH RATIO r" half the time, so the DualTable cost model sees hints.
  std::string RatioHint() {
    return rng_() % 2 == 0 ? "" : " WITH RATIO " + std::to_string((rng_() % 50) / 100.0);
  }

  // --- statements -------------------------------------------------------------

  void StepInsert() {
    std::string sql = "INSERT INTO {} VALUES ";
    const uint64_t n = 1 + rng_() % 12;
    for (uint64_t i = 0; i < n; ++i) {
      Row row = RandRow(next_id_++);
      sql += (i > 0 ? ", " : "") + Tuple(row);
      model_[row[kId].AsInt64()] = std::move(row);
    }
    ExecEverywhere(sql, n);
  }

  void StepUpdate() {
    const Pred pred = RandPred();
    // One or two SET clauses, each computed from the row before the update.
    std::string set;
    std::vector<std::function<void(const Row& before, Row* after)>> apply;
    for (uint64_t i = 0, n = 1 + rng_() % 2; i < n; ++i) {
      std::string clause;
      switch (rng_() % 6) {
        case 0: {
          const Value v = RandN();
          clause = "n = " + Literal(v);
          apply.push_back([v](const Row&, Row* a) { (*a)[kN] = v; });
          break;
        }
        case 1:
          clause = "n = n + 1";
          apply.push_back([](const Row& b, Row* a) {
            (*a)[kN] =
                b[kN].is_null() ? Value::Null() : Value::Int64(b[kN].AsInt64() + 1);
          });
          break;
        case 2: {
          const Value v = RandX();
          clause = "x = " + Literal(v);
          apply.push_back([v](const Row&, Row* a) { (*a)[kX] = v; });
          break;
        }
        case 3:
          clause = "x = x + 0.5";
          apply.push_back([](const Row& b, Row* a) {
            (*a)[kX] =
                b[kX].is_null() ? Value::Null() : Value::Double(b[kX].AsDouble() + 0.5);
          });
          break;
        case 4: {
          const Value v = RandS();
          clause = "s = " + Literal(v);
          apply.push_back([v](const Row&, Row* a) { (*a)[kS] = v; });
          break;
        }
        default: {
          const Value v = RandD();
          clause = "d = " + Literal(v);
          apply.push_back([v](const Row&, Row* a) { (*a)[kD] = v; });
          break;
        }
      }
      set += (i > 0 ? ", " : "") + clause;
    }
    uint64_t matched = 0;
    for (auto& [id, row] : model_) {
      if (!pred.holds(row)) continue;
      ++matched;
      const Row before = row;
      for (const auto& fn : apply) fn(before, &row);
    }
    ExecEverywhere("UPDATE {} SET " + set + WhereSql(pred) + RatioHint(), matched);
  }

  void StepDelete() {
    Pred pred = RandPred();
    if (pred.sql.empty() && rng_() % 4 != 0) pred = RandPred();  // rarely empty the table
    uint64_t matched = 0;
    for (auto it = model_.begin(); it != model_.end();) {
      if (pred.holds(it->second)) {
        ++matched;
        it = model_.erase(it);
      } else {
        ++it;
      }
    }
    ExecEverywhere("DELETE FROM {}" + WhereSql(pred) + RatioHint(), matched);
  }

  void StepMerge() {
    // Source keys: some present, some deleted or never used, some new; a
    // repeated key keeps its last tuple.
    std::map<int64_t, Row> source;
    std::string sql = "MERGE INTO {} ON (id) VALUES ";
    for (uint64_t i = 0, n = 1 + rng_() % 6; i < n; ++i) {
      const int64_t id = rng_() % 3 == 0 ? next_id_++ : SomeId();
      Row row = RandRow(id);
      sql += (i > 0 ? ", " : "") + Tuple(row);
      source[id] = std::move(row);
    }
    for (auto& [id, row] : source) model_[id] = row;
    next_id_ = std::max(next_id_, source.rbegin()->first + 1);  // INSERT never reuses one
    ExecEverywhere(sql + RatioHint(), source.size());
  }

  void StepCompact() {
    switch (rng_() % 4) {
      case 0:
        Exec("COMPACT TABLE t_dual");
        break;
      case 1:
        Exec("COMPACT INCREMENTAL TABLE t_dual");
        break;
      case 2:
        Exec("COMPACT TABLE t_acid");  // major: deltas fold into a new base
        break;
      default: {
        auto entry = session_->catalog()->Lookup("t_acid");
        ASSERT_TRUE(entry.ok());
        auto* acid = dynamic_cast<baseline::AcidTable*>(entry->table.get());
        ASSERT_NE(acid, nullptr);
        ASSERT_TRUE(acid->MinorCompact().ok()) << Where("minor compaction");
        break;
      }
    }
  }

  // --- queries ----------------------------------------------------------------

  /// A random SELECT template over `{}`, with the model's answer.
  std::pair<std::string, std::vector<Row>> RandomQuery() {
    std::vector<Row> want;
    switch (rng_() % 7) {
      case 0: {
        const Pred pred = RandPred();
        for (const auto& [id, row] : model_) {
          if (pred.holds(row)) want.push_back(row);
        }
        return {"SELECT id, n, x, s, d FROM {}" + WhereSql(pred), want};
      }
      case 1: {
        const Pred pred = RandPred();
        for (const auto& [id, row] : model_) {
          if (pred.holds(row)) want.push_back(Row{row[kS], row[kId]});
        }
        return {"SELECT s, id FROM {}" + WhereSql(pred), want};
      }
      case 2: {
        // Computed outputs: the vectorized route evaluates them per row.
        const Pred pred = RandPred();
        for (const auto& [id, row] : model_) {
          if (!pred.holds(row)) continue;
          want.push_back(Row{row[kId],
                             row[kX].is_null() ? Value::Null()
                                               : Value::Double(row[kX].AsDouble() * 2),
                             row[kN].is_null() ? Value::Null()
                                               : Value::Int64(row[kN].AsInt64() + 1)});
        }
        return {"SELECT id, x * 2, n + 1 FROM {}" + WhereSql(pred), want};
      }
      case 3: {
        const Pred pred = RandPred();
        const uint64_t limit = rng_() % 8;
        for (const auto& [id, row] : model_) {
          if (want.size() < limit && pred.holds(row)) {
            want.push_back(Row{row[kId], row[kD]});
          }
        }
        return {"SELECT id, d FROM {}" + WhereSql(pred) + " ORDER BY id LIMIT " +
                    std::to_string(limit),
                want};
      }
      case 4: {
        const Pred pred = RandPred();
        int64_t count = 0, count_n = 0, sum_n = 0;
        double sum_x = 0;
        int64_t count_x = 0;
        Value min_s, max_d;
        for (const auto& [id, row] : model_) {
          if (!pred.holds(row)) continue;
          ++count;
          if (!row[kN].is_null()) {
            ++count_n;
            sum_n += row[kN].AsInt64();
          }
          if (!row[kX].is_null()) {
            ++count_x;
            sum_x += row[kX].AsDouble();
          }
          if (!row[kS].is_null() && (min_s.is_null() || row[kS].Compare(min_s) < 0)) {
            min_s = row[kS];
          }
          if (!row[kD].is_null() && (max_d.is_null() || row[kD].Compare(max_d) > 0)) {
            max_d = row[kD];
          }
        }
        const double avg_x = sum_x / static_cast<double>(std::max<int64_t>(count_x, 1));
        want.push_back(Row{Value::Int64(count), Value::Int64(count_n),
                           count_n == 0 ? Value::Null() : Value::Int64(sum_n),
                           count_x == 0 ? Value::Null() : Value::Double(sum_x), min_s,
                           max_d, count_x == 0 ? Value::Null() : Value::Double(avg_x)});
        return {"SELECT COUNT(*), COUNT(n), SUM(n), SUM(x), MIN(s), MAX(d), AVG(x) "
                "FROM {}" +
                    WhereSql(pred),
                want};
      }
      case 5: {
        const Pred pred = RandPred();
        std::map<std::string, std::pair<Value, int64_t>> groups;  // s -> (key, count)
        for (const auto& [id, row] : model_) {
          if (!pred.holds(row)) continue;
          auto& g = groups[row[kS].is_null() ? std::string() : "v" + row[kS].AsString()];
          g.first = row[kS];
          ++g.second;
        }
        for (const auto& [key, g] : groups) {
          want.push_back(Row{g.first, Value::Int64(g.second)});
        }
        return {"SELECT s, COUNT(*) FROM {}" + WhereSql(pred) + " GROUP BY s", want};
      }
      default: {
        // Self-join on n = id, filtered on the probe side.
        const Pred pred = RandPred("a.");
        for (const auto& [id, a] : model_) {
          if (!pred.holds(a) || a[kN].is_null()) continue;
          auto b = model_.find(a[kN].AsInt64());
          if (b != model_.end()) {
            want.push_back(Row{a[kId], b->second[kId], b->second[kS]});
          }
        }
        return {"SELECT a.id, b.id, b.s FROM {} a JOIN {} b ON a.n = b.id" +
                    WhereSql(pred),
                want};
      }
    }
  }

  /// Plans the query on every table and runs each route its plan lists.
  void CheckQuery() {
    const auto [templ, want] = RandomQuery();
    if (!want.empty()) ++nonempty_answers_;
    for (const auto& [name, kind] : kTables) {
      std::string sql = templ;
      for (size_t at = sql.find("{}"); at != std::string::npos; at = sql.find("{}")) {
        sql.replace(at, 2, name);
      }
      auto parsed = ParseStatement(sql);
      ASSERT_TRUE(parsed.ok()) << Where(sql) << ": " << parsed.status().ToString();
      auto plan = session_->engine()->PlanSelect(std::get<SelectStmt>(*parsed));
      ASSERT_TRUE(plan.ok()) << Where(sql) << ": " << plan.status().ToString();
      for (const SelectRoute route : plan->routes) {
        ++route_runs_[static_cast<size_t>(route)];
        auto got = session_->engine()->RunSelect(*plan, route);
        ASSERT_TRUE(got.ok()) << Where(sql) << " by " << SelectRouteName(route) << ": "
                              << got.status().ToString();
        const std::string diff = MultisetDiff(got->rows, want);
        ASSERT_TRUE(diff.empty())
            << Where(sql) << " by " << SelectRouteName(route) << ": " << diff;
      }
    }
  }

  uint64_t seed_;
  uint64_t ops_;
  std::mt19937_64 rng_;
  Session* session_ = nullptr;
  std::map<int64_t, Row> model_;
  int64_t next_id_ = 1;
  uint64_t op_ = 0;
  uint64_t nonempty_answers_ = 0;
  uint64_t edit_plans_ = 0;
  uint64_t route_runs_[4] = {};
};

TEST(StorageDifferentialTest, FourStorageSystemsAgreeWithTheModel) {
  const uint64_t seed = EnvOr("DTL_DIFF_SEED", 20230423);
  const uint64_t ops = EnvOr("DTL_DIFF_OPS", 60);
  std::printf("storage differential: DTL_DIFF_SEED=%llu DTL_DIFF_OPS=%llu\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(ops));
  StorageDifferentialHarness harness(seed, ops);
  harness.Run();
}

}  // namespace
}  // namespace dtl::sql
