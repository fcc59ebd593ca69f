// Route-differential oracle (DESIGN.md §15): seeded random INSERT, UPDATE
// and DELETE (range and keyed, with and without WITH RATIO) and COMPACT
// [INCREMENTAL] statements run through a parallel SQL session over an
// indexed DualTable with small stripes. Between them, random single-table
// SELECTs (projections, `=` and IN on the indexed columns with and without a
// residual conjunct, ranges, LIMIT, global aggregates) are planned once, and
// every route the plan lists runs on that plan's snapshot. Each route must
// return exactly the operator tree's rows in the operator tree's order; the
// plan must list the routes the query's shape admits; and the `route:` line
// of EXPLAIN and the `execute(...)` span of EXPLAIN ANALYZE must name the
// preferred one. Held plans rerun every route after later UPDATEs and
// COMPACTs and must keep their answers.
//
// Amounts are multiples of 0.5, so double sums are exact and the parallel
// aggregate's merge order cannot change them.
//
// Reproduction: the seed is printed on entry; re-run a failure with
// DTL_DIFF_SEED=<seed> (and optionally DTL_DIFF_OPS=<n>).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "sql/parser.h"
#include "sql/session.h"

namespace dtl::sql {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::strtoull(env, nullptr, 10) : fallback;
}

std::vector<std::string> Render(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  return out;
}

constexpr SelectRoute kAllRoutes[] = {SelectRoute::kIndexLookup,
                                      SelectRoute::kParallelAggregate,
                                      SelectRoute::kVectorized, SelectRoute::kOperatorTree};

std::string Half(int64_t halves) {
  return std::to_string(halves / 2) + (halves % 2 == 0 ? ".0" : ".5");
}

class RouteDifferentialHarness {
 public:
  RouteDifferentialHarness(uint64_t seed, uint64_t ops)
      : seed_(seed), ops_(ops), rng_(seed) {}

  void Run() {
    SessionOptions options;
    options.pool_threads = 4;
    options.parallelism = 4;
    options.morsel_stripes = 1 + rng_() % 3;
    options.dual_defaults.writer_options.stripe_rows = 16 + rng_() % 48;
    options.dual_defaults.scan_batch_rows = 8 + rng_() % 56;
    auto session = Session::Create(options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    session_ = session->get();
    // Held plans pin snapshots of the session's table: drop them first.
    struct HeldDropper {
      std::vector<Held>* held;
      ~HeldDropper() { held->clear(); }
    } drop_held{&held_};

    Exec("CREATE TABLE r (id BIGINT, grp BIGINT, amount DOUBLE, tag STRING) "
         "INDEX (id, tag)");
    StepInsert();
    while (op_ < ops_) {
      ++op_;
      const uint64_t dice = rng_() % 100;
      if (dice < 25) {
        StepInsert();
      } else if (dice < 50) {
        StepUpdate();
      } else if (dice < 66) {
        StepDelete();
      } else if (dice < 76) {
        Exec(rng_() % 2 == 0 ? "COMPACT TABLE r" : "COMPACT INCREMENTAL TABLE r");
        for (Held& held : held_) held.saw_compact = true;
      } else {
        HoldOrRelease();
      }
      if (HasFatalFailure()) return;
      VerifyHeld();
      for (int i = 0; i < 3 && !HasFatalFailure(); ++i) {
        CheckQuery(RandomQuery(), nullptr);
      }
      if (HasFatalFailure()) return;
    }

    // One plan is always held across an UPDATE and a full COMPACT.
    held_.clear();
    held_.emplace_back();
    CheckQuery(RandomQuery(), &held_.back());
    if (HasFatalFailure()) return;
    StepUpdate();
    Exec("COMPACT TABLE r");
    for (Held& held : held_) held.saw_compact = true;
    VerifyHeld();
    if (HasFatalFailure()) return;

    EXPECT_GT(held_across_update_and_compact_, 0u);
    for (const SelectRoute route : kAllRoutes) {
      EXPECT_GT(route_runs_[static_cast<size_t>(route)], 0u)
          << SelectRouteName(route) << " never ran (seed " << seed_ << ")";
    }
    EXPECT_GT(nonempty_answers_, 0u);
  }

 private:
  struct Query {
    std::string sql;
    std::vector<SelectRoute> routes;  // what the query's shape admits
  };
  struct Held {
    std::string sql;
    SelectPlan plan;
    std::vector<std::string> answer;
    bool saw_update = false;
    bool saw_compact = false;
  };

  static bool HasFatalFailure() { return ::testing::Test::HasFatalFailure(); }

  std::string Where(const std::string& what) const {
    return what + " at op " + std::to_string(op_) + " (seed " + std::to_string(seed_) +
           ")";
  }

  QueryResult Exec(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << Where(sql) << " -> " << result.status().ToString();
    return result.ok() ? *result : QueryResult{};
  }

  int64_t RandomId() {
    return static_cast<int64_t>(rng_() % static_cast<uint64_t>(next_id_ + 4));
  }
  std::string RandomTag() { return "'t" + std::to_string(rng_() % 9) + "'"; }
  // No hint (the metadata history decides), or a hint on either side of
  // the EDIT/OVERWRITE crossover.
  std::string Hint() {
    static const char* kHints[] = {"", "", " WITH RATIO 0.01", " WITH RATIO 0.9"};
    return kHints[rng_() % 4];
  }

  // A WHERE clause; sets *keyed when a conjunct is an index probe.
  std::string RandomWhere(bool* keyed) {
    *keyed = false;
    std::string where;
    switch (rng_() % 8) {
      case 0:
        return "";
      case 1:
        where = "id = " + std::to_string(RandomId());
        *keyed = true;
        break;
      case 2:
        where = "id IN (" + std::to_string(RandomId()) + ", " +
                std::to_string(RandomId()) + ", " + std::to_string(RandomId()) + ")";
        *keyed = true;
        break;
      case 3:
        where = "tag = " + RandomTag();
        *keyed = true;
        break;
      case 4:
        where = "tag IN (" + RandomTag() + ", " + RandomTag() + ")";
        *keyed = true;
        break;
      case 5: {
        const int64_t lo = RandomId();
        where = "id >= " + std::to_string(lo) + " AND id < " +
                std::to_string(lo + 1 + static_cast<int64_t>(rng_() % 40));
        break;
      }
      case 6:
        where = "grp = " + std::to_string(rng_() % 11);
        break;
      default:
        // A double literal on the int index column: the scan owns the
        // coercion, so this never probes the index.
        where = "id = " + std::to_string(RandomId()) + ".0";
        break;
    }
    if (rng_() % 3 == 0) {
      const std::string residual = rng_() % 2 == 0
                                       ? "amount > " + Half(RandomId())
                                       : "id % 2 = " + std::to_string(rng_() % 2);
      where = rng_() % 2 == 0 ? where + " AND " + residual : residual + " AND " + where;
    }
    return where;
  }

  Query RandomQuery() {
    Query q;
    bool keyed = false;
    const std::string where = RandomWhere(&keyed);
    const bool aggregate = rng_() % 4 == 0;
    if (aggregate) {
      static const char* kAggs[] = {"COUNT(*), SUM(amount), MIN(id), MAX(tag)",
                                    "SUM(id), AVG(amount), COUNT(tag)",
                                    "MAX(amount) - MIN(amount), COUNT(*)"};
      q.sql = std::string("SELECT ") + kAggs[rng_() % 3] + " FROM r";
      q.routes = {SelectRoute::kParallelAggregate, SelectRoute::kOperatorTree};
    } else {
      static const char* kItems[] = {"*", "id", "tag, amount", "amount * 2 AS twice, id",
                                     "id, grp, tag"};
      q.sql = std::string("SELECT ") + kItems[rng_() % 5] + " FROM r";
      if (keyed) q.routes.push_back(SelectRoute::kIndexLookup);
      q.routes.push_back(SelectRoute::kVectorized);
      q.routes.push_back(SelectRoute::kOperatorTree);
    }
    if (!where.empty()) q.sql += " WHERE " + where;
    if (rng_() % 3 == 0) q.sql += " LIMIT " + std::to_string(rng_() % 8);
    return q;
  }

  // Plans `q` once and runs every route of the plan; all must return the
  // operator tree's rows in its order, and routes outside the plan must be
  // refused. With `held`, the plan is kept.
  void CheckQuery(const Query& q, Held* held) {
    SCOPED_TRACE(Where(q.sql));
    auto parsed = ParseStatement(q.sql);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    Engine* engine = session_->engine();
    auto plan = engine->PlanSelect(std::get<SelectStmt>(*parsed));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_EQ(plan->routes, q.routes) << "planner listed the wrong routes";

    auto reference = engine->RunSelect(*plan, SelectRoute::kOperatorTree);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const std::vector<std::string> answer = Render(reference->rows);
    if (!answer.empty()) ++nonempty_answers_;
    for (const SelectRoute route : kAllRoutes) {
      auto rows = engine->RunSelect(*plan, route);
      if (std::find(q.routes.begin(), q.routes.end(), route) == q.routes.end()) {
        EXPECT_FALSE(rows.ok()) << SelectRouteName(route) << " ran outside the plan";
        continue;
      }
      ASSERT_TRUE(rows.ok()) << SelectRouteName(route) << ": "
                             << rows.status().ToString();
      ASSERT_EQ(Render(rows->rows), answer) << SelectRouteName(route) << " diverged";
      ++route_runs_[static_cast<size_t>(route)];
    }

    // EXPLAIN prints the preferred route; EXPLAIN ANALYZE runs it.
    const std::string chosen = SelectRouteName(q.routes.front());
    bool route_line = false;
    bool index_line = false;
    for (const Row& row : Exec("EXPLAIN " + q.sql).rows) {
      route_line |= row[0].AsString() == "  route: " + chosen;
      index_line |= row[0].AsString().find("index lookup:") != std::string::npos;
    }
    EXPECT_TRUE(route_line) << "EXPLAIN did not print route: " << chosen;
    EXPECT_EQ(index_line, q.routes.front() == SelectRoute::kIndexLookup);
    bool execute_span = false;
    const std::string span = "execute(" + chosen + ")";
    for (const Row& row : Exec("EXPLAIN ANALYZE " + q.sql).rows) {
      execute_span |= row[0].AsString().find(span) != std::string::npos;
    }
    EXPECT_TRUE(execute_span) << "EXPLAIN ANALYZE did not run " << chosen;

    if (held != nullptr) {
      held->sql = q.sql;
      held->plan = std::move(*plan);
      held->answer = answer;
    }
  }

  // Every route of every held plan, rerun after whatever committed since it
  // was planned, must repeat the answer it gave at plan time.
  void VerifyHeld() {
    for (const Held& held : held_) {
      SCOPED_TRACE(Where("held plan " + held.sql));
      for (const SelectRoute route : held.plan.routes) {
        auto rows = session_->engine()->RunSelect(held.plan, route);
        ASSERT_TRUE(rows.ok()) << SelectRouteName(route) << ": "
                               << rows.status().ToString();
        ASSERT_EQ(Render(rows->rows), held.answer)
            << SelectRouteName(route) << " changed its answer";
      }
      if (held.saw_update && held.saw_compact) ++held_across_update_and_compact_;
    }
  }

  void HoldOrRelease() {
    if (held_.size() < 2 && rng_() % 3 != 0) {
      Held held;
      CheckQuery(RandomQuery(), &held);
      if (!HasFatalFailure()) held_.push_back(std::move(held));
    } else if (!held_.empty()) {
      held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(rng_() % held_.size()));
    }
  }

  void StepInsert() {
    const size_t n = 1 + rng_() % 40;
    std::string sql = "INSERT INTO r VALUES ";
    for (size_t i = 0; i < n; ++i, ++next_id_) {
      sql += (i == 0 ? "(" : ", (") + std::to_string(next_id_) + ", " +
             std::to_string(next_id_ % 11) + ", " + Half(next_id_) + ", 't" +
             std::to_string(next_id_ % 7) + "')";
    }
    Exec(sql);
  }

  void StepUpdate() {
    bool keyed = false;
    std::string where = RandomWhere(&keyed);
    if (where.empty()) where = "id % 5 = " + std::to_string(rng_() % 5);
    const std::string set =
        rng_() % 2 == 0 ? "amount = amount + " + Half(static_cast<int64_t>(rng_() % 9))
                        : "tag = " + RandomTag() + ", grp = grp + 1";
    Exec("UPDATE r SET " + set + " WHERE " + where + Hint());
    for (Held& held : held_) held.saw_update = true;
  }

  void StepDelete() {
    bool keyed = false;
    std::string where = RandomWhere(&keyed);
    if (where.empty()) where = "id % 9 = " + std::to_string(rng_() % 9);
    Exec("DELETE FROM r WHERE " + where + Hint());
  }

  const uint64_t seed_;
  const uint64_t ops_;
  std::mt19937_64 rng_;
  Session* session_ = nullptr;
  std::vector<Held> held_;
  int64_t next_id_ = 0;
  uint64_t op_ = 0;
  uint64_t route_runs_[4] = {};
  uint64_t nonempty_answers_ = 0;
  uint64_t held_across_update_and_compact_ = 0;
};

TEST(RouteDifferentialTest, EveryRouteMatchesTheOperatorTree) {
  const uint64_t base = EnvOr("DTL_DIFF_SEED", std::random_device{}());
  const uint64_t ops = EnvOr("DTL_DIFF_OPS", 80);
  const uint64_t iterations = std::getenv("DTL_DIFF_SEED") != nullptr ? 1 : 2;
  for (uint64_t i = 0; i < iterations; ++i) {
    const uint64_t seed = base + i;
    std::fprintf(stderr, "route-differential seed %llu (replay: DTL_DIFF_SEED=%llu)\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(seed));
    RouteDifferentialHarness harness(seed, ops);
    harness.Run();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Deterministic companion: one fixed interleaving in every CI run,
// independent of the entropy source.
TEST(RouteDifferentialTest, FixedSeedRegression) {
  RouteDifferentialHarness harness(/*seed=*/0x5E1EC7, /*ops=*/60);
  harness.Run();
}

}  // namespace
}  // namespace dtl::sql
