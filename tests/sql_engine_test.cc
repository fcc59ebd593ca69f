#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dualtable/dual_table.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "workload/tpch_gen.h"

namespace dtl::sql {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto session = Session::Create();
    ASSERT_TRUE(session.ok());
    session_ = std::move(*session);
  }

  QueryResult Run(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *result : QueryResult{};
  }

  std::unique_ptr<Session> session_;
};

TEST_F(EngineTest, CreateInsertSelect) {
  Run("CREATE TABLE t (id BIGINT, name STRING, price DOUBLE)");
  Run("INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5), (3, 'three', 3.5)");
  auto result = Run("SELECT id, name FROM t WHERE price > 2.0 ORDER BY id");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0].AsInt64(), 2);
  EXPECT_EQ(result.rows[1][1].AsString(), "three");
  EXPECT_EQ(result.column_names[1], "name");
}

TEST_F(EngineTest, SelectStarAndLimit) {
  Run("CREATE TABLE t (a BIGINT, b BIGINT)");
  Run("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  auto result = Run("SELECT * FROM t LIMIT 2");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].size(), 2u);
}

TEST_F(EngineTest, AggregationWithGroupByHaving) {
  Run("CREATE TABLE sales (region STRING, amount BIGINT)");
  Run("INSERT INTO sales VALUES ('east', 10), ('east', 20), ('west', 5), ('west', 2), "
      "('north', 100)");
  auto result = Run(
      "SELECT region, SUM(amount) total, COUNT(*) cnt FROM sales "
      "GROUP BY region HAVING SUM(amount) > 10 ORDER BY total DESC");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0].AsString(), "north");
  EXPECT_EQ(result.rows[0][1].AsInt64(), 100);
  EXPECT_EQ(result.rows[1][0].AsString(), "east");
  EXPECT_EQ(result.rows[1][2].AsInt64(), 2);
}

TEST_F(EngineTest, GlobalAggregates) {
  Run("CREATE TABLE t (v BIGINT)");
  Run("INSERT INTO t VALUES (1), (2), (3), (4)");
  auto result = Run("SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt64(), 4);
  EXPECT_EQ(result.rows[0][1].AsInt64(), 10);
  EXPECT_DOUBLE_EQ(result.rows[0][2].AsDouble(), 2.5);
  EXPECT_EQ(result.rows[0][3].AsInt64(), 1);
  EXPECT_EQ(result.rows[0][4].AsInt64(), 4);
}

TEST_F(EngineTest, JoinTwoTables) {
  Run("CREATE TABLE orders (oid BIGINT, cid BIGINT)");
  Run("CREATE TABLE customers (cid BIGINT, cname STRING)");
  Run("INSERT INTO orders VALUES (1, 10), (2, 20), (3, 10), (4, 99)");
  Run("INSERT INTO customers VALUES (10, 'alice'), (20, 'bob')");
  auto result = Run(
      "SELECT o.oid, c.cname FROM orders o JOIN customers c ON o.cid = c.cid "
      "ORDER BY o.oid");
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0][1].AsString(), "alice");
  EXPECT_EQ(result.rows[1][1].AsString(), "bob");
}

TEST_F(EngineTest, LeftOuterJoinKeepsUnmatched) {
  Run("CREATE TABLE l (k BIGINT)");
  Run("CREATE TABLE r (k BIGINT, v STRING)");
  Run("INSERT INTO l VALUES (1), (2)");
  Run("INSERT INTO r VALUES (2, 'found')");
  auto result = Run("SELECT l.k, r.v FROM l LEFT OUTER JOIN r ON l.k = r.k ORDER BY l.k");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_TRUE(result.rows[0][1].is_null());
  EXPECT_EQ(result.rows[1][1].AsString(), "found");
}

TEST_F(EngineTest, ThreeWayJoin) {
  Run("CREATE TABLE a (x BIGINT)");
  Run("CREATE TABLE b (x BIGINT, y BIGINT)");
  Run("CREATE TABLE c (y BIGINT, z STRING)");
  Run("INSERT INTO a VALUES (1), (2)");
  Run("INSERT INTO b VALUES (1, 100), (2, 200)");
  Run("INSERT INTO c VALUES (100, 'hundred'), (200, 'two hundred')");
  auto result = Run(
      "SELECT a.x, c.z FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y ORDER BY a.x");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[1][1].AsString(), "two hundred");
}

TEST_F(EngineTest, UpdateOnDualTableUsesEditPlanForSmallRatio) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  std::string insert = "INSERT INTO t VALUES (0, 0)";
  for (int i = 1; i < 200; ++i) {
    insert += ", (" + std::to_string(i) + ", 0)";
  }
  Run(insert);
  auto result = Run("UPDATE t SET v = 1 WHERE id < 4 WITH RATIO 0.02");
  EXPECT_EQ(result.affected_rows, 4u);
  EXPECT_EQ(result.dml_plan, "EDIT");
  auto check = Run("SELECT SUM(v) FROM t");
  EXPECT_EQ(check.rows[0][0].AsInt64(), 4);
}

TEST_F(EngineTest, UpdateLargeRatioUsesOverwrite) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  std::string insert = "INSERT INTO t VALUES (0, 0)";
  for (int i = 1; i < 100; ++i) insert += ", (" + std::to_string(i) + ", 0)";
  Run(insert);
  auto result = Run("UPDATE t SET v = 1 WHERE id >= 0 WITH RATIO 0.99");
  EXPECT_EQ(result.dml_plan, "OVERWRITE");
  auto check = Run("SELECT SUM(v) FROM t");
  EXPECT_EQ(check.rows[0][0].AsInt64(), 100);
}

TEST_F(EngineTest, DeleteFromAllStorageKinds) {
  for (const char* kind : {"dualtable", "hive", "hbase", "acid"}) {
    std::string name = std::string("t_") + kind;
    Run("CREATE TABLE " + name + " (id BIGINT, v BIGINT) STORED AS " + kind);
    Run("INSERT INTO " + name + " VALUES (1, 1), (2, 2), (3, 3), (4, 4)");
    auto result = Run("DELETE FROM " + name + " WHERE id <= 2 WITH RATIO 0.5");
    EXPECT_EQ(result.affected_rows, 2u) << kind;
    auto check = Run("SELECT COUNT(*) FROM " + name);
    EXPECT_EQ(check.rows[0][0].AsInt64(), 2) << kind;
  }
}

TEST_F(EngineTest, UpdateSeesOwnPriorUpdates) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  Run("INSERT INTO t VALUES (1, 10)");
  Run("UPDATE t SET v = v + 5 WITH RATIO 0.001");
  Run("UPDATE t SET v = v * 2 WITH RATIO 0.001");
  auto check = Run("SELECT v FROM t");
  EXPECT_EQ(check.rows[0][0].AsInt64(), 30);
}

TEST_F(EngineTest, CompactTableStatement) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  Run("INSERT INTO t VALUES (1, 1), (2, 2)");
  Run("UPDATE t SET v = 9 WHERE id = 1 WITH RATIO 0.001");
  Run("COMPACT TABLE t");
  auto check = Run("SELECT v FROM t ORDER BY id");
  EXPECT_EQ(check.rows[0][0].AsInt64(), 9);
  EXPECT_EQ(check.rows[1][0].AsInt64(), 2);
}

TEST_F(EngineTest, CompactIncrementalStatement) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  std::string insert = "INSERT INTO t VALUES (0, 0)";
  for (int i = 1; i < 100; ++i) insert += ", (" + std::to_string(i) + ", 0)";
  Run(insert);
  // A small ratio hint keeps the EDIT plan even though 90% of rows change,
  // so the incremental plan sees a genuinely dense file.
  Run("UPDATE t SET v = 7 WHERE id < 90 WITH RATIO 0.01");

  // EXPLAIN renders the plan without executing: per-file density vs
  // threshold plus the stray count.
  auto plan = Run("EXPLAIN COMPACT TABLE t INCREMENTAL");
  ASSERT_FALSE(plan.rows.empty());
  std::string rendered;
  for (const auto& row : plan.rows) rendered += row[0].AsString() + "\n";
  EXPECT_NE(rendered.find("COMPACT INCREMENTAL t"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("threshold"), std::string::npos) << rendered;

  auto result = Run("COMPACT TABLE t INCREMENTAL");
  EXPECT_NE(result.message.find("incremental compact of t"), std::string::npos)
      << result.message;
  auto check = Run("SELECT SUM(v), COUNT(*) FROM t");
  EXPECT_EQ(check.rows[0][0].AsInt64(), 90 * 7);
  EXPECT_EQ(check.rows[0][1].AsInt64(), 100);
}

TEST_F(EngineTest, ExplainCompactShowsTheFoldItRuns) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  Run("INSERT INTO t VALUES (1, 0), (2, 0)");
  Run("INSERT INTO t VALUES (3, 0), (4, 0)");
  Run("INSERT INTO t VALUES (5, 0), (6, 0)");
  Run("UPDATE t SET v = 9 WHERE id = 3 WITH RATIO 0.001");  // deltas in one file
  auto* table = dynamic_cast<dual::DualTable*>(session_->catalog()->Lookup("t")->table.get());
  ASSERT_NE(table, nullptr);
  const std::vector<dual::MasterFileInfo> before = table->master()->files();
  ASSERT_EQ(before.size(), 3u);

  auto plan = Run("EXPLAIN COMPACT TABLE t");
  std::string rendered;
  for (const auto& row : plan.rows) rendered += row[0].AsString() + "\n";
  EXPECT_NE(rendered.find("COMPACT t"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("threshold=0 "), std::string::npos) << rendered;
  for (const dual::MasterFileInfo& f : before) {
    const std::string line = "f_" + std::to_string(f.file_id) + ":";
    const size_t at = rendered.find(line);
    ASSERT_NE(at, std::string::npos) << rendered;
    const std::string verdict = f.file_id == before[1].file_id ? " REWRITE" : " keep";
    EXPECT_NE(rendered.find(verdict, at), std::string::npos) << line << "\n" << rendered;
    EXPECT_LT(rendered.find(verdict, at), rendered.find('\n', at)) << rendered;
  }

  auto result = Run("COMPACT TABLE t");
  EXPECT_NE(result.message.find("rewrote 1/3 files"), std::string::npos) << result.message;
  const std::vector<dual::MasterFileInfo> after = table->master()->files();
  ASSERT_EQ(after.size(), 3u);
  std::vector<uint64_t> before_ids, kept;
  for (const dual::MasterFileInfo& f : before) before_ids.push_back(f.file_id);
  for (const dual::MasterFileInfo& f : after) {
    if (std::find(before_ids.begin(), before_ids.end(), f.file_id) != before_ids.end()) {
      kept.push_back(f.file_id);
    }
  }
  EXPECT_EQ(kept, (std::vector<uint64_t>{before[0].file_id, before[2].file_id}));
  auto check = Run("SELECT SUM(v), COUNT(*) FROM t");
  EXPECT_EQ(check.rows[0][0].AsInt64(), 9);
  EXPECT_EQ(check.rows[0][1].AsInt64(), 6);
}

TEST_F(EngineTest, CompactIncrementalRejectsNonDualTables) {
  Run("CREATE TABLE h (id BIGINT) STORED AS hive");
  auto result = session_->Execute("COMPACT TABLE h INCREMENTAL");
  EXPECT_FALSE(result.ok());
}

TEST_F(EngineTest, ShowTablesListsKinds) {
  Run("CREATE TABLE d (x BIGINT) STORED AS dualtable");
  Run("CREATE TABLE h (x BIGINT) STORED AS hive");
  auto result = Run("SHOW TABLES");
  ASSERT_EQ(result.rows.size(), 2u);
}

TEST_F(EngineTest, DropTable) {
  Run("CREATE TABLE t (x BIGINT)");
  Run("DROP TABLE t");
  EXPECT_FALSE(session_->Execute("SELECT * FROM t").ok());
  Run("DROP TABLE IF EXISTS t");  // no error
}

TEST_F(EngineTest, IfFunctionAndCaseInsensitivity) {
  Run("CREATE TABLE T (V BIGINT)");
  Run("INSERT INTO t VALUES (5), (15)");
  auto result = Run("SELECT SUM(IF(v > 10, 1, 0)) FROM T");
  EXPECT_EQ(result.rows[0][0].AsInt64(), 1);
}

TEST_F(EngineTest, InListPredicate) {
  Run("CREATE TABLE t (tag STRING)");
  Run("INSERT INTO t VALUES ('a'), ('b'), ('c'), ('d')");
  auto result = Run("SELECT COUNT(*) FROM t WHERE tag IN ('a', 'c')");
  EXPECT_EQ(result.rows[0][0].AsInt64(), 2);
}

TEST_F(EngineTest, NullSemantics) {
  Run("CREATE TABLE t (v BIGINT)");
  Run("INSERT INTO t VALUES (1), (NULL), (3)");
  // NULL comparisons exclude rows.
  EXPECT_EQ(Run("SELECT COUNT(*) FROM t WHERE v > 0").rows[0][0].AsInt64(), 2);
  EXPECT_EQ(Run("SELECT COUNT(*) FROM t WHERE v IS NULL").rows[0][0].AsInt64(), 1);
  EXPECT_EQ(Run("SELECT COUNT(v) FROM t").rows[0][0].AsInt64(), 2);
  EXPECT_EQ(Run("SELECT COUNT(*) FROM t").rows[0][0].AsInt64(), 3);
  EXPECT_EQ(Run("SELECT SUM(v) FROM t").rows[0][0].AsInt64(), 4);
}

TEST_F(EngineTest, ArithmeticAndDivision) {
  Run("CREATE TABLE t (a BIGINT, b BIGINT)");
  Run("INSERT INTO t VALUES (7, 2)");
  auto result = Run("SELECT a + b, a - b, a * b, a / b, a % b FROM t");
  EXPECT_EQ(result.rows[0][0].AsInt64(), 9);
  EXPECT_EQ(result.rows[0][1].AsInt64(), 5);
  EXPECT_EQ(result.rows[0][2].AsInt64(), 14);
  EXPECT_DOUBLE_EQ(result.rows[0][3].AsDouble(), 3.5);  // Hive-style: / is double
  EXPECT_EQ(result.rows[0][4].AsInt64(), 1);
}

TEST_F(EngineTest, ErrorMessagesForBadQueries) {
  Run("CREATE TABLE t (v BIGINT)");
  EXPECT_FALSE(session_->Execute("SELECT nope FROM t").ok());
  EXPECT_FALSE(session_->Execute("SELECT v FROM missing_table").ok());
  EXPECT_FALSE(session_->Execute("SELECT v, SUM(v) FROM t").ok());  // v not grouped
  EXPECT_FALSE(session_->Execute("INSERT INTO t VALUES (1, 2)").ok());  // arity
  EXPECT_FALSE(session_->Execute("CREATE TABLE t (v BIGINT)").ok());  // duplicate
}

TEST_F(EngineTest, OrderByAliasAndGroupByAlias) {
  Run("CREATE TABLE t (k BIGINT, v BIGINT)");
  Run("INSERT INTO t VALUES (1, 10), (1, 20), (2, 100)");
  auto result = Run("SELECT k grp, SUM(v) s FROM t GROUP BY grp ORDER BY s DESC");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][1].AsInt64(), 100);
}

TEST_F(EngineTest, ExplainSurfacesCostModel) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  Run("INSERT INTO t VALUES (1, 1), (2, 2)");
  auto low = Run("EXPLAIN UPDATE t SET v = 0 WHERE id = 1 WITH RATIO 0.01");
  std::string text;
  for (const Row& row : low.rows) text += row[0].AsString() + "\n";
  EXPECT_NE(text.find("EDIT"), std::string::npos);
  EXPECT_NE(text.find("crossover"), std::string::npos);
  // EXPLAIN does not execute: values unchanged.
  EXPECT_EQ(Run("SELECT SUM(v) FROM t").rows[0][0].AsInt64(), 3);

  auto high = Run("EXPLAIN UPDATE t SET v = 0 WITH RATIO 0.99");
  text.clear();
  for (const Row& row : high.rows) text += row[0].AsString() + "\n";
  EXPECT_NE(text.find("OVERWRITE"), std::string::npos);

  auto select = Run("EXPLAIN SELECT id, SUM(v) FROM t GROUP BY id");
  text.clear();
  for (const Row& row : select.rows) text += row[0].AsString() + "\n";
  EXPECT_NE(text.find("UNION READ"), std::string::npos);
  EXPECT_NE(text.find("aggregate"), std::string::npos);
}

TEST_F(EngineTest, ExplainHiveShowsRewritePlan) {
  Run("CREATE TABLE h (id BIGINT) STORED AS hive");
  auto result = Run("EXPLAIN DELETE FROM h WHERE id = 1");
  std::string text;
  for (const Row& row : result.rows) text += row[0].AsString() + "\n";
  EXPECT_NE(text.find("INSERT OVERWRITE rewrite"), std::string::npos);
}

TEST_F(EngineTest, MergeUpdatesMatchesAndInsertsRest) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT) STORED AS dualtable");
  Run("INSERT INTO t VALUES (1, 10), (2, 20)");
  auto result =
      Run("MERGE INTO t ON (id) VALUES (2, 200), (3, 300) WITH RATIO 0.01");
  EXPECT_EQ(result.affected_rows, 2u);  // one update + one insert
  auto check = Run("SELECT id, v FROM t ORDER BY id");
  ASSERT_EQ(check.rows.size(), 3u);
  EXPECT_EQ(check.rows[0][1].AsInt64(), 10);
  EXPECT_EQ(check.rows[1][1].AsInt64(), 200);
  EXPECT_EQ(check.rows[2][1].AsInt64(), 300);
}

TEST_F(EngineTest, MergeWithCompositeKey) {
  Run("CREATE TABLE t (day BIGINT, meter BIGINT, kwh DOUBLE)");
  Run("INSERT INTO t VALUES (1, 7, 1.0), (1, 8, 2.0), (2, 7, 3.0)");
  Run("MERGE INTO t ON (day, meter) VALUES (1, 7, 9.5), (2, 8, 4.0)");
  auto check = Run("SELECT kwh FROM t ORDER BY day, meter");
  ASSERT_EQ(check.rows.size(), 4u);
  EXPECT_DOUBLE_EQ(check.rows[0][0].AsDouble(), 9.5);  // (1,7) updated
  EXPECT_DOUBLE_EQ(check.rows[1][0].AsDouble(), 2.0);  // (1,8) untouched
  EXPECT_DOUBLE_EQ(check.rows[3][0].AsDouble(), 4.0);  // (2,8) inserted
}

TEST_F(EngineTest, MergeAllInsertsWhenNoMatch) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT)");
  auto result = Run("MERGE INTO t ON (id) VALUES (1, 1), (2, 2)");
  EXPECT_EQ(result.affected_rows, 2u);
  EXPECT_EQ(Run("SELECT COUNT(*) FROM t").rows[0][0].AsInt64(), 2);
}

TEST_F(EngineTest, MergeIdenticalAcrossStorageKinds) {
  for (const char* kind : {"dualtable", "hive", "hbase", "acid"}) {
    std::string name = std::string("m_") + kind;
    Run("CREATE TABLE " + name + " (id BIGINT, v BIGINT) STORED AS " + kind);
    Run("INSERT INTO " + name + " VALUES (1, 1), (2, 2), (3, 3)");
    Run("MERGE INTO " + name + " ON (id) VALUES (2, 22), (4, 44) WITH RATIO 0.25");
    auto check = Run("SELECT SUM(v), COUNT(*) FROM " + name);
    EXPECT_EQ(check.rows[0][0].AsInt64(), 1 + 22 + 3 + 44) << kind;
    EXPECT_EQ(check.rows[0][1].AsInt64(), 4) << kind;
  }
}

TEST_F(EngineTest, MergeArityAndKeyErrors) {
  Run("CREATE TABLE t (id BIGINT, v BIGINT)");
  EXPECT_FALSE(session_->Execute("MERGE INTO t ON (nope) VALUES (1, 2)").ok());
  EXPECT_FALSE(session_->Execute("MERGE INTO t ON (id) VALUES (1)").ok());
  EXPECT_FALSE(session_->Execute("MERGE INTO missing ON (id) VALUES (1, 2)").ok());
}

TEST_F(EngineTest, SameResultsAcrossAllStorageKinds) {
  // The same SQL must produce identical answers regardless of storage.
  std::vector<int64_t> counts;
  std::vector<int64_t> sums;
  for (const char* kind : {"dualtable", "hive", "hbase", "acid"}) {
    std::string name = std::string("x_") + kind;
    Run("CREATE TABLE " + name + " (id BIGINT, v BIGINT) STORED AS " + kind);
    std::string insert = "INSERT INTO " + name + " VALUES (0, 0)";
    for (int i = 1; i < 50; ++i) {
      insert += ", (" + std::to_string(i) + ", " + std::to_string(i * i) + ")";
    }
    Run(insert);
    Run("UPDATE " + name + " SET v = 0 WHERE id % 2 = 1 WITH RATIO 0.5");
    Run("DELETE FROM " + name + " WHERE id >= 40 WITH RATIO 0.2");
    auto result = Run("SELECT COUNT(*), SUM(v) FROM " + name);
    counts.push_back(result.rows[0][0].AsInt64());
    sums.push_back(result.rows[0][1].AsInt64());
  }
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], counts[0]);
    EXPECT_EQ(sums[i], sums[0]);
  }
}

// --- secondary-index point-lookup fast path ---

TEST_F(EngineTest, IndexedPointLookupMatchesScanPath) {
  // Two identical tables, one indexed: every query must answer identically
  // whether it resolves through the index or the full scan.
  Run("CREATE TABLE ti (id BIGINT, tag STRING, v BIGINT) INDEX (id, tag)");
  Run("CREATE TABLE ts (id BIGINT, tag STRING, v BIGINT)");
  for (const char* name : {"ti", "ts"}) {
    std::string insert = std::string("INSERT INTO ") + name + " VALUES (0, 't0', 0)";
    for (int i = 1; i < 120; ++i) {
      insert += ", (" + std::to_string(i) + ", 't" + std::to_string(i % 5) + "', " +
                std::to_string(i * 3) + ")";
    }
    Run(insert);
    Run(std::string("UPDATE ") + name + " SET v = 999 WHERE id = 7 WITH RATIO 0.01");
    Run(std::string("DELETE FROM ") + name + " WHERE id = 11 WITH RATIO 0.01");
  }
  for (const std::string& where :
       {std::string("id = 7"), std::string("id = 11"), std::string("id = 5000"),
        std::string("id IN (3, 7, 11, 90)"), std::string("tag = 't2'"),
        std::string("tag = 't2' AND v > 100"), std::string("17 = id")}) {
    auto indexed = Run("SELECT id, tag, v FROM ti WHERE " + where);
    auto scanned = Run("SELECT id, tag, v FROM ts WHERE " + where);
    ASSERT_EQ(indexed.rows.size(), scanned.rows.size()) << where;
    for (size_t i = 0; i < indexed.rows.size(); ++i) {
      EXPECT_EQ(RowToString(indexed.rows[i]), RowToString(scanned.rows[i])) << where;
    }
  }
  // The indexed table must actually have taken the index route.
  auto* dual = dynamic_cast<dual::DualTable*>(session_->catalog()->Lookup("ti")->table.get());
  ASSERT_NE(dual, nullptr);
  ASSERT_NE(dual->secondary_index(), nullptr);
  EXPECT_GT(dual->secondary_index()->stats().lookups.load(), 0u);
}

TEST_F(EngineTest, IndexedLookupSurvivesCompactAndLimit) {
  Run("CREATE TABLE tc (id BIGINT, v BIGINT) INDEX (id)");
  std::string insert = "INSERT INTO tc VALUES (0, 0)";
  for (int i = 1; i < 60; ++i) {
    insert += ", (" + std::to_string(i) + ", " + std::to_string(i) + ")";
  }
  Run(insert);
  Run("UPDATE tc SET v = 1000 WHERE id < 10 WITH RATIO 0.2");
  Run("COMPACT TABLE tc");
  auto result = Run("SELECT v FROM tc WHERE id = 4");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInt64(), 1000);
  auto limited = Run("SELECT id FROM tc WHERE id IN (20, 21, 22) LIMIT 2");
  EXPECT_EQ(limited.rows.size(), 2u);
}

TEST_F(EngineTest, ExplainSurfacesIndexLookup) {
  Run("CREATE TABLE te (id BIGINT, v BIGINT) INDEX (id)");
  Run("INSERT INTO te VALUES (1, 10), (2, 20)");
  auto plan = Run("EXPLAIN SELECT v FROM te WHERE id = 2");
  bool saw_lookup = false;
  for (const Row& row : plan.rows) {
    if (row[0].AsString().find("index lookup") != std::string::npos) saw_lookup = true;
  }
  EXPECT_TRUE(saw_lookup) << "EXPLAIN did not surface the index route";
  // A predicate on the unindexed column must NOT claim the index route.
  auto scan_plan = Run("EXPLAIN SELECT id FROM te WHERE v = 20");
  for (const Row& row : scan_plan.rows) {
    EXPECT_EQ(row[0].AsString().find("index lookup"), std::string::npos);
  }
  // EXPLAIN ANALYZE actually executes and shows the index-lookup operator.
  auto analyze = Run("EXPLAIN ANALYZE SELECT v FROM te WHERE id = 2");
  bool saw_node = false;
  for (const Row& row : analyze.rows) {
    if (row[0].AsString().find("index-lookup") != std::string::npos) saw_node = true;
  }
  EXPECT_TRUE(saw_node) << "EXPLAIN ANALYZE trace is missing the index-lookup node";

  // EXPLAIN prints the plan the executor runs: its route, and the index
  // lookup line only when that route runs. Aggregates and ORDER BY scan.
  auto text_of = [this](const std::string& sql) {
    std::string text;
    for (const Row& row : Run(sql).rows) text += row[0].AsString() + "\n";
    return text;
  };
  EXPECT_NE(
      text_of("EXPLAIN SELECT v FROM te WHERE id = 2").find("  route: index lookup\n"),
      std::string::npos);
  EXPECT_NE(text_of("EXPLAIN ANALYZE SELECT v FROM te WHERE id = 2")
                .find("execute(index lookup)"),
            std::string::npos);
  for (const std::string sql : {"SELECT COUNT(*) FROM te WHERE id = 2",
                                "SELECT v FROM te WHERE id = 2 ORDER BY v"}) {
    const std::string explained = text_of("EXPLAIN " + sql);
    EXPECT_EQ(explained.find("index lookup"), std::string::npos) << explained;
    EXPECT_NE(explained.find("  route: operator tree\n"), std::string::npos) << explained;
    const std::string analyzed = text_of("EXPLAIN ANALYZE " + sql);
    EXPECT_NE(analyzed.find("execute(operator tree)"), std::string::npos) << analyzed;
    EXPECT_EQ(analyzed.find("index-lookup"), std::string::npos) << analyzed;
  }
  // A global aggregate has an aggregate stage too.
  EXPECT_NE(text_of("EXPLAIN SELECT SUM(v) FROM te").find("  aggregate: sum(v)\n"),
            std::string::npos);
  // A derived table's plan prints indented under its scan line.
  const std::string derived =
      text_of("EXPLAIN SELECT v FROM (SELECT v FROM te WHERE id = 2) s");
  EXPECT_NE(derived.find("  scan s (subquery)\n    SELECT\n      route: index lookup\n"),
            std::string::npos)
      << derived;
  EXPECT_NE(derived.find("      index lookup: column 'id', 1 probe(s)\n"),
            std::string::npos)
      << derived;
  // A SELECT that cannot run has no plan: EXPLAIN returns the executor's error.
  for (const std::string sql :
       {"SELECT nosuch FROM te", "SELECT v FROM te WHERE SUM(v) > 1"}) {
    auto ran = session_->Execute(sql);
    auto explained = session_->Execute("EXPLAIN " + sql);
    ASSERT_FALSE(ran.ok()) << sql;
    EXPECT_FALSE(explained.ok()) << "EXPLAIN " << sql << " printed a plan";
    if (!explained.ok()) {
      EXPECT_EQ(explained.status().ToString(), ran.status().ToString());
    }
  }
}

TEST_F(EngineTest, ExplainMarksKernelAndRowConjuncts) {
  // The tpch-cold queries' pushed conjuncts all compile into kernel terms;
  // a conjunct of another form stays on the residual row closure.
  Run("CREATE TABLE lineitem (l_orderkey BIGINT, l_quantity DOUBLE, "
      "l_extendedprice DOUBLE, l_discount DOUBLE, l_tax DOUBLE, l_returnflag STRING, "
      "l_linestatus STRING, l_shipdate DATE, l_commitdate DATE, l_receiptdate DATE, "
      "l_shipmode STRING)");
  Run("CREATE TABLE orders (o_orderkey BIGINT, o_orderpriority STRING)");
  auto text_of = [this](const std::string& sql) {
    std::string text;
    for (const Row& row : Run("EXPLAIN " + sql).rows) text += row[0].AsString() + "\n";
    return text;
  };
  const std::string q1 = text_of(workload::QueryA("lineitem"));
  EXPECT_NE(q1.find("  scan lineitem (dualtable, UNION READ scan) where (l_shipdate <= " +
                    std::to_string(workload::kDateEpoch + workload::kDateSpanDays - 90) +
                    ") [kernel]\n"),
            std::string::npos)
      << q1;
  const std::string q12 = text_of(workload::QueryB("lineitem", "orders"));
  const int64_t from = workload::kDateEpoch + 365;
  EXPECT_NE(q12.find("  scan l (dualtable, UNION READ scan) where (l.l_shipmode in "
                     "('MAIL', 'SHIP')) [kernel] AND (l.l_commitdate < l.l_receiptdate) "
                     "[kernel] AND (l.l_shipdate < l.l_commitdate) [kernel] AND "
                     "(l.l_receiptdate >= " +
                     std::to_string(from) + ") [kernel] AND (l.l_receiptdate < " +
                     std::to_string(from + 365) + ") [kernel]\n"),
            std::string::npos)
      << q12;
  EXPECT_NE(q12.find("  scan o (dualtable, UNION READ scan)\n"), std::string::npos)
      << q12;
  const std::string mixed =
      text_of("SELECT l_orderkey FROM lineitem WHERE l_orderkey % 2 = 0 AND l_tax > 1");
  EXPECT_NE(mixed.find(" where ((l_orderkey % 2) = 0) [row] AND (l_tax > 1) [kernel]\n"),
            std::string::npos)
      << mixed;
}

TEST_F(EngineTest, VectorizedComputedOutputsMatchOperatorTree) {
  // A computed output, a pushed filter (kernel and residual) and LIMIT on the
  // vectorized route return the operator tree's rows, in its order.
  Run("CREATE TABLE vc (id BIGINT, v DOUBLE, tag STRING)");
  std::string insert = "INSERT INTO vc VALUES (0, 0.5, 't0')";
  for (int i = 1; i < 40; ++i) {
    insert += ", (" + std::to_string(i) + ", " + std::to_string(i) + ".5, " +
              (i % 5 == 0 ? "NULL" : "'t" + std::to_string(i % 3) + "'") + ")";
  }
  Run(insert);
  Run("UPDATE vc SET v = v * 2 WHERE id < 10 WITH RATIO 0.01");
  const std::string sql =
      "SELECT v * 2 AS twice, id, tag FROM vc WHERE id >= 3 AND id % 3 <> 1 LIMIT 7";
  auto parsed = ParseStatement(sql);
  ASSERT_TRUE(parsed.ok());
  auto plan = session_->engine()->PlanSelect(std::get<SelectStmt>(*parsed));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->routes.front(), SelectRoute::kVectorized);
  auto vectorized = session_->engine()->RunSelect(*plan, SelectRoute::kVectorized);
  auto tree = session_->engine()->RunSelect(*plan, SelectRoute::kOperatorTree);
  ASSERT_TRUE(vectorized.ok() && tree.ok());
  ASSERT_EQ(vectorized->rows.size(), 7u);
  ASSERT_EQ(tree->rows.size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(RowToString(vectorized->rows[i]), RowToString(tree->rows[i])) << i;
  }
  EXPECT_EQ(vectorized->rows[0][0].AsDouble(), 14.0);  // id 3: (3.5 * 2) * 2
}

TEST_F(EngineTest, ExplainDmlShowsThePlanThatRuns) {
  Run("CREATE TABLE k (id BIGINT, v BIGINT) INDEX (id)");
  std::string insert = "INSERT INTO k VALUES (0, 0)";
  for (int i = 1; i < 20; ++i) insert += ", (" + std::to_string(i) + ", 0)";
  Run(insert);
  auto explain = [this](const std::string& sql) {
    std::string text;
    for (const Row& row : Run("EXPLAIN " + sql).rows) text += row[0].AsString() + "\n";
    return text;
  };
  const std::string keyed = "UPDATE k SET v = 2 WHERE id = 7";
  EXPECT_NE(explain(keyed).find("(default)"), std::string::npos) << "no history yet";

  // An UPDATE of every row records a modification-ratio history of 1.0.
  Run("UPDATE k SET v = 1 WITH RATIO 0.01");
  const std::string text = explain(keyed);
  EXPECT_NE(text.find("ratio: 1.000000 (metadata history)"), std::string::npos) << text;
  auto ran = Run(keyed);
  EXPECT_NE(text.find("plan: " + ran.dml_plan + "\n"), std::string::npos) << text;
  // At the history ratio the model rewrites, and a rewrite scans: EXPLAIN
  // must not claim the index route the EDIT plan would have taken.
  EXPECT_EQ(ran.dml_plan, "OVERWRITE");
  EXPECT_EQ(text.find("index lookup"), std::string::npos) << text;

  // Under a hint the EDIT plan runs; it takes the index route exactly when
  // the WHERE holds an equality or IN on `id` with int literals.
  const std::pair<std::string, int> cases[] = {
      {"id = 7", 1}, {"id IN (1, 2)", 2}, {"id > 7", 0}, {"id = 7.0", 0}};
  for (const auto& [where, probes] : cases) {
    for (const std::string& dml :
         {"UPDATE k SET v = 3 WHERE " + where + " WITH RATIO 0.01",
          "DELETE FROM k WHERE " + where + " WITH RATIO 0.01"}) {
      const std::string plan = explain(dml);
      const std::string line =
          "index lookup: column 'id', " + std::to_string(probes) + " probe(s)";
      const bool index_line = plan.find(line) != std::string::npos;
      auto executed = Run(dml);
      EXPECT_EQ(executed.dml_plan, "EDIT") << dml;
      EXPECT_NE(plan.find("plan: EDIT\n"), std::string::npos) << plan;
      EXPECT_EQ(index_line, probes > 0) << plan;
      EXPECT_EQ(plan.find("index lookup") != std::string::npos, probes > 0) << plan;
      EXPECT_EQ(executed.message.find("(index lookup)") != std::string::npos, probes > 0)
          << dml << " -> " << executed.message;
    }
  }
  // Ids 7, 1 and 2 were deleted by key, 8..19 by scan.
  auto rest = Run("SELECT id FROM k ORDER BY id");
  std::vector<int64_t> ids;
  for (const Row& row : rest.rows) ids.push_back(row[0].AsInt64());
  EXPECT_EQ(ids, std::vector<int64_t>({0, 3, 4, 5, 6}));
}

TEST_F(EngineTest, IndexClauseValidation) {
  EXPECT_FALSE(session_->Execute("CREATE TABLE bad1 (id BIGINT) INDEX (nope)").ok());
  EXPECT_FALSE(
      session_->Execute("CREATE TABLE bad2 (id BIGINT) STORED AS hive INDEX (id)").ok());
  // DOUBLE has no order-preserving index encoding.
  EXPECT_FALSE(session_->Execute("CREATE TABLE bad3 (x DOUBLE) INDEX (x)").ok());
  // STRING and DATE are fine.
  Run("CREATE TABLE ok1 (d DATE, s STRING) INDEX (d, s)");
}

}  // namespace
}  // namespace dtl::sql
