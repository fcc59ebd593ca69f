// Query tracing tests: Tracer/Span tree construction, the golden EXPLAIN
// ANALYZE structure (stage names, nesting, row conservation), and two
// concurrent sessions tracing independently (exercised under DTL_TSAN).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metric_names.h"
#include "obs/trace.h"
#include "sql/session.h"

namespace dtl {
namespace {

TEST(TracerTest, SpansBuildNestedTree) {
  obs::Tracer tracer;
  tracer.Begin(obs::names::kSpanQuery);
  ASSERT_TRUE(tracer.active());
  {
    obs::Span select(&tracer, obs::names::kSpanSelect);
    select.AddRows(3);
    { obs::Span bind(&tracer, obs::names::kSpanBind); }
  }
  obs::Trace trace = tracer.End();
  EXPECT_FALSE(tracer.active());
  ASSERT_NE(trace.root, nullptr);
  EXPECT_EQ(trace.root->name, "query");
  ASSERT_EQ(trace.root->children.size(), 1u);
  EXPECT_EQ(trace.root->children[0]->name, "select");
  EXPECT_EQ(trace.root->children[0]->stats.rows, 3u);
  ASSERT_EQ(trace.root->children[0]->children.size(), 1u);
  EXPECT_EQ(trace.root->children[0]->children[0]->name, "bind");
  EXPECT_GE(trace.Find("select")->stats.wall_seconds, 0.0);
}

TEST(TracerTest, InactiveTracerIsFreeOfSideEffects) {
  obs::Tracer tracer;
  EXPECT_FALSE(tracer.active());
  { obs::Span span(&tracer, obs::names::kSpanSelect); }
  EXPECT_EQ(tracer.AddNode(obs::names::kSpanExecute), nullptr);
  obs::Trace trace = tracer.End();
  EXPECT_EQ(trace.root, nullptr);
  { obs::Span span(nullptr, obs::names::kSpanSelect); }  // null tracer: no-op
}

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto session = sql::Session::Create();
    ASSERT_TRUE(session.ok());
    session_ = std::move(*session);
    Run("CREATE TABLE t (id BIGINT, v BIGINT)");
    Run("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50)");
  }

  sql::QueryResult Run(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *result : sql::QueryResult{};
  }

  static std::vector<std::string> Lines(const sql::QueryResult& result) {
    std::vector<std::string> lines;
    for (const Row& row : result.rows) lines.push_back(row.at(0).AsString());
    return lines;
  }

  static size_t IndentOf(const std::string& line) {
    size_t i = 0;
    while (i < line.size() && line[i] == ' ') ++i;
    return i;
  }

  /// First line starting with `indent` spaces followed by `name`; npos if
  /// absent.
  static size_t FindLine(const std::vector<std::string>& lines, size_t indent,
                         const std::string& name) {
    const std::string prefix = std::string(indent, ' ') + name;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].rfind(prefix, 0) == 0) return i;
    }
    return std::string::npos;
  }

  static uint64_t RowsOf(const std::string& line) {
    const size_t at = line.find(" rows=");
    EXPECT_NE(at, std::string::npos) << line;
    return at == std::string::npos ? 0 : std::stoull(line.substr(at + 6));
  }

  std::unique_ptr<sql::Session> session_;
};

TEST_F(ExplainAnalyzeTest, GoldenSelectTraceStructure) {
  auto result = Run("EXPLAIN ANALYZE SELECT id, v FROM t WHERE v >= 20 ORDER BY id");
  ASSERT_EQ(result.column_names, std::vector<std::string>{"analyze"});
  std::vector<std::string> lines = Lines(result);
  ASSERT_FALSE(lines.empty());

  // Golden structure: stage names at their exact nesting depths.
  //   query
  //     parse
  //     select
  //       bind
  //       execute(operator tree)
  //         scan(t) / sort / project
  EXPECT_EQ(FindLine(lines, 0, "query"), 0u);
  EXPECT_NE(FindLine(lines, 2, "parse"), std::string::npos);
  const size_t select_at = FindLine(lines, 2, "select");
  ASSERT_NE(select_at, std::string::npos);
  const size_t execute_at = FindLine(lines, 4, "execute");
  ASSERT_NE(execute_at, std::string::npos);
  EXPECT_GT(execute_at, select_at);
  EXPECT_NE(FindLine(lines, 4, "bind"), std::string::npos);
  const size_t scan_at = FindLine(lines, 6, "scan(t)");
  const size_t sort_at = FindLine(lines, 6, "sort");
  const size_t project_at = FindLine(lines, 6, "project");
  ASSERT_NE(scan_at, std::string::npos);
  ASSERT_NE(sort_at, std::string::npos);
  ASSERT_NE(project_at, std::string::npos);

  // Row conservation: the pushed predicate drops rows inside the scan, so
  // every operator of this plan emits exactly the surviving 4 rows.
  EXPECT_EQ(RowsOf(lines[scan_at]), 4u);
  EXPECT_EQ(RowsOf(lines[sort_at]), 4u);
  EXPECT_EQ(RowsOf(lines[project_at]), 4u);

  // The execute span attributed the scan-meter delta of those rows.
  EXPECT_NE(lines[execute_at].find("scan_rows="), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, VectorizedPathTracesBatchOperators) {
  auto result = Run("EXPLAIN ANALYZE SELECT v FROM t WHERE v > 10 LIMIT 2");
  std::vector<std::string> lines = Lines(result);
  const size_t scan_at = FindLine(lines, 6, "scan(t)");
  const size_t limit_at = FindLine(lines, 6, "limit");
  ASSERT_NE(scan_at, std::string::npos);
  ASSERT_NE(FindLine(lines, 6, "project"), std::string::npos);
  ASSERT_NE(limit_at, std::string::npos);
  EXPECT_EQ(RowsOf(lines[limit_at]), 2u);
  // Batch counts flow through the vectorized decorators.
  const size_t at = lines[scan_at].find(" batches=");
  ASSERT_NE(at, std::string::npos);
  EXPECT_GE(std::stoull(lines[scan_at].substr(at + 9)), 1u);
}

TEST_F(ExplainAnalyzeTest, DerivedTableBindsOnceAndExecutesOnce) {
  auto result = Run("EXPLAIN ANALYZE SELECT v FROM (SELECT v FROM t WHERE v > 10) s");
  std::vector<std::string> lines = Lines(result);
  // The subquery is planned inside the statement's one bind and runs inside
  // its one execute node.
  std::vector<std::string> stages;
  for (const std::string& line : lines) {
    if (IndentOf(line) == 4) stages.push_back(line.substr(4, line.find(" wall=") - 4));
  }
  EXPECT_EQ(stages, (std::vector<std::string>{"bind", "execute(operator tree)"}));
  const size_t scan_at = FindLine(lines, 6, "scan(t)");
  ASSERT_NE(scan_at, std::string::npos);
  EXPECT_EQ(RowsOf(lines[scan_at]), 4u);
}

TEST_F(ExplainAnalyzeTest, DmlTraceCarriesPlanAndResult) {
  auto result = Run("EXPLAIN ANALYZE UPDATE t SET v = 0 WHERE id <= 2 WITH RATIO 0.4");
  std::vector<std::string> lines = Lines(result);
  EXPECT_EQ(FindLine(lines, 0, "query"), 0u);
  EXPECT_NE(FindLine(lines, 2, "update"), std::string::npos);
  // The inner statement's outcome is propagated alongside the trace.
  EXPECT_EQ(result.affected_rows, 2u);
  EXPECT_FALSE(result.dml_plan.empty());
  EXPECT_NE(result.message.find("updated 2 rows"), std::string::npos);
  // The statement really executed.
  auto check = Run("SELECT SUM(v) FROM t");
  EXPECT_EQ(check.rows.at(0).at(0).AsInt64(), 120);
}

TEST_F(ExplainAnalyzeTest, PlainExplainStillDoesNotExecute) {
  Run("EXPLAIN UPDATE t SET v = 0 WHERE id <= 2");
  auto check = Run("SELECT SUM(v) FROM t");
  EXPECT_EQ(check.rows.at(0).at(0).AsInt64(), 150);
}

TEST(TraceConcurrencyTest, TwoSessionsTraceIndependently) {
  // Two sessions, each with its own tracer/meter/registry, running traced
  // queries concurrently. Under -DDTL_TSAN=ON this is the data-race gate for
  // the shared pieces (the stripe cache, process clocks).
  constexpr int kQueries = 20;
  auto worker = []() {
    auto created = sql::Session::Create();
    ASSERT_TRUE(created.ok());
    auto session = std::move(*created);
    ASSERT_TRUE(session->Execute("CREATE TABLE t (id BIGINT, v BIGINT)").ok());
    ASSERT_TRUE(
        session->Execute("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)").ok());
    for (int i = 0; i < kQueries; ++i) {
      auto result = session->Execute("EXPLAIN ANALYZE SELECT id FROM t WHERE v >= 2");
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_FALSE(result->rows.empty());
      const std::string root = result->rows[0][0].AsString();
      // Each trace is a single well-formed tree rooted at `query`: no spans
      // from the sibling session ever appear in it.
      EXPECT_EQ(root.rfind("query ", 0), 0u) << root;
      int roots = 0;
      for (const Row& row : result->rows) {
        if (row[0].AsString().rfind("query ", 0) == 0) ++roots;
      }
      EXPECT_EQ(roots, 1);
    }
    EXPECT_EQ(session->metrics()
                  ->Snapshot()
                  .counters.at("sql.statements{select}"),
              static_cast<uint64_t>(kQueries));
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
}

}  // namespace
}  // namespace dtl
