// Cost-model decision audit tests: a Table-1-style DML-ratio sweep over a
// DualTable, asserting that every kCostModel UPDATE/DELETE leaves an audit
// record whose predicted winner matches the executed path and whose
// prediction error against the modelled actuals is well-formed.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "dualtable/dual_table.h"
#include "obs/cost_audit.h"
#include "sql/session.h"

namespace dtl {
namespace {

class CostAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto session = sql::Session::Create();
    ASSERT_TRUE(session.ok());
    session_ = std::move(*session);
    Run("CREATE TABLE grid (id BIGINT, region STRING, load DOUBLE)");
    std::string insert = "INSERT INTO grid VALUES ";
    for (int i = 0; i < 400; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", 'r" + std::to_string(i % 4) + "', " +
                std::to_string(i * 1.5) + ")";
    }
    Run(insert);
  }

  sql::QueryResult Run(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? *result : sql::QueryResult{};
  }

  dual::DualTable* Table() {
    auto entry = session_->catalog()->Lookup("grid");
    EXPECT_TRUE(entry.ok());
    return dynamic_cast<dual::DualTable*>(entry->table.get());
  }

  std::unique_ptr<sql::Session> session_;
};

TEST_F(CostAuditTest, RatioSweepPredictedWinnerMatchesExecutedPath) {
  // Table-1-style sweep: the grid workload's DML mix spans tiny point
  // updates to large overwrites. Each hinted ratio must (a) leave exactly
  // one audit record, (b) execute the path the model predicted, and (c)
  // agree with PreviewUpdateDecision for the same ratio.
  const std::vector<double> ratios = {0.001, 0.01, 0.05, 0.2, 0.5, 0.9};
  dual::DualTable* table = Table();
  ASSERT_NE(table, nullptr);

  std::vector<std::string> expected_plans;
  for (double ratio : ratios) {
    expected_plans.push_back(
        table::DmlPlanName(table->PreviewUpdateDecision(ratio).plan));
    auto result = Run("UPDATE grid SET load = load + 1 WHERE id < 40 WITH RATIO " +
                      std::to_string(ratio));
    EXPECT_EQ(result.affected_rows, 40u);
  }

  std::vector<obs::CostAuditRecord> records = session_->cost_audit()->Records();
  ASSERT_EQ(records.size(), ratios.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const obs::CostAuditRecord& r = records[i];
    EXPECT_EQ(r.table, "grid");
    EXPECT_EQ(r.statement, "UPDATE");
    EXPECT_TRUE(r.ratio_from_hint);
    EXPECT_DOUBLE_EQ(r.ratio, ratios[i]);
    EXPECT_EQ(r.rows_matched, 40u);
    // The audit's predicted winner is the path that actually executed, and
    // it matches an independent preview of the same decision.
    EXPECT_EQ(r.predicted_plan, r.executed_plan) << "ratio " << ratios[i];
    EXPECT_EQ(r.predicted_plan, expected_plans[i]) << "ratio " << ratios[i];
    EXPECT_GT(r.predicted_edit_seconds, 0.0);
    EXPECT_GT(r.predicted_overwrite_seconds, 0.0);
    // Per-statement prediction error against the modelled actuals.
    EXPECT_GE(r.measured_wall_seconds, 0.0);
    EXPECT_GE(r.measured_modeled_seconds, 0.0);
    EXPECT_TRUE(std::isfinite(r.PredictionErrorFraction()));
    EXPECT_GE(r.PredictionErrorFraction(), 0.0);
  }

  // The sweep crosses the model's EDIT/OVERWRITE frontier when the crossover
  // ratio lies inside the sweep range; verify agreement with the analytic
  // crossover rather than hard-coding where it falls.
  const double crossover =
      table->cost_model().UpdateCrossoverRatio(table->master()->TotalBytes());
  for (size_t i = 0; i < records.size(); ++i) {
    if (ratios[i] < crossover) {
      EXPECT_EQ(records[i].executed_plan, "EDIT") << "ratio " << ratios[i];
    } else if (ratios[i] > crossover) {
      EXPECT_EQ(records[i].executed_plan, "OVERWRITE") << "ratio " << ratios[i];
    }
  }
}

TEST_F(CostAuditTest, DeleteDecisionsAreAuditedToo) {
  auto result = Run("DELETE FROM grid WHERE id >= 390 WITH RATIO 0.025");
  EXPECT_EQ(result.affected_rows, 10u);
  std::vector<obs::CostAuditRecord> records = session_->cost_audit()->Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].statement, "DELETE");
  EXPECT_EQ(records[0].rows_matched, 10u);
  EXPECT_EQ(records[0].predicted_plan, records[0].executed_plan);
  EXPECT_TRUE(records[0].ratio_from_hint);
}

TEST_F(CostAuditTest, UnhintedDmlIsAuditedWithResolvedRatio) {
  auto result = Run("UPDATE grid SET load = 0 WHERE id = 7");
  EXPECT_EQ(result.affected_rows, 1u);
  std::vector<obs::CostAuditRecord> records = session_->cost_audit()->Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].ratio_from_hint);
  EXPECT_GT(records[0].ratio, 0.0);
}

TEST_F(CostAuditTest, ForcedPlansAreNotAudited) {
  // Only kCostModel decisions are audited: forcing a plan bypasses the model,
  // so there is nothing to check the prediction against.
  sql::SessionOptions options;
  options.dual_defaults.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  auto created = sql::Session::Create(std::move(options));
  ASSERT_TRUE(created.ok());
  auto forced = std::move(*created);
  ASSERT_TRUE(forced->Execute("CREATE TABLE t (id BIGINT)").ok());
  ASSERT_TRUE(forced->Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  ASSERT_TRUE(forced->Execute("UPDATE t SET id = 9 WHERE id = 1").ok());
  EXPECT_EQ(forced->cost_audit()->size(), 0u);
}

TEST_F(CostAuditTest, IndexRoutedEditIsAuditedButNeverCalibrates) {
  // The scan-based EDIT cost formula does not describe a keyed EDIT that
  // reads only the rows it touches: calibrating on one would pull
  // edit_cost_scale down for every later scan-routed EDIT.
  sql::SessionOptions options;
  options.dual_defaults.cost_calibration_gain = 0.5;
  auto created = sql::Session::Create(std::move(options));
  ASSERT_TRUE(created.ok());
  auto s = std::move(*created);
  ASSERT_TRUE(s->Execute("CREATE TABLE k (id BIGINT, load DOUBLE) INDEX (id)").ok());
  std::string insert = "INSERT INTO k VALUES (0, 0)";
  for (int i = 1; i < 400; ++i) insert += ", (" + std::to_string(i) + ", 1.5)";
  ASSERT_TRUE(s->Execute(insert).ok());
  auto* table = dynamic_cast<dual::DualTable*>(s->catalog()->Lookup("k")->table.get());
  ASSERT_NE(table, nullptr);

  const double scale = table->cost_model_params().edit_cost_scale;
  ASSERT_TRUE(s->Execute("UPDATE k SET load = 0 WHERE id = 7 WITH RATIO 0.01").ok());
  ASSERT_TRUE(s->Execute("DELETE FROM k WHERE id IN (8, 9) WITH RATIO 0.01").ok());
  std::vector<obs::CostAuditRecord> records = s->cost_audit()->Records();
  ASSERT_EQ(records.size(), 2u);
  for (const obs::CostAuditRecord& r : records) {
    EXPECT_EQ(r.executed_plan, "EDIT");
    EXPECT_EQ(r.route, "index");
    EXPECT_GT(r.measured_modeled_seconds, 0.0);
  }
  EXPECT_NE(records[0].ToJson().find("\"route\":\"index\""), std::string::npos);
  EXPECT_EQ(table->cost_model_params().edit_cost_scale, scale);

  // A scan-routed EDIT still closes the loop.
  ASSERT_TRUE(s->Execute("UPDATE k SET load = 0 WHERE id < 4 WITH RATIO 0.01").ok());
  records = s->cost_audit()->Records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].route, "scan");
  EXPECT_NE(table->cost_model_params().edit_cost_scale, scale);
}

TEST_F(CostAuditTest, RenderAndClear) {
  Run("UPDATE grid SET load = 0 WHERE id < 4 WITH RATIO 0.01");
  ASSERT_EQ(session_->cost_audit()->size(), 1u);
  const obs::CostAuditRecord record = session_->cost_audit()->Records()[0];
  EXPECT_NE(record.ToString().find("grid"), std::string::npos);
  EXPECT_NE(record.ToJson().find("\"predicted_plan\""), std::string::npos);
  std::string json = session_->cost_audit()->RenderJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"statement\":\"UPDATE\""), std::string::npos);
  session_->cost_audit()->Clear();
  EXPECT_EQ(session_->cost_audit()->size(), 0u);
}

}  // namespace
}  // namespace dtl
