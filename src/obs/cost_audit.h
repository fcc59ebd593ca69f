// Cost-model decision audit: every PlanMode::kCostModel choice made by a
// DualTable records the predicted EDIT vs OVERWRITE cost (paper Eq. 1/2)
// next to the measured actuals of the path that ran, so the Section IV cost
// model is continuously checked against reality instead of trusted.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dtl::obs {

/// One audited DML decision. Plans are stored as strings ("EDIT" /
/// "OVERWRITE") so the audit does not depend on the table layer's enums.
struct CostAuditRecord {
  std::string table;
  std::string statement;  // "UPDATE" | "DELETE"
  double ratio = 0;       // modification ratio the model was fed
  bool ratio_from_hint = false;
  double predicted_edit_seconds = 0;
  double predicted_overwrite_seconds = 0;
  std::string predicted_plan;  // the cheaper path per the model
  std::string executed_plan;   // the path that actually ran
  std::string route = "scan";  // how an EDIT found its rows: "scan" | "index"
  uint64_t rows_matched = 0;
  double measured_wall_seconds = 0;
  double measured_modeled_seconds = 0;  // JobSeconds over the metered io delta

  /// The model's prediction for the path that executed.
  double PredictedExecutedSeconds() const {
    return executed_plan == "EDIT" ? predicted_edit_seconds
                                   : predicted_overwrite_seconds;
  }
  /// |predicted - measured| / measured against the modelled actuals (both
  /// sides are cluster arithmetic, so the comparison is apples-to-apples);
  /// 0 when nothing was measured.
  double PredictionErrorFraction() const {
    if (measured_modeled_seconds <= 0) return 0;
    const double diff = PredictedExecutedSeconds() - measured_modeled_seconds;
    return (diff < 0 ? -diff : diff) / measured_modeled_seconds;
  }

  std::string ToString() const;
  std::string ToJson() const;
};

/// Append-only, thread-safe record log, owned by the session.
class CostAudit {
 public:
  CostAudit() = default;
  CostAudit(const CostAudit&) = delete;
  CostAudit& operator=(const CostAudit&) = delete;

  void Record(CostAuditRecord record);
  std::vector<CostAuditRecord> Records() const;
  /// Records appended at or after index `cursor` — the calibration loop's
  /// feedback accessor: callers remember the last size() they consumed and
  /// pull only the delta.
  std::vector<CostAuditRecord> RecordsSince(size_t cursor) const;
  /// Mean PredictionErrorFraction() over records at or after `cursor`
  /// (0 when the window is empty). Benches and tests use this to show the
  /// calibrated model's error shrinking versus the open-loop window.
  double MeanPredictionErrorSince(size_t cursor) const;
  size_t size() const;
  void Clear();

  std::string RenderText() const;
  std::string RenderJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<CostAuditRecord> records_;
};

}  // namespace dtl::obs
