#include "obs/cost_audit.h"

#include <sstream>

namespace dtl::obs {

std::string CostAuditRecord::ToString() const {
  std::ostringstream out;
  out << statement << " " << table << " ratio=" << ratio
      << (ratio_from_hint ? " (hint)" : " (history)")
      << " predicted{edit=" << predicted_edit_seconds
      << "s overwrite=" << predicted_overwrite_seconds << "s winner="
      << predicted_plan << "}"
      << " executed{plan=" << executed_plan << " route=" << route
      << " rows=" << rows_matched
      << " wall=" << measured_wall_seconds
      << "s modeled=" << measured_modeled_seconds << "s}"
      << " error=" << PredictionErrorFraction();
  return out.str();
}

std::string CostAuditRecord::ToJson() const {
  std::ostringstream out;
  out << "{\"table\":\"" << table << "\",\"statement\":\"" << statement
      << "\",\"ratio\":" << ratio
      << ",\"ratio_from_hint\":" << (ratio_from_hint ? "true" : "false")
      << ",\"predicted_edit_seconds\":" << predicted_edit_seconds
      << ",\"predicted_overwrite_seconds\":" << predicted_overwrite_seconds
      << ",\"predicted_plan\":\"" << predicted_plan
      << "\",\"executed_plan\":\"" << executed_plan
      << "\",\"route\":\"" << route
      << "\",\"rows_matched\":" << rows_matched
      << ",\"measured_wall_seconds\":" << measured_wall_seconds
      << ",\"measured_modeled_seconds\":" << measured_modeled_seconds
      << ",\"prediction_error\":" << PredictionErrorFraction() << "}";
  return out.str();
}

void CostAudit::Record(CostAuditRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

std::vector<CostAuditRecord> CostAudit::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::vector<CostAuditRecord> CostAudit::RecordsSince(size_t cursor) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (cursor >= records_.size()) return {};
  return std::vector<CostAuditRecord>(records_.begin() + static_cast<long>(cursor),
                                      records_.end());
}

double CostAudit::MeanPredictionErrorSince(size_t cursor) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (cursor >= records_.size()) return 0;
  double sum = 0;
  for (size_t i = cursor; i < records_.size(); ++i) {
    sum += records_[i].PredictionErrorFraction();
  }
  return sum / static_cast<double>(records_.size() - cursor);
}

size_t CostAudit::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void CostAudit::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
}

std::string CostAudit::RenderText() const {
  std::ostringstream out;
  for (const auto& r : Records()) out << r.ToString() << "\n";
  return out.str();
}

std::string CostAudit::RenderJson() const {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const auto& r : Records()) {
    if (!first) out << ",";
    first = false;
    out << r.ToJson();
  }
  out << "]";
  return out.str();
}

}  // namespace dtl::obs
