#include "obs/query_log.h"

#include <sstream>

#include "obs/metric_names.h"

namespace dtl::obs {

namespace {

void AppendJsonString(std::ostringstream* out, std::string_view s) {
  *out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      *out << '\\' << c;
    } else if (c == '\n') {
      *out << "\\n";
    } else if (c == '\t') {
      *out << "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      *out << ' ';
    } else {
      *out << c;
    }
  }
  *out << '"';
}

}  // namespace

QueryLog::QueryLog(QueryLogOptions options, MetricsRegistry* registry)
    : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (registry != nullptr) {
    records_counter_ = registry->counter(names::kQueryLogRecords);
    slow_counter_ = registry->counter(names::kQueryLogSlow);
  }
}

void QueryLog::Append(QueryLogRecord record) {
  record.slow = options_.slow_threshold_seconds > 0 &&
                record.wall_seconds >= options_.slow_threshold_seconds;
  if (records_counter_ != nullptr) records_counter_->Inc();
  if (record.slow && slow_counter_ != nullptr) slow_counter_->Inc();
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  if (record.slow) ++slow_total_;
  ring_.push_back(std::move(record));
  if (ring_.size() > options_.capacity) ring_.pop_front();
}

std::vector<QueryLogRecord> QueryLog::Tail(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t take = n < ring_.size() ? n : ring_.size();
  return {ring_.end() - static_cast<ptrdiff_t>(take), ring_.end()};
}

size_t QueryLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t QueryLog::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t QueryLog::slow_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_total_;
}

std::string QueryLog::RenderJsonLines() const {
  std::vector<QueryLogRecord> records;
  {
    std::lock_guard<std::mutex> lock(mu_);
    records.assign(ring_.begin(), ring_.end());
  }
  std::ostringstream out;
  for (const QueryLogRecord& r : records) {
    out << "{\"kind\":";
    AppendJsonString(&out, r.kind);
    out << ",\"sql\":";
    AppendJsonString(&out, r.sql);
    out << ",\"wall_seconds\":" << r.wall_seconds
        << ",\"modeled_seconds\":" << r.modeled_seconds << ",\"rows\":" << r.rows
        << ",\"scan_bytes\":" << r.scan_bytes
        << ",\"stripe_cache_hits\":" << r.stripe_cache_hits
        << ",\"index_probes\":" << r.index_probes
        << ",\"snapshot_age_seconds\":" << r.snapshot_age_seconds
        << ",\"slow\":" << (r.slow ? "true" : "false")
        << ",\"ok\":" << (r.ok ? "true" : "false");
    if (!r.ok) {
      out << ",\"error\":";
      AppendJsonString(&out, r.error);
    }
    out << "}\n";
  }
  return out.str();
}

}  // namespace dtl::obs
