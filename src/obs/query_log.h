// Structured query log: one record per top-level SQL statement, captured by
// sql::Engine from the statement span plus registry deltas. A bounded
// mutex-guarded ring — statement execution already takes locks far heavier
// than this, so the hot-path argument that applies to metrics does not apply
// here. Records over the slow threshold are flagged (and counted in
// `query_log.slow`) so "show me the slow queries" is one filter away.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace dtl::obs {

struct QueryLogRecord {
  std::string kind;     // statement kind: select / insert / update / ...
  std::string sql;      // original statement text
  double wall_seconds = 0;
  double modeled_seconds = 0;     // cluster-model seconds for the io delta
  uint64_t rows = 0;              // result rows (or rows affected for DML)
  uint64_t scan_bytes = 0;        // scan.bytes delta (see ScanSnapshot::bytes)
  uint64_t stripe_cache_hits = 0;
  uint64_t index_probes = 0;      // index.lookups delta
  double snapshot_age_seconds = 0;  // oldest live snapshot at capture
  bool slow = false;
  bool ok = true;
  std::string error;  // status message when !ok
};

struct QueryLogOptions {
  size_t capacity = 256;
  double slow_threshold_seconds = 0.1;
};

class QueryLog {
 public:
  /// `registry` may be null (no counters); the log itself still records.
  explicit QueryLog(QueryLogOptions options = {}, MetricsRegistry* registry = nullptr);

  /// Stamps the slow flag from the threshold, appends, drops the oldest
  /// record past capacity.
  void Append(QueryLogRecord record);

  /// The most recent min(n, size) records, oldest first.
  std::vector<QueryLogRecord> Tail(size_t n) const;

  size_t size() const;
  uint64_t total() const;
  uint64_t slow_total() const;
  double slow_threshold_seconds() const { return options_.slow_threshold_seconds; }

  /// One JSON object per line, oldest first.
  std::string RenderJsonLines() const;

 private:
  QueryLogOptions options_;
  Counter* records_counter_ = nullptr;
  Counter* slow_counter_ = nullptr;

  mutable std::mutex mu_;
  std::deque<QueryLogRecord> ring_;
  uint64_t total_ = 0;
  uint64_t slow_total_ = 0;
};

}  // namespace dtl::obs
