// Scan and DML specifications shared by every storage system (Hive-on-HDFS,
// Hive-on-HBase, Hive ACID, DualTable). The SQL layer compiles statements
// into these; benches and examples may also build them directly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/schema.h"
#include "table/scan_predicate.h"

namespace dtl::table {

class ScanMeter;

/// What a scan must produce.
struct ScanSpec {
  /// Column ordinals the consumer will read. Empty means every column.
  std::vector<size_t> projection;
  /// Optional filter, evaluated on the storage side: compiled terms run as
  /// batch kernels, the residual closure per surviving row.
  ScanPredicate predicate;
  /// Every column the predicate reads: materialized even if not projected,
  /// and the only cells the storage-side filter copies for it (an empty
  /// list makes the filter copy every column).
  std::vector<size_t> predicate_columns;
  /// Stats-prunable bounds implied by the predicate (conjunctive).
  std::vector<ColumnBound> bounds;
  /// Meter the scan counts into; nullptr means the scan is not counted.
  /// Parallel scans point each worker's spec at a worker-local meter.
  ScanMeter* meter = nullptr;

  /// Ordinals that must be materialized: projection ∪ predicate_columns
  /// (empty means all).
  std::vector<size_t> RequiredColumns(size_t num_fields) const;
};

/// One SET clause: assigns `column` the value computed from the current
/// (full-width) row. Pure function of the row.
struct Assignment {
  size_t column = 0;
  std::function<Value(const Row&)> compute;
  /// Columns `compute` reads (must be materialized by the DML scan).
  std::vector<size_t> input_columns;
};

/// Which physical plan a DML statement executed with.
enum class DmlPlan {
  kOverwrite,  // whole-table rewrite (Hive's INSERT OVERWRITE path)
  kEdit,       // delta records into the attached store (DualTable EDIT)
  kInPlace,    // direct record mutation (Hive-on-HBase)
  kDelta,      // new delta file (Hive ACID)
};

const char* DmlPlanName(DmlPlan plan);

/// Outcome of an UPDATE or DELETE.
struct DmlResult {
  uint64_t rows_matched = 0;
  uint64_t rows_scanned = 0;
  DmlPlan plan = DmlPlan::kOverwrite;
  /// True when the matches came from a secondary-index lookup rather than a
  /// table scan (a keyed DualTable EDIT).
  bool index_lookup = false;
};

}  // namespace dtl::table
