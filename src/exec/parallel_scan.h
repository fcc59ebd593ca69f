// Morsel-driven parallel scan executor (the engine-side analog of Hive
// fanning a scan out across map tasks). A DualTable scan is split into
// stripe-aligned morsels; N workers on the shared ThreadPool pull morsels
// from a queue, each running its own MasterScanBatchIterator → UNION READ
// over the morsel's record-ID window with a worker-local ScanMeter. Order-
// insensitive consumers (counts, aggregates, unordered row collection) fold
// per-worker partial states together at a single barrier, after which the
// worker meters merge into the scan's target meter — so the merged counts
// equal a serial scan's exactly.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "dualtable/dual_table.h"
#include "exec/operators.h"
#include "obs/metrics.h"
#include "table/scan_stats.h"
#include "table/spec.h"

namespace dtl::exec {

struct ParallelScanOptions {
  /// Pool the workers run on; nullptr forces the serial fallback.
  ThreadPool* pool = nullptr;
  /// Worker count. <=1 runs every morsel on the calling thread (bitwise the
  /// same work, same meter totals — the differential baseline).
  size_t parallelism = 1;
  /// Surviving stripes per morsel. 1 maximizes scheduling freedom; larger
  /// values amortize per-morsel setup (attached-scanner seek) on big tables.
  size_t morsel_stripes = 1;

  /// Optional registry for the scan/morsel counters and the per-worker rows
  /// histogram (how evenly morsels spread across workers). Not owned.
  obs::MetricsRegistry* metrics = nullptr;

  /// Snapshot every morsel reads from. When null, Run() acquires one itself
  /// at planning time. Either way ONE snapshot spans morsel planning and all
  /// per-morsel UNION READs, so concurrent EDIT/COMPACT commits can never
  /// tear the scan: the result is byte-identical to a serial scan of the
  /// snapshot. The SQL layer passes its statement snapshot here.
  dual::SnapshotPtr snapshot;
};

/// One-shot parallel scan over a DualTable. The scan is order-insensitive
/// ACROSS morsels (workers claim them dynamically); within a morsel, batches
/// arrive in record-ID order. Order-sensitive plans must stay on the serial
/// iterator — the SQL layer enforces that gate.
class ParallelScanner {
 public:
  ParallelScanner(dual::DualTable* table, table::ScanSpec spec,
                  ParallelScanOptions options)
      : table_(table), spec_(std::move(spec)), options_(options) {}

  /// Worker `w` (0-based, stable per pool task) receives every UNION READ
  /// batch of the morsels it claimed. `consume` must be safe to run
  /// concurrently for DIFFERENT worker indices; per index it is sequential.
  /// The first error cancels remaining morsels. Worker-local meters merge
  /// into spec.meter (when set) before Run returns.
  Status Run(const std::function<Status(size_t worker, const table::RowBatch& batch)>&
                 consume);

  /// Materializes every visible row, returned in record-ID order (exactly a
  /// serial scan's output order).
  Result<std::vector<Row>> CollectRows();

  /// COUNT(*) of the visible rows.
  Result<uint64_t> Count();

  /// Global (ungrouped) aggregates: per-worker AggStates merged at the
  /// barrier. Always yields exactly one row (SQL empty-input semantics).
  Result<Row> Aggregate(const std::vector<AggSpec>& aggs);

  /// Workers Run() will actually use (after clamping to morsel count).
  size_t planned_parallelism() const {
    return options_.pool == nullptr ? 1 : std::max<size_t>(1, options_.parallelism);
  }

 private:
  dual::DualTable* table_;
  table::ScanSpec spec_;
  ParallelScanOptions options_;
};

}  // namespace dtl::exec
