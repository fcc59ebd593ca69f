#include "exec/parallel_scan.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/metric_names.h"

namespace dtl::exec {

Status ParallelScanner::Run(
    const std::function<Status(size_t worker, const table::RowBatch& batch)>& consume) {
  // One snapshot pins the whole scan: planning and every morsel read the
  // same (generation, attached state) pair regardless of concurrent writers.
  const dual::SnapshotPtr snapshot =
      options_.snapshot != nullptr ? options_.snapshot : table_->AcquireSnapshot();
  DTL_ASSIGN_OR_RETURN(
      auto morsels, table_->PlanScanMorselsAt(snapshot, spec_, options_.morsel_stripes));
  size_t workers = planned_parallelism();
  workers = std::min(workers, morsels.size());

  // Worker-local meters: each worker's spec points at its own, so no two
  // threads write one meter, and the totals fold into spec.meter at the
  // barrier below.
  std::vector<table::ScanMeter> meters(std::max<size_t>(workers, 1));
  std::atomic<size_t> next_morsel{0};

  auto worker_loop = [&](size_t w, const std::function<bool()>& cancelled) -> Status {
    table::ScanSpec spec = spec_;
    spec.meter = &meters[w];
    table::RowBatch batch;
    while (!cancelled()) {
      const size_t m = next_morsel.fetch_add(1, std::memory_order_relaxed);
      if (m >= morsels.size()) break;
      DTL_ASSIGN_OR_RETURN(auto it,
                           table_->NewUnionReadBatchForMorselAt(snapshot, morsels[m], spec));
      while (it->Next(&batch)) {
        DTL_RETURN_NOT_OK(consume(w, batch));
      }
      DTL_RETURN_NOT_OK(it->status());
    }
    return Status::OK();
  };

  Status st;
  if (workers <= 1 || options_.pool == nullptr) {
    // Serial fallback: same morsels, same merge, one thread.
    if (!morsels.empty()) {
      st = worker_loop(0, [] { return false; });
    }
  } else {
    TaskGroup group(options_.pool);
    for (size_t w = 0; w < workers; ++w) {
      group.Spawn([&worker_loop, &group, w] {
        return worker_loop(w, [&group] { return group.cancelled(); });
      });
    }
    st = group.Wait();
  }

  if (spec_.meter != nullptr) {
    for (const table::ScanMeter& m : meters) spec_.meter->Add(m.Snapshot());
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counter(obs::names::kParallelScans)->Inc();
    options_.metrics->counter(obs::names::kParallelMorsels)->Inc(morsels.size());
    obs::Histogram* worker_rows =
        options_.metrics->histogram(obs::names::kParallelWorkerRows);
    for (const table::ScanMeter& m : meters) worker_rows->Observe(m.Snapshot().rows);
  }
  return st;
}

Result<std::vector<Row>> ParallelScanner::CollectRows() {
  const size_t slots = std::max<size_t>(planned_parallelism(), 1);
  std::vector<std::vector<std::pair<uint64_t, Row>>> partials(slots);
  std::vector<Row> scratch(slots);
  DTL_RETURN_NOT_OK(Run([&](size_t w, const table::RowBatch& batch) -> Status {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.MaterializeRow(i, &scratch[w]);
      partials[w].emplace_back(batch.record_id(i), scratch[w]);
    }
    return Status::OK();
  }));
  std::vector<std::pair<uint64_t, Row>> all;
  for (auto& p : partials) {
    all.insert(all.end(), std::make_move_iterator(p.begin()),
               std::make_move_iterator(p.end()));
  }
  // Record IDs are unique, so sorting restores the serial scan order no
  // matter how morsels interleaved across workers.
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Row> rows;
  rows.reserve(all.size());
  for (auto& [id, row] : all) rows.push_back(std::move(row));
  return rows;
}

Result<uint64_t> ParallelScanner::Count() {
  const size_t slots = std::max<size_t>(planned_parallelism(), 1);
  std::vector<uint64_t> counts(slots, 0);
  DTL_RETURN_NOT_OK(Run([&counts](size_t w, const table::RowBatch& batch) -> Status {
    counts[w] += batch.size();
    return Status::OK();
  }));
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return total;
}

Result<Row> ParallelScanner::Aggregate(const std::vector<AggSpec>& aggs) {
  const size_t slots = std::max<size_t>(planned_parallelism(), 1);
  std::vector<std::vector<AggState>> partials(slots, std::vector<AggState>(aggs.size()));
  std::vector<Row> scratch(slots);
  DTL_RETURN_NOT_OK(Run([&](size_t w, const table::RowBatch& batch) -> Status {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.MaterializeRow(i, &scratch[w]);
      for (size_t a = 0; a < aggs.size(); ++a) {
        DTL_RETURN_NOT_OK(partials[w][a].Update(aggs[a], scratch[w]));
      }
    }
    return Status::OK();
  }));
  // The barrier: fold worker partials, then finalize. An empty table (zero
  // morsels) falls through with default states — COUNT 0, SUM/AVG/MIN/MAX
  // NULL, exactly SQL's empty-input row.
  Row out;
  out.reserve(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    AggState merged;
    for (const auto& worker_states : partials) {
      merged.Merge(aggs[a].kind, worker_states[a]);
    }
    out.push_back(merged.Finalize(aggs[a].kind));
  }
  return out;
}

}  // namespace dtl::exec
