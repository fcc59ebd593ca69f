// Paper Fig. 4: read performance of Hive vs DualTable with an EMPTY attached
// table, on the two grid SELECT statements — #1 is a 3-way join with
// predicates, #2 is COUNT(*) on the big consumption table. The paper finds
// DualTable 8-12% slower due to the (empty) attached-table lookup overhead;
// the shape to reproduce is "DualTable read overhead is small".
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "dualtable/dual_table.h"
#include "exec/parallel_scan.h"

namespace {

using dtl::bench::Env;
using dtl::bench::MakeGridTableII;
using dtl::bench::RunSql;

void BM_GridSelect1(benchmark::State& state, const std::string& kind) {
  Env env = MakeGridTableII(kind);
  for (auto _ : state) {
    auto stats = RunSql(&env, dtl::workload::GridSelect1());
    state.SetIterationTime(stats.seconds);
    state.counters["model_s"] = stats.modeled_seconds;
  }
  state.counters["rows"] = static_cast<double>(env.rows);
}

void BM_GridSelect2(benchmark::State& state, const std::string& kind) {
  Env env = MakeGridTableII(kind);
  for (auto _ : state) {
    auto stats = RunSql(&env, dtl::workload::GridSelect2());
    state.SetIterationTime(stats.seconds);
    state.counters["model_s"] = stats.modeled_seconds;
  }
}

// Raw storage scan of the big consumption table, row-at-a-time vs batch
// (bench::RawScan), counted into a meter of its own. Feeds the row-vs-batch
// rows/sec comparison in BENCH_scan.json.
void BM_RawScan(benchmark::State& state, const std::string& path) {
  Env env = MakeGridTableII("dualtable");
  auto entry = env.session->catalog()->Lookup("tj_gbsjwzl_mx");
  if (!entry.ok()) { state.SkipWithError("lookup failed"); return; }
  auto dual = std::dynamic_pointer_cast<dtl::dual::DualTable>(entry->table);
  if (dual == nullptr) { state.SkipWithError("not a DualTable"); return; }

  dtl::table::ScanMeter meter;
  double total_s = 0;
  uint64_t rows_per_scan = 0;
  uint64_t checksum = 0;
  for (auto _ : state) {
    dtl::Stopwatch watch;
    rows_per_scan = dtl::bench::RawScan(dual.get(), path, &meter, &checksum);
    const double s = watch.ElapsedSeconds();
    state.SetIterationTime(s);
    total_s += s;
  }
  benchmark::DoNotOptimize(checksum);
  const auto iters = static_cast<uint64_t>(state.iterations());
  const double per_scan_s = total_s / static_cast<double>(iters);
  state.counters["rows_per_sec"] =
      benchmark::Counter(static_cast<double>(rows_per_scan) / per_scan_s);

  dtl::bench::ScanBenchEntry record;
  record.workload = "grid";
  record.path = path;
  record.rows = rows_per_scan;
  record.seconds = per_scan_s;
  record.rows_per_sec = static_cast<double>(rows_per_scan) / per_scan_s;
  // Per-scan counts: the meter spans every timed iteration, which re-counted
  // the same rows, batches, and bytes once per iteration.
  record.scan = meter.Snapshot() / iters;
  dtl::bench::RecordScanBench(std::move(record));
}

// Morsel-driven parallel aggregate of the big consumption table from a cold
// cache, swept over the worker count for BENCH_parallel_scan.json. Wall
// seconds on this container are bounded by its physical cores;
// modeled_seconds is the paper-scale
// cluster arithmetic (workers multiply the per-task read rate until the
// aggregate HDFS rate saturates), which is what the speedup claim is about.
void BM_ParallelScan(benchmark::State& state) {
  Env env = MakeGridTableII("dualtable");
  dtl::bench::ParallelScanBenchEntry record;
  record.workload = "grid";
  record.workers = static_cast<int>(state.range(0));
  double total_s = 0;
  for (auto _ : state) {
    // SUM(yhlx (an int64)) from a cold cache: every iteration decodes the
    // column's stripes and aggregates every value.
    const double s = dtl::bench::ColdParallelSum(&env, "tj_gbsjwzl_mx", 0, &record);
    state.SetIterationTime(s);
    total_s += s;
  }
  record.seconds = total_s / static_cast<double>(state.iterations());
  record.modeled_seconds =
      env.session->cluster()->ScanSeconds(record.scan_bytes, record.workers);
  state.counters["model_s"] = record.modeled_seconds;
  dtl::bench::RecordParallelScanBench(std::move(record));
}

}  // namespace

BENCHMARK(BM_ParallelScan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();
BENCHMARK_CAPTURE(BM_RawScan, row_path, "row")
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();
BENCHMARK_CAPTURE(BM_RawScan, batch_path, "batch")
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();
BENCHMARK_CAPTURE(BM_GridSelect1, hive, "hive")
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();
BENCHMARK_CAPTURE(BM_GridSelect1, dualtable, "dualtable")
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();
BENCHMARK_CAPTURE(BM_GridSelect2, hive, "hive")
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();
BENCHMARK_CAPTURE(BM_GridSelect2, dualtable, "dualtable")
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

int main(int argc, char** argv) {
  dtl::bench::ParseScaleFlag(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  dtl::bench::FlushScanBench();
  dtl::bench::FlushParallelScanBench();
  return 0;
}
