// Paper Fig. 11: read performance on the TPC-H data set for Hive(HDFS),
// Hive(HBase), and DualTable across Query-a (TPC-H Q1), Query-b (Q12 join),
// and Query-c (COUNT on lineitem), with an empty attached table.
//
// Shapes to reproduce: DualTable's overhead over Hive(HDFS) is negligible;
// Hive(HBase) is much slower on every query (LSM batch-read penalty).
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "dualtable/dual_table.h"
#include "exec/parallel_scan.h"

namespace {

using dtl::bench::Env;
using dtl::bench::MakeTpch;
using dtl::bench::PlanMode;
using dtl::bench::RunSql;

void BM_QueryA(benchmark::State& state, const std::string& kind) {
  Env env = MakeTpch(kind, PlanMode::kCostModel, /*with_orders=*/false);
  for (auto _ : state) {
    auto stats = RunSql(&env, dtl::workload::QueryA("lineitem"));
    state.SetIterationTime(stats.seconds);
    state.counters["model_s"] = stats.modeled_seconds;
  }
}

void BM_QueryB(benchmark::State& state, const std::string& kind) {
  Env env = MakeTpch(kind, PlanMode::kCostModel, /*with_orders=*/true);
  for (auto _ : state) {
    auto stats = RunSql(&env, dtl::workload::QueryB("lineitem", "orders"));
    state.SetIterationTime(stats.seconds);
    state.counters["model_s"] = stats.modeled_seconds;
  }
}

void BM_QueryC(benchmark::State& state, const std::string& kind) {
  Env env = MakeTpch(kind, PlanMode::kCostModel, /*with_orders=*/false);
  for (auto _ : state) {
    auto stats = RunSql(&env, dtl::workload::QueryC("lineitem"));
    state.SetIterationTime(stats.seconds);
    state.counters["model_s"] = stats.modeled_seconds;
  }
}

// Raw lineitem scan, row-at-a-time vs batch (bench::RawScan), counted into a
// meter of its own, for BENCH_scan.json. Lineitem's 16 columns make the
// per-row Row materialization cost explicit.
void BM_RawScan(benchmark::State& state, const std::string& path) {
  Env env = MakeTpch("dualtable", PlanMode::kCostModel, /*with_orders=*/false);
  auto entry = env.session->catalog()->Lookup("lineitem");
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
  record.workload = "tpch";
  record.path = path;
  record.rows = rows_per_scan;
  record.seconds = per_scan_s;
  record.rows_per_sec = static_cast<double>(rows_per_scan) / per_scan_s;
  // Per-scan counts: the meter spans every timed iteration, which re-counted
  // the same rows, batches, and bytes once per iteration.
  record.scan = meter.Snapshot() / iters;
  dtl::bench::RecordScanBench(std::move(record));
}

// Morsel-driven parallel aggregate of lineitem from a cold cache, swept over
// the worker count for BENCH_parallel_scan.json (see bench_fig04_grid_read.cc
// for the wall-vs-modeled speedup caveat).
void BM_ParallelScan(benchmark::State& state) {
  Env env = MakeTpch("dualtable", PlanMode::kCostModel, /*with_orders=*/false);
  dtl::bench::ParallelScanBenchEntry record;
  record.workload = "tpch";
  record.workers = static_cast<int>(state.range(0));
  double total_s = 0;
  for (auto _ : state) {
    // SUM(l_extendedprice (a double)) from a cold cache: every iteration decodes the
    // column's stripes and aggregates every value.
    const double s = dtl::bench::ColdParallelSum(
        &env, "lineitem", dtl::workload::lineitem::kExtendedPrice, &record);
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
BENCHMARK_CAPTURE(BM_RawScan, row_path, "row")->Unit(benchmark::kMillisecond)->UseManualTime();
BENCHMARK_CAPTURE(BM_RawScan, batch_path, "batch")->Unit(benchmark::kMillisecond)->UseManualTime();
BENCHMARK_CAPTURE(BM_QueryA, hive_hdfs, "hive")->Unit(benchmark::kMillisecond)->UseManualTime();
BENCHMARK_CAPTURE(BM_QueryA, hive_hbase, "hbase")->Unit(benchmark::kMillisecond)->UseManualTime();
BENCHMARK_CAPTURE(BM_QueryA, dualtable, "dualtable")->Unit(benchmark::kMillisecond)->UseManualTime();
BENCHMARK_CAPTURE(BM_QueryB, hive_hdfs, "hive")->Unit(benchmark::kMillisecond)->UseManualTime();
BENCHMARK_CAPTURE(BM_QueryB, hive_hbase, "hbase")->Unit(benchmark::kMillisecond)->UseManualTime();
BENCHMARK_CAPTURE(BM_QueryB, dualtable, "dualtable")->Unit(benchmark::kMillisecond)->UseManualTime();
BENCHMARK_CAPTURE(BM_QueryC, hive_hdfs, "hive")->Unit(benchmark::kMillisecond)->UseManualTime();
BENCHMARK_CAPTURE(BM_QueryC, hive_hbase, "hbase")->Unit(benchmark::kMillisecond)->UseManualTime();
BENCHMARK_CAPTURE(BM_QueryC, dualtable, "dualtable")->Unit(benchmark::kMillisecond)->UseManualTime();

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
