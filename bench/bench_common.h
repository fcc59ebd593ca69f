// Shared setup for the per-figure/per-table bench binaries: builds fresh
// sessions loaded with the grid or TPC-H workloads at bench scale, runs SQL
// with wall-clock + modelled-cluster timing, and aborts loudly on any error
// (a bench must never silently measure a failed statement).
//
// Scale control: a `--scale=N` command-line flag (parsed by ParseScaleFlag
// before benchmark::Initialize) or the DTL_BENCH_SCALE env var multiplies
// data sizes (default 1.0; the flag wins). The reproduced *shapes* are
// scale-invariant; absolute milliseconds are not. N in the 100-1000 range
// pushes the workload generators from bench scale toward paper scale.
#pragma once

#include <memory>
#include <string>

#include "sql/session.h"
#include "table/scan_stats.h"
#include "workload/grid_gen.h"
#include "workload/tpch_gen.h"

namespace dtl::bench {

/// Workload size multiplier: the `--scale=N` flag when given, else the
/// DTL_BENCH_SCALE env var, else 1.0.
double ScaleMult();

/// Strips a `--scale=N` (or `--scale N`) flag out of argv and records it as
/// the ScaleMult override. Call before benchmark::Initialize, which rejects
/// flags it does not recognize.
void ParseScaleFlag(int* argc, char** argv);

/// A session preloaded with one workload.
struct Env {
  std::unique_ptr<sql::Session> session;
  uint64_t rows = 0;  // rows in the primary table
};

/// Outcome of one timed statement.
struct RunStats {
  double seconds = 0;
  double modeled_seconds = 0;  // paper-scale cluster arithmetic from metered I/O
  uint64_t affected_rows = 0;
  std::string plan;
};

/// Plan-selection mode for DualTable-backed environments.
using PlanMode = dual::DualTableOptions::PlanMode;

/// Builds a session holding only tj_gbsjwzl_mx (the Fig. 5-10 sweep table)
/// stored as `kind` ("hive" or "dualtable").
Env MakeGridMx(const std::string& kind, PlanMode mode = PlanMode::kCostModel);

/// Builds a session holding all six paper-Table-II grid tables.
/// `observability` toggles SessionOptions::observability: the off setting is
/// the baseline for the instrumentation-overhead guard (bench_observability).
Env MakeGridTableII(const std::string& kind, bool observability = true);

/// Builds a session holding all six paper-Table-III grid tables.
Env MakeGridTableIII(const std::string& kind, PlanMode mode = PlanMode::kCostModel);

/// Builds a session holding TPC-H lineitem (and orders when requested).
Env MakeTpch(const std::string& kind, PlanMode mode = PlanMode::kCostModel,
             bool with_orders = false);

/// Executes one statement; aborts the bench on failure.
RunStats RunSql(Env* env, const std::string& sql);

/// Renders a ratio like 5/36 for series labels.
std::string DayLabel(int days);

/// One raw-scan measurement (row-at-a-time vs batch read path) destined for
/// BENCH_scan.json. Every field describes ONE scan of the table: each
/// logical row is counted exactly once, `rows / seconds == rows_per_sec`,
/// and the meter delta is normalized by the iteration count (a pass-through
/// batch therefore contributes its rows once, not once per timed iteration).
struct ScanBenchEntry {
  std::string workload;  // "grid" | "tpch"
  std::string path;      // "row" | "batch"
  uint64_t rows = 0;     // logical rows visited by one scan
  double seconds = 0;    // mean wall seconds for one scan
  double rows_per_sec = 0;
  table::ScanSnapshot scan;  // per-scan scan-meter delta
};

/// One raw scan of `table` for BENCH_scan.json, counted into `meter`. "row"
/// drains the batch UNION READ through exec::ScanOperator, the leaf every
/// row operator tree starts from. "batch" drains ScanBatches and reads every
/// visible cell with AssignTo into one reused Value per column, as the row
/// path's MaterializeRow reuses its row. Returns the logical rows visited;
/// folds the cells read into `*checksum` so the reads cannot be optimized
/// away.
uint64_t RawScan(dual::DualTable* table, const std::string& path, table::ScanMeter* meter,
                 uint64_t* checksum);

/// Queues an entry for FlushScanBench.
void RecordScanBench(ScanBenchEntry entry);

/// Writes every recorded entry as a machine-readable JSON array. Entries
/// already in the file from OTHER workloads are preserved (the grid and
/// TPC-H read benches share one BENCH_scan.json).
void FlushScanBench(const std::string& path = "BENCH_scan.json");

/// One morsel-driven parallel scan measurement (worker-count sweep) destined
/// for BENCH_parallel_scan.json.
struct ParallelScanBenchEntry {
  std::string workload;  // "grid" | "tpch"
  int workers = 0;       // ParallelScanner parallelism degree
  uint64_t rows = 0;     // rows aggregated per iteration
  double seconds = 0;    // wall seconds per iteration (single-core container!)
  uint64_t scan_bytes = 0;       // encoded bytes metered for one scan
  double modeled_seconds = 0;    // ClusterModel::ScanSeconds(bytes, workers)
  double wall_speedup = 1.0;     // serial wall / this wall (filled at flush)
  double modeled_speedup = 1.0;  // serial modeled / this modeled (at flush)
};

/// One cold parallel aggregate: drops `table`'s decoded columns from the
/// stripe cache (its readers stay open), then sums the numeric `column`
/// through ParallelScanner::Aggregate at `entry->workers` workers. Returns
/// the aggregate's wall seconds and sets `entry`'s rows and scan bytes.
double ColdParallelSum(Env* env, const std::string& table, size_t column,
                       ParallelScanBenchEntry* entry);

/// Queues an entry for FlushParallelScanBench (dedups by workload+workers).
void RecordParallelScanBench(ParallelScanBenchEntry entry);

/// Writes the worker sweep with speedups relative to the workers=1 entry of
/// the same workload. Entries from other workloads already in the file are
/// preserved (grid and TPC-H share one BENCH_parallel_scan.json).
void FlushParallelScanBench(const std::string& path = "BENCH_parallel_scan.json");

}  // namespace dtl::bench
