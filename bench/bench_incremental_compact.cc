// Incremental-COMPACT maintenance comparison (BENCH_incremental_compact.json).
//
// Part 1 — sustained EDITs, three maintenance policies over the same table
// layout and update stream (one dense slice of a rotating file per round):
//   * none:        deltas pile up in the attached table forever;
//   * full:        threshold-triggered full COMPACT (the paper's off-line
//                  rewrite) — read-after-update cost saw-tooths: it climbs
//                  while debt accumulates, then resets when every file
//                  holding a delta is folded at once;
//   * incremental: per-stripe incremental COMPACT every round — only the
//                  dense file folds (clean stripes are raw-copied), so the
//                  read cost stays flat and the rewrite work per round is a
//                  fraction of the full rewrite.
// Per round we record modelled cluster seconds (paper-scale arithmetic over
// metered I/O; the attached store is flushed each round so delta bytes are
// visible to the meter) for the read-after-update scan plus the maintenance
// work, and summarize flatness as read p99/p50 per mode.
//
// Part 2 — closed-loop cost-model calibration: the same cost-model-planned
// UPDATE stream with calibration gain 0 (open loop) vs >0. The audit log
// pairs each prediction with modelled actuals; the summary compares the mean
// prediction error over the second half of each run — the calibrated loop
// must land well below the open-loop model.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "dualtable/dual_table.h"
#include "obs/cost_audit.h"
#include "sql/session.h"

namespace {

using dtl::Row;
using dtl::Value;

constexpr int kFiles = 8;
constexpr int kRounds = 32;
constexpr double kUpdateFraction = 0.6;  // of one file, per round

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "bench_incremental_compact failed: %s\n", what.c_str());
  std::exit(1);
}

struct RoundEntry {
  std::string mode;
  int round = 0;
  double read_modeled_seconds = 0;
  double read_wall_seconds = 0;
  double maintenance_modeled_seconds = 0;
  uint64_t read_overlay_rows = 0;  // rows patched/masked by the UNION READ
  uint64_t rows_rewritten = 0;     // master rows re-encoded this round
  uint64_t attached_bytes = 0;     // debt left after maintenance
  bool compacted = false;
};

struct ModeSummary {
  std::string mode;
  double read_p50 = 0;
  double read_p99 = 0;
  double flatness = 0;  // p99 / p50: ~1 is flat, the saw-tooth pushes it up
  double maintenance_total = 0;
  uint64_t rows_rewritten_total = 0;
};

dtl::Schema BenchSchema() {
  return dtl::Schema({{"id", dtl::DataType::kInt64}, {"amount", dtl::DataType::kDouble}});
}

std::shared_ptr<dtl::dual::DualTable> MakeTable(dtl::sql::Session* session,
                                                const std::string& name,
                                                dtl::dual::DualTableOptions options,
                                                int64_t rows_per_file) {
  auto table = session->CreateDualTable(name, BenchSchema(), options);
  if (!table.ok()) Die("create " + name + ": " + table.status().ToString());
  for (int f = 0; f < kFiles; ++f) {
    std::vector<Row> batch;
    batch.reserve(static_cast<size_t>(rows_per_file));
    for (int64_t i = 0; i < rows_per_file; ++i) {
      const int64_t id = f * rows_per_file + i;
      batch.push_back(Row{Value::Int64(id), Value::Double(id * 0.5)});
    }
    if (!(*table)->InsertRows(batch).ok()) Die("insert file " + std::to_string(f));
  }
  return *table;
}

dtl::Status UpdateRange(dtl::dual::DualTable* table, int64_t lo, int64_t hi) {
  dtl::table::ScanSpec filter;
  filter.predicate_columns = {0};
  filter.predicate = [lo, hi](const Row& row) {
    return row[0].AsInt64() >= lo && row[0].AsInt64() < hi;
  };
  dtl::table::Assignment assign;
  assign.column = 1;
  assign.input_columns = {1};
  assign.compute = [](const Row& row) {
    return Value::Double(row[1].AsDouble() + 0.25);
  };
  return table->Update(filter, {assign}).status();
}

/// Drains one UNION READ of `table`, counted into `meter` when given.
uint64_t CountRows(dtl::dual::DualTable* table, dtl::table::ScanMeter* meter = nullptr) {
  dtl::table::ScanSpec spec;
  spec.meter = meter;
  auto it = table->ScanBatches(spec);
  if (!it.ok()) Die("scan: " + it.status().ToString());
  dtl::table::RowBatch batch;
  uint64_t rows = 0;
  while ((*it)->Next(&batch)) rows += batch.size();
  if (!(*it)->status().ok()) Die("scan: " + (*it)->status().ToString());
  return rows;
}

std::vector<RoundEntry> RunMaintenanceMode(const std::string& mode,
                                           int64_t rows_per_file) {
  auto session = dtl::sql::Session::Create({});
  if (!session.ok()) Die("session: " + session.status().ToString());

  dtl::dual::DualTableOptions options = (*session)->options().dual_defaults;
  options.plan_mode = dtl::dual::DualTableOptions::PlanMode::kForceEdit;
  options.writer_options.stripe_rows = 512;
  // Let debt build across a few rounds before the full rewrite triggers —
  // that accumulation/reset cycle IS the saw-tooth this bench plots.
  options.compact_threshold = 1.0;
  // Pin the density bar below the per-round update fraction so the three
  // runs compare maintenance POLICY under one fixed selection rule. (The
  // production default derives the bar from the calibrated update crossover,
  // which at this bench's toy master size sits near 1.0 and would select
  // nothing; the calibration section below exercises that derivation.)
  options.incremental_density_override = 0.35;
  auto table = MakeTable(session->get(), "m_" + mode, options, rows_per_file);

  const uint64_t total_rows = static_cast<uint64_t>(kFiles) * rows_per_file;
  const auto dense_rows = static_cast<int64_t>(rows_per_file * kUpdateFraction);

  std::vector<RoundEntry> rounds;
  rounds.reserve(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    const int64_t file = r % kFiles;
    const int64_t lo = file * rows_per_file;
    if (!UpdateRange(table.get(), lo, lo + dense_rows).ok()) Die("update");
    // Flush the memtable so attached bytes flow through the metered file
    // system: the modelled read cost then reflects the real UNION READ debt.
    if (!table->attached()->store()->Flush().ok()) Die("flush");

    RoundEntry entry;
    entry.mode = mode;
    entry.round = r;

    (*session)->MarkIo();
    if (mode == "full") {
      if (table->NeedsCompaction()) {
        auto stats = table->Compact();
        if (!stats.ok()) Die("compact: " + stats.status().ToString());
        entry.rows_rewritten = stats->rows_rewritten;
        entry.compacted = stats->files_selected > 0;
      }
    } else if (mode == "incremental") {
      auto stats = table->CompactIncremental();
      if (!stats.ok()) Die("incremental: " + stats.status().ToString());
      entry.rows_rewritten = stats->rows_rewritten;
      entry.compacted = stats->files_selected > 0;
    }
    entry.maintenance_modeled_seconds = (*session)->ModeledSeconds((*session)->IoDelta());

    // Warm-up scan: prime the generation's ORC reader cache so the timed
    // read below prices the steady state, not the one-off cold read of files
    // a rewrite just published.
    if (CountRows(table.get()) != total_rows) Die("row count drifted");

    dtl::table::ScanMeter meter;
    (*session)->MarkIo();
    dtl::Stopwatch watch;
    if (CountRows(table.get(), &meter) != total_rows) Die("row count drifted");
    entry.read_wall_seconds = watch.ElapsedSeconds();
    const dtl::table::ScanSnapshot scan = meter.Snapshot();
    // Read price = scan arithmetic over every byte this SELECT touched: the
    // decoded master columns (cache-stable, identical floor across modes)
    // plus the attached-table bytes re-read from HBase each scan — the
    // UNION READ debt the maintenance policies differ on.
    const dtl::fs::IoSnapshot io = (*session)->IoDelta();
    entry.read_modeled_seconds = (*session)->cluster()->ScanSeconds(
        scan.bytes + io.hbase_bytes_read + io.hdfs_bytes_read, 1);
    entry.read_overlay_rows = scan.patched_rows + scan.masked_rows;
    entry.attached_bytes = table->attached()->ApproximateBytes();
    rounds.push_back(entry);
  }
  return rounds;
}

ModeSummary Summarize(const std::string& mode, const std::vector<RoundEntry>& rounds) {
  ModeSummary s;
  s.mode = mode;
  std::vector<double> reads;
  for (const RoundEntry& e : rounds) {
    if (e.mode != mode) continue;
    reads.push_back(e.read_modeled_seconds);
    s.maintenance_total += e.maintenance_modeled_seconds;
    s.rows_rewritten_total += e.rows_rewritten;
  }
  if (reads.empty()) Die("no rounds for mode " + mode);
  std::sort(reads.begin(), reads.end());
  s.read_p50 = reads[reads.size() / 2];
  s.read_p99 = reads[std::min(reads.size() - 1,
                              static_cast<size_t>(reads.size() * 0.99))];
  s.flatness = s.read_p50 > 0 ? s.read_p99 / s.read_p50 : 0;
  return s;
}

struct CalibrationResult {
  double gain = 0;
  size_t statements = 0;
  double open_window_error = 0;      // mean error, first half
  double settled_window_error = 0;   // mean error, second half
  double edit_scale = 1.0;
  double overwrite_scale = 1.0;
};

CalibrationResult RunCalibration(double gain, int64_t rows_per_file) {
  auto session = dtl::sql::Session::Create({});
  if (!session.ok()) Die("session: " + session.status().ToString());

  dtl::dual::DualTableOptions options = (*session)->options().dual_defaults;
  options.plan_mode = dtl::dual::DualTableOptions::PlanMode::kCostModel;
  options.writer_options.stripe_rows = 512;
  options.cost_audit = (*session)->cost_audit();
  options.cost_calibration_gain = gain;
  const std::string name = gain > 0 ? "cal_closed" : "cal_open";
  auto table = MakeTable(session->get(), name, options, rows_per_file);

  // A sweep of modification ratios around the crossover, so the audit sees
  // both EDIT and OVERWRITE decisions and the loop calibrates both scales.
  constexpr int kStatements = 48;
  const int64_t total_rows = kFiles * rows_per_file;
  for (int i = 0; i < kStatements; ++i) {
    const double fraction = 0.02 + 0.96 * ((i * 7) % kStatements) / kStatements;
    const auto span = static_cast<int64_t>(total_rows * fraction);
    const int64_t lo = (i * 131) % std::max<int64_t>(1, total_rows - span);
    if (!UpdateRange(table.get(), lo, lo + span).ok()) Die("calibration update");
  }

  const auto records = (*session)->cost_audit()->Records();
  if (records.size() < kStatements) Die("audit log under-filled");
  CalibrationResult result;
  result.gain = gain;
  result.statements = records.size();
  const size_t half = records.size() / 2;
  double first = 0;
  for (size_t i = 0; i < half; ++i) first += records[i].PredictionErrorFraction();
  result.open_window_error = first / half;
  result.settled_window_error = (*session)->cost_audit()->MeanPredictionErrorSince(half);
  const auto params = table->cost_model_params();
  result.edit_scale = params.edit_cost_scale;
  result.overwrite_scale = params.overwrite_cost_scale;
  return result;
}

void WriteJson(const std::vector<RoundEntry>& rounds,
               const std::vector<ModeSummary>& summaries,
               const std::vector<CalibrationResult>& calibration,
               const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"rounds\": [\n";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundEntry& e = rounds[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"mode\":\"%s\",\"round\":%d,"
                  "\"read_modeled_seconds\":%.6f,\"read_wall_seconds\":%.6f,"
                  "\"maintenance_modeled_seconds\":%.6f,\"read_overlay_rows\":%llu,"
                  "\"rows_rewritten\":%llu,"
                  "\"attached_bytes\":%llu,\"compacted\":%s}",
                  e.mode.c_str(), e.round, e.read_modeled_seconds,
                  e.read_wall_seconds, e.maintenance_modeled_seconds,
                  static_cast<unsigned long long>(e.read_overlay_rows),
                  static_cast<unsigned long long>(e.rows_rewritten),
                  static_cast<unsigned long long>(e.attached_bytes),
                  e.compacted ? "true" : "false");
    out << buf << (i + 1 < rounds.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"summary\": [\n";
  for (size_t i = 0; i < summaries.size(); ++i) {
    const ModeSummary& s = summaries[i];
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "    {\"mode\":\"%s\",\"read_p50\":%.6f,\"read_p99\":%.6f,"
                  "\"read_p99_over_p50\":%.3f,"
                  "\"maintenance_modeled_total\":%.6f,\"rows_rewritten_total\":%llu}",
                  s.mode.c_str(), s.read_p50, s.read_p99, s.flatness,
                  s.maintenance_total,
                  static_cast<unsigned long long>(s.rows_rewritten_total));
    out << buf << (i + 1 < summaries.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"calibration\": [\n";
  for (size_t i = 0; i < calibration.size(); ++i) {
    const CalibrationResult& c = calibration[i];
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "    {\"gain\":%.2f,\"statements\":%zu,"
                  "\"first_half_mean_error\":%.4f,\"second_half_mean_error\":%.4f,"
                  "\"edit_cost_scale\":%.4f,\"overwrite_cost_scale\":%.4f}",
                  c.gain, c.statements, c.open_window_error, c.settled_window_error,
                  c.edit_scale, c.overwrite_scale);
    out << buf << (i + 1 < calibration.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "wrote %zu rounds, %zu summaries, %zu calibration runs to %s\n",
               rounds.size(), summaries.size(), calibration.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  dtl::bench::ParseScaleFlag(&argc, argv);
  const auto rows_per_file = static_cast<int64_t>(1500 * dtl::bench::ScaleMult());

  std::vector<RoundEntry> rounds;
  std::vector<ModeSummary> summaries;
  for (const std::string mode : {"none", "full", "incremental"}) {
    std::vector<RoundEntry> mode_rounds = RunMaintenanceMode(mode, rows_per_file);
    summaries.push_back(Summarize(mode, mode_rounds));
    rounds.insert(rounds.end(), mode_rounds.begin(), mode_rounds.end());
    const ModeSummary& s = summaries.back();
    std::printf("%-12s read p50=%.4fs p99=%.4fs (p99/p50=%.2f)  "
                "maintenance=%.3fs rows_rewritten=%llu\n",
                s.mode.c_str(), s.read_p50, s.read_p99, s.flatness,
                s.maintenance_total,
                static_cast<unsigned long long>(s.rows_rewritten_total));
  }

  std::vector<CalibrationResult> calibration;
  for (const double gain : {0.0, 0.5}) {
    calibration.push_back(RunCalibration(gain, rows_per_file));
    const CalibrationResult& c = calibration.back();
    std::printf("calibration gain=%.1f  mean error first-half=%.3f second-half=%.3f  "
                "scales edit=%.3f overwrite=%.3f\n",
                c.gain, c.open_window_error, c.settled_window_error, c.edit_scale,
                c.overwrite_scale);
  }

  WriteJson(rounds, summaries, calibration, "BENCH_incremental_compact.json");
  return 0;
}
