// Obs-driven adaptive maintenance comparison (BENCH_adaptive_maintenance.json).
//
// A bursty EDIT stream over the same table layout: every kBurstEvery-th round
// updates a dense slice of one rotating file; the rounds between are idle
// (read-only). Each round runs one BackgroundMaintenance() pass under one of
// two trigger policies:
//   * preview:  PR 7 behavior — the round always runs the preview scan over
//               the attached store and compacts whatever it selects, burst
//               round or not;
//   * adaptive: the round first consults live telemetry (the delta-density
//               gauge and the windowed union-read p95) and SKIPS everything —
//               preview scan included — until a trigger fires.
// Both policies compact the same bursts, so the read-after-update profile
// must match (adaptive p99/p50 at or under preview's); the win is that the
// adaptive run issues preview scans only on trigger rounds, visible in the
// maintenance.* counters the summary records.
//
// The adaptive session also drives the MetricsRecorder ring (one Tick per
// round) and dumps dtl-stats.jsonl / dtl-stats.prom — the stats files CI
// validates with scripts/check_stats_format.py.
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
#include "obs/recorder.h"
#include "sql/session.h"

namespace {

using dtl::Row;
using dtl::Value;

constexpr int kFiles = 8;
constexpr int kRounds = 32;
constexpr int kBurstEvery = 4;               // one burst, then idle rounds
constexpr double kUpdateFraction = 0.6;      // of one file, per burst
// Selection bar AND adaptive density trigger, pinned below the table-wide
// density one burst produces (0.6 / 8 files = 0.075) so a single burst is
// enough to fire the trigger; idle rounds sit at ~0 and skip.
constexpr double kDensityBar = 0.06;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "bench_adaptive_maintenance failed: %s\n", what.c_str());
  std::exit(1);
}

struct RoundEntry {
  std::string mode;
  int round = 0;
  bool burst = false;
  double read_modeled_seconds = 0;
  double read_wall_seconds = 0;
  double maintenance_modeled_seconds = 0;
  uint64_t attached_bytes = 0;
};

struct ModeSummary {
  std::string mode;
  double read_p50 = 0;
  double read_p99 = 0;
  double flatness = 0;
  double maintenance_total = 0;
  uint64_t rounds = 0;
  uint64_t preview_scans = 0;
  uint64_t skips = 0;
  uint64_t incremental_compacts = 0;
  uint64_t triggers_density = 0;
  uint64_t triggers_latency = 0;
  uint64_t triggers_bytes = 0;
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

/// Sum of every counter keyed `name` or `name{...}` in the snapshot.
uint64_t SumCounters(const dtl::obs::MetricsSnapshot& snap, const std::string& name) {
  uint64_t sum = 0;
  const std::string open = name + "{";
  for (const auto& [key, value] : snap.counters) {
    if (key == name ||
        (key.size() > open.size() && key.compare(0, open.size(), open) == 0)) {
      sum += value;
    }
  }
  return sum;
}

std::vector<RoundEntry> RunMode(const std::string& mode, int64_t rows_per_file,
                                ModeSummary* summary) {
  auto session = dtl::sql::Session::Create({});
  if (!session.ok()) Die("session: " + session.status().ToString());

  dtl::dual::DualTableOptions options = (*session)->options().dual_defaults;
  options.plan_mode = dtl::dual::DualTableOptions::PlanMode::kForceEdit;
  options.writer_options.stripe_rows = 512;
  options.compact_threshold = 1.0;  // keep the bytes fallback out of the way
  options.incremental_density_override = kDensityBar;
  options.adaptive_maintenance = mode == "adaptive";
  auto table = MakeTable(session->get(), "m_" + mode, options, rows_per_file);

  const uint64_t total_rows = static_cast<uint64_t>(kFiles) * rows_per_file;
  const auto dense_rows = static_cast<int64_t>(rows_per_file * kUpdateFraction);

  std::vector<RoundEntry> rounds;
  rounds.reserve(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    RoundEntry entry;
    entry.mode = mode;
    entry.round = r;
    entry.burst = r % kBurstEvery == 0;
    if (entry.burst) {
      const int64_t file = (r / kBurstEvery) % kFiles;
      const int64_t lo = file * rows_per_file;
      if (!UpdateRange(table.get(), lo, lo + dense_rows).ok()) Die("update");
      // Flush so attached bytes flow through the metered file system and the
      // modelled read cost reflects the real UNION READ debt.
      if (!table->attached()->store()->Flush().ok()) Die("flush");
    }

    (*session)->MarkIo();
    table->BackgroundMaintenance();
    entry.maintenance_modeled_seconds = (*session)->ModeledSeconds((*session)->IoDelta());

    // Warm-up scan primes the ORC reader cache; the timed read below prices
    // the steady state, not the cold read of files a rewrite just published.
    if (CountRows(table.get()) != total_rows) Die("row count drifted");

    dtl::table::ScanMeter meter;
    (*session)->MarkIo();
    dtl::Stopwatch watch;
    if (CountRows(table.get(), &meter) != total_rows) Die("row count drifted");
    entry.read_wall_seconds = watch.ElapsedSeconds();
    const dtl::table::ScanSnapshot scan = meter.Snapshot();
    const dtl::fs::IoSnapshot io = (*session)->IoDelta();
    entry.read_modeled_seconds = (*session)->cluster()->ScanSeconds(
        scan.bytes + io.hbase_bytes_read + io.hdfs_bytes_read, 1);
    entry.attached_bytes = table->attached()->ApproximateBytes();
    rounds.push_back(entry);

    // One recorder sample per round: the sample ring and the dtl-stats dump
    // files carry real maintenance.* movement.
    if ((*session)->recorder() != nullptr) (*session)->recorder()->Tick();
  }

  const dtl::obs::MetricsSnapshot snap = (*session)->metrics()->Snapshot();
  summary->mode = mode;
  summary->rounds = SumCounters(snap, "maintenance.rounds");
  summary->skips = SumCounters(snap, "maintenance.skips");
  // Every round that is not skipped runs the preview scan.
  summary->preview_scans = summary->rounds - summary->skips;
  summary->incremental_compacts = SumCounters(snap, "maintenance.incremental_compacts");
  summary->triggers_density = snap.counters.count("maintenance.triggers{density}")
                                  ? snap.counters.at("maintenance.triggers{density}")
                                  : 0;
  summary->triggers_latency = snap.counters.count("maintenance.triggers{latency}")
                                  ? snap.counters.at("maintenance.triggers{latency}")
                                  : 0;
  summary->triggers_bytes = snap.counters.count("maintenance.triggers{bytes}")
                                ? snap.counters.at("maintenance.triggers{bytes}")
                                : 0;

  std::vector<double> reads;
  for (const RoundEntry& e : rounds) {
    reads.push_back(e.read_modeled_seconds);
    summary->maintenance_total += e.maintenance_modeled_seconds;
  }
  std::sort(reads.begin(), reads.end());
  summary->read_p50 = reads[reads.size() / 2];
  summary->read_p99 =
      reads[std::min(reads.size() - 1, static_cast<size_t>(reads.size() * 0.99))];
  summary->flatness = summary->read_p50 > 0 ? summary->read_p99 / summary->read_p50 : 0;

  if (mode == "adaptive") {
    dtl::Status wrote = (*session)->WriteStatsFiles(".");
    if (!wrote.ok()) Die("stats dump: " + wrote.ToString());
    std::fprintf(stderr, "wrote ./dtl-stats.jsonl and ./dtl-stats.prom\n");
  }
  return rounds;
}

void WriteJson(const std::vector<RoundEntry>& rounds,
               const std::vector<ModeSummary>& summaries, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"rounds\": [\n";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundEntry& e = rounds[i];
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "    {\"mode\":\"%s\",\"round\":%d,\"burst\":%s,"
                  "\"read_modeled_seconds\":%.6f,\"read_wall_seconds\":%.6f,"
                  "\"maintenance_modeled_seconds\":%.6f,\"attached_bytes\":%llu}",
                  e.mode.c_str(), e.round, e.burst ? "true" : "false",
                  e.read_modeled_seconds, e.read_wall_seconds,
                  e.maintenance_modeled_seconds,
                  static_cast<unsigned long long>(e.attached_bytes));
    out << buf << (i + 1 < rounds.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"summary\": [\n";
  for (size_t i = 0; i < summaries.size(); ++i) {
    const ModeSummary& s = summaries[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"mode\":\"%s\",\"read_p50\":%.6f,\"read_p99\":%.6f,"
        "\"read_p99_over_p50\":%.3f,\"maintenance_modeled_total\":%.6f,"
        "\"rounds\":%llu,\"preview_scans\":%llu,\"skips\":%llu,"
        "\"incremental_compacts\":%llu,\"triggers_density\":%llu,"
        "\"triggers_latency\":%llu,\"triggers_bytes\":%llu}",
        s.mode.c_str(), s.read_p50, s.read_p99, s.flatness, s.maintenance_total,
        static_cast<unsigned long long>(s.rounds),
        static_cast<unsigned long long>(s.preview_scans),
        static_cast<unsigned long long>(s.skips),
        static_cast<unsigned long long>(s.incremental_compacts),
        static_cast<unsigned long long>(s.triggers_density),
        static_cast<unsigned long long>(s.triggers_latency),
        static_cast<unsigned long long>(s.triggers_bytes));
    out << buf << (i + 1 < summaries.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "wrote %zu rounds, %zu summaries to %s\n", rounds.size(),
               summaries.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  dtl::bench::ParseScaleFlag(&argc, argv);
  const auto rows_per_file = static_cast<int64_t>(1500 * dtl::bench::ScaleMult());

  std::vector<RoundEntry> rounds;
  std::vector<ModeSummary> summaries;
  for (const std::string mode : {"preview", "adaptive"}) {
    ModeSummary summary;
    std::vector<RoundEntry> mode_rounds = RunMode(mode, rows_per_file, &summary);
    rounds.insert(rounds.end(), mode_rounds.begin(), mode_rounds.end());
    summaries.push_back(summary);
    std::printf(
        "%-9s read p50=%.4fs p99=%.4fs (p99/p50=%.2f)  rounds=%llu "
        "preview_scans=%llu skips=%llu compacts=%llu triggers d/l/b=%llu/%llu/%llu\n",
        summary.mode.c_str(), summary.read_p50, summary.read_p99, summary.flatness,
        static_cast<unsigned long long>(summary.rounds),
        static_cast<unsigned long long>(summary.preview_scans),
        static_cast<unsigned long long>(summary.skips),
        static_cast<unsigned long long>(summary.incremental_compacts),
        static_cast<unsigned long long>(summary.triggers_density),
        static_cast<unsigned long long>(summary.triggers_latency),
        static_cast<unsigned long long>(summary.triggers_bytes));
  }

  WriteJson(rounds, summaries, "BENCH_adaptive_maintenance.json");
  return 0;
}
