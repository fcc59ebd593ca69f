// Session: the deployment facade. Owns the simulated cluster (file system,
// metadata table, cluster model, worker pool), the catalog, and the SQL
// engine; creates tables of every storage kind. This is the public entry
// point examples and benches use.
#pragma once

#include <memory>
#include <string>
#include <thread>

#include "baseline/acid_table.h"
#include "baseline/hbase_table.h"
#include "baseline/hive_table.h"
#include "common/background_scheduler.h"
#include "common/thread_pool.h"
#include "dualtable/dual_table.h"
#include "fs/cluster_model.h"
#include "fs/filesystem.h"
#include "obs/cost_audit.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/recorder.h"
#include "obs/telemetry_clock.h"
#include "obs/trace.h"
#include "sql/engine.h"
#include "table/catalog.h"
#include "table/scan_stats.h"

namespace dtl::sql {

struct SessionOptions {
  fs::FileSystemOptions fs_options;
  fs::ClusterConfig cluster;
  /// Worker threads for morsel-parallel scans; 0 = hardware threads.
  size_t pool_threads = 0;
  /// Morsel workers per parallel DualTable scan. <=1 keeps every SQL plan on
  /// the serial iterator; >1 routes order-insensitive plans (single-table
  /// global aggregates) through the morsel-driven ParallelScanner.
  size_t parallelism = 1;
  /// Surviving stripes per scan morsel.
  size_t morsel_stripes = 1;
  /// Run compaction from a background scheduler thread: DualTables poll
  /// NeedsCompaction() and KV stores defer size-tiered merges, so compaction
  /// debt is paid even on write-only workloads.
  bool background_compaction = false;
  /// Wire the unified observability layer: the session-scoped metrics
  /// registry (scan.* counters; fs/kv/scheduler views), the query tracer
  /// behind EXPLAIN ANALYZE, the cost-model decision audit, the query log
  /// and recorder (their QueryLogOptions and RecorderOptions defaults), and
  /// the session scan meter. Off = none of it is connected and no scan is
  /// counted, which is the bench baseline for the instrumentation-overhead
  /// contract (DESIGN.md §10).
  bool observability = true;
  /// Query-log slow-statement threshold (seconds; <= 0 never flags).
  double slow_query_seconds = 0.1;
  /// Telemetry clock for window rotation and recorder timestamps (not
  /// owned; must outlive the session). Null = process steady clock. Tests
  /// install a ManualTelemetryClock for deterministic rotation.
  obs::TelemetryClock* telemetry_clock = nullptr;
  /// Defaults applied to tables created through SQL / factory helpers.
  dual::DualTableOptions dual_defaults;
  baseline::HiveTableOptions hive_defaults;
  baseline::HBaseTableOptions hbase_defaults;
  baseline::AcidTableOptions acid_defaults;
};

class Session {
 public:
  static Result<std::unique_ptr<Session>> Create(SessionOptions options = {});

  /// Stops the background scheduler before the pool and tables go away.
  ~Session();

  /// Parses and executes one SQL statement.
  Result<QueryResult> Execute(const std::string& sql) { return engine_->Execute(sql); }

  // --- factory helpers (programmatic table creation) ---
  Result<std::shared_ptr<dual::DualTable>> CreateDualTable(
      const std::string& name, const Schema& schema,
      std::optional<dual::DualTableOptions> options = std::nullopt);
  Result<std::shared_ptr<baseline::HiveTable>> CreateHiveTable(const std::string& name,
                                                               const Schema& schema);
  Result<std::shared_ptr<baseline::HBaseTable>> CreateHBaseTable(const std::string& name,
                                                                 const Schema& schema);
  Result<std::shared_ptr<baseline::AcidTable>> CreateAcidTable(const std::string& name,
                                                               const Schema& schema);

  /// Drops the table and removes it from the catalog.
  Status DropTable(const std::string& name);

  // --- component access ---
  fs::SimFileSystem* fs() { return fs_.get(); }
  dual::MetadataTable* metadata() { return metadata_.get(); }
  fs::ClusterModel* cluster() { return &cluster_; }
  table::Catalog* catalog() { return &catalog_; }
  ThreadPool* pool() { return pool_.get(); }
  BackgroundScheduler* scheduler() { return scheduler_.get(); }
  Engine* engine() { return engine_.get(); }
  const SessionOptions& options() const { return options_; }

  // --- observability ---
  obs::MetricsRegistry* metrics() { return &metrics_; }
  obs::CostAudit* cost_audit() { return &cost_audit_; }
  obs::Tracer* tracer() { return &tracer_; }
  /// Session-scoped scan meter: the statements this session runs count into
  /// it (only with observability on). Read it from the thread that runs the
  /// statements; the registry's scan.* counters carry the same totals.
  table::ScanMeter* scan_meter() { return &scan_meter_; }
  /// One-stop session report: every registered metric (FS channel bytes,
  /// scan counters, per-table KV stats, scheduler state) plus the cost-audit
  /// record count, as `name value` text lines.
  std::string StatsDump() const;
  /// The same report as one JSON object: {"metrics":…, "cost_audit":[…]}.
  std::string StatsDumpJson() const;
  /// Prometheus-style text exposition of the current registry state.
  std::string StatsDumpPrometheus() const;
  /// The recorder's sample ring as JSON-lines (one delta object per tick);
  /// empty when observability is off.
  std::string StatsDumpJsonLines() const;
  /// Writes `dtl-stats.jsonl` (recorder samples) and `dtl-stats.prom`
  /// (Prometheus exposition) under `dir` on the HOST filesystem — the dump
  /// path benches and operators scrape.
  Status WriteStatsFiles(const std::string& dir) const;

  /// Null when observability is off.
  obs::MetricsRecorder* recorder() { return recorder_.get(); }
  obs::QueryLog* query_log() { return query_log_.get(); }

  // --- I/O metering for benches ---
  /// Remembers the current meter state; IoDelta() reports I/O since then.
  void MarkIo() { io_mark_ = fs_->meter()->Snapshot(); }
  fs::IoSnapshot IoDelta() const { return fs_->meter()->Snapshot() - io_mark_; }
  /// Modelled cluster seconds for an I/O delta (paper-scale arithmetic).
  double ModeledSeconds(const fs::IoSnapshot& delta, int num_tasks = 0) const {
    return cluster_.JobSeconds(delta, num_tasks);
  }

 private:
  explicit Session(SessionOptions options)
      : options_(std::move(options)), cluster_(options_.cluster) {}

  Result<std::shared_ptr<table::StorageTable>> MakeTable(
      const std::string& name, table::TableKind kind, const Schema& schema,
      const std::vector<size_t>& indexed_columns);

  /// Registers the labeled kv.* view family for one table's KV store. The
  /// weak_ptr keeps views of dropped tables from dangling: they read 0.
  void RegisterKvViews(const std::string& label,
                       std::function<kv::KvStore*()> store);
  /// Registers the labeled snapshot.* view family for one DualTable: total
  /// snapshots acquired, currently active, live (pinned) master generations,
  /// and the age of the oldest active snapshot.
  void RegisterSnapshotViews(const std::string& label,
                             std::function<dual::DualTable*()> table);
  void RegisterSessionViews();

  SessionOptions options_;
  std::unique_ptr<fs::SimFileSystem> fs_;
  std::unique_ptr<dual::MetadataTable> metadata_;
  fs::ClusterModel cluster_;
  table::Catalog catalog_;
  std::unique_ptr<ThreadPool> pool_;
  std::shared_ptr<BackgroundScheduler> scheduler_;
  obs::MetricsRegistry metrics_;
  obs::CostAudit cost_audit_;
  table::ScanMeter scan_meter_;
  obs::Tracer tracer_;
  std::unique_ptr<obs::MetricsRecorder> recorder_;
  std::unique_ptr<obs::QueryLog> query_log_;
  std::unique_ptr<Engine> engine_;
  fs::IoSnapshot io_mark_;
};

}  // namespace dtl::sql
