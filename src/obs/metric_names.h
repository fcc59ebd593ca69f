// Registered metric and span identifiers. The metric-hygiene lint
// (scripts/lint.py rule 6) rejects string literals at metric/span call sites
// outside src/obs — every name used by instrumentation code must be one of
// these constexpr identifiers so the full metric surface is enumerable here.
//
// Naming scheme (DESIGN.md §10): `<subsystem>.<object>.<unit-ish noun>`,
// lowercase, dot-separated. Labeled families append `{label}` at registration
// time (e.g. `kv.puts{orders}`); the bare name is the family.
#pragma once

namespace dtl::obs::names {

// --- fs::IoMeter channel views ------------------------------------------------
inline constexpr const char* kFsHdfsBytesRead = "fs.hdfs.bytes_read";
inline constexpr const char* kFsHdfsBytesWritten = "fs.hdfs.bytes_written";
inline constexpr const char* kFsHdfsFilesCreated = "fs.hdfs.files_created";
inline constexpr const char* kFsHdfsSeeks = "fs.hdfs.seeks";
inline constexpr const char* kFsHbaseBytesRead = "fs.hbase.bytes_read";
inline constexpr const char* kFsHbaseBytesWritten = "fs.hbase.bytes_written";
inline constexpr const char* kFsHbaseReadOps = "fs.hbase.read_ops";
inline constexpr const char* kFsHbaseWriteOps = "fs.hbase.write_ops";

// --- table::ScanMeter counters (each top-level statement's delta) -------------
inline constexpr const char* kScanBatches = "scan.batches";
inline constexpr const char* kScanRows = "scan.rows";
inline constexpr const char* kScanBytes = "scan.bytes";
inline constexpr const char* kScanPassthroughBatches = "scan.passthrough_batches";
inline constexpr const char* kScanPatchedRows = "scan.patched_rows";
inline constexpr const char* kScanMaskedRows = "scan.masked_rows";
inline constexpr const char* kScanPredicateDrops = "scan.predicate_drops";
inline constexpr const char* kScanMaterializedRows = "scan.materialized_rows";
inline constexpr const char* kScanStripesSkipped = "scan.stripes_skipped";
inline constexpr const char* kScanStripesSkippedBloom = "scan.stripes_skipped_bloom";
inline constexpr const char* kScanFilesSkipped = "scan.files_skipped";

// --- orc::StripeCache (process-wide decoded-column cache) ----------------------
// hits/misses count stripe reads; a hit decoded no column.
inline constexpr const char* kStripeCacheHits = "stripe_cache.hits";
inline constexpr const char* kStripeCacheMisses = "stripe_cache.misses";
// Real memory of the resident columns: cells × sizeof(Value) + string heap.
inline constexpr const char* kStripeCacheBytes = "stripe_cache.bytes";
// Resident decoded columns (one per column of a cached stripe).
inline constexpr const char* kStripeCacheEntries = "stripe_cache.entries";
inline constexpr const char* kStripeCacheEvictions = "stripe_cache.evictions";

// --- kv::KvStore views (labeled by table name) --------------------------------
inline constexpr const char* kKvPuts = "kv.puts";
inline constexpr const char* kKvDeletes = "kv.deletes";
inline constexpr const char* kKvGets = "kv.gets";
inline constexpr const char* kKvFlushes = "kv.flushes";
inline constexpr const char* kKvCompactions = "kv.compactions";
inline constexpr const char* kKvWalSyncs = "kv.wal_syncs";
inline constexpr const char* kKvApproxBytes = "kv.approx_bytes";
inline constexpr const char* kKvApproxCells = "kv.approx_cells";
inline constexpr const char* kKvSstables = "kv.sstables";

// --- BackgroundScheduler views ------------------------------------------------
inline constexpr const char* kSchedulerJobs = "scheduler.jobs";
inline constexpr const char* kSchedulerRounds = "scheduler.rounds";
inline constexpr const char* kSchedulerLastRoundSeconds = "scheduler.last_round_seconds";

// --- SQL engine counters (labeled by statement kind) --------------------------
inline constexpr const char* kSqlStatements = "sql.statements";

// --- DualTable histograms (labeled by table name) -----------------------------
inline constexpr const char* kDualEditSeconds = "dualtable.edit.seconds";
inline constexpr const char* kDualOverwriteSeconds = "dualtable.overwrite.seconds";
inline constexpr const char* kDualCompactSeconds = "dualtable.compact.seconds";
inline constexpr const char* kDualUnionReadRows = "dualtable.union_read.rows";
inline constexpr const char* kDualUnionReadSeconds = "dualtable.union_read.seconds";

// --- Incremental compaction (labeled by table name) ---------------------------
// Stripe delta density is observed in parts-per-million (density × 1e6) so the
// integer-tick histogram keeps resolution below 1%.
inline constexpr const char* kDualIncrementalCompactSeconds =
    "dualtable.incremental_compact.seconds";
inline constexpr const char* kDualStripeDensityPpm =
    "dualtable.incremental_compact.stripe_density_ppm";
inline constexpr const char* kDualStripesRewritten =
    "dualtable.incremental_compact.stripes_rewritten";
inline constexpr const char* kDualStripesCopied =
    "dualtable.incremental_compact.stripes_copied";
inline constexpr const char* kDualModsFolded =
    "dualtable.incremental_compact.mods_folded";
// Calibrated cost-model coefficients exported as gauges (scale × 1e6).
inline constexpr const char* kDualEditCostScalePpm =
    "dualtable.cost_model.edit_scale_ppm";
inline constexpr const char* kDualOverwriteCostScalePpm =
    "dualtable.cost_model.overwrite_scale_ppm";

// --- Secondary index (labeled by table name) ----------------------------------
// Views over SecondaryIndex's Stats atomics with no counter of their own.
inline constexpr const char* kIndexEntriesAdded = "dualtable.index.entries_added";
inline constexpr const char* kIndexEntriesFolded = "dualtable.index.entries_folded";
inline constexpr const char* kIndexCandidateRows = "dualtable.index.candidate_rows";
// Registry counters bumped inline by SecondaryIndex: the one name of each
// lookup, stale-entry and rebuild count. They keep counting after the owning
// table is dropped, and the query log reads them.
inline constexpr const char* kIndexCounterLookups = "index.lookups";
inline constexpr const char* kIndexCounterStaleSkipped = "index.stale_entries_skipped";
inline constexpr const char* kIndexCounterRebuilds = "index.rebuilds";

// --- MVCC snapshot views (labeled by table name) ------------------------------
inline constexpr const char* kSnapshotAcquired = "snapshot.acquired";
inline constexpr const char* kSnapshotActive = "snapshot.active";
inline constexpr const char* kSnapshotPinnedGenerations = "snapshot.pinned_generations";
inline constexpr const char* kSnapshotOldestSeconds = "snapshot.oldest_seconds";

// --- Obs-driven adaptive maintenance (labeled by table name; DESIGN.md §14) ---
// `maintenance.triggers` is additionally labeled by reason:
// `maintenance.triggers{density}` / `{latency}` / `{bytes}` count what fired.
inline constexpr const char* kMaintenanceRounds = "maintenance.rounds";
inline constexpr const char* kMaintenanceTriggers = "maintenance.triggers";
inline constexpr const char* kMaintenanceSkips = "maintenance.skips";
inline constexpr const char* kMaintenanceIncrementalCompacts =
    "maintenance.incremental_compacts";
inline constexpr const char* kMaintenanceFullCompacts = "maintenance.full_compacts";
inline constexpr const char* kMaintenanceReclaims = "maintenance.reclaims";
// Decision inputs exported as gauges at each round.
inline constexpr const char* kMaintenanceUnionReadP95Us =
    "maintenance.union_read_p95_us";
inline constexpr const char* kMaintenanceDeltaDensityPpm =
    "maintenance.delta_density_ppm";

// --- Telemetry pipeline (recorder + structured query log) ---------------------
inline constexpr const char* kRecorderSamples = "recorder.samples";
inline constexpr const char* kQueryLogRecords = "query_log.records";
inline constexpr const char* kQueryLogSlow = "query_log.slow";

// --- Parallel scan ------------------------------------------------------------
inline constexpr const char* kParallelScans = "parallel_scan.scans";
inline constexpr const char* kParallelMorsels = "parallel_scan.morsels";
inline constexpr const char* kParallelWorkerRows = "parallel_scan.worker_rows";

// --- Span / trace-node names --------------------------------------------------
inline constexpr const char* kSpanQuery = "query";
inline constexpr const char* kSpanParse = "parse";
inline constexpr const char* kSpanBind = "bind";
inline constexpr const char* kSpanSelect = "select";
inline constexpr const char* kSpanExecute = "execute";
inline constexpr const char* kSpanInsert = "insert";
inline constexpr const char* kSpanUpdate = "update";
inline constexpr const char* kSpanDelete = "delete";
inline constexpr const char* kSpanCompact = "compact";
inline constexpr const char* kSpanCompactPlan = "compact-plan";
inline constexpr const char* kSpanCompactRewrite = "compact-rewrite";
inline constexpr const char* kSpanMerge = "merge";

// --- Operator trace-node names ------------------------------------------------
inline constexpr const char* kOpScan = "scan";
inline constexpr const char* kOpParallelScan = "parallel-scan";
inline constexpr const char* kOpProject = "project";
inline constexpr const char* kOpFilter = "filter";
inline constexpr const char* kOpJoin = "hash-join";
inline constexpr const char* kOpAggregate = "hash-aggregate";
inline constexpr const char* kOpSort = "sort";
inline constexpr const char* kOpLimit = "limit";
inline constexpr const char* kOpIndexLookup = "index-lookup";

}  // namespace dtl::obs::names
