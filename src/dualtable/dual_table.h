// DualTable (paper §III): the hybrid-storage table. Batch data lives in the
// ORC-on-HDFS Master Table; record modifications live in the HBase-backed
// Attached Table; reads go through UNION READ; UPDATE/DELETE choose between
// the OVERWRITE plan and the EDIT plan with the §IV cost model; COMPACT
// folds the attached table back into a new master generation.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/background_scheduler.h"
#include "dualtable/attached_table.h"
#include "dualtable/cost_model.h"
#include "dualtable/master_table.h"
#include "dualtable/metadata.h"
#include "dualtable/secondary_index.h"
#include "dualtable/snapshot.h"
#include "dualtable/union_read.h"
#include "fs/cluster_model.h"
#include "table/storage_table.h"

namespace dtl::obs {
class CostAudit;
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class TelemetryClock;
class Tracer;
}  // namespace dtl::obs

namespace dtl::dual {

/// Delta density of one master stripe: the fraction of its rows with at
/// least one attached modification. The incremental-COMPACT planner bins
/// attached record IDs into stripe row windows to compute these.
struct StripeDensity {
  uint64_t file_id = 0;
  size_t stripe_index = 0;
  uint64_t first_row = 0;
  uint64_t rows = 0;
  uint64_t delta_rows = 0;  // modified records in [first_row, first_row+rows)

  double density() const {
    return rows == 0 ? 0.0 : static_cast<double>(delta_rows) / static_cast<double>(rows);
  }
};

/// One master file's rollup in an incremental-COMPACT plan. The swap unit is
/// the file (record IDs are immutable, so a stripe cannot move between files
/// without invalidating its rows' attached keys); stripe densities decide
/// which stripes inside a selected file are re-encoded vs raw-copied.
struct FileCompactionPlan {
  uint64_t file_id = 0;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  uint64_t delta_rows = 0;
  bool selected = false;  // density() >= the plan threshold
  std::vector<StripeDensity> stripes;

  double density() const {
    return rows == 0 ? 0.0 : static_cast<double>(delta_rows) / static_cast<double>(rows);
  }
};

/// Read-only COMPACT plan: what the fold WOULD rewrite. At the cost-model
/// threshold it is COMPACT INCREMENTAL's plan, at threshold 0 full COMPACT's
/// (every file holding a delta). EXPLAIN COMPACT renders it; the background
/// maintenance job uses it to pick work; the fold executes it.
struct IncrementalCompactionPlan {
  double threshold = 0.0;  // density at/above which a file is rewritten
  std::vector<FileCompactionPlan> files;  // ascending file_id
  /// Attached record IDs whose file is not in the generation (leftovers from
  /// earlier rewrites); invisible to UNION READ, tombstoned at publish.
  std::vector<uint64_t> stray_record_ids;

  size_t selected_files() const;
  uint64_t total_delta_rows() const;
  std::string ToString() const;  // EXPLAIN rendering, one line per file
};

/// What one COMPACT (full or incremental) actually did.
struct IncrementalCompactStats {
  size_t files_total = 0;
  size_t files_selected = 0;
  size_t stripes_rewritten = 0;  // decoded, patched, re-encoded
  size_t stripes_copied = 0;     // clean: raw byte copy, no decode
  uint64_t rows_rewritten = 0;   // rows in re-encoded stripes (pre-delete)
  uint64_t mods_folded = 0;      // attached records folded into the master

  std::string ToString() const;
};

/// Keyed-DML route (DESIGN.md §13): the statement's WHERE holds
/// `column = lit` or `column IN (lits)` as a top-level conjunct on an indexed
/// column, so an EDIT takes its matches from IndexLookupAt instead of
/// scanning the table. `values` are the probe literals (NULLs dropped).
struct IndexProbe {
  size_t column = 0;
  std::vector<Value> values;
};

/// Where the modification ratio fed to the cost model came from.
enum class RatioSource { kHint, kHistory, kDefault };
const char* RatioSourceName(RatioSource source);

/// The plan an UPDATE/DELETE executes, resolved exactly as the executor
/// resolves it, so EXPLAIN can render the choice that will run.
struct DmlPlanChoice {
  table::DmlPlan plan = table::DmlPlan::kEdit;
  /// True under PlanMode::kCostModel; false when the plan mode forces it.
  bool cost_model = false;
  /// Ratio and decision are meaningful only when cost_model is true.
  double ratio = 0;
  RatioSource ratio_source = RatioSource::kDefault;
  PlanDecision decision;
};

struct DualTableOptions {
  orc::WriterOptions writer_options;
  kv::KvStoreOptions attached_options;  // dir is derived from the table name
  std::string warehouse_dir = "/warehouse";
  CostModelParams cost_params;

  /// Plan selection: the cost model (paper default), or forced plans for the
  /// "DualTable EDIT" series and ablations in the evaluation.
  enum class PlanMode { kCostModel, kForceEdit, kForceOverwrite };
  PlanMode plan_mode = PlanMode::kCostModel;

  /// Rows per master file written by OVERWRITE and INSERT OVERWRITE (keeps
  /// per-file parallelism comparable to the pre-rewrite layout). COMPACT
  /// never rolls: each rewritten file gets one replacement.
  uint64_t rewrite_file_rows = 1ull << 20;

  /// When the attached table holds at least this fraction of master bytes,
  /// the table suggests compaction (surfaced via NeedsCompaction()).
  double compact_threshold = 0.25;

  /// Stripe delta density at/above which incremental COMPACT rewrites a
  /// file. Negative (the default) derives the threshold from the cost
  /// model's calibrated update crossover ratio — the density where folding
  /// deltas into the master becomes cheaper than keeping them attached.
  double incremental_density_override = -1.0;

  /// Closed-loop cost-model calibration gain (DESIGN.md §12). After every
  /// audited kCostModel statement, the executed plan's cost scale moves by
  /// (measured/predicted)^gain. 0 (the default) keeps the open-loop paper
  /// model. Requires `cost_audit` to be wired (the audit record carries the
  /// modelled actuals the loop feeds on).
  double cost_calibration_gain = 0.0;

  /// Rows per RowBatch emitted by the vectorized scan. Small values exercise
  /// batch/stripe boundary handling in tests.
  size_t scan_batch_rows = table::kDefaultBatchRows;

  /// Background maintenance scheduler. When set together with
  /// `background_compaction`, the table registers a poll job that runs
  /// BackgroundMaintenance() every round: incremental COMPACT of the densest
  /// files when any cross the threshold, full COMPACT as the fallback when
  /// attached bytes pile up below it — so compaction debt is paid even on
  /// write-only workloads that never scan.
  std::shared_ptr<BackgroundScheduler> scheduler;
  bool background_compaction = false;

  /// Obs-driven adaptive maintenance (DESIGN.md §14). When on, a maintenance
  /// round first consults live telemetry — the attached-delta density gauge,
  /// the windowed union-read latency p95 vs the SLO below, and the byte
  /// debt — and SKIPS the round without any preview scan unless a trigger
  /// fires; once triggered, the preview still ranks stripes exactly as
  /// before. Off (the default) keeps the preview-every-round behavior.
  /// Requires `metrics` (the triggers read registry histograms).
  bool adaptive_maintenance = false;
  /// Latency trigger: fires when the union-read wall-seconds p95 over the
  /// last 8 seconds exceeds this.
  double adaptive_latency_slo_seconds = 0.050;
  /// Minimum observations inside the window before the latency trigger may
  /// fire (a p95 of three reads is noise).
  uint64_t adaptive_min_window_count = 16;
  /// Clock driving window rotation in maintenance rounds. nullptr = the
  /// process steady clock; tests inject a ManualTelemetryClock.
  obs::TelemetryClock* telemetry_clock = nullptr;

  /// Column ordinals to maintain a KV-hosted secondary index over (point
  /// lookup serving tier). Only int64/date/string columns are indexable;
  /// Open rejects anything else. Empty = no index.
  std::vector<size_t> indexed_columns;

  /// Shared decoded-stripe cache for this table's master readers. nullptr =
  /// the process-wide StripeCache::Default(). Not owned; must outlive the
  /// table.
  orc::StripeCache* stripe_cache = nullptr;

  /// Observability hooks (both optional, not owned; must outlive the table).
  /// `metrics` receives the EDIT/OVERWRITE/COMPACT duration histograms and
  /// the UNION READ rows histogram, labeled by table name. `cost_audit`
  /// receives one record per PlanMode::kCostModel UPDATE/DELETE decision,
  /// pairing the predicted EDIT-vs-OVERWRITE costs with measured actuals.
  obs::MetricsRegistry* metrics = nullptr;
  obs::CostAudit* cost_audit = nullptr;
};

class DualTable : public table::StorageTable {
 public:
  /// Opens or creates the DualTable `name` (CREATE in paper §III-C makes
  /// both the master and the attached table).
  static Result<std::shared_ptr<DualTable>> Open(fs::SimFileSystem* fs,
                                                 MetadataTable* metadata,
                                                 const fs::ClusterModel* cluster,
                                                 const std::string& name, Schema schema,
                                                 DualTableOptions options = {});

  /// Unregisters from the background scheduler (blocking out an in-flight
  /// poll) before members are destroyed.
  ~DualTable() override;

  // --- StorageTable interface ---
  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  Result<std::unique_ptr<table::BatchIterator>> ScanBatches(
      const table::ScanSpec& spec) override;
  Status InsertRows(const std::vector<Row>& rows) override;
  /// INSERT OVERWRITE TABLE: a fresh master generation + empty attached.
  Status OverwriteRows(const std::vector<Row>& rows) override;
  Result<table::DmlResult> Update(const table::ScanSpec& filter,
                                  const std::vector<table::Assignment>& assignments) override;
  Result<table::DmlResult> Delete(const table::ScanSpec& filter) override;
  Status Drop() override;

  // --- MVCC snapshots ---

  /// Pins the table's current committed state: the master generation plus
  /// the attached store at the last published commit timestamp, captured
  /// atomically. Scans built from the snapshot return byte-identical results
  /// to a scan executed at acquisition time, no matter how many EDITs,
  /// COMPACTs, or OVERWRITEs commit meanwhile. Unsynced (unacknowledged)
  /// EDIT cells are invisible. Releasing the last SnapshotPtr unpins the
  /// generation and lets deferred file GC run. `as_of` clamps the attached
  /// read timestamp further, for a time-travel read: the table as it looked
  /// when the attached table's clock was at `as_of` (see
  /// AttachedTable::LastTimestamp) is ScanBatchesAt(AcquireSnapshot(as_of),
  /// spec). Built on the HBase multi-version feature the paper highlights in
  /// §V-C; only history since the last COMPACT/OVERWRITE is reconstructible
  /// (both reset the clock).
  SnapshotPtr AcquireSnapshot(uint64_t as_of = UINT64_MAX) const;

  /// Snapshot-pinned scan: the explicit-snapshot form of ScanBatches. The
  /// snapshot-less ScanBatches acquires one per call, so every read through
  /// this table is snapshot-isolated; use this to hold one view across
  /// several scans (a SQL statement, a parallel scan's morsels).
  Result<std::unique_ptr<table::BatchIterator>> ScanBatchesAt(const SnapshotPtr& snapshot,
                                                              const table::ScanSpec& spec);

  /// Morsel planning against a pinned snapshot; pair with
  /// NewUnionReadBatchForMorselAt on the SAME snapshot so planned morsels
  /// and per-morsel scans agree on the file set.
  Result<std::vector<ScanMorsel>> PlanScanMorselsAt(const SnapshotPtr& snapshot,
                                                    const table::ScanSpec& spec,
                                                    size_t stripes_per_morsel);
  /// UNION READ over one morsel: the master stripe range merged with the
  /// attached modifications in the morsel's record-ID window, counted into
  /// `spec.meter` (a parallel scan points each worker's spec at its own).
  /// Order-insensitive consumers may run many of these concurrently; within
  /// a morsel, batches arrive in record-ID order. `fill` kNoAdmit reads
  /// cached columns without inserting the ones it decodes (a whole-file
  /// rewrite, whose output replaces what it reads).
  Result<std::unique_ptr<UnionReadBatchIterator>> NewUnionReadBatchForMorselAt(
      const SnapshotPtr& snapshot, const ScanMorsel& morsel, const table::ScanSpec& spec,
      orc::CacheFill fill = orc::CacheFill::kAdmit);

  /// Tracker behind the snapshot.* metric views.
  const SnapshotTracker* snapshot_tracker() const { return snapshot_tracker_.get(); }

  /// EDIT commit: publishes the attached store's clock as the new commit
  /// timestamp, making everything written so far visible to snapshots
  /// acquired afterwards. The DML paths call this after their WAL sync;
  /// code writing through attached() directly (UDTF-style extensions,
  /// white-box tests) must call it itself or its cells stay invisible.
  void PublishEditCommit();

  // --- DualTable-specific operations ---

  /// UPDATE with an explicit modification-ratio hint for the cost model
  /// ("directly be given by the designer"). With a `probe` (which `filter`
  /// must imply), an EDIT takes its matches from the secondary index at the
  /// statement snapshot instead of a UNION READ scan; the cells it writes are
  /// the same either way. OVERWRITE always rewrites from a scan.
  Result<table::DmlResult> UpdateWithHint(const table::ScanSpec& filter,
                                          const std::vector<table::Assignment>& assignments,
                                          std::optional<double> ratio_hint,
                                          const std::optional<IndexProbe>& probe = {});

  Result<table::DmlResult> DeleteWithHint(const table::ScanSpec& filter,
                                          std::optional<double> ratio_hint,
                                          const std::optional<IndexProbe>& probe = {});

  /// The plan UpdateWithHint/DeleteWithHint would execute right now for the
  /// given hint (ratio from the hint, else the metadata history, else the
  /// default). EXPLAIN renders these.
  DmlPlanChoice PlanUpdate(std::optional<double> ratio_hint) const;
  DmlPlanChoice PlanDelete(std::optional<double> ratio_hint) const;

  /// COMPACT (paper §III-C): folds the attached table into the master and
  /// empties it. It is the incremental fold at density 0: every file holding
  /// a delta gets one replacement (clean stripes raw-copied, dirty ones
  /// re-encoded, no roll), and delta-free files are kept. Blocks every other
  /// writer on this table. `tracer` as in CompactIncremental.
  Result<IncrementalCompactStats> Compact(obs::Tracer* tracer = nullptr);

  /// Incremental COMPACT: rewrites only the master files whose attached
  /// delta density crosses the cost-model threshold, file by file on the
  /// calling thread (clean stripes inside a rewritten file are raw-copied
  /// without decoding), publishes the swapped file set through the one
  /// manifest commit, then reclaims the retired files' attached cells. Kept
  /// files and their attached deltas are untouched, so read-after-update
  /// latency stays flat instead of saw-toothing on full rewrites. `tracer`
  /// (optional) receives compact-plan / compact-rewrite spans for EXPLAIN
  /// ANALYZE.
  Result<IncrementalCompactStats> CompactIncremental(obs::Tracer* tracer = nullptr);

  /// Plan-only views of what CompactIncremental / Compact would do right
  /// now: per-file and per-stripe delta densities plus the selection
  /// threshold. Make no writes; safe from any thread.
  Result<IncrementalCompactionPlan> PreviewIncrementalCompaction();
  Result<IncrementalCompactionPlan> PreviewFullCompaction();

  /// The density at/above which a file is rewritten: the explicit override
  /// when set, else the calibrated cost model's update crossover ratio for
  /// the current master size.
  double IncrementalDensityThreshold() const;

  /// One background-scheduler round of maintenance: observes stripe
  /// densities into the metrics histogram, runs incremental COMPACT when the
  /// plan selects files, and falls back to full COMPACT when attached bytes
  /// exceed the threshold without any single file being dense enough (or to
  /// the fold's reclamation when the bytes hold no live delta). With
  /// options_.adaptive_maintenance the round starts with a telemetry check
  /// (AdaptiveTriggerReason) and skips all of the above — preview scan
  /// included — until a trigger fires.
  void BackgroundMaintenance();

  /// True when the attached table exceeds the compaction threshold.
  bool NeedsCompaction() const;

  /// Cost-model decision that WOULD be taken for the given parameters
  /// (exposed for the cost-model ablation bench).
  PlanDecision PreviewUpdateDecision(double alpha) const;
  PlanDecision PreviewDeleteDecision(double beta) const;

  // --- Secondary index (point-lookup serving tier) ---

  /// Index-driven point lookup: resolves candidate record IDs for the probe
  /// values through the pinned index snapshot, fetches exactly the stripes
  /// holding them (through the shared stripe cache), patches attached
  /// modifications, and re-verifies the indexed column against the probes —
  /// so stale index entries are dropped, never served. Results are
  /// (record_id, row) pairs in ascending record-ID order, i.e. exactly the
  /// order and content a full UNION READ scan with `WHERE col IN (probes)`
  /// under the same snapshot would produce. Rows are projected per
  /// spec.projection (full width when empty) and filtered by spec.predicate.
  /// Fails when `column` is not indexed.
  Result<std::vector<std::pair<uint64_t, Row>>> IndexLookupAt(
      const SnapshotPtr& snapshot, size_t column, const std::vector<Value>& probes,
      const table::ScanSpec& spec);

  /// nullptr when options.indexed_columns is empty.
  SecondaryIndex* secondary_index() { return index_.get(); }

  MasterTable* master() { return master_.get(); }
  AttachedTable* attached() { return attached_.get(); }
  const CostModel& cost_model() const { return cost_model_; }
  /// Point-in-time copy of the cost-model coefficients (the calibration loop
  /// mutates them; a copy keeps cross-thread readers race-free).
  CostModelParams cost_model_params() const;

 private:
  DualTable(fs::SimFileSystem* fs, MetadataTable* metadata, std::string name,
            Schema schema, DualTableOptions options, const fs::ClusterModel* cluster)
      : fs_(fs),
        metadata_(metadata),
        name_(std::move(name)),
        schema_(std::move(schema)),
        options_(std::move(options)),
        cluster_(cluster),
        cost_model_(cluster, options_.cost_params) {}

  // All internal UNION READ constructors read from an explicit snapshot;
  // there is no latest-visible read path left (lint rule 8). `fill` as in
  // NewUnionReadBatchForMorselAt.
  Result<std::unique_ptr<UnionReadBatchIterator>> NewUnionReadBatch(
      const SnapshotPtr& snapshot, const table::ScanSpec& spec,
      orc::CacheFill fill = orc::CacheFill::kAdmit);
  /// Clears stripe-stat bounds when the snapshot's attached state could
  /// invalidate them.
  table::ScanSpec MasterSpecFor(const table::ScanSpec& spec,
                                const SnapshotPtr& snapshot) const;

  /// The one commit of every master rewrite (OVERWRITE, INSERT OVERWRITE,
  /// full and incremental COMPACT): swaps in `files` (kept files plus staged
  /// replacements) and reclaims the attached cells of every file that left
  /// the generation, as one atomic visibility event — a concurrent
  /// AcquireSnapshot sees either the old (generation, deltas) pair or the
  /// new one, never a torn mix. `strays` and `kept_deltas` as in
  /// ReclaimAttachedLocked. The manifest rename inside ReplaceAllFiles is the
  /// commit point; a failure before it discards the staged files.
  Status PublishRewrite(std::vector<MasterFileInfo> files,
                        const std::vector<uint64_t>& strays = {},
                        bool kept_deltas = false);

  /// Drops attached cells no reader can see: Clear() when no file of the
  /// generation holds a delta (`kept_deltas` false); otherwise tombstones
  /// every record in the retired files' record-ID ranges plus `strays`
  /// (records of files that had already left), then merges the KV store to
  /// drop them physically. Caller holds mu_ and snapshot_mu_.
  Status ReclaimAttachedLocked(const std::vector<uint64_t>& retired_files,
                               const std::vector<uint64_t>& strays, bool kept_deltas);

  /// Adaptive-maintenance decision (DESIGN.md §14): rotates the union-read
  /// latency window to "now", updates the decision gauges, and returns the
  /// trigger reason — "density" / "latency" / "bytes" — or nullptr when the
  /// round should be skipped. Reads only O(1) gauges and the histogram ring;
  /// never scans the attached store.
  const char* AdaptiveTriggerReason();

  /// Plan computation against a pinned snapshot (one attached scan, binned
  /// into stripe row windows two-pointer style); files at or above
  /// `threshold` density are selected.
  Result<IncrementalCompactionPlan> PreviewCompactionAt(const SnapshotPtr& snapshot,
                                                        double threshold) const;

  /// The fold behind both COMPACTs: plans at `threshold`, rewrites the
  /// selected files in file order, and publishes. With nothing selected it
  /// only reclaims attached garbage. Caller holds mu_.
  Result<IncrementalCompactStats> Fold(double threshold, obs::Tracer* tracer);

  /// Folds one selected file into `out` (at most one replacement): clean
  /// stripes are raw-copied, and each run of dirty stripes is read through
  /// the batch UNION READ as one morsel and re-encoded. Closes the file, so
  /// the next selected file starts its own replacement.
  Status FoldFile(const SnapshotPtr& snapshot, const FileCompactionPlan& file,
                  StagedFileWriter* out);

  /// Open-time index recovery: compares the index meta row against the
  /// table's (master generation, attached clock, column set) and rebuilds
  /// from a full UNION READ scan on any mismatch — the crash-consistency
  /// backstop for the stale-tolerant maintenance protocol.
  Status EnsureIndexFresh();
  Status RebuildIndex();

  /// Indexes freshly written (not yet visible) master files by streaming
  /// their indexed-column projection straight from ORC. Called BEFORE the
  /// generation swap so no snapshot can need entries that are not yet
  /// synced.
  Status IndexStagedFiles(const std::vector<MasterFileInfo>& files);

  /// Records the just-committed table state in the index meta row. Called
  /// after every visibility event; a crash beforehand only costs an
  /// Open-time rebuild.
  Status CommitIndexMeta();

  /// Builds the scan spec a DML statement needs (filter + assignment inputs).
  table::ScanSpec DmlScanSpec(const table::ScanSpec& filter,
                              const std::vector<table::Assignment>& assignments) const;

  Result<table::DmlResult> ExecuteEditUpdate(
      const table::ScanSpec& filter, const std::vector<table::Assignment>& assignments,
      const std::optional<IndexProbe>& probe);
  Result<table::DmlResult> ExecuteOverwriteUpdate(
      const table::ScanSpec& filter, const std::vector<table::Assignment>& assignments);
  Result<table::DmlResult> ExecuteEditDelete(const table::ScanSpec& filter,
                                             const std::optional<IndexProbe>& probe);
  Result<table::DmlResult> ExecuteOverwriteDelete(const table::ScanSpec& filter);

  /// Calls `fn(record_id, row)` for every row of `snapshot` matching `spec`,
  /// in record-ID order: through IndexLookupAt when `probe` is set, else a
  /// UNION READ scan. Sets result->index_lookup to the route taken.
  Status ForEachEditMatch(const SnapshotPtr& snapshot, const table::ScanSpec& spec,
                          const std::optional<IndexProbe>& probe,
                          const std::function<Status(uint64_t, const Row&)>& fn,
                          table::DmlResult* result);

  using RowTransform = std::function<bool(uint64_t record_id, Row* row)>;

  /// OVERWRITE: streams the whole table's union-read view through
  /// `transform` into staged files rolling at options_.rewrite_file_rows,
  /// then publishes them as the new generation. `transform` returns false to
  /// drop the row and may mutate it in place.
  Status RewriteMaster(const RowTransform& transform);

  DmlPlanChoice PlanDml(bool update, std::optional<double> ratio_hint) const;
  double AvgRowBytes() const;

  /// Feeds the duration histograms and (under kCostModel, when a cost_audit
  /// is wired) appends the predicted-vs-measured audit record for one DML
  /// statement. Index-routed EDITs are audited but never calibrate: the
  /// scan-based EDIT cost formula does not describe them.
  void RecordDmlObservation(const char* statement, const DmlPlanChoice& choice,
                            const table::DmlResult& result, double wall_seconds,
                            const fs::IoSnapshot& io_before);

  /// The shared body of UpdateWithHint/DeleteWithHint: runs `edit` or
  /// `overwrite` per `choice`, observes, and records the ratio history.
  Result<table::DmlResult> RunDml(
      const char* statement, const DmlPlanChoice& choice,
      const std::function<Result<table::DmlResult>()>& edit,
      const std::function<Result<table::DmlResult>()>& overwrite);

  /// Wraps a batch iterator so the UNION READ rows histogram observes the
  /// total rows it emitted; pass-through when no metrics are wired.
  std::unique_ptr<table::BatchIterator> ObserveUnionReadRows(
      std::unique_ptr<table::BatchIterator> it);

  fs::SimFileSystem* fs_;
  MetadataTable* metadata_;
  std::string name_;
  Schema schema_;
  DualTableOptions options_;
  const fs::ClusterModel* cluster_;
  CostModel cost_model_;
  /// Guards cost_model_: the calibration loop mutates its params on the DML
  /// thread while the scheduler thread reads crossover ratios for the
  /// incremental threshold. Leaf lock — never held while taking mu_ or
  /// snapshot_mu_.
  mutable std::mutex cost_model_mu_;
  obs::Histogram* edit_hist_ = nullptr;       // EDIT-plan DML wall seconds
  obs::Histogram* overwrite_hist_ = nullptr;  // OVERWRITE-plan DML wall seconds
  obs::Histogram* compact_hist_ = nullptr;    // COMPACT wall seconds
  obs::Histogram* union_read_rows_hist_ = nullptr;  // rows per UNION READ scan
  obs::Histogram* union_read_seconds_hist_ = nullptr;  // wall seconds per UNION READ
  obs::Histogram* incremental_compact_hist_ = nullptr;  // incremental COMPACT wall s
  obs::Histogram* stripe_density_hist_ = nullptr;       // density ppm per stripe
  obs::Counter* stripes_rewritten_ctr_ = nullptr;
  obs::Counter* stripes_copied_ctr_ = nullptr;
  obs::Counter* mods_folded_ctr_ = nullptr;
  obs::Gauge* edit_scale_gauge_ = nullptr;       // edit_cost_scale × 1e6
  obs::Gauge* overwrite_scale_gauge_ = nullptr;  // overwrite_cost_scale × 1e6
  // Adaptive-maintenance decision instruments (maintenance.*, DESIGN.md §14).
  // Counters/gauges are labeled by table; the trigger counters by reason.
  obs::Counter* maint_rounds_ctr_ = nullptr;
  obs::Counter* maint_skips_ctr_ = nullptr;
  obs::Counter* maint_incremental_ctr_ = nullptr;
  obs::Counter* maint_full_ctr_ = nullptr;
  obs::Counter* maint_reclaims_ctr_ = nullptr;
  obs::Counter* maint_trigger_density_ctr_ = nullptr;
  obs::Counter* maint_trigger_latency_ctr_ = nullptr;
  obs::Counter* maint_trigger_bytes_ctr_ = nullptr;
  obs::Gauge* maint_p95_gauge_ = nullptr;      // windowed union-read p95, µs
  obs::Gauge* maint_density_gauge_ = nullptr;  // attached-delta density, ppm
  std::unique_ptr<MasterTable> master_;
  std::unique_ptr<AttachedTable> attached_;
  /// KV-hosted secondary index; nullptr when no columns are indexed.
  std::unique_ptr<SecondaryIndex> index_;
  /// Serializes writers (DML, COMPACT). Reads no longer take it: they pin a
  /// snapshot and scan immutable state, so scans and COMPACT coexist.
  mutable std::recursive_mutex mu_;
  /// Guards the snapshot view (commit_ts_ + the generation/attached pair as
  /// one visibility unit). Ordering: mu_ before snapshot_mu_; never inverted.
  mutable std::mutex snapshot_mu_;
  /// Commit timestamp of the last acknowledged (WAL-synced) EDIT; snapshots
  /// read the attached store as of this clock value.
  uint64_t commit_ts_ = 0;
  /// Commit timestamp for the index store, advanced under snapshot_mu_ in
  /// the same critical section as the event whose entries it covers, so a
  /// snapshot's index view and table view always agree.
  uint64_t index_commit_ts_ = 0;
  std::shared_ptr<SnapshotTracker> snapshot_tracker_ =
      std::make_shared<SnapshotTracker>();
  uint64_t scheduler_job_ = 0;  // background-compaction handle; 0 = none
};

}  // namespace dtl::dual
