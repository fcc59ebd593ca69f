#include "dualtable/dual_table.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/stopwatch.h"
#include "dualtable/record_id.h"
#include "obs/cost_audit.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/telemetry_clock.h"
#include "obs/trace.h"

namespace dtl::dual {

namespace {

/// The modification ratio the cost model assumes when a statement carries no
/// hint and the metadata table has no history yet.
constexpr double kDefaultModificationRatio = 0.01;
/// How far back the adaptive-maintenance latency trigger looks.
constexpr uint64_t kAdaptiveWindowMicros = 8'000'000;

}  // namespace

size_t IncrementalCompactionPlan::selected_files() const {
  size_t n = 0;
  for (const FileCompactionPlan& f : files) n += f.selected ? 1 : 0;
  return n;
}

uint64_t IncrementalCompactionPlan::total_delta_rows() const {
  uint64_t n = 0;
  for (const FileCompactionPlan& f : files) n += f.delta_rows;
  return n;
}

std::string IncrementalCompactionPlan::ToString() const {
  std::ostringstream out;
  out << "compact plan: threshold=" << threshold << " files="
      << files.size() << " selected=" << selected_files() << " strays="
      << stray_record_ids.size();
  for (const FileCompactionPlan& f : files) {
    out << "\n  f_" << f.file_id << ": rows=" << f.rows << " deltas="
        << f.delta_rows << " density=" << f.density()
        << (f.selected ? " REWRITE" : " keep") << " stripes[";
    for (size_t s = 0; s < f.stripes.size(); ++s) {
      if (s > 0) out << " ";
      out << s << ":" << f.stripes[s].density();
    }
    out << "]";
  }
  return out.str();
}

std::string IncrementalCompactStats::ToString() const {
  std::ostringstream out;
  out << "rewrote " << files_selected << "/" << files_total << " files ("
      << stripes_rewritten << " stripes re-encoded, " << stripes_copied
      << " copied, " << rows_rewritten << " rows, " << mods_folded
      << " mods folded)";
  return out.str();
}

Result<std::shared_ptr<DualTable>> DualTable::Open(fs::SimFileSystem* fs,
                                                   MetadataTable* metadata,
                                                   const fs::ClusterModel* cluster,
                                                   const std::string& name, Schema schema,
                                                   DualTableOptions options) {
  auto dual = std::shared_ptr<DualTable>(
      new DualTable(fs, metadata, name, schema, std::move(options), cluster));
  DTL_ASSIGN_OR_RETURN(dual->master_,
                       MasterTable::Open(fs, metadata, name, std::move(schema),
                                         dual->options_.warehouse_dir,
                                         dual->options_.writer_options,
                                         dual->options_.stripe_cache));
  DTL_ASSIGN_OR_RETURN(dual->attached_,
                       AttachedTable::Open(fs, name, dual->options_.attached_options));
  // Everything recovered from the WAL was acknowledged before the crash, so
  // the initial commit timestamp is the recovered clock.
  dual->commit_ts_ = dual->attached_->LastTimestamp();
  if (!dual->options_.indexed_columns.empty()) {
    DTL_ASSIGN_OR_RETURN(
        dual->index_,
        SecondaryIndex::Open(fs, name, dual->options_.indexed_columns, dual->schema_,
                             dual->options_.attached_options));
    // Bind before the recovery check so an Open-time rebuild is counted.
    dual->index_->BindMetrics(dual->options_.metrics, name);
    // Recovery: a crash between a table commit and its index meta write
    // leaves a detectably stale index; rebuild it before serving lookups.
    DTL_RETURN_NOT_OK(dual->EnsureIndexFresh());
    dual->index_commit_ts_ = dual->index_->LastTimestamp();
  }
  if (dual->options_.metrics != nullptr) {
    obs::MetricsRegistry* metrics = dual->options_.metrics;
    dual->edit_hist_ = metrics->histogram(obs::names::kDualEditSeconds, name);
    dual->overwrite_hist_ = metrics->histogram(obs::names::kDualOverwriteSeconds, name);
    dual->compact_hist_ = metrics->histogram(obs::names::kDualCompactSeconds, name);
    dual->union_read_rows_hist_ =
        metrics->histogram(obs::names::kDualUnionReadRows, name);
    dual->union_read_seconds_hist_ =
        metrics->histogram(obs::names::kDualUnionReadSeconds, name);
    dual->incremental_compact_hist_ =
        metrics->histogram(obs::names::kDualIncrementalCompactSeconds, name);
    dual->stripe_density_hist_ =
        metrics->histogram(obs::names::kDualStripeDensityPpm, name);
    dual->stripes_rewritten_ctr_ =
        metrics->counter(obs::names::kDualStripesRewritten, name);
    dual->stripes_copied_ctr_ = metrics->counter(obs::names::kDualStripesCopied, name);
    dual->mods_folded_ctr_ = metrics->counter(obs::names::kDualModsFolded, name);
    dual->edit_scale_gauge_ = metrics->gauge(obs::names::kDualEditCostScalePpm, name);
    dual->overwrite_scale_gauge_ =
        metrics->gauge(obs::names::kDualOverwriteCostScalePpm, name);
    dual->edit_scale_gauge_->Set(
        static_cast<int64_t>(dual->options_.cost_params.edit_cost_scale * 1e6));
    dual->overwrite_scale_gauge_->Set(
        static_cast<int64_t>(dual->options_.cost_params.overwrite_cost_scale * 1e6));
    dual->maint_rounds_ctr_ = metrics->counter(obs::names::kMaintenanceRounds, name);
    dual->maint_skips_ctr_ = metrics->counter(obs::names::kMaintenanceSkips, name);
    dual->maint_incremental_ctr_ =
        metrics->counter(obs::names::kMaintenanceIncrementalCompacts, name);
    dual->maint_full_ctr_ = metrics->counter(obs::names::kMaintenanceFullCompacts, name);
    dual->maint_reclaims_ctr_ = metrics->counter(obs::names::kMaintenanceReclaims, name);
    dual->maint_trigger_density_ctr_ =
        metrics->counter(obs::names::kMaintenanceTriggers, "density");
    dual->maint_trigger_latency_ctr_ =
        metrics->counter(obs::names::kMaintenanceTriggers, "latency");
    dual->maint_trigger_bytes_ctr_ =
        metrics->counter(obs::names::kMaintenanceTriggers, "bytes");
    dual->maint_p95_gauge_ = metrics->gauge(obs::names::kMaintenanceUnionReadP95Us, name);
    dual->maint_density_gauge_ =
        metrics->gauge(obs::names::kMaintenanceDeltaDensityPpm, name);
  }
  if (dual->options_.scheduler != nullptr && dual->options_.background_compaction) {
    // Maintenance used to surface only through scans, so compaction debt
    // accumulated unobserved on write-only workloads; the scheduler polls it
    // instead. The raw pointer is safe: ~DualTable unregisters (blocking out
    // an in-flight poll) before members die.
    DualTable* raw = dual.get();
    dual->scheduler_job_ = dual->options_.scheduler->Register(
        "compact:" + name, [raw] { raw->BackgroundMaintenance(); });
  }
  return dual;
}

DualTable::~DualTable() {
  if (scheduler_job_ != 0) options_.scheduler->Unregister(scheduler_job_);
}

SnapshotPtr DualTable::AcquireSnapshot(uint64_t as_of) const {
  auto snap = std::make_shared<Snapshot>();
  {
    // The generation and the KV state must be captured as one unit: pairing
    // them non-atomically around a PublishRewrite could combine the OLD
    // generation with the CLEARED attached store and silently drop every
    // delta the rewrite folded in.
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snap->generation = master_->CurrentGeneration();
    snap->attached = attached_->store()->GetSnapshot();
    // Clamp visibility to the last acknowledged EDIT: cells an in-flight
    // statement already wrote (timestamps past commit_ts_) stay invisible
    // until its WAL sync publishes them. A time-travel read clamps further.
    snap->attached.read_ts = std::min({snap->attached.read_ts, commit_ts_, as_of});
    if (index_ != nullptr) {
      // Same clamp for the index store: entries an in-flight statement wrote
      // ahead of its commit stay invisible, so the index view and the table
      // view agree under every snapshot.
      snap->index = index_->GetSnapshot();
      snap->index.read_ts = std::min(snap->index.read_ts, index_commit_ts_);
      snap->has_index = true;
    }
  }
  // Exact emptiness of the PINNED state — AttachedTable::Empty() reads the
  // live store, which a concurrent EDIT mutates. The pinned SST set is
  // immutable; the pinned memtable only grows, which can only flip the
  // answer to "not empty" — the conservative direction (disables stripe-stat
  // pruning that an empty attached table would have allowed).
  uint64_t cells =
      snap->attached.mem != nullptr ? snap->attached.mem->cell_count() : 0;
  for (const auto& sst : snap->attached.tables) cells += sst->cell_count();
  snap->attached_empty = cells == 0;
  snap->tracker = snapshot_tracker_;
  snap->tracker_token = snapshot_tracker_->OnAcquire();
  return snap;
}

void DualTable::PublishEditCommit() {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  commit_ts_ = attached_->LastTimestamp();
  // The statement's index entries were written (and synced) before its
  // attached cells, so publishing both clocks together can only expose
  // entries whose table state is already visible.
  if (index_ != nullptr) index_commit_ts_ = index_->LastTimestamp();
}

Status DualTable::PublishRewrite(std::vector<MasterFileInfo> files,
                                 const std::vector<uint64_t>& strays, bool kept_deltas) {
  // Caller holds mu_ (writers are serialized).
  std::unordered_set<uint64_t> surviving;
  std::vector<MasterFileInfo> fresh;  // staged by this rewrite; no birth stamp yet
  for (const MasterFileInfo& f : files) {
    surviving.insert(f.file_id);
    if (f.born_generation == 0) fresh.push_back(f);
  }
  std::vector<uint64_t> retired;  // ascending, like the generation's files
  for (const MasterFileInfo& f : master_->files()) {
    if (surviving.count(f.file_id) == 0) retired.push_back(f.file_id);
  }
  if (index_ != nullptr) {
    // Index the staged files BEFORE the swap: once the new generation is
    // visible, a snapshot may need their entries, and the stale-tolerant
    // protocol only permits extra entries, never missing ones. A crash after
    // this stage leaves entries for orphan files — harmless, verified away.
    Status st = IndexStagedFiles(fresh);
    if (st.ok()) st = index_->Sync();
    if (!st.ok()) {
      std::vector<std::string> paths;
      for (const MasterFileInfo& f : fresh) paths.push_back(f.path);
      master_->DiscardStaged(paths);
      return st;
    }
  }
  {
    // snapshot_mu_ nests inside mu_: a concurrent AcquireSnapshot sees the
    // old (generation, deltas) pair or the new one, never a torn mix.
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    DTL_RETURN_NOT_OK(master_->ReplaceAllFiles(std::move(files)));
    // The manifest rename above is the commit point. The reclamation only
    // drops attached cells whose file IDs just died; a crash that loses it is
    // harmless (UNION READ is master-driven, so cells with no master row
    // never surface) and the next COMPACT collects them as strays.
    DTL_RETURN_NOT_OK(ReclaimAttachedLocked(retired, strays, kept_deltas));
    if (index_ != nullptr) index_commit_ts_ = index_->LastTimestamp();
  }
  if (index_ != nullptr) {
    // Post-commit cleanup: entries of the retired files are unreachable
    // (their file IDs left the generation), fold them out and record the
    // committed state. A crash here only costs an Open-time rebuild.
    DTL_RETURN_NOT_OK(
        index_->FoldDeadFiles(std::unordered_set<uint64_t>(retired.begin(), retired.end())));
    DTL_RETURN_NOT_OK(CommitIndexMeta());
  }
  return Status::OK();
}

Status DualTable::ReclaimAttachedLocked(const std::vector<uint64_t>& retired_files,
                                        const std::vector<uint64_t>& strays,
                                        bool kept_deltas) {
  // Caller holds mu_ and snapshot_mu_.
  if (!kept_deltas) {
    // No file of the generation holds a delta, so the store holds nothing a
    // reader can see: drop it wholesale.
    DTL_RETURN_NOT_OK(attached_->Clear());
  } else {
    // Collect first, tombstone second: a scan must not walk rows it is
    // writing tombstones into.
    std::vector<uint64_t> doomed = strays;
    const kv::KvSnapshot live = attached_->store()->GetSnapshot();
    for (uint64_t file_id : retired_files) {
      auto mods = attached_->NewScannerAt(live, MakeRecordId(file_id, 0),
                                          MakeRecordId(file_id + 1, 0));
      while (mods->Next()) doomed.push_back(mods->modification().record_id);
      DTL_RETURN_NOT_OK(mods->status());
    }
    for (uint64_t rid : doomed) {
      DTL_RETURN_NOT_OK(attached_->store()->DeleteRow(RecordIdKey(rid)));
    }
    // Tombstones alone would grow the byte debt NeedsCompaction() watches;
    // the KV merge drops them together with the cells they mask, leaving
    // only the kept files' live deltas.
    DTL_RETURN_NOT_OK(attached_->store()->Compact());
  }
  // Publish the reclamation to future snapshots. No in-flight EDIT can be
  // straddling this (mu_ serializes writers), so the store clock is quiescent.
  commit_ts_ = attached_->LastTimestamp();
  return Status::OK();
}

table::ScanSpec DualTable::MasterSpecFor(const table::ScanSpec& spec,
                                         const SnapshotPtr& snapshot) const {
  table::ScanSpec master_spec = spec;
  // Attached updates can move cell values across stripe-stat boundaries, so
  // stats pruning is only sound when the snapshot's attached state is empty.
  if (!snapshot->attached_empty) master_spec.bounds.clear();
  return master_spec;
}

Result<std::unique_ptr<UnionReadBatchIterator>> DualTable::NewUnionReadBatch(
    const SnapshotPtr& snapshot, const table::ScanSpec& spec, orc::CacheFill fill) {
  DTL_ASSIGN_OR_RETURN(auto master_it,
                       master_->NewBatchScanIterator(snapshot->generation,
                                                     MasterSpecFor(spec, snapshot),
                                                     /*apply_predicate=*/false,
                                                     options_.scan_batch_rows, fill));
  auto it = std::make_unique<UnionReadBatchIterator>(
      std::move(master_it), attached_->NewScannerAt(snapshot->attached), spec, schema_);
  it->AnchorSnapshot(snapshot);
  return it;
}

Result<std::vector<ScanMorsel>> DualTable::PlanScanMorselsAt(
    const SnapshotPtr& snapshot, const table::ScanSpec& spec,
    size_t stripes_per_morsel) {
  return master_->PlanMorsels(snapshot->generation, MasterSpecFor(spec, snapshot),
                              stripes_per_morsel);
}

Result<std::unique_ptr<UnionReadBatchIterator>> DualTable::NewUnionReadBatchForMorselAt(
    const SnapshotPtr& snapshot, const ScanMorsel& morsel, const table::ScanSpec& spec,
    orc::CacheFill fill) {
  DTL_ASSIGN_OR_RETURN(auto master_it, master_->NewMorselBatchScanIterator(
                                           snapshot->generation, morsel,
                                           MasterSpecFor(spec, snapshot),
                                           /*apply_predicate=*/false,
                                           options_.scan_batch_rows, fill));
  auto attached_it = attached_->NewScannerAt(snapshot->attached,
                                             morsel.first_record_id,
                                             morsel.end_record_id);
  auto it = std::make_unique<UnionReadBatchIterator>(std::move(master_it),
                                                     std::move(attached_it), spec, schema_);
  it->AnchorSnapshot(snapshot);
  return it;
}

namespace {

// Counts the rows a UNION READ scan emits and reports the total — plus the
// scan's wall seconds, construction to destruction — into the per-table
// histograms when the scan ends (destruction = end of scan, whether drained
// or abandoned). The seconds histogram's window ring is what the adaptive
// maintenance latency trigger reads.
class RowsObservingBatchIterator : public table::BatchIterator {
 public:
  RowsObservingBatchIterator(std::unique_ptr<table::BatchIterator> inner,
                             obs::Histogram* rows_hist, obs::Histogram* seconds_hist)
      : inner_(std::move(inner)), rows_hist_(rows_hist), seconds_hist_(seconds_hist) {}
  ~RowsObservingBatchIterator() override {
    rows_hist_->Observe(rows_);
    if (seconds_hist_ != nullptr) seconds_hist_->ObserveSeconds(watch_.ElapsedSeconds());
  }

  bool Next(table::RowBatch* batch) override {
    if (!inner_->Next(batch)) return false;
    rows_ += batch->size();
    return true;
  }
  const Status& status() const override { return inner_->status(); }

 private:
  std::unique_ptr<table::BatchIterator> inner_;
  obs::Histogram* rows_hist_;
  obs::Histogram* seconds_hist_;
  uint64_t rows_ = 0;
  Stopwatch watch_;
};

}  // namespace

std::unique_ptr<table::BatchIterator> DualTable::ObserveUnionReadRows(
    std::unique_ptr<table::BatchIterator> it) {
  if (union_read_rows_hist_ == nullptr) return it;
  return std::make_unique<RowsObservingBatchIterator>(
      std::move(it), union_read_rows_hist_, union_read_seconds_hist_);
}

Result<std::unique_ptr<table::BatchIterator>> DualTable::ScanBatches(
    const table::ScanSpec& spec) {
  return ScanBatchesAt(AcquireSnapshot(), spec);
}

Result<std::unique_ptr<table::BatchIterator>> DualTable::ScanBatchesAt(
    const SnapshotPtr& snapshot, const table::ScanSpec& spec) {
  DTL_ASSIGN_OR_RETURN(auto it, NewUnionReadBatch(snapshot, spec));
  return ObserveUnionReadRows(std::move(it));
}

Status DualTable::InsertRows(const std::vector<Row>& rows) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (rows.empty()) return Status::OK();
  DTL_ASSIGN_OR_RETURN(auto writer, master_->NewFileWriter());
  for (const Row& row : rows) DTL_RETURN_NOT_OK(writer->Append(row));
  DTL_ASSIGN_OR_RETURN(auto info, writer->Close());
  if (index_ != nullptr) {
    // Entries first, visibility second: the new file's entries must be
    // durable and published before RegisterFile makes its rows reachable.
    // Until RegisterFile lands, the entries point at a file outside every
    // generation and lookups drop them as stale.
    const uint64_t file_id = info.file_id;
    for (size_t i = 0; i < rows.size(); ++i) {
      DTL_RETURN_NOT_OK(index_->AddRow(rows[i], MakeRecordId(file_id, i)));
    }
    DTL_RETURN_NOT_OK(index_->Sync());
    std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
    index_commit_ts_ = index_->LastTimestamp();
  }
  // RegisterFile publishes the successor generation on its own: an INSERT
  // never touches the attached store, so there is no torn pairing for a
  // concurrent AcquireSnapshot to observe.
  DTL_RETURN_NOT_OK(master_->RegisterFile(std::move(info)));
  return CommitIndexMeta();
}

Status DualTable::OverwriteRows(const std::vector<Row>& rows) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  StagedFileWriter out(master_.get(), options_.rewrite_file_rows);
  for (const Row& row : rows) DTL_RETURN_NOT_OK(out.Append(row));
  DTL_ASSIGN_OR_RETURN(std::vector<MasterFileInfo> files, out.Finish());
  return PublishRewrite(std::move(files));
}

table::ScanSpec DualTable::DmlScanSpec(
    const table::ScanSpec& filter, const std::vector<table::Assignment>& assignments) const {
  table::ScanSpec spec = filter;
  // The DML scan must materialize the predicate columns plus everything the
  // SET expressions read. Fold those into the projection.
  std::vector<size_t> needed = filter.predicate_columns;
  for (const auto& a : assignments) {
    needed.insert(needed.end(), a.input_columns.begin(), a.input_columns.end());
  }
  if (needed.empty()) needed.push_back(0);
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  spec.projection = needed;
  return spec;
}

const char* RatioSourceName(RatioSource source) {
  switch (source) {
    case RatioSource::kHint: return "hint";
    case RatioSource::kHistory: return "metadata history";
    case RatioSource::kDefault: return "default";
  }
  return "unknown";
}

DmlPlanChoice DualTable::PlanDml(bool update, std::optional<double> ratio_hint) const {
  DmlPlanChoice choice;
  switch (options_.plan_mode) {
    case DualTableOptions::PlanMode::kForceEdit:
      choice.plan = table::DmlPlan::kEdit;
      return choice;
    case DualTableOptions::PlanMode::kForceOverwrite:
      choice.plan = table::DmlPlan::kOverwrite;
      return choice;
    case DualTableOptions::PlanMode::kCostModel:
      break;
  }
  choice.cost_model = true;
  choice.ratio = kDefaultModificationRatio;
  if (ratio_hint.has_value()) {
    choice.ratio = std::clamp(*ratio_hint, 0.0, 1.0);
    choice.ratio_source = RatioSource::kHint;
  } else if (auto hist = metadata_->HistoricalModificationRatio(name_);
             hist.ok() && hist->has_value()) {
    choice.ratio = std::clamp(**hist, 0.0, 1.0);
    choice.ratio_source = RatioSource::kHistory;
  }
  choice.decision = update ? PreviewUpdateDecision(choice.ratio)
                           : PreviewDeleteDecision(choice.ratio);
  choice.plan = choice.decision.plan;
  return choice;
}

DmlPlanChoice DualTable::PlanUpdate(std::optional<double> ratio_hint) const {
  return PlanDml(/*update=*/true, ratio_hint);
}

DmlPlanChoice DualTable::PlanDelete(std::optional<double> ratio_hint) const {
  return PlanDml(/*update=*/false, ratio_hint);
}

double DualTable::AvgRowBytes() const {
  const uint64_t rows = master_->TotalRows();
  if (rows == 0) return 1.0;
  return static_cast<double>(master_->TotalBytes()) / static_cast<double>(rows);
}

PlanDecision DualTable::PreviewUpdateDecision(double alpha) const {
  std::lock_guard<std::mutex> lock(cost_model_mu_);
  return cost_model_.DecideUpdate(master_->TotalBytes(), alpha);
}

PlanDecision DualTable::PreviewDeleteDecision(double beta) const {
  std::lock_guard<std::mutex> lock(cost_model_mu_);
  return cost_model_.DecideDelete(master_->TotalBytes(), beta, AvgRowBytes());
}

CostModelParams DualTable::cost_model_params() const {
  std::lock_guard<std::mutex> lock(cost_model_mu_);
  return cost_model_.params();
}

Result<table::DmlResult> DualTable::Update(
    const table::ScanSpec& filter, const std::vector<table::Assignment>& assignments) {
  return UpdateWithHint(filter, assignments, std::nullopt);
}

Result<table::DmlResult> DualTable::UpdateWithHint(
    const table::ScanSpec& filter, const std::vector<table::Assignment>& assignments,
    std::optional<double> ratio_hint, const std::optional<IndexProbe>& probe) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (assignments.empty()) return Status::InvalidArgument("UPDATE with no assignments");
  return RunDml(
      "UPDATE", PlanUpdate(ratio_hint),
      [&] { return ExecuteEditUpdate(filter, assignments, probe); },
      [&] { return ExecuteOverwriteUpdate(filter, assignments); });
}

Result<table::DmlResult> DualTable::RunDml(
    const char* statement, const DmlPlanChoice& choice,
    const std::function<Result<table::DmlResult>()>& edit,
    const std::function<Result<table::DmlResult>()>& overwrite) {
  // Caller holds mu_.
  const fs::IoSnapshot io_before = fs_->meter()->Snapshot();
  Stopwatch watch;
  Result<table::DmlResult> result =
      choice.plan == table::DmlPlan::kEdit ? edit() : overwrite();
  if (result.ok()) {
    RecordDmlObservation(statement, choice, *result, watch.ElapsedSeconds(), io_before);
  }
  if (result.ok() && result->rows_scanned > 0) {
    // Propagate metadata failures: a silently stale modification ratio would
    // skew every later cost-model plan choice (found by the nodiscard sweep).
    DTL_RETURN_NOT_OK(metadata_->RecordModificationRatio(
        name_, static_cast<double>(result->rows_matched) /
                   static_cast<double>(result->rows_scanned)));
  }
  return result;
}

Status DualTable::ForEachEditMatch(const SnapshotPtr& snapshot,
                                   const table::ScanSpec& spec,
                                   const std::optional<IndexProbe>& probe,
                                   const std::function<Status(uint64_t, const Row&)>& fn,
                                   table::DmlResult* result) {
  result->index_lookup = probe.has_value();
  if (probe.has_value()) {
    // Keyed route: IndexLookupAt returns exactly the rows a UNION READ scan
    // with `spec` would emit at this snapshot (deduplicated, record-ID
    // order, delta-patched, probe re-verified, filtered by the whole
    // predicate), at the cost of the rows it touches.
    DTL_ASSIGN_OR_RETURN(auto matches,
                         IndexLookupAt(snapshot, probe->column, probe->values, spec));
    for (const auto& [rid, row] : matches) DTL_RETURN_NOT_OK(fn(rid, row));
    return Status::OK();
  }
  // Scan route: the predicate is applied inside the union read, whose
  // stripes come from (and warm) the shared column cache.
  DTL_ASSIGN_OR_RETURN(auto it, NewUnionReadBatch(snapshot, spec));
  return table::ForEachRow(it.get(),
                          [&fn](uint64_t rid, Row* row) { return fn(rid, *row); });
}

Result<table::DmlResult> DualTable::ExecuteEditUpdate(
    const table::ScanSpec& filter, const std::vector<table::Assignment>& assignments,
    const std::optional<IndexProbe>& probe) {
  // The paper's UPDATE UDTF: find the matching records in the up-to-date
  // view, and for each put the new field values into the attached table.
  // The matches come from a snapshot acquired at statement start, so the
  // statement's own puts can never feed back into them.
  table::ScanSpec spec = DmlScanSpec(filter, assignments);
  SnapshotPtr snapshot = AcquireSnapshot();
  table::DmlResult result;
  result.plan = table::DmlPlan::kEdit;
  struct PendingUpdate {
    uint64_t record_id;
    uint32_t column;
    Value value;
  };
  std::vector<PendingUpdate> pending;
  DTL_RETURN_NOT_OK(ForEachEditMatch(
      snapshot, spec, probe,
      [&](uint64_t record_id, const Row& row) {
        ++result.rows_matched;
        for (const table::Assignment& a : assignments) {
          pending.push_back(
              PendingUpdate{record_id, static_cast<uint32_t>(a.column), a.compute(row)});
        }
        return Status::OK();
      },
      &result));
  if (index_ != nullptr) {
    // Index entries for the new values go in (and sync) before the attached
    // cells: a crash in between leaves extra entries that lookups verify
    // away, whereas the reverse order could leave a visible update with no
    // entry — the one hazard the stale-tolerant protocol excludes.
    for (const PendingUpdate& p : pending) {
      if (index_->IndexesColumn(p.column)) {
        DTL_RETURN_NOT_OK(index_->Add(p.column, p.value, p.record_id));
      }
    }
    DTL_RETURN_NOT_OK(index_->Sync());
  }
  for (const PendingUpdate& p : pending) {
    DTL_RETURN_NOT_OK(attached_->PutUpdate(p.record_id, p.column, p.value));
  }
  // The statement is acknowledged on return, so its attached-table cells
  // must be WAL-durable first: a crash after the ack must replay them.
  DTL_RETURN_NOT_OK(attached_->Sync());
  // Only now do the cells become visible — a snapshot acquired during the
  // statement reads the pre-statement commit timestamp.
  PublishEditCommit();
  DTL_RETURN_NOT_OK(CommitIndexMeta());
  result.rows_scanned = snapshot->generation->TotalRows();
  return result;
}

Status DualTable::RewriteMaster(const RowTransform& transform) {
  // Stream the merged view into a staged new master generation. The rewrite
  // folds deltas up to its snapshot's commit timestamp; writers are
  // serialized under mu_, so nothing can commit past it before the publish.
  // Its output replaces every file it reads, so it admits nothing to the
  // stripe cache.
  SnapshotPtr snapshot = AcquireSnapshot();
  table::ScanSpec all;  // every column, no predicate
  DTL_ASSIGN_OR_RETURN(auto it,
                       NewUnionReadBatch(snapshot, all, orc::CacheFill::kNoAdmit));
  StagedFileWriter out(master_.get(), options_.rewrite_file_rows);
  DTL_RETURN_NOT_OK(table::ForEachRow(it.get(), [&](uint64_t rid, Row* row) -> Status {
    return transform(rid, row) ? out.Append(*row) : Status::OK();
  }));
  DTL_ASSIGN_OR_RETURN(std::vector<MasterFileInfo> files, out.Finish());
  return PublishRewrite(std::move(files));
}

Result<table::DmlResult> DualTable::ExecuteOverwriteUpdate(
    const table::ScanSpec& filter, const std::vector<table::Assignment>& assignments) {
  // Hive's INSERT OVERWRITE path: rewrite every row, with matching rows
  // getting their SET columns replaced; ends with a fresh empty attached
  // table (paper §III-C).
  table::DmlResult result;
  result.plan = table::DmlPlan::kOverwrite;
  result.rows_scanned = master_->TotalRows();
  auto transform = [&](uint64_t, Row* row) {
    if (!filter.predicate || filter.predicate(*row)) {
      ++result.rows_matched;
      for (const table::Assignment& a : assignments) (*row)[a.column] = a.compute(*row);
    }
    return true;
  };
  DTL_RETURN_NOT_OK(RewriteMaster(transform));
  return result;
}

Result<table::DmlResult> DualTable::Delete(const table::ScanSpec& filter) {
  return DeleteWithHint(filter, std::nullopt);
}

Result<table::DmlResult> DualTable::DeleteWithHint(
    const table::ScanSpec& filter, std::optional<double> ratio_hint,
    const std::optional<IndexProbe>& probe) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return RunDml(
      "DELETE", PlanDelete(ratio_hint), [&] { return ExecuteEditDelete(filter, probe); },
      [&] { return ExecuteOverwriteDelete(filter); });
}

Result<table::DmlResult> DualTable::ExecuteEditDelete(
    const table::ScanSpec& filter, const std::optional<IndexProbe>& probe) {
  // The paper's DELETE UDTF: put a DELETE marker for each matching record.
  // Snapshot semantics match ExecuteEditUpdate.
  table::ScanSpec spec = DmlScanSpec(filter, {});
  SnapshotPtr snapshot = AcquireSnapshot();
  table::DmlResult result;
  result.plan = table::DmlPlan::kEdit;
  DTL_RETURN_NOT_OK(ForEachEditMatch(
      snapshot, spec, probe,
      [&](uint64_t record_id, const Row&) {
        ++result.rows_matched;
        return attached_->PutDeleteMarker(record_id);
      },
      &result));
  // Same durability contract as ExecuteEditUpdate: sync before the ack.
  DTL_RETURN_NOT_OK(attached_->Sync());
  PublishEditCommit();
  // Deletes add no index entries (the deleted rows' entries become stale and
  // are dropped at verify time), but the meta row must track the commit or
  // the next Open would rebuild for nothing.
  DTL_RETURN_NOT_OK(CommitIndexMeta());
  result.rows_scanned = snapshot->generation->TotalRows();
  return result;
}

Result<table::DmlResult> DualTable::ExecuteOverwriteDelete(const table::ScanSpec& filter) {
  table::DmlResult result;
  result.plan = table::DmlPlan::kOverwrite;
  result.rows_scanned = master_->TotalRows();
  auto transform = [&](uint64_t, Row* row) {
    if (!filter.predicate || filter.predicate(*row)) {
      ++result.rows_matched;
      return false;  // drop the row
    }
    return true;
  };
  DTL_RETURN_NOT_OK(RewriteMaster(transform));
  return result;
}

Result<IncrementalCompactStats> DualTable::Compact(obs::Tracer* tracer) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (attached_->Empty()) {
    IncrementalCompactStats stats;
    stats.files_total = master_->CurrentGeneration()->files().size();
    return stats;
  }
  Stopwatch watch;
  // Density 0 selects every file holding a delta, so no kept file holds one
  // and the publish empties the attached store.
  DTL_ASSIGN_OR_RETURN(IncrementalCompactStats stats,
                       Fold(/*threshold=*/0.0, tracer));
  if (compact_hist_ != nullptr) compact_hist_->ObserveSeconds(watch.ElapsedSeconds());
  return stats;
}

double DualTable::IncrementalDensityThreshold() const {
  if (options_.incremental_density_override >= 0) {
    return std::min(options_.incremental_density_override, 1.0);
  }
  // The update crossover ratio is the modification fraction where folding
  // into the master (OVERWRITE economics) beats keeping deltas attached;
  // files whose accumulated density reaches it are worth rewriting. The
  // floor keeps a tiny master from making every stripe "dense".
  std::lock_guard<std::mutex> lock(cost_model_mu_);
  return std::clamp(cost_model_.UpdateCrossoverRatio(master_->TotalBytes()), 0.01, 1.0);
}

Result<IncrementalCompactionPlan> DualTable::PreviewIncrementalCompaction() {
  return PreviewCompactionAt(AcquireSnapshot(), IncrementalDensityThreshold());
}

Result<IncrementalCompactionPlan> DualTable::PreviewFullCompaction() {
  return PreviewCompactionAt(AcquireSnapshot(), /*threshold=*/0.0);
}

Result<IncrementalCompactionPlan> DualTable::PreviewCompactionAt(const SnapshotPtr& snapshot,
                                                                 double threshold) const {
  IncrementalCompactionPlan plan;
  plan.threshold = threshold;
  const std::vector<MasterFileInfo>& gen_files = snapshot->generation->files();
  plan.files.reserve(gen_files.size());
  for (const MasterFileInfo& info : gen_files) {
    DTL_ASSIGN_OR_RETURN(auto reader,
                         master_->OpenReader(snapshot->generation, info.file_id));
    FileCompactionPlan f;
    f.file_id = info.file_id;
    f.rows = info.num_rows;
    f.bytes = info.bytes;
    f.stripes.reserve(reader->num_stripes());
    for (size_t s = 0; s < reader->num_stripes(); ++s) {
      const orc::StripeInfo& st = reader->stripe(s);
      f.stripes.push_back(StripeDensity{info.file_id, s, st.first_row, st.num_rows, 0});
    }
    plan.files.push_back(std::move(f));
  }
  // One ascending pass over every pinned attached modification, binned
  // two-pointer style: files ascend by ID and stripes tile each file's row
  // space, so both cursors only ever move forward.
  auto mods = attached_->NewScannerAt(snapshot->attached);
  size_t fi = 0;
  size_t si = 0;
  while (mods->Next()) {
    const uint64_t rid = mods->modification().record_id;
    const uint64_t fid = RecordFileId(rid);
    const uint64_t row = RecordRowNumber(rid);
    while (fi < plan.files.size() && plan.files[fi].file_id < fid) {
      ++fi;
      si = 0;
    }
    if (fi >= plan.files.size() || plan.files[fi].file_id != fid) {
      // No such master file (leftovers of an earlier rewrite): invisible to
      // UNION READ; the next publish tombstones them.
      plan.stray_record_ids.push_back(rid);
      continue;
    }
    FileCompactionPlan& f = plan.files[fi];
    while (si < f.stripes.size() && f.stripes[si].first_row + f.stripes[si].rows <= row) {
      ++si;
    }
    if (si < f.stripes.size() && row >= f.stripes[si].first_row) {
      ++f.stripes[si].delta_rows;
      ++f.delta_rows;
    } else {
      // Row number beyond the file's stripes: also unreachable garbage.
      plan.stray_record_ids.push_back(rid);
    }
  }
  DTL_RETURN_NOT_OK(mods->status());
  for (FileCompactionPlan& f : plan.files) {
    f.selected = f.rows > 0 && f.delta_rows > 0 && f.density() >= plan.threshold;
  }
  return plan;
}

Status DualTable::FoldFile(const SnapshotPtr& snapshot, const FileCompactionPlan& file,
                           StagedFileWriter* out) {
  DTL_ASSIGN_OR_RETURN(auto reader,
                       master_->OpenReader(snapshot->generation, file.file_id));
  auto dirty = [&file](size_t s) {
    return s < file.stripes.size() && file.stripes[s].delta_rows > 0;
  };
  const table::ScanSpec all;  // every column, no predicate
  for (size_t s = 0; s < reader->num_stripes();) {
    if (!dirty(s)) {
      // Clean stripe: carry the encoded bytes (and their CRCs/stats) across
      // verbatim — no decode, no re-encode.
      DTL_ASSIGN_OR_RETURN(std::string raw, reader->ReadRawStripe(s));
      DTL_RETURN_NOT_OK(out->AppendRawStripe(reader->stripe(s), raw));
      ++s;
      continue;
    }
    // A run of dirty stripes is one morsel of the batch UNION READ: updates
    // patched, deletes masked, rows re-encoded. The replacement supersedes
    // this file, so the read admits nothing to the stripe cache.
    ScanMorsel run;
    run.file_id = file.file_id;
    run.stripe_begin = s;
    while (s < reader->num_stripes() && dirty(s)) ++s;
    run.stripe_end = s;
    const orc::StripeInfo& last = reader->stripe(s - 1);
    run.first_record_id =
        MakeRecordId(file.file_id, reader->stripe(run.stripe_begin).first_row);
    run.end_record_id = MakeRecordId(file.file_id, last.first_row + last.num_rows);
    DTL_ASSIGN_OR_RETURN(auto it, NewUnionReadBatchForMorselAt(snapshot, run, all,
                                                               orc::CacheFill::kNoAdmit));
    DTL_RETURN_NOT_OK(table::ForEachRow(
        it.get(), [out](uint64_t, Row* row) { return out->Append(*row); }));
  }
  return out->CloseFile();
}

Result<IncrementalCompactStats> DualTable::Fold(double threshold, obs::Tracer* tracer) {
  // Caller holds mu_.
  SnapshotPtr snapshot = AcquireSnapshot();
  IncrementalCompactionPlan plan;
  {
    obs::Span span(tracer, obs::names::kSpanCompactPlan);
    DTL_ASSIGN_OR_RETURN(plan, PreviewCompactionAt(snapshot, threshold));
    span.AddRows(plan.total_delta_rows());
    span.SetDetail(std::to_string(plan.selected_files()) + "/" +
                   std::to_string(plan.files.size()) + " files >= " +
                   std::to_string(plan.threshold));
  }
  // The stats follow from the plan alone.
  IncrementalCompactStats stats;
  stats.files_total = plan.files.size();
  stats.files_selected = plan.selected_files();
  stats.mods_folded = plan.stray_record_ids.size();
  bool kept_deltas = false;
  for (const FileCompactionPlan& f : plan.files) {
    if (!f.selected) {
      kept_deltas |= f.delta_rows > 0;
      continue;
    }
    stats.mods_folded += f.delta_rows;
    for (const StripeDensity& st : f.stripes) {
      if (st.delta_rows > 0) {
        ++stats.stripes_rewritten;
        stats.rows_rewritten += st.rows;
      } else {
        ++stats.stripes_copied;
      }
    }
  }
  if (stats.files_selected == 0) {
    // Nothing to rewrite. Garbage may still sit in the store — strays, or,
    // when no file holds a delta, tombstones and the cells they mask — so
    // drop it without touching the master generation.
    if (!plan.stray_record_ids.empty() || (!kept_deltas && !attached_->Empty())) {
      {
        std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
        DTL_RETURN_NOT_OK(ReclaimAttachedLocked({}, plan.stray_record_ids, kept_deltas));
      }
      // Record the new attached clock so the next Open's freshness check
      // doesn't mistake this reclamation for a lost commit.
      DTL_RETURN_NOT_OK(CommitIndexMeta());
    }
    return stats;
  }

  // Each selected file gets one replacement (none when every row is
  // deleted), written in file order through one writer that never rolls.
  // Kept files carry over verbatim: same path, same file ID, so their record
  // IDs — and their still-attached deltas — stay valid across the swap. A
  // failure drops the writer unfinished, which discards what it staged.
  StagedFileWriter out(master_.get(), /*roll_rows=*/UINT64_MAX);
  std::vector<MasterFileInfo> files;
  {
    obs::Span span(tracer, obs::names::kSpanCompactRewrite);
    const std::vector<MasterFileInfo>& gen_files = snapshot->generation->files();
    for (size_t i = 0; i < gen_files.size(); ++i) {
      if (plan.files[i].selected) {
        DTL_RETURN_NOT_OK(FoldFile(snapshot, plan.files[i], &out));
      } else {
        files.push_back(gen_files[i]);
      }
    }
    span.AddRows(stats.rows_rewritten);
  }
  DTL_ASSIGN_OR_RETURN(std::vector<MasterFileInfo> replacements, out.Finish());
  for (MasterFileInfo& info : replacements) files.push_back(std::move(info));
  DTL_RETURN_NOT_OK(PublishRewrite(std::move(files), plan.stray_record_ids, kept_deltas));
  if (stripes_rewritten_ctr_ != nullptr) {
    stripes_rewritten_ctr_->Inc(stats.stripes_rewritten);
    stripes_copied_ctr_->Inc(stats.stripes_copied);
    mods_folded_ctr_->Inc(stats.mods_folded);
  }
  return stats;
}

Result<IncrementalCompactStats> DualTable::CompactIncremental(obs::Tracer* tracer) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  Stopwatch watch;
  DTL_ASSIGN_OR_RETURN(IncrementalCompactStats stats,
                       Fold(IncrementalDensityThreshold(), tracer));
  // Only folds that rewrote something are timed: a round that selects
  // nothing, or only reclaims garbage, would skew the histogram toward zero.
  if (incremental_compact_hist_ != nullptr && stats.files_selected > 0) {
    incremental_compact_hist_->ObserveSeconds(watch.ElapsedSeconds());
  }
  return stats;
}

const char* DualTable::AdaptiveTriggerReason() {
  // Delta-density proxy without a preview scan: attached cells over master
  // rows. Overcounts rows carrying several modified columns, so it fires
  // earlier than the exact per-file density — a conservative trigger; the
  // preview that follows still ranks files by the exact densities.
  const uint64_t master_rows = master_->TotalRows();
  const uint64_t cells = attached_->ApproximateCellCount();
  double density = master_rows == 0
                       ? (cells > 0 ? 1.0 : 0.0)
                       : static_cast<double>(cells) / static_cast<double>(master_rows);
  if (density > 1.0) density = 1.0;
  if (maint_density_gauge_ != nullptr) {
    maint_density_gauge_->Set(static_cast<int64_t>(density * 1e6));
  }

  uint64_t window_count = 0;
  uint64_t p95_us = 0;
  if (union_read_seconds_hist_ != nullptr) {
    obs::TelemetryClock* clock = options_.telemetry_clock != nullptr
                                     ? options_.telemetry_clock
                                     : obs::DefaultTelemetryClock();
    const uint64_t now_us = clock->NowMicros();
    union_read_seconds_hist_->MaybeRotate(now_us);
    const obs::HistogramSnapshot window =
        union_read_seconds_hist_->WindowSnapshot(kAdaptiveWindowMicros, now_us);
    window_count = window.count;
    p95_us = window.ValueAtQuantile(0.95);
    if (maint_p95_gauge_ != nullptr) {
      maint_p95_gauge_->Set(static_cast<int64_t>(p95_us));
    }
  }

  if (density >= IncrementalDensityThreshold()) return "density";
  if (window_count >= options_.adaptive_min_window_count &&
      static_cast<double>(p95_us) > options_.adaptive_latency_slo_seconds * 1e6) {
    return "latency";
  }
  if (NeedsCompaction()) return "bytes";
  return nullptr;
}

void DualTable::BackgroundMaintenance() {
  if (maint_rounds_ctr_ != nullptr) maint_rounds_ctr_->Inc();
  if (options_.adaptive_maintenance) {
    const char* reason = AdaptiveTriggerReason();
    if (reason == nullptr) {
      // Nothing in the telemetry says work is needed: skip without scanning
      // the attached store at all (the preview scan below is the per-round
      // cost this mode exists to eliminate).
      if (maint_skips_ctr_ != nullptr) maint_skips_ctr_->Inc();
      return;
    }
    if (maint_trigger_density_ctr_ != nullptr) {
      if (reason[0] == 'd') maint_trigger_density_ctr_->Inc();
      if (reason[0] == 'l') maint_trigger_latency_ctr_->Inc();
      if (reason[0] == 'b') maint_trigger_bytes_ctr_->Inc();
    }
  }
  Result<IncrementalCompactionPlan> plan = PreviewIncrementalCompaction();
  if (!plan.ok()) return;  // transient failure; retried next round
  if (stripe_density_hist_ != nullptr) {
    for (const FileCompactionPlan& f : plan->files) {
      for (const StripeDensity& s : f.stripes) {
        stripe_density_hist_->Observe(static_cast<uint64_t>(s.density() * 1e6));
      }
    }
  }
  if (plan->selected_files() > 0 || !plan->stray_record_ids.empty()) {
    // CompactIncremental re-plans under mu_, so a DML statement landing
    // between this preview and the lock is still folded correctly.
    if (maint_incremental_ctr_ != nullptr) maint_incremental_ctr_->Inc();
    Result<IncrementalCompactStats> done = CompactIncremental();
    DTL_IGNORE_STATUS(done.status(),
                      "background incremental compaction is retried next round");
    return;
  }
  if (!NeedsCompaction()) return;
  if (plan->total_delta_rows() > 0) {
    // Attached bytes piled up without any single file crossing the density
    // threshold (deltas spread thin): fall back to the full rewrite. The
    // delta-rows guard keeps KV tombstone bloat alone from triggering a
    // pointless full rewrite.
    if (maint_full_ctr_ != nullptr) maint_full_ctr_->Inc();
    DTL_IGNORE_STATUS(Compact().status(),
                      "background compaction failure is retried next round");
    return;
  }
  // Bytes above the threshold but zero live modifications: pure tombstone
  // bloat left behind by earlier partial folds. The fold re-plans under mu_,
  // finds nothing to rewrite and reclaims the store without touching the
  // master generation.
  if (maint_reclaims_ctr_ != nullptr) maint_reclaims_ctr_->Inc();
  DTL_IGNORE_STATUS(CompactIncremental().status(),
                    "attached garbage reclamation is retried next round");
}

void DualTable::RecordDmlObservation(const char* statement, const DmlPlanChoice& choice,
                                     const table::DmlResult& result,
                                     double wall_seconds,
                                     const fs::IoSnapshot& io_before) {
  obs::Histogram* hist =
      choice.plan == table::DmlPlan::kEdit ? edit_hist_ : overwrite_hist_;
  if (hist != nullptr) hist->ObserveSeconds(wall_seconds);
  if (!choice.cost_model || options_.cost_audit == nullptr) return;
  obs::CostAuditRecord record;
  record.table = name_;
  record.statement = statement;
  record.ratio = choice.ratio;
  record.ratio_from_hint = choice.ratio_source == RatioSource::kHint;
  record.predicted_edit_seconds = choice.decision.cost_edit_seconds;
  record.predicted_overwrite_seconds = choice.decision.cost_overwrite_seconds;
  record.predicted_plan = table::DmlPlanName(choice.decision.plan);
  record.executed_plan = table::DmlPlanName(choice.plan);
  record.route = result.index_lookup ? "index" : "scan";
  record.rows_matched = result.rows_matched;
  record.measured_wall_seconds = wall_seconds;
  if (cluster_ != nullptr) {
    record.measured_modeled_seconds =
        cluster_->JobSeconds(fs_->meter()->Snapshot() - io_before);
  }
  if (options_.cost_calibration_gain > 0 && !result.index_lookup &&
      record.measured_modeled_seconds > 0) {
    // Closed loop (DESIGN.md §12): nudge the executed plan's cost scale
    // toward measured/predicted so the next decision — and the incremental-
    // compaction density threshold derived from the crossover — track
    // observed behavior instead of the open-loop paper coefficients. An
    // index-routed EDIT reads only the rows it touches, which the scan-based
    // EDIT formula does not describe; letting it calibrate would drag
    // edit_cost_scale down for every later scan-routed EDIT.
    std::lock_guard<std::mutex> lock(cost_model_mu_);
    cost_model_.Calibrate(choice.plan == table::DmlPlan::kEdit,
                          record.PredictedExecutedSeconds(),
                          record.measured_modeled_seconds,
                          options_.cost_calibration_gain);
    if (edit_scale_gauge_ != nullptr) {
      edit_scale_gauge_->Set(
          static_cast<int64_t>(cost_model_.params().edit_cost_scale * 1e6));
      overwrite_scale_gauge_->Set(
          static_cast<int64_t>(cost_model_.params().overwrite_cost_scale * 1e6));
    }
  }
  options_.cost_audit->Record(std::move(record));
}

bool DualTable::NeedsCompaction() const {
  // Called from the scheduler thread, which may race DML on the user thread.
  // Every input is individually thread-safe (the generation totals read a
  // pinned file list; the attached counts are approximate by contract), and
  // a racy decision is benign: Compact() re-checks under mu_ and a skipped
  // round is retried at the next poll.
  const uint64_t master_bytes = master_->TotalBytes();
  if (master_bytes == 0) return attached_->ApproximateCellCount() > 0;
  return static_cast<double>(attached_->ApproximateBytes()) >=
         options_.compact_threshold * static_cast<double>(master_bytes);
}

Status DualTable::CommitIndexMeta() {
  if (index_ == nullptr) return Status::OK();
  return index_->WriteMeta(master_->CurrentGeneration()->number(),
                           attached_->LastTimestamp());
}

Status DualTable::EnsureIndexFresh() {
  DTL_ASSIGN_OR_RETURN(auto meta, index_->ReadMeta());
  if (meta.has_value() &&
      meta->master_generation == master_->CurrentGeneration()->number() &&
      meta->attached_ts == attached_->LastTimestamp() &&
      meta->columns == index_->columns()) {
    return Status::OK();
  }
  return RebuildIndex();
}

Status DualTable::RebuildIndex() {
  // Only sound at Open time, before snapshots exist: ClearAll() exposes
  // missing entries to any snapshot pinned mid-rebuild. Rebuilding from the
  // UNION READ view (updated values, deleted rows absent) is exact for every
  // snapshot that can still be acquired — pre-crash history is gone.
  index_->CountRebuild();
  DTL_RETURN_NOT_OK(index_->ClearAll());
  SnapshotPtr snapshot = AcquireSnapshot();
  // Only the indexed columns are read; a one-off full scan admits nothing
  // to the stripe cache.
  table::ScanSpec indexed;
  indexed.projection = index_->columns();
  DTL_ASSIGN_OR_RETURN(auto it,
                       NewUnionReadBatch(snapshot, indexed, orc::CacheFill::kNoAdmit));
  DTL_RETURN_NOT_OK(table::ForEachRow(it.get(), [this](uint64_t rid, Row* row) {
    return index_->AddRow(*row, rid);
  }));
  DTL_RETURN_NOT_OK(index_->Sync());
  return CommitIndexMeta();
}

Status DualTable::IndexStagedFiles(const std::vector<MasterFileInfo>& files) {
  for (const MasterFileInfo& info : files) {
    // Staged files are not part of any generation yet; open them directly.
    DTL_ASSIGN_OR_RETURN(auto reader, orc::OrcReader::Open(fs_, info.path));
    for (size_t s = 0; s < reader->num_stripes(); ++s) {
      DTL_ASSIGN_OR_RETURN(orc::StripeBatch batch,
                           reader->ReadStripe(s, index_->columns()));
      for (size_t i = 0; i < batch.num_rows; ++i) {
        const uint64_t rid = MakeRecordId(info.file_id, batch.first_row + i);
        for (size_t c = 0; c < batch.projection.size(); ++c) {
          DTL_RETURN_NOT_OK(index_->Add(batch.projection[c], batch.at(c, i), rid));
        }
      }
    }
  }
  return Status::OK();
}

Result<std::vector<std::pair<uint64_t, Row>>> DualTable::IndexLookupAt(
    const SnapshotPtr& snapshot, size_t column, const std::vector<Value>& probes,
    const table::ScanSpec& spec) {
  if (index_ == nullptr || !index_->IndexesColumn(column)) {
    return Status::InvalidArgument("no secondary index on the probed column");
  }
  if (snapshot == nullptr || !snapshot->has_index) {
    return Status::InvalidArgument("snapshot does not pin the secondary index");
  }
  // Candidate record IDs across all probes, deduplicated and ascending —
  // record-ID order is scan order, so the verified output matches what a
  // full UNION READ with the same predicate would emit.
  std::vector<uint64_t> rids;
  for (const Value& probe : probes) {
    DTL_ASSIGN_OR_RETURN(std::vector<uint64_t> part,
                         index_->LookupAt(snapshot->index, column, probe));
    rids.insert(rids.end(), part.begin(), part.end());
  }
  std::sort(rids.begin(), rids.end());
  rids.erase(std::unique(rids.begin(), rids.end()), rids.end());

  const size_t num_fields = schema_.num_fields();
  std::vector<size_t> required = spec.RequiredColumns(num_fields);
  if (!required.empty() &&
      std::find(required.begin(), required.end(), column) == required.end()) {
    // The verify step must read the indexed column even when the consumer
    // doesn't project it.
    required.push_back(column);
    std::sort(required.begin(), required.end());
  }

  std::vector<std::pair<uint64_t, Row>> out;
  const std::vector<MasterFileInfo>& files = snapshot->generation->files();
  size_t file_pos = 0;  // ascending rids -> the file cursor only moves forward
  std::shared_ptr<orc::OrcReader> reader;
  std::shared_ptr<const orc::StripeBatch> stripe;
  for (uint64_t rid : rids) {
    const uint64_t file_id = RecordFileId(rid);
    const uint64_t row_no = RecordRowNumber(rid);
    while (file_pos < files.size() && files[file_pos].file_id < file_id) ++file_pos;
    if (file_pos >= files.size() || files[file_pos].file_id != file_id) {
      // Entry for a file outside the pinned generation (replaced by a
      // COMPACT, or staged by an uncommitted INSERT): stale, drop.
      index_->CountStaleSkipped();
      continue;
    }
    if (reader == nullptr || reader->file_id() != file_id) {
      DTL_ASSIGN_OR_RETURN(reader, master_->OpenReader(snapshot->generation, file_id));
      stripe.reset();
    }
    if (row_no >= reader->num_rows()) {
      index_->CountStaleSkipped();
      continue;
    }
    DTL_ASSIGN_OR_RETURN(auto mod, attached_->GetModificationAt(snapshot->attached, rid));
    if (mod.has_value() && mod->deleted) {
      index_->CountStaleSkipped();
      continue;
    }
    if (stripe == nullptr || row_no < stripe->first_row ||
        row_no >= stripe->first_row + stripe->num_rows) {
      // Binary-search the stripe that holds the row, then fetch it through
      // the shared cache: hot stripes decode once per generation process-wide.
      size_t lo = 0;
      size_t hi = reader->num_stripes();
      while (lo + 1 < hi) {
        const size_t mid = (lo + hi) / 2;
        if (reader->stripe(mid).first_row <= row_no) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      DTL_ASSIGN_OR_RETURN(stripe, reader->ReadStripeShared(lo, required));
    }
    const size_t local = static_cast<size_t>(row_no - stripe->first_row);
    Row row(num_fields, Value::Null());
    for (size_t c = 0; c < stripe->projection.size(); ++c) {
      stripe->columns[c]->cells.AssignTo(local, &row[stripe->projection[c]]);
    }
    if (mod.has_value()) {
      // Patch the required columns only, as UNION READ does; the rest stay
      // NULL.
      for (size_t u = 0; u < mod->num_updates(); ++u) {
        const uint32_t col = mod->column(u);
        if (!std::binary_search(required.begin(), required.end(), col)) continue;
        DTL_RETURN_NOT_OK(mod->DecodeValue(u, &row[col]));
      }
    }
    // Re-verify the indexed column against the probes: stale entries (the
    // value moved off the probe since the entry was written) are dropped
    // here, never served. This is what makes extra entries harmless.
    bool matches = false;
    if (!row[column].is_null()) {
      for (const Value& probe : probes) {
        if (row[column].Compare(probe) == 0) {
          matches = true;
          break;
        }
      }
    }
    if (!matches) {
      index_->CountStaleSkipped();
      continue;
    }
    if (spec.predicate && !spec.predicate(row)) continue;
    out.emplace_back(rid, std::move(row));
  }
  return out;
}

Status DualTable::Drop() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  DTL_RETURN_NOT_OK(master_->Drop());
  if (index_ != nullptr) DTL_RETURN_NOT_OK(index_->Drop());
  return attached_->Drop();
}

}  // namespace dtl::dual
