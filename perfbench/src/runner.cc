// The run loop shared by every workload: repeated set-ups, the measured
// phase, and the two reports. An untraced run (--trace 0) times whole
// statements through Session::Execute and reports the end-to-end metrics. A
// traced run (--trace 1) issues the same stream, splits traced statements
// into sql::ParseStatement and Engine::ExecuteStatement spans, replays a
// seeded sample one layer down on the statement's snapshot first, reads the
// layer counters at every boundary, and reports the per-layer metrics.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>

#include "obs/metric_names.h"
#include "orc/stripe_cache.h"
#include "orc/writer.h"
#include "sql/parser.h"
#include "workload.h"

namespace dtl::perfbench {

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// A p95 needs at least ten samples beyond it.
constexpr size_t kMinTailSamples = 200;
/// Errors printed to stderr before the rest are only counted.
constexpr uint64_t kMaxPrintedErrors = 5;
/// Host-speed normalization. The host's speed drifts by tens of percent
/// over minutes (contention on shared hardware, not steal), and wall times
/// drift with it. A fixed probe kernel (HostProbeSeconds) runs between
/// statements, every kProbeEverySeconds of statement time, and around each
/// set-up; every wall-time end-to-end metric is scaled by
/// kProbeReferenceSeconds / median probe time, i.e. reported at the
/// reference host's speed. The probe calls no engine code, so engine changes
/// move the scaled metrics exactly as they move wall time.
constexpr double kProbeReferenceSeconds = 3.0e-3;
constexpr double kProbeEverySeconds = 0.1;
constexpr int kProbesPerSetup = 8;
/// Rows orc.encode_ns_per_row encodes: several 8k-row stripes.
constexpr size_t kEncodeSampleRows = 65536;

/// The metrics BENCHMARK.json gates, in its order.
const std::vector<std::string>& EndToEndKeys() {
  static const std::vector<std::string> keys = {
      "setup_s",      "stmts_per_s", "read_geomean_ms", "modeled_s_per_stmt",
      "space_amp",    "peak_rss_mb"};
  return keys;
}

const std::vector<std::string>& PerLayerKeys() {
  static const std::vector<std::string> keys = {
      "sql.parse_us",
      "sql.engine_overhead_us",
      "exec.operator_ms",
      "exec.materialized_rows_per_stmt",
      "dualtable.union_read_ms",
      "dualtable.merge_ms",
      "dualtable.patched_rows_per_read",
      "dualtable.masked_rows_per_read",
      "dualtable.edit_scan_ms",
      "dualtable.edit_write_ms",
      "dualtable.edit_plan_share",
      "dualtable.compact_ms",
      "dualtable.compact_bytes_written",
      "dualtable.snapshot_us",
      "dualtable.index_lookup_us",
      "dualtable.index_candidates_per_lookup",
      "dualtable.index_stale_per_lookup",
      "orc.decode_ns_per_row",
      "orc.encode_ns_per_row",
      "orc.cache_hit_rate",
      "orc.cache_misses_per_stmt",
      "orc.cache_evictions",
      "kv.puts_per_dml",
      "kv.wal_syncs_per_dml",
      "kv.flushes",
      "kv.compactions",
      "kv.attached_scan_ms",
      "kv.attached_cells",
      "kv.get_us",
      "fs.hdfs_read_bytes_per_stmt",
      "fs.hbase_read_bytes_per_stmt",
      "fs.hdfs_write_bytes_per_stmt",
      "fs.hbase_write_bytes_per_stmt",
      "fs.seeks_per_stmt",
      "fs.bytes_stored",
      "self.sql_ms",
      "self.exec_ms",
      "self.dualtable_ms",
      "self.orc_ms",
      "self.kv_ms",
      "trace.overhead_us",
      "trace.overhead_pct",
  };
  return keys;
}

/// Layer counters read at span boundaries.
struct Counters {
  fs::IoSnapshot io;
  table::ScanSnapshot scan;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t index_lookups = 0;
  uint64_t index_candidates = 0;
  uint64_t index_stale = 0;

  Counters operator-(const Counters& o) const {
    Counters d;
    d.io = io - o.io;
    d.scan = scan - o.scan;
    d.cache_hits = cache_hits - o.cache_hits;
    d.cache_misses = cache_misses - o.cache_misses;
    d.cache_evictions = cache_evictions - o.cache_evictions;
    d.index_lookups = index_lookups - o.index_lookups;
    d.index_candidates = index_candidates - o.index_candidates;
    d.index_stale = index_stale - o.index_stale;
    return d;
  }
};

Counters ReadCounters(Workload* w) {
  Counters c;
  c.io = w->session()->fs()->meter()->Snapshot();
  c.scan = w->session()->scan_meter()->Snapshot();
  const orc::StripeCacheStats cache = orc::StripeCache::Default()->Stats();
  c.cache_hits = cache.hits;
  c.cache_misses = cache.misses;
  c.cache_evictions = cache.evictions;
  for (const TableRef& t : w->tables()) {
    const dual::SecondaryIndex* idx = t.table->secondary_index();
    if (idx == nullptr) continue;
    c.index_lookups += idx->stats().lookups.load(std::memory_order_relaxed);
    c.index_candidates += idx->stats().candidate_rows.load(std::memory_order_relaxed);
    c.index_stale += idx->stats().stale_dropped.load(std::memory_order_relaxed);
  }
  return c;
}

/// Running sum of per-statement counter deltas.
struct CounterSum {
  Counters total;
  uint64_t statements = 0;
  void Add(const Counters& d) {
    ++statements;
    Counters& t = total;
    t.scan.patched_rows += d.scan.patched_rows;
    t.scan.masked_rows += d.scan.masked_rows;
    t.scan.materialized_rows += d.scan.materialized_rows;
    t.io.hdfs_bytes_read += d.io.hdfs_bytes_read;
    t.io.hdfs_bytes_written += d.io.hdfs_bytes_written;
    t.io.hdfs_files_created += d.io.hdfs_files_created;
    t.io.hdfs_seeks += d.io.hdfs_seeks;
    t.io.hbase_bytes_read += d.io.hbase_bytes_read;
    t.io.hbase_bytes_written += d.io.hbase_bytes_written;
    t.io.hbase_read_ops += d.io.hbase_read_ops;
    t.io.hbase_write_ops += d.io.hbase_write_ops;
    t.cache_hits += d.cache_hits;
    t.cache_misses += d.cache_misses;
    t.cache_evictions += d.cache_evictions;
    t.index_lookups += d.index_lookups;
    t.index_candidates += d.index_candidates;
    t.index_stale += d.index_stale;
  }
};

/// kv.* registry views of every workload table, summed.
struct KvTotals {
  double puts = 0;
  double wal_syncs = 0;
  double flushes = 0;
  double compactions = 0;
};

KvTotals ReadKv(Workload* w) {
  const obs::MetricsSnapshot snap = w->session()->metrics()->Snapshot();
  KvTotals kv;
  auto view = [&](const char* name, const std::string& label) {
    auto it = snap.views.find(std::string(name) + "{" + label + "}");
    return it == snap.views.end() ? 0.0 : it->second;
  };
  for (const TableRef& t : w->tables()) {
    kv.puts += view(obs::names::kKvPuts, t.label);
    kv.wal_syncs += view(obs::names::kKvWalSyncs, t.label);
    kv.flushes += view(obs::names::kKvFlushes, t.label);
    kv.compactions += view(obs::names::kKvCompactions, t.label);
  }
  return kv;
}

/// Per-statement timings of one replayed statement, in seconds.
struct Replayed {
  size_t tmpl = 0;
  Kind kind = Kind::kRead;
  double parse = 0;
  double execute = 0;
  double snapshot = 0;
  double union_read = 0;  // the drain as the statement finds the cache
  double union_warm = 0;  // the same drain again, its stripes cached
  double attached = 0;
  double lookup = 0;
  double get = 0;
};

class Runner {
 public:
  Runner(Workload* w, const Args& args) : w_(w), args_(args) {}

  int Run();

 private:
  void SetUp();
  Result<sql::QueryResult> ExecuteTraced(const Stmt& stmt, int64_t id, double* parse,
                                         double* execute);
  Replayed ReplayStatement(const Stmt& stmt, int64_t id);
  void Record(const Stmt& stmt, const Result<sql::QueryResult>& result);
  void ReportEndToEnd(Report* rep);
  void ReportPerLayer(Report* rep);
  double EncodeNsPerRow();

  const Template& tmpl(const Stmt& s) const { return w_->templates()[s.tmpl]; }

  Workload* w_;
  Args args_;
  Samples setup_s_;
  Samples setup_probe_;  // host probe around the set-ups
  Samples probe_;        // host probe during the measured phase
  size_t n_ = 0;
  double busy_s_ = 0;
  std::vector<Samples> lat_;           // per template, untraced statements
  std::vector<Samples> traced_lat_;    // per template, traced, not replayed
  Counters phase_delta_;
  KvTotals kv_delta_;
  uint64_t dml_ = 0;
  uint64_t dml_edit_ = 0;
  uint64_t affected_ = 0;
  uint64_t printed_errors_ = 0;

  // Traced run only. A replay leaves its statement's stripes cached, so the
  // per-statement counts come from statements that were not replayed.
  SpanLog log_;
  CounterSum natural_;
  CounterSum natural_reads_;
  std::vector<Replayed> replayed_;
  Samples parse_s_;
  Samples snapshot_s_;
  Samples lookup_s_;
  Samples get_s_;
  Samples attached_s_;
  Samples attached_cells_;
  double decode_s_ = 0;
  uint64_t decode_rows_ = 0;
  Samples compact_s_;
  uint64_t compact_bytes_ = 0;
};

void Runner::SetUp() {
  for (int i = 0; i < kSetups; ++i) {
    w_->ResetSession();
    for (int p = 0; p < kProbesPerSetup / 2; ++p) setup_probe_.Add(HostProbeSeconds());
    SetupClock clock;
    w_->Setup(&clock);
    setup_s_.Add(clock.Seconds());
    for (int p = 0; p < kProbesPerSetup / 2; ++p) setup_probe_.Add(HostProbeSeconds());
  }
}

Result<sql::QueryResult> Runner::ExecuteTraced(const Stmt& stmt, int64_t id, double* parse,
                                               double* execute) {
  const std::string& name = tmpl(stmt).name;
  const int64_t root = log_.Begin("stmt", -1, id, name);
  const int64_t p = log_.Begin("sql.parse", root, id, name);
  Result<sql::Statement> parsed = sql::ParseStatement(stmt.sql);
  *parse = log_.End(p);
  const int64_t e = log_.Begin("sql.execute", root, id, name);
  Result<sql::QueryResult> result =
      parsed.ok() ? w_->session()->engine()->ExecuteStatement(*parsed)
                  : Result<sql::QueryResult>(parsed.status());
  *execute = log_.End(e);
  log_.End(root);
  return result;
}

Replayed Runner::ReplayStatement(const Stmt& stmt, int64_t id) {
  Replayed r;
  r.tmpl = stmt.tmpl;
  r.kind = tmpl(stmt).kind;
  const std::string& name = tmpl(stmt).name;
  const int64_t root = log_.Begin("replay", -1, id, name);
  for (ReplayScan& rs : w_->Replay(stmt)) {
    int64_t sp = log_.Begin("dualtable.acquire_snapshot", root, id, name);
    dual::SnapshotPtr snap = rs.table->AcquireSnapshot();
    const double snap_s = log_.End(sp);
    r.snapshot += snap_s;
    snapshot_s_.Add(snap_s);
    if (rs.lookup) {
      sp = log_.Begin("dualtable.index_lookup_at", root, id, name);
      auto rows = rs.table->IndexLookupAt(snap, rs.column, rs.probes, rs.spec);
      const double lookup = log_.End(sp);
      r.lookup += lookup;
      lookup_s_.Add(lookup);
      if (!rows.ok()) continue;
      for (const auto& [rid, row] : *rows) {
        sp = log_.Begin("kv.get_modification_at", root, id, name);
        auto mod = rs.table->attached()->GetModificationAt(snap->attached, rid);
        const double get = log_.End(sp);
        r.get += get;
        get_s_.Add(get);
        (void)mod.ok();
      }
      continue;
    }

    // UNION READ drain with the statement's projection and predicate, on a
    // private scan meter so the session's counters see only statements.
    table::ScanSpec spec = rs.spec;
    table::ScanMeter meter;
    spec.meter = &meter;
    auto drain = [&](const char* span) {
      const int64_t d = log_.Begin(span, root, id, name);
      auto it = rs.table->ScanBatchesAt(snap, spec);
      if (it.ok()) {
        table::RowBatch batch;
        while ((*it)->Next(&batch)) {
        }
      }
      return log_.End(d);
    };
    r.union_read += drain("dualtable.scan_batches_at");

    // Uncached decode of every stripe the drain reads, same columns.
    const std::vector<size_t> columns =
        spec.RequiredColumns(rs.table->schema().num_fields());
    const int64_t decode_root = log_.Begin("orc.decode", root, id, name);
    for (const dual::MasterFileInfo& file : snap->generation->files()) {
      auto reader = rs.table->master()->OpenReader(snap->generation, file.file_id);
      if (!reader.ok()) continue;
      for (size_t i = 0; i < (*reader)->num_stripes(); ++i) {
        if (snap->attached_empty && !dual::StripeMayMatch((*reader)->stripe(i), spec.bounds)) {
          continue;
        }
        const int64_t read = log_.Begin("orc.read_stripe", decode_root, id, name);
        auto decoded = (*reader)->ReadStripe(i, columns);
        decode_s_ += log_.End(read);
        if (decoded.ok()) decode_rows_ += decoded->num_rows;
      }
    }
    log_.End(decode_root);

    sp = log_.Begin("kv.attached_scan", root, id, name);
    auto scanner = rs.table->attached()->NewScannerAt(snap->attached);
    while (scanner->Next()) {
    }
    const double attached = log_.End(sp);
    r.attached += attached;
    attached_s_.Add(attached);
    attached_cells_.Add(static_cast<double>(rs.table->attached()->ApproximateCellCount()));
    // The statement runs next and finds the cache as this drain leaves it.
    r.union_warm += drain("dualtable.scan_batches_at_warm");
  }
  log_.End(root);
  return r;
}

void Runner::Record(const Stmt& stmt, const Result<sql::QueryResult>& result) {
  std::string error;
  if (!result.ok()) {
    error = result.status().ToString();
  } else {
    error = w_->Check(stmt, *result);
    if (tmpl(stmt).kind == Kind::kDml) {
      ++dml_;
      if (result->dml_plan == "EDIT") ++dml_edit_;
      affected_ += result->affected_rows;
    }
  }
  if (!error.empty() && printed_errors_++ < kMaxPrintedErrors) {
    std::fprintf(stderr, "%s: %s\n  %s\n", tmpl(stmt).name.c_str(), error.c_str(),
                 stmt.sql.c_str());
  }
  w_->Tally(error);
}

int Runner::Run() {
  SetUp();
  if (args_.bite) w_->CorruptReference();
  sql::Session* session = w_->session();
  const size_t num_templates = w_->templates().size();
  lat_.assign(num_templates, Samples());
  traced_lat_.assign(num_templates, Samples());
  n_ = w_->MeasuredStatements();

  Random mode_rng(MixSeed(args_.seed, 0x7ace));
  const Counters phase_before = ReadCounters(w_);
  const KvTotals kv_before = ReadKv(w_);
  double since_probe = 0;
  for (size_t i = 0; i < n_; ++i) {
    if (busy_s_ - since_probe >= kProbeEverySeconds) {
      since_probe = busy_s_;
      probe_.Add(HostProbeSeconds());
    }
    const Stmt stmt = w_->Next();
    const Kind kind = tmpl(stmt).kind;
    const int64_t id = static_cast<int64_t>(i);
    if (!args_.trace) {
      Stopwatch watch;
      auto result = session->Execute(stmt.sql);
      const double seconds = watch.ElapsedSeconds();
      busy_s_ += seconds;
      lat_[stmt.tmpl].Add(seconds);
      Record(stmt, result);
      continue;
    }

    // Traced run: half the statements carry spans, a seeded share of those
    // is replayed one layer down first; the rest run exactly as untraced.
    const bool traced = mode_rng.Bernoulli(0.5);
    const bool replay = traced && mode_rng.Bernoulli(w_->ReplayShare(stmt));
    Replayed rep;
    if (replay) rep = ReplayStatement(stmt, id);
    const Counters before = ReadCounters(w_);
    double seconds = 0;
    Result<sql::QueryResult> result = Status::Internal("not run");
    if (traced) {
      result = ExecuteTraced(stmt, id, &rep.parse, &rep.execute);
      seconds = rep.parse + rep.execute;
      parse_s_.Add(rep.parse);
    } else {
      Stopwatch watch;
      result = session->Execute(stmt.sql);
      seconds = watch.ElapsedSeconds();
    }
    const Counters delta = ReadCounters(w_) - before;
    busy_s_ += seconds;
    if (!traced) {
      lat_[stmt.tmpl].Add(seconds);
    } else if (!replay) {
      traced_lat_[stmt.tmpl].Add(seconds);
    }
    if (!replay) {
      natural_.Add(delta);
      if (kind == Kind::kRead) natural_reads_.Add(delta);
    }
    if (kind == Kind::kCompact) {
      compact_s_.Add(seconds);
      compact_bytes_ += delta.io.hdfs_bytes_written + delta.io.hbase_bytes_written;
    }
    if (replay) replayed_.push_back(rep);
    Record(stmt, result);
  }
  phase_delta_ = ReadCounters(w_) - phase_before;
  const KvTotals kv_after = ReadKv(w_);
  kv_delta_.puts = kv_after.puts - kv_before.puts;
  kv_delta_.wal_syncs = kv_after.wal_syncs - kv_before.wal_syncs;
  kv_delta_.flushes = kv_after.flushes - kv_before.flushes;
  kv_delta_.compactions = kv_after.compactions - kv_before.compactions;

  Report rep;
  const std::string title = w_->name() + " seed=" + std::to_string(args_.seed) +
                            " statements=" + std::to_string(n_) +
                            (args_.trace ? " (traced run)" : "");
  if (args_.trace) {
    ReportPerLayer(&rep);
    std::error_code ec;
    std::filesystem::create_directories(args_.out_dir, ec);
    const std::string path = args_.out_dir + "/spans-" + w_->name() + "-seed" +
                             std::to_string(args_.seed) + ".jsonl";
    if (!log_.WriteJsonLines(path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", log_.spans().size(), path.c_str());
  } else {
    ReportEndToEnd(&rep);
  }
  rep.PrintTable(title);
  const std::string facts = w_->Describe();
  if (!facts.empty()) std::printf("%s\n", facts.c_str());
  const orc::StripeCacheStats cache = orc::StripeCache::Default()->Stats();
  std::printf("bytes stored %llu; stripe cache %.1f of %.1f MB resident in %llu stripes\n",
              static_cast<unsigned long long>(session->fs()->TotalBytesStored()),
              static_cast<double>(cache.bytes) / 1048576.0,
              static_cast<double>(orc::StripeCache::Default()->capacity_bytes()) / 1048576.0,
              static_cast<unsigned long long>(cache.entries));
  const bool correct = w_->failed() == 0;
  std::printf("statements attempted %llu, failed or wrong %llu (%.4f%%)\n",
              static_cast<unsigned long long>(w_->attempted()),
              static_cast<unsigned long long>(w_->failed()),
              w_->attempted() == 0 ? 0.0 : 100.0 * w_->failed() / w_->attempted());
  const bool ok = rep.PrintJson(correct, w_->attempted(), w_->failed(),
                                args_.trace ? PerLayerKeys() : EndToEndKeys());
  return ok ? 0 : 1;
}

void Runner::ReportEndToEnd(Report* rep) {
  sql::Session* session = w_->session();
  // Wall time x scale = time at the reference host's speed.
  const double setup_scale = kProbeReferenceSeconds / setup_probe_.Median();
  const double scale = probe_.empty() ? setup_scale : kProbeReferenceSeconds / probe_.Median();
  std::printf("host probe: %.3f ms around set-up, %.3f ms measured (%zu probes); "
              "reference %.3f ms\n", setup_probe_.Median() * 1e3, probe_.Median() * 1e3,
              probe_.size(), kProbeReferenceSeconds * 1e3);
  std::printf("wall time: setup_s %.4f, stmts_per_s %.4f; time metrics below are scaled "
              "by %.4f (set-up %.4f)\n", setup_s_.Median(),
              static_cast<double>(n_) / busy_s_, scale, setup_scale);
  rep->Add("setup_s", setup_s_.Median() * setup_scale, "s", setup_s_.size());
  rep->Add("stmts_per_s", static_cast<double>(n_) / (busy_s_ * scale), "1/s", n_);

  std::vector<double> read_medians;
  Samples reads;
  Samples lookups;
  Samples dmls;
  for (size_t t = 0; t < lat_.size(); ++t) {
    const Kind kind = w_->templates()[t].kind;
    if (kind != Kind::kRead && kind != Kind::kLookup) continue;
    if (!lat_[t].empty()) read_medians.push_back(lat_[t].Median());
  }
  // Pooled samples for the percentile metrics.
  for (size_t t = 0; t < lat_.size(); ++t) {
    const Kind kind = w_->templates()[t].kind;
    Samples* pool = kind == Kind::kRead     ? &reads
                    : kind == Kind::kLookup ? &lookups
                    : kind == Kind::kDml    ? &dmls
                                            : nullptr;
    if (pool != nullptr) pool->AddAll(lat_[t]);
  }
  rep->Add("read_geomean_ms", GeoMean(read_medians) * scale * 1e3, "ms",
           reads.size() + lookups.size());
  if (reads.size() >= kMinTailSamples) {
    rep->Add("read_p95_ms", reads.Quantile(0.95) * scale * 1e3, "ms", reads.size());
  } else {
    rep->Unsupported("read_p95_ms", std::to_string(reads.size()) + " scan SELECTs < " +
                                        std::to_string(kMinTailSamples));
  }
  if (dmls.size() >= kMinTailSamples) {
    rep->Add("dml_p50_ms", dmls.Median() * scale * 1e3, "ms", dmls.size());
    rep->Add("dml_p95_ms", dmls.Quantile(0.95) * scale * 1e3, "ms", dmls.size());
  } else {
    rep->Unsupported("dml_p50_ms, dml_p95_ms", std::to_string(dmls.size()) +
                                                   " UPDATE/DELETE statements < " +
                                                   std::to_string(kMinTailSamples));
  }
  if (lookups.size() >= kMinTailSamples) {
    rep->Add("lookup_p50_us", lookups.Median() * scale * 1e6, "us", lookups.size());
    rep->Add("lookup_p95_us", lookups.Quantile(0.95) * scale * 1e6, "us", lookups.size());
  } else {
    rep->Unsupported("lookup_p50_us, lookup_p95_us",
                     std::to_string(lookups.size()) + " point lookups < " +
                         std::to_string(kMinTailSamples));
  }
  rep->Add("modeled_s_per_stmt",
           session->cluster()->JobSeconds(phase_delta_.io, 0) / static_cast<double>(n_),
           "s", n_);
  if (affected_ > 0) {
    const double written = static_cast<double>(phase_delta_.io.hdfs_bytes_written +
                                               phase_delta_.io.hbase_bytes_written);
    rep->Add("write_amp", written / (static_cast<double>(affected_) * w_->MeanRowBytes()),
             "ratio", dml_);
  } else {
    rep->Unsupported("write_amp", "no UPDATE/DELETE affected a row");
  }
  rep->Add("space_amp",
           static_cast<double>(session->fs()->TotalBytesStored()) / w_->LiveLogicalBytes(),
           "ratio");
  rep->Add("peak_rss_mb", PeakRssMb(), "MB");

}

double Runner::EncodeNsPerRow() {
  // The first rows of the workload's main table, as they read now.
  dual::DualTable* table = w_->tables().front().table;
  std::vector<Row> rows;
  Workload::ForEachRow(table, [&rows](const Row& row) {
    rows.push_back(row);
    return rows.size() < kEncodeSampleRows;
  });
  if (rows.empty()) return 0.0;
  const Schema& schema = table->schema();
  Samples per_row;
  for (int rep = 0; rep < 3; ++rep) {
    fs::SimFileSystem scratch;
    auto writer = orc::OrcWriter::Create(&scratch, "/encode/sample.orc", schema, 1,
                                         w_->session()->options().dual_defaults.writer_options);
    if (!writer.ok()) return 0.0;
    Stopwatch watch;
    for (const Row& row : rows) {
      if (!(*writer)->Append(row).ok()) return 0.0;
    }
    if (!(*writer)->Close().ok()) return 0.0;
    per_row.Add(watch.ElapsedSeconds() * 1e9 / static_cast<double>(rows.size()));
  }
  return per_row.Median();
}

void Runner::ReportPerLayer(Report* rep) {
  sql::Session* session = w_->session();
  const Counters& stmt = natural_.total;
  const double n = static_cast<double>(natural_.statements);
  const Counters& reads = natural_reads_.total;
  const double nreads = static_cast<double>(natural_reads_.statements);
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  // Per-template medians over replayed statements.
  std::map<size_t, Samples> exec_by_t;
  std::map<size_t, Samples> union_by_t;
  std::map<size_t, Samples> merge_by_t;
  Samples engine_overhead;
  Samples edit_scan;
  Samples edit_write;
  double self_sql = 0, self_exec = 0, self_dual = 0, self_orc = 0, self_kv = 0;
  for (const Replayed& r : replayed_) {
    // UNION READ's own work: the warm drain minus its attached scan. Decode
    // is what the cold drain spent beyond the warm one.
    const double merge = std::max(0.0, r.union_warm - r.attached);
    self_sql += r.parse;
    self_orc += std::max(0.0, r.union_read - r.union_warm);
    self_kv += r.attached + r.get;
    switch (r.kind) {
      case Kind::kRead:
        exec_by_t[r.tmpl].Add(r.execute - r.union_warm);
        union_by_t[r.tmpl].Add(r.union_read);
        merge_by_t[r.tmpl].Add(merge);
        self_exec += std::max(0.0, r.execute - r.union_warm);
        self_dual += merge;
        break;
      case Kind::kLookup:
        engine_overhead.Add(r.execute - r.snapshot - r.lookup);
        self_sql += std::max(0.0, r.execute - r.snapshot - r.lookup);
        self_dual += std::max(0.0, r.snapshot + r.lookup - r.get);
        break;
      case Kind::kDml:
        edit_scan.Add(r.union_read);
        edit_write.Add(r.execute - r.union_warm);
        self_dual += merge + std::max(0.0, r.execute - r.union_warm);
        break;
      case Kind::kCompact:
        self_dual += r.execute;
        break;
    }
  }
  auto count_of = [](const std::map<size_t, Samples>& by_t) {
    uint64_t n = 0;
    for (const auto& [t, s] : by_t) n += s.size();
    return n;
  };
  auto mean_of_medians = [](const std::map<size_t, Samples>& by_t) {
    if (by_t.empty()) return 0.0;
    double sum = 0;
    for (const auto& [t, s] : by_t) sum += s.Median();
    return sum / static_cast<double>(by_t.size());
  };

  rep->Add("sql.parse_us", parse_s_.Median() * 1e6, "us", parse_s_.size());
  rep->Add("sql.engine_overhead_us", engine_overhead.Median() * 1e6, "us",
           engine_overhead.size());
  rep->Add("exec.operator_ms", mean_of_medians(exec_by_t) * 1e3, "ms", count_of(exec_by_t));
  rep->Add("exec.materialized_rows_per_stmt",
           per(static_cast<double>(stmt.scan.materialized_rows), n),
           "count");
  const uint64_t read_replays = count_of(union_by_t);
  rep->Add("dualtable.union_read_ms", mean_of_medians(union_by_t) * 1e3, "ms", read_replays);
  rep->Add("dualtable.merge_ms", mean_of_medians(merge_by_t) * 1e3, "ms", read_replays);
  rep->Add("dualtable.patched_rows_per_read",
           per(static_cast<double>(reads.scan.patched_rows), nreads),
           "count");
  rep->Add("dualtable.masked_rows_per_read",
           per(static_cast<double>(reads.scan.masked_rows), nreads),
           "count");
  rep->Add("dualtable.edit_scan_ms", edit_scan.Median() * 1e3, "ms", edit_scan.size());
  rep->Add("dualtable.edit_write_ms", edit_write.Median() * 1e3, "ms", edit_write.size());
  rep->Add("dualtable.edit_plan_share",
           per(static_cast<double>(dml_edit_), static_cast<double>(dml_)), "ratio");
  rep->Add("dualtable.compact_ms", compact_s_.Mean() * 1e3, "ms", compact_s_.size());
  rep->Add("dualtable.compact_bytes_written", static_cast<double>(compact_bytes_), "bytes");
  rep->Add("dualtable.snapshot_us", snapshot_s_.Median() * 1e6, "us", snapshot_s_.size());
  rep->Add("dualtable.index_lookup_us", lookup_s_.Median() * 1e6, "us", lookup_s_.size());
  rep->Add("dualtable.index_candidates_per_lookup",
           per(static_cast<double>(stmt.index_candidates),
               static_cast<double>(stmt.index_lookups)),
           "count");
  rep->Add("dualtable.index_stale_per_lookup",
           per(static_cast<double>(stmt.index_stale), static_cast<double>(stmt.index_lookups)),
           "count");
  rep->Add("orc.decode_ns_per_row", per(decode_s_ * 1e9, static_cast<double>(decode_rows_)),
           "ns/row", decode_rows_);
  rep->Add("orc.encode_ns_per_row", EncodeNsPerRow(), "ns/row");
  rep->Add("orc.cache_hit_rate",
           per(static_cast<double>(stmt.cache_hits),
               static_cast<double>(stmt.cache_hits + stmt.cache_misses)),
           "ratio");
  rep->Add("orc.cache_misses_per_stmt", per(static_cast<double>(stmt.cache_misses), n),
           "count");
  rep->Add("orc.cache_evictions", static_cast<double>(stmt.cache_evictions), "count");
  rep->Add("kv.puts_per_dml", per(kv_delta_.puts, static_cast<double>(dml_)), "count");
  rep->Add("kv.wal_syncs_per_dml", per(kv_delta_.wal_syncs, static_cast<double>(dml_)),
           "count");
  rep->Add("kv.flushes", kv_delta_.flushes, "count");
  rep->Add("kv.compactions", kv_delta_.compactions, "count");
  rep->Add("kv.attached_scan_ms", attached_s_.Median() * 1e3, "ms", attached_s_.size());
  rep->Add("kv.attached_cells", attached_cells_.Mean(), "count", attached_cells_.size());
  rep->Add("kv.get_us", get_s_.Median() * 1e6, "us", get_s_.size());
  rep->Add("fs.hdfs_read_bytes_per_stmt", per(static_cast<double>(stmt.io.hdfs_bytes_read), n),
           "bytes");
  rep->Add("fs.hbase_read_bytes_per_stmt",
           per(static_cast<double>(stmt.io.hbase_bytes_read), n), "bytes");
  rep->Add("fs.hdfs_write_bytes_per_stmt",
           per(static_cast<double>(stmt.io.hdfs_bytes_written), n), "bytes");
  rep->Add("fs.hbase_write_bytes_per_stmt",
           per(static_cast<double>(stmt.io.hbase_bytes_written), n), "bytes");
  rep->Add("fs.seeks_per_stmt", per(static_cast<double>(stmt.io.hdfs_seeks), n), "count");
  rep->Add("fs.bytes_stored", static_cast<double>(session->fs()->TotalBytesStored()),
           "bytes");

  // Self time per layer, estimated by subtraction over the replayed
  // statements (a uniform sample of the stream), as ms per statement.
  const double replays = static_cast<double>(replayed_.size());
  const double self[] = {per(self_sql, replays), per(self_exec, replays),
                         per(self_dual, replays), per(self_orc, replays),
                         per(self_kv, replays)};
  const char* layer_names[] = {"sql", "exec", "dualtable", "orc", "kv"};
  double self_total = 0;
  for (double s : self) self_total += s;
  std::printf("== self time per layer (ms per statement, %zu replayed statements)\n",
              replayed_.size());
  for (size_t i = 0; i < 5; ++i) {
    std::printf("%-12s %12.4f  %5.1f%%\n", layer_names[i], self[i] * 1e3,
                self_total > 0 ? 100.0 * self[i] / self_total : 0.0);
    rep->Add(std::string("self.") + layer_names[i] + "_ms", self[i] * 1e3, "ms",
             replayed_.size());
  }

  // Tracing overhead: traced (spans, no replay) minus untraced statement
  // time, per template, weighted by each template's statement count.
  double weighted_diff = 0, weighted_base = 0, weight = 0;
  for (size_t t = 0; t < lat_.size(); ++t) {
    if (lat_[t].empty() || traced_lat_[t].empty()) continue;
    const double count = static_cast<double>(lat_[t].size() + traced_lat_[t].size());
    weighted_diff += count * (traced_lat_[t].Median() - lat_[t].Median());
    weighted_base += count * lat_[t].Median();
    weight += count;
  }
  rep->Add("trace.overhead_us", per(weighted_diff, weight) * 1e6, "us");
  rep->Add("trace.overhead_pct", per(weighted_diff, weighted_base) * 100.0, "%");
}

}  // namespace

void Workload::Issue(const Stmt& stmt, SetupClock* clock) {
  auto result = session_->Execute(stmt.sql);
  clock->Pause();
  const std::string error =
      result.ok() ? Check(stmt, *result) : result.status().ToString();
  if (!error.empty()) {
    std::fprintf(stderr, "warm-up statement failed: %s\n  %s\n", error.c_str(),
                 stmt.sql.c_str());
  }
  Tally(error);
  clock->Resume();
}

void Workload::ForEachRow(dual::DualTable* table,
                          const std::function<bool(const Row&)>& fn) {
  auto it = table->ScanBatches(table::ScanSpec());
  if (!it.ok()) Fatal("scan of " + table->name(), it.status());
  table::RowBatch batch;
  Row row;
  while ((*it)->Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.MaterializeRow(i, &row);
      if (!fn(row)) return;
    }
  }
  if (!(*it)->status().ok()) Fatal("scan of " + table->name(), (*it)->status());
}

void Workload::NewSession() {
  auto session = sql::Session::Create(BenchSessionOptions());
  if (!session.ok()) Fatal("session", session.status());
  session_ = std::move(*session);
}

dual::DualTable* Workload::CreateDualTable(const std::string& name, const Schema& schema,
                                           const std::string& suffix) {
  std::string ddl = "CREATE TABLE " + name + " (";
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    if (i > 0) ddl += ", ";
    ddl += schema.field(i).name + " " + DataTypeName(schema.field(i).type);
  }
  ddl += ") STORED AS DUALTABLE " + suffix;
  auto created = session_->Execute(ddl);
  if (!created.ok()) Fatal("create " + name, created.status());
  auto entry = session_->catalog()->Lookup(name);
  if (!entry.ok()) Fatal("lookup " + name, entry.status());
  return dynamic_cast<dual::DualTable*>(entry->table.get());
}

void Workload::Tally(const std::string& error) {
  ++attempted_;
  if (!error.empty()) ++failed_;
}

void Fatal(const std::string& what, const Status& status) {
  std::fprintf(stderr, "benchmark set-up failed: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

int RunWorkload(Workload* workload, const Args& args) {
  Runner runner(workload, args);
  return runner.Run();
}

}  // namespace dtl::perfbench
