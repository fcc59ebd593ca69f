#include "sql/session.h"

#include <fstream>

#include "kv/store.h"
#include "obs/metric_names.h"
#include "orc/stripe_cache.h"

namespace dtl::sql {

Result<std::unique_ptr<Session>> Session::Create(SessionOptions options) {
  auto session = std::unique_ptr<Session>(new Session(std::move(options)));
  session->fs_ = std::make_unique<fs::SimFileSystem>(session->options_.fs_options);
  DTL_ASSIGN_OR_RETURN(session->metadata_, dual::MetadataTable::Open(session->fs_.get()));
  size_t threads = session->options_.pool_threads;
  if (threads == 0) {
    threads = std::max<size_t>(2, std::thread::hardware_concurrency());
  }
  session->pool_ = std::make_unique<ThreadPool>(threads);
  if (session->options_.background_compaction) {
    session->scheduler_ = std::make_shared<BackgroundScheduler>();
    session->options_.dual_defaults.scheduler = session->scheduler_;
    session->options_.dual_defaults.background_compaction = true;
    session->options_.dual_defaults.attached_options.scheduler = session->scheduler_;
    session->options_.hbase_defaults.store_options.scheduler = session->scheduler_;
  }
  Session* self = session.get();
  session->engine_ = std::make_unique<Engine>(
      &session->catalog_,
      [self](const std::string& name, table::TableKind kind, const Schema& schema,
             const std::vector<size_t>& indexed_columns) {
        return self->MakeTable(name, kind, schema, indexed_columns);
      },
      session->fs_.get());
  ExecOptions exec;
  exec.pool = session->pool_.get();
  exec.parallelism = session->options_.parallelism;
  exec.morsel_stripes = session->options_.morsel_stripes;
  if (session->options_.observability) {
    // Tables made through SQL or the factory helpers report DML timing
    // histograms and cost-model audit records into the session's instruments.
    session->options_.dual_defaults.metrics = &session->metrics_;
    session->options_.dual_defaults.cost_audit = &session->cost_audit_;
    session->options_.dual_defaults.telemetry_clock = session->options_.telemetry_clock;
    exec.metrics = &session->metrics_;
    exec.tracer = &session->tracer_;
    exec.scan_meter = &session->scan_meter_;
    session->tracer_.Configure(session->fs_->meter(), &session->scan_meter_,
                               &session->cluster_);
    session->RegisterSessionViews();

    obs::QueryLogOptions log_options;
    log_options.slow_threshold_seconds = session->options_.slow_query_seconds;
    session->query_log_ =
        std::make_unique<obs::QueryLog>(log_options, &session->metrics_);
    obs::RecorderOptions rec_options;
    rec_options.clock = session->options_.telemetry_clock;
    session->recorder_ =
        std::make_unique<obs::MetricsRecorder>(&session->metrics_, rec_options);
    exec.query_log = session->query_log_.get();
    exec.recorder = session->recorder_.get();
    if (session->scheduler_ != nullptr) {
      // One registry sample per scheduler round; ~Session shuts the
      // scheduler down before the recorder is destroyed.
      obs::MetricsRecorder* recorder = session->recorder_.get();
      session->scheduler_->Register("metrics-recorder",
                                    [recorder]() { recorder->Tick(); });
    }
  }
  session->engine_->set_exec_options(exec);
  session->MarkIo();
  return session;
}

void Session::RegisterSessionViews() {
  const fs::IoMeter* io = fs_->meter();
  auto io_view = [this, io](const char* name, auto read) {
    metrics_.RegisterView(name, [io, read]() -> double {
      return static_cast<double>(read(io->Snapshot()));
    });
  };
  io_view(obs::names::kFsHdfsBytesRead,
          [](const fs::IoSnapshot& s) { return s.hdfs_bytes_read; });
  io_view(obs::names::kFsHdfsBytesWritten,
          [](const fs::IoSnapshot& s) { return s.hdfs_bytes_written; });
  io_view(obs::names::kFsHdfsFilesCreated,
          [](const fs::IoSnapshot& s) { return s.hdfs_files_created; });
  io_view(obs::names::kFsHdfsSeeks,
          [](const fs::IoSnapshot& s) { return s.hdfs_seeks; });
  io_view(obs::names::kFsHbaseBytesRead,
          [](const fs::IoSnapshot& s) { return s.hbase_bytes_read; });
  io_view(obs::names::kFsHbaseBytesWritten,
          [](const fs::IoSnapshot& s) { return s.hbase_bytes_written; });
  io_view(obs::names::kFsHbaseReadOps,
          [](const fs::IoSnapshot& s) { return s.hbase_read_ops; });
  io_view(obs::names::kFsHbaseWriteOps,
          [](const fs::IoSnapshot& s) { return s.hbase_write_ops; });

  // Tables in this process share the default decoded-stripe cache unless
  // their options point elsewhere; these views expose its hit economics.
  auto cache_view = [this](const char* name, auto read) {
    metrics_.RegisterView(name, [read]() -> double {
      return static_cast<double>(read(orc::StripeCache::Default()->Stats()));
    });
  };
  cache_view(obs::names::kStripeCacheHits,
             [](const orc::StripeCacheStats& s) { return s.hits; });
  cache_view(obs::names::kStripeCacheMisses,
             [](const orc::StripeCacheStats& s) { return s.misses; });
  cache_view(obs::names::kStripeCacheBytes,
             [](const orc::StripeCacheStats& s) { return s.bytes; });
  cache_view(obs::names::kStripeCacheEntries,
             [](const orc::StripeCacheStats& s) { return s.entries; });
  cache_view(obs::names::kStripeCacheEvictions,
             [](const orc::StripeCacheStats& s) { return s.evictions; });

  if (scheduler_ != nullptr) {
    BackgroundScheduler* sched = scheduler_.get();
    metrics_.RegisterView(obs::names::kSchedulerJobs, [sched]() -> double {
      return static_cast<double>(sched->num_jobs());
    });
    metrics_.RegisterView(obs::names::kSchedulerRounds, [sched]() -> double {
      return static_cast<double>(sched->rounds_completed());
    });
    metrics_.RegisterView(obs::names::kSchedulerLastRoundSeconds,
                          [sched]() -> double { return sched->last_round_seconds(); });
  }
}

void Session::RegisterKvViews(const std::string& label,
                              std::function<kv::KvStore*()> store) {
  auto add = [&](const char* name, auto read) {
    metrics_.RegisterView(
        name,
        [store, read]() -> double {
          kv::KvStore* s = store();
          return s == nullptr ? 0.0 : static_cast<double>(read(s));
        },
        label);
  };
  add(obs::names::kKvPuts,
      [](kv::KvStore* s) { return s->stats().puts.load(std::memory_order_relaxed); });
  add(obs::names::kKvDeletes,
      [](kv::KvStore* s) { return s->stats().deletes.load(std::memory_order_relaxed); });
  add(obs::names::kKvGets,
      [](kv::KvStore* s) { return s->stats().gets.load(std::memory_order_relaxed); });
  add(obs::names::kKvFlushes,
      [](kv::KvStore* s) { return s->stats().flushes.load(std::memory_order_relaxed); });
  add(obs::names::kKvCompactions, [](kv::KvStore* s) {
    return s->stats().compactions.load(std::memory_order_relaxed);
  });
  add(obs::names::kKvWalSyncs, [](kv::KvStore* s) {
    return s->stats().wal_syncs.load(std::memory_order_relaxed);
  });
  add(obs::names::kKvApproxBytes,
      [](kv::KvStore* s) { return s->ApproximateBytes(); });
  add(obs::names::kKvApproxCells,
      [](kv::KvStore* s) { return s->ApproximateCellCount(); });
  add(obs::names::kKvSstables, [](kv::KvStore* s) { return s->NumSstables(); });
}

void Session::RegisterSnapshotViews(const std::string& label,
                                    std::function<dual::DualTable*()> table) {
  auto add = [&](const char* name, auto read) {
    metrics_.RegisterView(
        name,
        [table, read]() -> double {
          dual::DualTable* t = table();
          return t == nullptr ? 0.0 : static_cast<double>(read(t));
        },
        label);
  };
  add(obs::names::kSnapshotAcquired,
      [](dual::DualTable* t) { return t->snapshot_tracker()->acquired(); });
  add(obs::names::kSnapshotActive,
      [](dual::DualTable* t) { return t->snapshot_tracker()->active(); });
  add(obs::names::kSnapshotPinnedGenerations,
      [](dual::DualTable* t) { return t->master()->LiveGenerations(); });
  add(obs::names::kSnapshotOldestSeconds,
      [](dual::DualTable* t) { return t->snapshot_tracker()->OldestSeconds(); });

  auto index_stat = [&](const char* name, auto read) {
    metrics_.RegisterView(
        name,
        [table, read]() -> double {
          dual::DualTable* t = table();
          dual::SecondaryIndex* idx = t == nullptr ? nullptr : t->secondary_index();
          return idx == nullptr
                     ? 0.0
                     : static_cast<double>(read(idx->stats()));
        },
        label);
  };
  index_stat(obs::names::kIndexEntriesAdded, [](const dual::SecondaryIndex::Stats& s) {
    return s.entries_added.load(std::memory_order_relaxed);
  });
  index_stat(obs::names::kIndexEntriesFolded, [](const dual::SecondaryIndex::Stats& s) {
    return s.entries_folded.load(std::memory_order_relaxed);
  });
  index_stat(obs::names::kIndexCandidateRows, [](const dual::SecondaryIndex::Stats& s) {
    return s.candidate_rows.load(std::memory_order_relaxed);
  });
}

std::string Session::StatsDump() const {
  std::string out = metrics_.RenderText();
  out += "cost_audit.records " + std::to_string(cost_audit_.size()) + "\n";
  return out;
}

std::string Session::StatsDumpJson() const {
  return "{\"metrics\":" + metrics_.RenderJson() +
         ",\"cost_audit\":" + cost_audit_.RenderJson() + "}";
}

std::string Session::StatsDumpPrometheus() const {
  return obs::RenderPrometheusText(metrics_.Snapshot());
}

std::string Session::StatsDumpJsonLines() const {
  return recorder_ == nullptr ? std::string() : recorder_->RenderJsonLines();
}

Status Session::WriteStatsFiles(const std::string& dir) const {
  auto write = [](const std::string& path, const std::string& body) -> Status {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + path);
    out << body;
    out.close();
    if (!out) return Status::IoError("cannot write " + path);
    return Status::OK();
  };
  DTL_RETURN_NOT_OK(write(dir + "/dtl-stats.jsonl", StatsDumpJsonLines()));
  return write(dir + "/dtl-stats.prom", StatsDumpPrometheus());
}

Session::~Session() {
  // Tables in the catalog outlive the pool in member-destruction order, and
  // a background poll may submit pool work; stop the scheduler first so no
  // maintenance job is in flight while members tear down. Table destructors
  // then unregister from the stopped scheduler, which is safe.
  if (scheduler_ != nullptr) scheduler_->Shutdown();
}

Result<std::shared_ptr<table::StorageTable>> Session::MakeTable(
    const std::string& name, table::TableKind kind, const Schema& schema,
    const std::vector<size_t>& indexed_columns) {
  switch (kind) {
    case table::TableKind::kDual: {
      dual::DualTableOptions dual_options = options_.dual_defaults;
      if (!indexed_columns.empty()) dual_options.indexed_columns = indexed_columns;
      DTL_ASSIGN_OR_RETURN(auto t, dual::DualTable::Open(fs_.get(), metadata_.get(),
                                                         &cluster_, name, schema,
                                                         dual_options));
      if (options_.observability) {
        std::weak_ptr<dual::DualTable> weak = t;
        RegisterKvViews(name, [weak]() -> kv::KvStore* {
          auto strong = weak.lock();
          return strong == nullptr ? nullptr : strong->attached()->store();
        });
        RegisterSnapshotViews(name, [weak]() -> dual::DualTable* {
          auto strong = weak.lock();
          return strong.get();
        });
      }
      return std::shared_ptr<table::StorageTable>(std::move(t));
    }
    case table::TableKind::kHiveOrc: {
      DTL_ASSIGN_OR_RETURN(auto t, baseline::HiveTable::Open(fs_.get(), metadata_.get(),
                                                             name, schema,
                                                             options_.hive_defaults));
      return std::shared_ptr<table::StorageTable>(std::move(t));
    }
    case table::TableKind::kHiveHBase: {
      DTL_ASSIGN_OR_RETURN(
          auto t, baseline::HBaseTable::Open(fs_.get(), name, schema,
                                             options_.hbase_defaults));
      if (options_.observability) {
        std::weak_ptr<baseline::HBaseTable> weak = t;
        RegisterKvViews(name, [weak]() -> kv::KvStore* {
          auto strong = weak.lock();
          return strong == nullptr ? nullptr : strong->store();
        });
      }
      return std::shared_ptr<table::StorageTable>(std::move(t));
    }
    case table::TableKind::kAcid: {
      DTL_ASSIGN_OR_RETURN(auto t, baseline::AcidTable::Open(fs_.get(), metadata_.get(),
                                                             name, schema,
                                                             options_.acid_defaults));
      return std::shared_ptr<table::StorageTable>(std::move(t));
    }
  }
  return Status::Internal("unhandled table kind");
}

Result<std::shared_ptr<dual::DualTable>> Session::CreateDualTable(
    const std::string& name, const Schema& schema,
    std::optional<dual::DualTableOptions> options) {
  DTL_ASSIGN_OR_RETURN(auto t, dual::DualTable::Open(
                                   fs_.get(), metadata_.get(), &cluster_, name, schema,
                                   options.value_or(options_.dual_defaults)));
  DTL_RETURN_NOT_OK(catalog_.Register(name, table::TableKind::kDual, t));
  if (options_.observability) {
    std::weak_ptr<dual::DualTable> weak = t;
    RegisterKvViews(name, [weak]() -> kv::KvStore* {
      auto strong = weak.lock();
      return strong == nullptr ? nullptr : strong->attached()->store();
    });
    RegisterSnapshotViews(name, [weak]() -> dual::DualTable* {
      auto strong = weak.lock();
      return strong.get();
    });
  }
  return t;
}

Result<std::shared_ptr<baseline::HiveTable>> Session::CreateHiveTable(
    const std::string& name, const Schema& schema) {
  DTL_ASSIGN_OR_RETURN(auto t, baseline::HiveTable::Open(fs_.get(), metadata_.get(), name,
                                                         schema, options_.hive_defaults));
  DTL_RETURN_NOT_OK(catalog_.Register(name, table::TableKind::kHiveOrc, t));
  return t;
}

Result<std::shared_ptr<baseline::HBaseTable>> Session::CreateHBaseTable(
    const std::string& name, const Schema& schema) {
  DTL_ASSIGN_OR_RETURN(
      auto t, baseline::HBaseTable::Open(fs_.get(), name, schema, options_.hbase_defaults));
  DTL_RETURN_NOT_OK(catalog_.Register(name, table::TableKind::kHiveHBase, t));
  if (options_.observability) {
    std::weak_ptr<baseline::HBaseTable> weak = t;
    RegisterKvViews(name, [weak]() -> kv::KvStore* {
      auto strong = weak.lock();
      return strong == nullptr ? nullptr : strong->store();
    });
  }
  return t;
}

Result<std::shared_ptr<baseline::AcidTable>> Session::CreateAcidTable(
    const std::string& name, const Schema& schema) {
  DTL_ASSIGN_OR_RETURN(auto t, baseline::AcidTable::Open(fs_.get(), metadata_.get(), name,
                                                         schema, options_.acid_defaults));
  DTL_RETURN_NOT_OK(catalog_.Register(name, table::TableKind::kAcid, t));
  return t;
}

Status Session::DropTable(const std::string& name) {
  DTL_ASSIGN_OR_RETURN(auto entry, catalog_.Lookup(name));
  DTL_RETURN_NOT_OK(entry.table->Drop());
  return catalog_.Unregister(name);
}

}  // namespace dtl::sql
