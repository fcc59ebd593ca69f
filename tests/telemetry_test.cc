// Telemetry-pipeline tests (DESIGN.md §14): deterministic histogram window
// rotation under a ManualTelemetryClock, recorder ring wraparound, the
// Prometheus exposition golden format, the structured query log + SHOW STATS
// SQL surface, and the obs-driven adaptive-maintenance trigger. Two TSan
// stress cases: Observe racing MaybeRotate, and statements publishing the
// scan.* counters while the recorder ticks on the scheduler thread.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dualtable/dual_table.h"
#include "fs/filesystem.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/recorder.h"
#include "obs/telemetry_clock.h"
#include "sql/session.h"

namespace dtl {
namespace {

constexpr uint64_t kSlotUs = obs::Histogram::kDefaultSlotWidthMicros;

TEST(WindowedHistogramTest, RotationIsDeterministicUnderManualTime) {
  obs::Histogram h;
  // First tick anchors the ring instead of rotating pre-clock data away.
  EXPECT_FALSE(h.MaybeRotate(5 * kSlotUs));
  for (int i = 0; i < 10; ++i) h.Observe(100);
  obs::HistogramSnapshot w = h.WindowSnapshot(8 * kSlotUs, 5 * kSlotUs);
  EXPECT_EQ(w.count, 10u);
  EXPECT_EQ(w.sum, 1000u);

  // A full slot width later the ring advances; the retired slot still counts
  // while it overlaps the window.
  EXPECT_TRUE(h.MaybeRotate(6 * kSlotUs));
  EXPECT_FALSE(h.MaybeRotate(6 * kSlotUs));  // same instant: nothing to do
  for (int i = 0; i < 5; ++i) h.Observe(200);
  w = h.WindowSnapshot(8 * kSlotUs, 6 * kSlotUs);
  EXPECT_EQ(w.count, 15u);
  EXPECT_EQ(w.sum, 2000u);

  // Rotate the ring all the way around: the anchor slot is reused (cleared)
  // and only the slots still inside the window survive.
  for (uint64_t t = 7; t <= 13; ++t) EXPECT_TRUE(h.MaybeRotate(t * kSlotUs));
  w = h.WindowSnapshot(8 * kSlotUs, 13 * kSlotUs);
  EXPECT_EQ(w.count, 5u);
  EXPECT_EQ(w.sum, 1000u);

  // The lifetime aggregate never rotates.
  obs::HistogramSnapshot life = h.Snapshot();
  EXPECT_EQ(life.count, 15u);
  EXPECT_EQ(life.sum, 2000u);
}

TEST(WindowedHistogramTest, WindowSnapshotAlwaysIncludesActiveSlot) {
  obs::Histogram h;
  EXPECT_FALSE(h.MaybeRotate(kSlotUs));
  h.Observe(7);
  // "now" far past the slot's span with a tiny window: the active slot is
  // current by definition, so the observation still reports.
  obs::HistogramSnapshot w = h.WindowSnapshot(1, 100 * kSlotUs);
  EXPECT_EQ(w.count, 1u);
}

TEST(WindowedHistogramTest, ValueAtQuantileReturnsBucketUpperBound) {
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.Observe(7);  // bucket [4, 8)
  obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.ValueAtQuantile(0.50), 7u);
  EXPECT_EQ(snap.ValueAtQuantile(0.99), 7u);
  h.Observe(1000);  // bucket [512, 1024), upper bound clamps to the max
  snap = h.Snapshot();
  EXPECT_EQ(snap.ValueAtQuantile(1.0), 1000u);
  EXPECT_EQ(obs::HistogramSnapshot{}.ValueAtQuantile(0.5), 0u);
}

TEST(WindowedHistogramTest, ObserveRacingRotationIsClean) {
  obs::Histogram h;
  obs::ManualTelemetryClock clock(1);
  EXPECT_FALSE(h.MaybeRotate(clock.NowMicros()));  // anchor
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> observers;
  observers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    observers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(i & 1023);
    });
  }
  std::thread rotator([&h, &clock] {
    for (int i = 0; i < 1000; ++i) {
      clock.Advance(obs::Histogram::kDefaultSlotWidthMicros);
      h.MaybeRotate(clock.NowMicros());
    }
  });
  for (std::thread& t : observers) t.join();
  rotator.join();
  EXPECT_EQ(h.Snapshot().count, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRecorderTest, RingWrapsAndDeltasAreExact) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.counter(obs::names::kSqlStatements);
  obs::ManualTelemetryClock clock(1'000);
  obs::RecorderOptions options;
  options.capacity = 4;
  options.clock = &clock;
  obs::MetricsRecorder recorder(&registry, options);

  for (uint64_t i = 1; i <= 10; ++i) {
    c->Inc(i);
    clock.Advance(1'000);
    recorder.Tick();
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_samples(), 10u);

  const std::vector<obs::RecorderSample> samples = recorder.Samples();
  ASSERT_EQ(samples.size(), 4u);
  for (size_t i = 0; i < samples.size(); ++i) {
    // Samples 7..10 survive; each delta is exactly what moved between ticks.
    const uint64_t tick = 7 + i;
    EXPECT_EQ(samples[i].t_us, 1'000 + tick * 1'000);
    EXPECT_EQ(samples[i].delta.counters.at("sql.statements"), tick);
    EXPECT_EQ(samples[i].delta.counters.at("recorder.samples"), 1u);
    if (i > 0) {
      EXPECT_GT(samples[i].t_us, samples[i - 1].t_us);
    }
  }

  // JSON-lines: one parseable-looking object per surviving sample.
  const std::string lines = recorder.RenderJsonLines();
  size_t count = 0;
  for (size_t pos = 0; (pos = lines.find("{\"t_us\":", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 4u);
  EXPECT_NE(lines.find("\"metrics\":"), std::string::npos);
}

TEST(MetricsRecorderTest, FirstTickCapturesAbsoluteStateThenDeltas) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.counter(obs::names::kScanRows);
  c->Inc(100);
  obs::ManualTelemetryClock clock(1);
  obs::RecorderOptions options;
  options.clock = &clock;
  obs::MetricsRecorder recorder(&registry, options);
  recorder.Tick();
  c->Inc(5);
  clock.Advance(1);
  recorder.Tick();
  const std::vector<obs::RecorderSample> samples = recorder.Samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].delta.counters.at("scan.rows"), 100u);
  EXPECT_EQ(samples[1].delta.counters.at("scan.rows"), 5u);
}

TEST(PrometheusRenderTest, GoldenFormat) {
  obs::MetricsSnapshot snap;
  snap.counters["maintenance.rounds{t}"] = 3;
  snap.counters["sql.statements"] = 7;
  snap.gauges["maintenance.delta_density_ppm{t}"] = 1500;
  snap.views["scan.rows"] = 42.5;
  obs::Histogram h;
  h.Observe(0);
  h.Observe(3);
  snap.histograms["dualtable.union_read.seconds{t}"] = h.Snapshot();

  const std::string expected =
      "# TYPE dtl_maintenance_rounds counter\n"
      "dtl_maintenance_rounds{label=\"t\"} 3\n"
      "# TYPE dtl_sql_statements counter\n"
      "dtl_sql_statements 7\n"
      "# TYPE dtl_maintenance_delta_density_ppm gauge\n"
      "dtl_maintenance_delta_density_ppm{label=\"t\"} 1500\n"
      "# TYPE dtl_scan_rows gauge\n"
      "dtl_scan_rows 42.5\n"
      "# TYPE dtl_dualtable_union_read_seconds histogram\n"
      "dtl_dualtable_union_read_seconds_bucket{label=\"t\",le=\"0\"} 1\n"
      "dtl_dualtable_union_read_seconds_bucket{label=\"t\",le=\"1\"} 1\n"
      "dtl_dualtable_union_read_seconds_bucket{label=\"t\",le=\"3\"} 2\n"
      "dtl_dualtable_union_read_seconds_bucket{label=\"t\",le=\"+Inf\"} 2\n"
      "dtl_dualtable_union_read_seconds_sum{label=\"t\"} 3\n"
      "dtl_dualtable_union_read_seconds_count{label=\"t\"} 2\n";
  EXPECT_EQ(obs::RenderPrometheusText(snap), expected);
}

TEST(QueryLogTest, SlowFlagAndRingBound) {
  obs::MetricsRegistry registry;
  obs::QueryLogOptions options;
  options.capacity = 2;
  options.slow_threshold_seconds = 0.05;
  obs::QueryLog log(options, &registry);
  for (int i = 0; i < 3; ++i) {
    obs::QueryLogRecord r;
    r.kind = "select";
    r.wall_seconds = i == 2 ? 0.2 : 0.001;
    log.Append(std::move(r));
  }
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.total(), 3u);
  EXPECT_EQ(log.slow_total(), 1u);
  const std::vector<obs::QueryLogRecord> tail = log.Tail(10);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_FALSE(tail[0].slow);
  EXPECT_TRUE(tail[1].slow);
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("query_log.records"), 3u);
  EXPECT_EQ(snap.counters.at("query_log.slow"), 1u);
}

// --- SQL surface: the query log + SHOW STATS end to end ----------------------

TEST(TelemetrySqlTest, QueryLogCapturesStatements) {
  sql::SessionOptions options;
  options.slow_query_seconds = 1e-9;  // everything is slow
  auto created = sql::Session::Create(std::move(options));
  ASSERT_TRUE(created.ok());
  auto session = std::move(*created);
  ASSERT_TRUE(session->Execute("CREATE TABLE t (id BIGINT, v BIGINT)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (1, 10), (2, 20)").ok());
  auto rows = session->Execute("SELECT id FROM t");
  ASSERT_TRUE(rows.ok());
  ASSERT_TRUE(session->Execute("SELECT id FROM t").ok());  // warm repeat
  EXPECT_FALSE(session->Execute("SELECT id FROM missing").ok());

  obs::QueryLog* log = session->query_log();
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->total(), 5u);
  EXPECT_EQ(log->slow_total(), 5u);
  const std::vector<obs::QueryLogRecord> tail = log->Tail(10);
  ASSERT_EQ(tail.size(), 5u);
  EXPECT_EQ(tail[0].kind, "create");
  EXPECT_EQ(tail[1].kind, "insert");
  EXPECT_EQ(tail[1].rows, 2u);
  EXPECT_EQ(tail[2].kind, "select");
  EXPECT_EQ(tail[2].rows, 2u);
  EXPECT_EQ(tail[2].sql, "SELECT id FROM t");
  EXPECT_GT(tail[2].wall_seconds, 0.0);
  EXPECT_GT(tail[2].scan_bytes, 0u);
  // scan_bytes counts the encoded bytes of the columns scanned, whether they
  // were decoded or served from the stripe cache: the warm repeat hits the
  // cache and reports the same bytes.
  EXPECT_GT(tail[3].stripe_cache_hits, 0u);
  EXPECT_EQ(tail[3].scan_bytes, tail[2].scan_bytes);
  EXPECT_FALSE(tail[4].ok);
  EXPECT_FALSE(tail[4].error.empty());
}

TEST(TelemetrySqlTest, QueryLogReadsTheIndexLookupCounter) {
  auto created = sql::Session::Create();
  ASSERT_TRUE(created.ok());
  auto session = std::move(*created);
  ASSERT_TRUE(session->Execute("CREATE TABLE k (id BIGINT, v BIGINT) INDEX (id)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO k VALUES (1, 10), (2, 20), (3, 30)").ok());
  ASSERT_TRUE(session->Execute("SELECT v FROM k WHERE id IN (1, 3)").ok());
  ASSERT_TRUE(session->Execute("SELECT v FROM k WHERE v = 20").ok());
  const std::vector<obs::QueryLogRecord> tail = session->query_log()->Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].index_probes, 2u);  // the index.lookups{k} delta
  EXPECT_EQ(tail[1].index_probes, 0u);  // a scan probes nothing
  auto summary = session->Execute("SHOW STATS");
  ASSERT_TRUE(summary.ok());
  size_t lookup_rows = 0;
  for (const Row& row : summary->rows) {
    const std::string& name = row[0].AsString();
    EXPECT_EQ(name.find("dualtable.index.lookups"), std::string::npos) << name;
    if (name == "index.lookups{k}") {
      ++lookup_rows;
      EXPECT_EQ(row[1].AsString(), "counter");
      EXPECT_EQ(row[2].AsDouble(), 2.0);
    }
  }
  EXPECT_EQ(lookup_rows, 1u);
}

TEST(TelemetrySqlTest, ShowStatsSurfaces) {
  auto created = sql::Session::Create();
  ASSERT_TRUE(created.ok());
  auto session = std::move(*created);
  ASSERT_TRUE(session->Execute("CREATE TABLE t (id BIGINT)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  ASSERT_TRUE(session->Execute("SELECT * FROM t").ok());

  auto summary = session->Execute("SHOW STATS");
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(summary->column_names.size(), 3u);
  EXPECT_EQ(summary->column_names[0], "metric");
  bool saw_statements = false;
  for (const Row& row : summary->rows) {
    if (row[0].AsString() == "sql.statements") {
      saw_statements = true;
      EXPECT_EQ(row[1].AsString(), "counter");
      EXPECT_GE(row[2].AsDouble(), 3.0);
    }
  }
  EXPECT_TRUE(saw_statements);

  auto hist = session->Execute("SHOW STATS HISTOGRAMS");
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->column_names.front(), "histogram");
  bool saw_union_read = false;
  for (const Row& row : hist->rows) {
    if (row[0].AsString() == "dualtable.union_read.seconds{t}") saw_union_read = true;
  }
  EXPECT_TRUE(saw_union_read);

  auto queries = session->Execute("SHOW STATS QUERIES");
  ASSERT_TRUE(queries.ok());
  // The SHOW forms themselves are not logged: the three DDL/DML/select
  // statements are the whole log.
  ASSERT_EQ(queries->rows.size(), 3u);
  EXPECT_EQ(queries->rows[2][0].AsString(), "select");
  EXPECT_EQ(session->query_log()->total(), 3u);
}

TEST(TelemetrySqlTest, ScanCountersPublishWhileTheRecorderTicks) {
  // The recorder samples the registry from the scheduler thread while this
  // thread runs statements, and background COMPACT scans on the scheduler
  // thread too. Under -DDTL_TSAN=ON this is the race gate for the scan
  // counters: only the statement thread writes the session meter, and the
  // recorder reads the registry's scan.* counters, never the meter.
  sql::SessionOptions options;
  options.background_compaction = true;
  options.dual_defaults.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  options.dual_defaults.compact_threshold = 0.05;
  auto created = sql::Session::Create(std::move(options));
  ASSERT_TRUE(created.ok());
  auto session = std::move(*created);
  auto run = [&session](const std::string& sql) {
    auto result = session->Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  };
  run("CREATE TABLE t (id BIGINT, v BIGINT)");
  std::string insert = "INSERT INTO t VALUES (0, 0)";
  for (int i = 1; i < 64; ++i) {
    insert += ", (" + std::to_string(i) + ", " + std::to_string(i) + ")";
  }
  run(insert);
  for (int i = 0; i < 24; ++i) {
    run("UPDATE t SET v = v + 1 WHERE id % 8 = " + std::to_string(i % 8));
    run("SELECT COUNT(*), SUM(v) FROM t");
    run("SELECT id, v FROM t WHERE v > 5");
    session->scheduler()->Wake();
  }
  session->scheduler()->Quiesce();
  EXPECT_GT(session->recorder()->total_samples(), 0u);

  const table::ScanSnapshot meter = session->scan_meter()->Snapshot();
  EXPECT_GT(meter.rows, 0u);
  const obs::MetricsSnapshot snap = session->metrics()->Snapshot();
  EXPECT_EQ(snap.counters.at("scan.rows"), meter.rows);
  EXPECT_EQ(snap.counters.at("scan.batches"), meter.batches);
  EXPECT_EQ(snap.counters.at("scan.bytes"), meter.bytes);
  EXPECT_EQ(snap.counters.at("scan.materialized_rows"), meter.materialized_rows);
  EXPECT_EQ(snap.counters.at("scan.patched_rows"), meter.patched_rows);
}

TEST(TelemetrySqlTest, ShowStatsRequiresObservability) {
  sql::SessionOptions options;
  options.observability = false;
  auto created = sql::Session::Create(std::move(options));
  ASSERT_TRUE(created.ok());
  auto session = std::move(*created);
  EXPECT_EQ(session->query_log(), nullptr);
  EXPECT_EQ(session->recorder(), nullptr);
  EXPECT_FALSE(session->Execute("SHOW STATS").ok());
  EXPECT_FALSE(session->Execute("SHOW STATS QUERIES").ok());
}

TEST(TelemetrySqlTest, WriteStatsFilesProducesBothFormats) {
  auto created = sql::Session::Create();
  ASSERT_TRUE(created.ok());
  auto session = std::move(*created);
  ASSERT_TRUE(session->Execute("CREATE TABLE t (id BIGINT)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_NE(session->recorder(), nullptr);
  session->recorder()->Tick();

  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(session->WriteStatsFiles(dir).ok());
  for (const char* name : {"dtl-stats.jsonl", "dtl-stats.prom"}) {
    const std::string path = dir + "/" + name;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << path;
    char buf[16] = {};
    EXPECT_GT(std::fread(buf, 1, sizeof(buf), f), 0u) << path << " is empty";
    std::fclose(f);
    std::remove(path.c_str());
  }
  EXPECT_NE(session->StatsDumpPrometheus().find("# TYPE"), std::string::npos);
  EXPECT_NE(session->StatsDumpJsonLines().find("{\"t_us\":"), std::string::npos);
}

// --- obs-driven adaptive maintenance -----------------------------------------

class AdaptiveMaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<fs::SimFileSystem>();
    auto meta = dual::MetadataTable::Open(fs_.get());
    ASSERT_TRUE(meta.ok());
    metadata_ = std::move(*meta);
    cluster_ = std::make_unique<fs::ClusterModel>();
  }

  Result<std::shared_ptr<dual::DualTable>> OpenTable(dual::DualTableOptions options) {
    options.writer_options.stripe_rows = 32;
    options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
    options.metrics = &registry_;
    options.adaptive_maintenance = true;
    options.telemetry_clock = &clock_;
    return dual::DualTable::Open(fs_.get(), metadata_.get(), cluster_.get(), "adp",
                                 Schema({{"id", DataType::kInt64},
                                         {"amount", DataType::kDouble}}),
                                 options);
  }

  static std::vector<Row> IdRows(int64_t lo, int64_t hi) {
    std::vector<Row> rows;
    for (int64_t i = lo; i < hi; ++i) {
      rows.push_back(Row{Value::Int64(i), Value::Double(i * 0.5)});
    }
    return rows;
  }

  static Status Bump(dual::DualTable* table, int64_t lo, int64_t hi) {
    table::ScanSpec spec;
    spec.predicate_columns = {0};
    spec.predicate = [lo, hi](const Row& row) {
      return !row[0].is_null() && row[0].AsInt64() >= lo && row[0].AsInt64() < hi;
    };
    table::Assignment assign;
    assign.column = 1;
    assign.input_columns = {1};
    assign.compute = [](const Row& row) {
      return Value::Double(row[1].AsDouble() + 1.0);
    };
    return table->Update(spec, {assign}).status();
  }

  uint64_t Count(const char* key) {
    obs::MetricsSnapshot snap = registry_.Snapshot();
    auto it = snap.counters.find(key);
    return it == snap.counters.end() ? 0 : it->second;
  }

  /// Rounds that ran the preview scan: every round not skipped.
  uint64_t Previews() {
    return Count("maintenance.rounds{adp}") - Count("maintenance.skips{adp}");
  }

  std::unique_ptr<fs::SimFileSystem> fs_;
  std::unique_ptr<dual::MetadataTable> metadata_;
  std::unique_ptr<fs::ClusterModel> cluster_;
  obs::MetricsRegistry registry_;
  obs::ManualTelemetryClock clock_{1};
};

TEST_F(AdaptiveMaintenanceTest, SkipsRoundsWithoutAnyPreviewScan) {
  dual::DualTableOptions options;
  options.incremental_density_override = 0.10;
  options.compact_threshold = 10.0;
  auto table = OpenTable(options);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->InsertRows(IdRows(0, 200)).ok());

  // Clean table: every round is a telemetry-only skip.
  for (int i = 0; i < 3; ++i) (*table)->BackgroundMaintenance();
  EXPECT_EQ(Count("maintenance.rounds{adp}"), 3u);
  EXPECT_EQ(Count("maintenance.skips{adp}"), 3u);
  EXPECT_EQ(Previews(), 0u);

  // Density crosses the bar (100 attached cells / 200 master rows = 0.5):
  // one round triggers, previews once, and folds incrementally.
  ASSERT_TRUE(Bump(table->get(), 0, 100).ok());
  (*table)->BackgroundMaintenance();
  EXPECT_EQ(Count("maintenance.triggers{density}"), 1u);
  EXPECT_EQ(Previews(), 1u);
  EXPECT_EQ(Count("maintenance.incremental_compacts{adp}"), 1u);

  // The fold drained the deltas: the next round skips again, and the
  // decision gauge reflects the drained density.
  (*table)->BackgroundMaintenance();
  EXPECT_EQ(Count("maintenance.skips{adp}"), 4u);
  EXPECT_EQ(Previews(), 1u);
  EXPECT_EQ(registry_.Snapshot().gauges.at("maintenance.delta_density_ppm{adp}"), 0);
}

TEST_F(AdaptiveMaintenanceTest, LatencyWindowBreachTriggersMaintenance) {
  dual::DualTableOptions options;
  options.incremental_density_override = 0.90;  // density trigger out of the way
  options.compact_threshold = 10.0;             // byte trigger out of the way
  options.adaptive_latency_slo_seconds = 0.050;
  options.adaptive_min_window_count = 16;
  auto table = OpenTable(options);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->InsertRows(IdRows(0, 64)).ok());

  // Anchor the latency window, then record 20 union reads at 200ms — p95
  // lands 4x over the 50ms SLO.
  (*table)->BackgroundMaintenance();
  EXPECT_EQ(Count("maintenance.skips{adp}"), 1u);
  obs::Histogram* union_read =
      registry_.histogram(obs::names::kDualUnionReadSeconds, "adp");
  for (int i = 0; i < 20; ++i) union_read->ObserveSeconds(0.200);
  clock_.Advance(1'000'000);

  (*table)->BackgroundMaintenance();
  EXPECT_EQ(Count("maintenance.triggers{latency}"), 1u);
  EXPECT_EQ(Previews(), 1u);
  EXPECT_GT(registry_.Snapshot().gauges.at("maintenance.union_read_p95_us{adp}"),
            50'000);

  // Below the minimum window count the trigger stays silent: rotate the 20
  // observations out of the 8-second window and verify the round skips.
  clock_.Advance(60'000'000);
  (*table)->BackgroundMaintenance();
  EXPECT_EQ(Count("maintenance.triggers{latency}"), 1u);
  EXPECT_EQ(Count("maintenance.skips{adp}"), 2u);
}

}  // namespace
}  // namespace dtl
