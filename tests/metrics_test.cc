// MetricsRegistry unit tests plus the session-scoped metering satellite:
// ScanMeter forwarding semantics and the Session::StatsDump surface.
#include <gtest/gtest.h>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "sql/session.h"
#include "table/scan_stats.h"

namespace dtl {
namespace {

TEST(MetricsTest, CounterAndGaugeBasics) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.counter(obs::names::kSqlStatements);
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value(), 5u);
  // Re-registration returns the same instrument.
  EXPECT_EQ(registry.counter(obs::names::kSqlStatements), c);

  obs::Gauge* g = registry.gauge(obs::names::kSchedulerJobs);
  g->Set(7);
  g->Add(-2);
  EXPECT_EQ(g->value(), 5);
}

TEST(MetricsTest, LabeledFamiliesAreDistinct) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.counter(obs::names::kKvPuts, "orders");
  obs::Counter* b = registry.counter(obs::names::kKvPuts, "customers");
  EXPECT_NE(a, b);
  a->Inc(3);
  b->Inc(1);
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("kv.puts{orders}"), 3u);
  EXPECT_EQ(snap.counters.at("kv.puts{customers}"), 1u);
}

TEST(MetricsTest, HistogramBucketsAndSnapshotDelta) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.histogram(obs::names::kDualUnionReadRows);
  h->Observe(0);
  h->Observe(1);
  h->Observe(5);
  h->Observe(1000);
  obs::HistogramSnapshot before = h->Snapshot();
  EXPECT_EQ(before.count, 4u);
  EXPECT_EQ(before.sum, 1006u);
  EXPECT_EQ(before.max, 1000u);
  EXPECT_DOUBLE_EQ(before.Mean(), 1006.0 / 4);
  // Bucket 0 holds {0}; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(before.buckets[0], 1u);  // 0
  EXPECT_EQ(before.buckets[1], 1u);  // 1
  EXPECT_EQ(before.buckets[3], 1u);  // 5 in [4, 8)
  EXPECT_EQ(before.buckets[10], 1u);  // 1000 in [512, 1024)

  h->Observe(5);
  obs::HistogramSnapshot delta = h->Snapshot() - before;
  EXPECT_EQ(delta.count, 1u);
  EXPECT_EQ(delta.sum, 5u);
  EXPECT_EQ(delta.buckets[3], 1u);
}

TEST(MetricsTest, ObserveSecondsUsesMicros) {
  obs::Histogram h;
  h.ObserveSeconds(0.002);  // 2000 us
  obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 2000u);
}

TEST(MetricsTest, ViewsEvaluateAtSnapshotAndRebind) {
  obs::MetricsRegistry registry;
  int value = 41;
  registry.RegisterView(obs::names::kSchedulerRounds,
                        [&value]() -> double { return value; });
  value = 42;
  EXPECT_DOUBLE_EQ(registry.Snapshot().views.at("scheduler.rounds"), 42.0);
  // Re-registration rebinds the callback.
  registry.RegisterView(obs::names::kSchedulerRounds, []() -> double { return 7; });
  EXPECT_DOUBLE_EQ(registry.Snapshot().views.at("scheduler.rounds"), 7.0);
  registry.UnregisterView(obs::names::kSchedulerRounds);
  EXPECT_EQ(registry.Snapshot().views.count("scheduler.rounds"), 0u);
}

TEST(MetricsTest, RenderTextAndJsonContainInstruments) {
  obs::MetricsRegistry registry;
  registry.counter(obs::names::kSqlStatements)->Inc(3);
  registry.histogram(obs::names::kDualEditSeconds, "t")->ObserveSeconds(0.5);
  std::string text = registry.RenderText();
  EXPECT_NE(text.find("sql.statements 3"), std::string::npos);
  EXPECT_NE(text.find("dualtable.edit.seconds{t}"), std::string::npos);
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"sql.statements\":3"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// --- session-scoped metering -------------------------------------------------

TEST(ScanMeterForwardingTest, AddsForwardButResetDoesNot) {
  table::ScanMeter root;
  table::ScanMeter session(&root);
  session.AddBatch(10, 100);
  session.AddPatchedRows(2);
  EXPECT_EQ(session.Snapshot().rows, 10u);
  EXPECT_EQ(root.Snapshot().rows, 10u);
  EXPECT_EQ(root.Snapshot().patched_rows, 2u);

  table::ScanSnapshot merged;
  merged.rows = 5;
  merged.batches = 1;
  session.Add(merged);
  EXPECT_EQ(session.Snapshot().rows, 15u);
  EXPECT_EQ(root.Snapshot().rows, 15u);

  // Reset clears only the forwarding meter, never the forward target.
  session.Reset();
  EXPECT_EQ(session.Snapshot().rows, 0u);
  EXPECT_EQ(root.Snapshot().rows, 15u);
}

TEST(SessionObservabilityTest, SessionMeterFeedsGlobalAndStatsDump) {
  auto created = sql::Session::Create();
  ASSERT_TRUE(created.ok());
  auto session = std::move(*created);

  const table::ScanSnapshot global_before = table::GlobalScanMeter().Snapshot();
  ASSERT_TRUE(session->Execute("CREATE TABLE t (id BIGINT, v BIGINT)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").ok());
  auto rows = session->Execute("SELECT id FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 3u);

  // The session meter counted the scan, and forwarded into the global meter
  // so process-wide totals (used by the benches) still move.
  const uint64_t session_rows = session->scan_meter()->Snapshot().rows;
  EXPECT_GE(session_rows, 3u);
  EXPECT_GE(table::GlobalScanMeter().Snapshot().rows - global_before.rows,
            session_rows);

  // sql.statements counted every statement, with a labeled select counter.
  obs::MetricsSnapshot snap = session->metrics()->Snapshot();
  EXPECT_EQ(snap.counters.at("sql.statements"), 3u);
  EXPECT_EQ(snap.counters.at("sql.statements{select}"), 1u);

  // StatsDump shows the fs channels, scan counters, per-table kv views, and
  // the audit count in one report.
  std::string dump = session->StatsDump();
  EXPECT_NE(dump.find("fs.hdfs.bytes_read"), std::string::npos);
  EXPECT_NE(dump.find("scan.rows"), std::string::npos);
  EXPECT_NE(dump.find("kv.puts{t}"), std::string::npos);
  EXPECT_NE(dump.find("cost_audit.records"), std::string::npos);
  // Per-table MVCC snapshot views (DESIGN.md §11): the SELECT above took a
  // statement snapshot, and nothing holds one now.
  const obs::MetricsSnapshot snap2 = session->metrics()->Snapshot();
  EXPECT_NE(dump.find("snapshot.acquired{t}"), std::string::npos);
  EXPECT_NE(dump.find("snapshot.pinned_generations{t}"), std::string::npos);
  EXPECT_GE(snap2.views.at("snapshot.acquired{t}"), 1.0);
  EXPECT_EQ(snap2.views.at("snapshot.active{t}"), 0.0);
  std::string json = session->StatsDumpJson();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"cost_audit\""), std::string::npos);
}

TEST(SessionObservabilityTest, ObservabilityOffWiresNothing) {
  sql::SessionOptions options;
  options.observability = false;
  auto created = sql::Session::Create(std::move(options));
  ASSERT_TRUE(created.ok());
  auto session = std::move(*created);
  ASSERT_TRUE(session->Execute("CREATE TABLE t (id BIGINT)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(session->Execute("SELECT * FROM t").ok());
  EXPECT_EQ(session->metrics()->Snapshot().counters.size(), 0u);
  EXPECT_EQ(session->scan_meter()->Snapshot().rows, 0u);
  auto analyze = session->Execute("EXPLAIN ANALYZE SELECT * FROM t");
  EXPECT_FALSE(analyze.ok());
  EXPECT_TRUE(analyze.status().IsNotSupported());
}

TEST(SessionObservabilityTest, DroppedTableKvViewReadsZero) {
  sql::SessionOptions options;
  // Forced EDIT guarantees the UPDATE writes the attached KV store, so the
  // kv.puts view has something to read before the drop.
  options.dual_defaults.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  auto created = sql::Session::Create(std::move(options));
  ASSERT_TRUE(created.ok());
  auto session = std::move(*created);
  ASSERT_TRUE(session->Execute("CREATE TABLE t (id BIGINT)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (1), (2)").ok());
  ASSERT_TRUE(session->Execute("UPDATE t SET id = 9 WHERE id = 1").ok());
  EXPECT_GT(session->metrics()->Snapshot().views.at("kv.puts{t}"), 0.0);
  ASSERT_TRUE(session->Execute("DROP TABLE t").ok());
  EXPECT_DOUBLE_EQ(session->metrics()->Snapshot().views.at("kv.puts{t}"), 0.0);
}

TEST(SessionObservabilityTest, IndexCountsHaveOneNameAndOutliveTheTable) {
  auto created = sql::Session::Create();
  ASSERT_TRUE(created.ok());
  auto session = std::move(*created);
  ASSERT_TRUE(session->Execute("CREATE TABLE k (id BIGINT, v BIGINT) INDEX (id)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO k VALUES (1, 10), (2, 20)").ok());
  ASSERT_TRUE(session->Execute("SELECT v FROM k WHERE id = 2").ok());
  ASSERT_TRUE(session->Execute("SELECT v FROM k WHERE id IN (1, 2)").ok());
  const obs::MetricsSnapshot snap = session->metrics()->Snapshot();
  EXPECT_EQ(snap.counters.at("index.lookups{k}"), 3u);  // one per probe value
  EXPECT_EQ(snap.counters.at("index.stale_entries_skipped{k}"), 0u);
  EXPECT_EQ(snap.counters.at("index.rebuilds{k}"), 1u);  // the build at CREATE
  // The views that duplicated these counters are gone; the index views
  // without a counter of their own remain.
  for (const char* gone :
       {"dualtable.index.lookups{k}", "dualtable.index.stale_dropped{k}",
        "dualtable.index.rebuilds{k}"}) {
    EXPECT_EQ(snap.views.count(gone), 0u) << gone;
  }
  EXPECT_EQ(snap.views.count("dualtable.index.entries_added{k}"), 1u);
  ASSERT_TRUE(session->Execute("DROP TABLE k").ok());
  EXPECT_EQ(session->metrics()->Snapshot().counters.at("index.lookups{k}"), 3u);
  EXPECT_EQ(session->metrics()->SumCounterFamily(obs::names::kIndexCounterLookups), 3u);
}

}  // namespace
}  // namespace dtl
