// MetricsRegistry unit tests plus session-scoped metering: the session scan
// meter, the scan.* counters each statement publishes, and the
// Session::StatsDump surface.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
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

/// Each scan.* registry counter next to the session meter field it totals.
constexpr std::pair<const char*, uint64_t table::ScanSnapshot::*> kScanCounters[] = {
    {"scan.batches", &table::ScanSnapshot::batches},
    {"scan.rows", &table::ScanSnapshot::rows},
    {"scan.bytes", &table::ScanSnapshot::bytes},
    {"scan.passthrough_batches", &table::ScanSnapshot::passthrough_batches},
    {"scan.patched_rows", &table::ScanSnapshot::patched_rows},
    {"scan.masked_rows", &table::ScanSnapshot::masked_rows},
    {"scan.predicate_drops", &table::ScanSnapshot::predicate_drops},
    {"scan.materialized_rows", &table::ScanSnapshot::materialized_rows},
    {"scan.stripes_skipped", &table::ScanSnapshot::stripes_skipped},
    {"scan.stripes_skipped_bloom", &table::ScanSnapshot::stripes_skipped_bloom},
    {"scan.files_skipped", &table::ScanSnapshot::files_skipped},
};

/// Every scan.* counter equals the session meter's total of its field.
void ExpectCountersMatchMeter(sql::Session* session) {
  const table::ScanSnapshot meter = session->scan_meter()->Snapshot();
  const obs::MetricsSnapshot snap = session->metrics()->Snapshot();
  for (const auto& [name, field] : kScanCounters) {
    ASSERT_EQ(snap.counters.count(name), 1u) << name;
    EXPECT_EQ(snap.counters.at(name), meter.*field) << name;
    EXPECT_EQ(snap.views.count(name), 0u) << name;
  }
}

TEST(SessionObservabilityTest, SessionMeterFeedsCountersAndStatsDump) {
  auto created = sql::Session::Create();
  ASSERT_TRUE(created.ok());
  auto session = std::move(*created);

  ASSERT_TRUE(session->Execute("CREATE TABLE t (id BIGINT, v BIGINT)").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").ok());
  auto rows = session->Execute("SELECT id FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 3u);

  // The session meter counted the scan, and the statement published the
  // same count into the scan.rows counter.
  const uint64_t session_rows = session->scan_meter()->Snapshot().rows;
  EXPECT_GE(session_rows, 3u);
  EXPECT_EQ(session->metrics()->Snapshot().counters.at("scan.rows"), session_rows);

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

  // EXPLAIN ANALYZE runs its SELECT through the statement path a second time;
  // sql.statements still counts each statement issued once, as the query log
  // records it once. Its inner SELECT is one more select.
  ASSERT_TRUE(session->Execute("EXPLAIN ANALYZE SELECT id FROM t").ok());
  snap = session->metrics()->Snapshot();
  EXPECT_EQ(snap.counters.at("sql.statements"), 4u);
  EXPECT_EQ(snap.counters.at("sql.statements{select}"), 2u);
  EXPECT_EQ(snap.counters.at("sql.statements"), session->query_log()->total());
}

TEST(SessionObservabilityTest, EveryRouteAndDmlScanIsPublishedOnce) {
  sql::SessionOptions options;
  // Forced EDIT keeps the UPDATE and DELETE on the attached store, so later
  // reads patch and mask rows.
  options.dual_defaults.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  auto created = sql::Session::Create(std::move(options));
  ASSERT_TRUE(created.ok());
  auto session = std::move(*created);
  auto run = [&session](const std::string& sql) {
    auto result = session->Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  };
  run("CREATE TABLE t (id BIGINT, v BIGINT) INDEX (id)");
  run("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50)");
  ExpectCountersMatchMeter(session.get());

  run("SELECT id, v FROM t WHERE v > 10");      // vectorized route
  run("SELECT v FROM t ORDER BY v");            // operator tree
  run("SELECT COUNT(*) FROM t WHERE v < 40");   // operator tree, aggregate
  run("SELECT v FROM t WHERE id = 2");          // index lookup
  run("UPDATE t SET v = 99 WHERE v >= 30");     // EDIT, scan-routed
  run("DELETE FROM t WHERE v = 20");            // EDIT delete
  run("SELECT id, v FROM t WHERE v > 0");       // patches and masks
  ExpectCountersMatchMeter(session.get());

  const table::ScanSnapshot totals = session->scan_meter()->Snapshot();
  EXPECT_GT(totals.rows, 0u);
  EXPECT_GT(totals.bytes, 0u);
  EXPECT_GT(totals.patched_rows, 0u);
  EXPECT_GT(totals.masked_rows, 0u);
  EXPECT_GT(totals.predicate_drops, 0u);
  EXPECT_GT(totals.materialized_rows, 0u);

  // EXPLAIN ANALYZE runs its SELECT through the statement path a second
  // time: the counters move by the meter's delta, not twice it, and the
  // query log gains one record carrying that delta.
  const table::ScanSnapshot before = session->scan_meter()->Snapshot();
  const uint64_t records = session->query_log()->total();
  run("EXPLAIN ANALYZE SELECT id FROM t WHERE v > 10");
  const table::ScanSnapshot delta = session->scan_meter()->Snapshot() - before;
  EXPECT_GT(delta.rows, 0u);
  ExpectCountersMatchMeter(session.get());
  ASSERT_EQ(session->query_log()->total(), records + 1);
  const obs::QueryLogRecord last = session->query_log()->Tail(1).at(0);
  EXPECT_EQ(last.kind, "explain_analyze");
  EXPECT_EQ(last.scan_bytes, delta.bytes);
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
