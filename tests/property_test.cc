// Property-based suites (parameterized gtest): each instantiation checks an
// invariant across a sweep of configurations against simple reference
// models.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "common/random.h"
#include "dualtable/dual_table.h"
#include "fs/filesystem.h"
#include "kv/store.h"
#include "orc/reader.h"
#include "orc/writer.h"

namespace dtl {
namespace {

// --- Property 1: DualTable under random DML matches an in-memory model ------------

struct DmlSweepParam {
  int rows;
  int operations;
  double update_prob;   // vs delete
  uint64_t stripe_rows;
  uint64_t seed;
};

class DualTableModelTest : public ::testing::TestWithParam<DmlSweepParam> {};

TEST_P(DualTableModelTest, UnionReadMatchesReferenceModel) {
  const DmlSweepParam p = GetParam();
  fs::SimFileSystem fs;
  auto metadata = dual::MetadataTable::Open(&fs);
  ASSERT_TRUE(metadata.ok());
  fs::ClusterModel cluster;

  Schema schema({{"id", DataType::kInt64}, {"bucket", DataType::kInt64},
                 {"v", DataType::kInt64}});
  dual::DualTableOptions options;
  options.writer_options.stripe_rows = p.stripe_rows;
  options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  auto t = dual::DualTable::Open(&fs, metadata->get(), &cluster, "t", schema, options);
  ASSERT_TRUE(t.ok());

  // Reference model: id -> (bucket, v); absent = deleted.
  std::map<int64_t, std::pair<int64_t, int64_t>> model;
  std::vector<Row> rows;
  for (int i = 0; i < p.rows; ++i) {
    rows.push_back({Value::Int64(i), Value::Int64(i % 16), Value::Int64(i)});
    model[i] = {i % 16, i};
  }
  ASSERT_TRUE((*t)->InsertRows(rows).ok());

  Random rng(p.seed);
  for (int op = 0; op < p.operations; ++op) {
    const int64_t bucket = static_cast<int64_t>(rng.Uniform(16));
    if (rng.Bernoulli(p.update_prob)) {
      const int64_t delta = rng.UniformRange(1, 100);
      table::ScanSpec filter;
      filter.predicate_columns = {1};
      filter.predicate = [bucket](const Row& row) {
        return row[1].AsInt64() == bucket;
      };
      table::Assignment assign;
      assign.column = 2;
      assign.input_columns = {2};
      assign.compute = [delta](const Row& row) {
        return Value::Int64(row[2].AsInt64() + delta);
      };
      ASSERT_TRUE((*t)->Update(filter, {assign}).ok());
      for (auto& [id, rec] : model) {
        if (rec.first == bucket) rec.second += delta;
      }
    } else {
      const int64_t mod = 1 + static_cast<int64_t>(rng.Uniform(50));
      table::ScanSpec filter;
      filter.predicate_columns = {0, 1};
      filter.predicate = [bucket, mod](const Row& row) {
        return row[1].AsInt64() == bucket && row[0].AsInt64() % 53 < mod / 10;
      };
      ASSERT_TRUE((*t)->Delete(filter).ok());
      for (auto it = model.begin(); it != model.end();) {
        if (it->second.first == bucket && it->first % 53 < mod / 10) {
          it = model.erase(it);
        } else {
          ++it;
        }
      }
    }
    // Occasionally compact mid-stream; the view must not change.
    if (op == p.operations / 2) {
      ASSERT_TRUE((*t)->Compact().ok());
    }
  }

  auto scanned = table::CollectRows(t->get(), table::ScanSpec{});
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(scanned->size(), model.size());
  for (const Row& row : *scanned) {
    auto it = model.find(row[0].AsInt64());
    ASSERT_NE(it, model.end());
    EXPECT_EQ(row[1].AsInt64(), it->second.first);
    EXPECT_EQ(row[2].AsInt64(), it->second.second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DmlSweeps, DualTableModelTest,
    ::testing::Values(DmlSweepParam{200, 10, 0.8, 64, 1},
                      DmlSweepParam{500, 20, 0.5, 128, 2},
                      DmlSweepParam{1000, 15, 0.7, 256, 3},
                      DmlSweepParam{300, 30, 0.3, 50, 4},
                      DmlSweepParam{100, 25, 0.9, 16, 5}));

// --- Property 2: KV store matches an ordered-map reference under random ops --------

struct KvSweepParam {
  size_t flush_bytes;
  int l0_trigger;
  int operations;
  uint64_t seed;
};

class KvModelTest : public ::testing::TestWithParam<KvSweepParam> {};

TEST_P(KvModelTest, StoreMatchesReferenceModel) {
  const KvSweepParam p = GetParam();
  fs::SimFileSystem fs;
  kv::KvStoreOptions options;
  options.dir = "/hbase/t";
  options.memtable_flush_bytes = p.flush_bytes;
  options.l0_compaction_trigger = p.l0_trigger;
  auto store = kv::KvStore::Open(&fs, options);
  ASSERT_TRUE(store.ok());

  // Reference: (row, qualifier) -> latest value; absent = deleted/missing.
  std::map<std::pair<std::string, uint32_t>, std::string> model;
  Random rng(p.seed);
  for (int op = 0; op < p.operations; ++op) {
    std::string row = "row" + std::to_string(rng.Uniform(200));
    uint32_t qual = static_cast<uint32_t>(rng.Uniform(4));
    switch (rng.Uniform(10)) {
      case 0: {  // row delete
        ASSERT_TRUE((*store)->DeleteRow(row).ok());
        for (uint32_t q = 0; q < 4; ++q) model.erase({row, q});
        break;
      }
      case 1: {  // column delete
        ASSERT_TRUE((*store)->DeleteColumn(row, qual).ok());
        model.erase({row, qual});
        break;
      }
      default: {  // put
        std::string value = rng.NextString(24);
        ASSERT_TRUE((*store)->Put(row, qual, value).ok());
        model[{row, qual}] = value;
      }
    }
    if (op % 997 == 0) {
      ASSERT_TRUE((*store)->Flush().ok());
    }
  }

  // Point reads match.
  Random probe(p.seed + 1);
  for (int i = 0; i < 200; ++i) {
    std::string row = "row" + std::to_string(probe.Uniform(200));
    uint32_t qual = static_cast<uint32_t>(probe.Uniform(4));
    auto got = (*store)->Get(row, qual);
    ASSERT_TRUE(got.ok());
    auto it = model.find({row, qual});
    if (it == model.end()) {
      EXPECT_FALSE(got->has_value()) << row << "/" << qual;
    } else {
      ASSERT_TRUE(got->has_value()) << row << "/" << qual;
      EXPECT_EQ(**got, it->second);
    }
  }

  // Full scan matches (content and order).
  auto scanner = (*store)->NewRowScanner();
  std::map<std::pair<std::string, uint32_t>, std::string> scanned;
  std::string prev_row;
  while (scanner->Next()) {
    EXPECT_LE(prev_row, scanner->view().row());
    prev_row = scanner->view().row();
    for (const kv::Cell& cell : scanner->view().cells) {
      scanned[{cell.key.row, cell.key.qualifier}] = cell.value.value;
    }
  }
  ASSERT_TRUE(scanner->status().ok());
  EXPECT_EQ(scanned, model);

  // Compaction preserves the model.
  ASSERT_TRUE((*store)->Compact().ok());
  auto scanner2 = (*store)->NewRowScanner();
  std::map<std::pair<std::string, uint32_t>, std::string> after;
  while (scanner2->Next()) {
    for (const kv::Cell& cell : scanner2->view().cells) {
      after[{cell.key.row, cell.key.qualifier}] = cell.value.value;
    }
  }
  EXPECT_EQ(after, model);
}

INSTANTIATE_TEST_SUITE_P(KvSweeps, KvModelTest,
                         ::testing::Values(KvSweepParam{1 << 12, 2, 3000, 11},
                                           KvSweepParam{1 << 14, 4, 5000, 12},
                                           KvSweepParam{1 << 16, 8, 5000, 13},
                                           KvSweepParam{1 << 20, 3, 2000, 14}));

// --- Property 3: ORC round trip across stripe sizes and null densities -------------

struct OrcSweepParam {
  uint64_t stripe_rows;
  double null_prob;
  int rows;
  uint64_t seed;
};

class OrcRoundTripTest : public ::testing::TestWithParam<OrcSweepParam> {};

TEST_P(OrcRoundTripTest, RandomDataSurvivesRoundTrip) {
  const OrcSweepParam p = GetParam();
  fs::SimFileSystem fs;
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"b", DataType::kBool}});
  orc::WriterOptions options;
  options.stripe_rows = p.stripe_rows;
  auto writer = orc::OrcWriter::Create(&fs, "/t/f.orc", schema, 1, options);
  ASSERT_TRUE(writer.ok());

  Random rng(p.seed);
  std::vector<Row> expected;
  for (int i = 0; i < p.rows; ++i) {
    Row row;
    auto maybe_null = [&](Value v) {
      return rng.Bernoulli(p.null_prob) ? Value::Null() : v;
    };
    row.push_back(maybe_null(Value::Int64(rng.UniformRange(-1000000, 1000000))));
    row.push_back(maybe_null(Value::Double(rng.NextDouble() * 1e6)));
    row.push_back(maybe_null(Value::String(rng.NextString(rng.Uniform(20)))));
    row.push_back(maybe_null(Value::Bool(rng.Bernoulli(0.5))));
    ASSERT_TRUE((*writer)->Append(row).ok());
    expected.push_back(std::move(row));
  }
  ASSERT_TRUE((*writer)->Close().ok());

  auto reader = orc::OrcReader::Open(&fs, "/t/f.orc");
  ASSERT_TRUE(reader.ok());
  size_t n = 0;
  for (size_t s = 0; s < (*reader)->num_stripes(); ++s) {
    auto stripe = (*reader)->ReadStripe(s);
    ASSERT_TRUE(stripe.ok()) << stripe.status().ToString();
    for (size_t i = 0; i < stripe->num_rows; ++i, ++n) {
      ASSERT_LT(n, expected.size());
      const Row& want = expected[n];
      const Row got = stripe->GetRow(i);
      for (size_t c = 0; c < want.size(); ++c) {
        EXPECT_EQ(got[c].is_null(), want[c].is_null()) << "row " << n << " col " << c;
        if (!want[c].is_null()) {
          EXPECT_EQ(got[c].Compare(want[c]), 0);
        }
      }
    }
  }
  EXPECT_EQ(n, expected.size());
}

INSTANTIATE_TEST_SUITE_P(OrcSweeps, OrcRoundTripTest,
                         ::testing::Values(OrcSweepParam{1, 0.0, 50, 21},
                                           OrcSweepParam{7, 0.2, 500, 22},
                                           OrcSweepParam{100, 0.5, 1000, 23},
                                           OrcSweepParam{1000, 0.05, 3000, 24},
                                           OrcSweepParam{4096, 1.0, 500, 25}));

// --- Property 4: cost-model decisions are sign-consistent and monotone -------------

struct CostSweepParam {
  double k;
  uint64_t table_bytes;
};

class CostModelSweepTest : public ::testing::TestWithParam<CostSweepParam> {};

TEST_P(CostModelSweepTest, DecisionMatchesSignAndIsMonotone) {
  const CostSweepParam p = GetParam();
  fs::ClusterModel cluster;
  dual::CostModelParams params;
  params.k = p.k;
  dual::CostModel model(&cluster, params);

  bool seen_overwrite = false;
  for (double alpha = 0.01; alpha < 1.0; alpha += 0.01) {
    auto d = model.DecideUpdate(p.table_bytes, alpha);
    // Plan is exactly the sign of Eq. 1.
    EXPECT_EQ(d.plan == table::DmlPlan::kEdit, d.cost_difference_seconds > 0);
    // Once OVERWRITE wins, it keeps winning (costs are linear in alpha).
    if (seen_overwrite) {
      EXPECT_EQ(d.plan, table::DmlPlan::kOverwrite) << "alpha " << alpha;
    }
    seen_overwrite |= d.plan == table::DmlPlan::kOverwrite;
  }
  // The analytic crossover agrees with the scanned decision flip.
  double crossover = model.UpdateCrossoverRatio(p.table_bytes);
  if (crossover < 1.0 && crossover > 0.0) {
    EXPECT_EQ(model.DecideUpdate(p.table_bytes, crossover * 0.9).plan,
              table::DmlPlan::kEdit);
    if (crossover * 1.1 < 1.0) {
      EXPECT_EQ(model.DecideUpdate(p.table_bytes, crossover * 1.1).plan,
                table::DmlPlan::kOverwrite);
    }
  }

  // Higher k favors OVERWRITE (more reads amortize the rewrite).
  dual::CostModelParams params_high = params;
  params_high.k = p.k * 4;
  dual::CostModel model_high(&cluster, params_high);
  EXPECT_LE(model_high.UpdateCrossoverRatio(p.table_bytes),
            model.UpdateCrossoverRatio(p.table_bytes));
}

INSTANTIATE_TEST_SUITE_P(CostSweeps, CostModelSweepTest,
                         ::testing::Values(CostSweepParam{0.5, 1ull << 30},
                                           CostSweepParam{1, 10ull << 30},
                                           CostSweepParam{5, 100ull << 30},
                                           CostSweepParam{30, 100ull << 30},
                                           CostSweepParam{2, 1ull << 20}));

// --- Property 5: KV store recovers the acknowledged prefix after a torn crash ------

struct TornWriteParam {
  int operations;
  double tear_fraction;  // of the in-flight commit's un-synced suffix
  uint64_t seed;
};

class TornWriteRecoveryTest : public ::testing::TestWithParam<TornWriteParam> {};

// A random put/delete workload is crashed at seed-derived random mutating-op
// counts with the tail of the in-flight commit torn. The reopened store must
// equal the reference model of the acknowledged (synced) prefix; the single
// operation in flight at the crash may be present or absent, never mangled.
TEST_P(TornWriteRecoveryTest, ReopenedStoreMatchesModelOfAcknowledgedOps) {
  const TornWriteParam p = GetParam();
  constexpr int kRows = 40;
  constexpr uint32_t kQuals = 3;

  // The deterministic op sequence, generated once and replayed per trial.
  struct Op {
    bool is_delete = false;
    std::string row;
    uint32_t qual = 0;
    std::string value;
  };
  std::vector<Op> ops;
  Random gen(p.seed);
  for (int i = 0; i < p.operations; ++i) {
    Op op;
    op.row = "row" + std::to_string(gen.Uniform(kRows));
    op.qual = static_cast<uint32_t>(gen.Uniform(kQuals));
    op.is_delete = gen.Uniform(8) == 0;
    if (!op.is_delete) op.value = gen.NextString(16);
    ops.push_back(op);
  }
  auto run_op = [](kv::KvStore* store, const Op& op) {
    return op.is_delete ? store->DeleteColumn(op.row, op.qual)
                        : store->Put(op.row, op.qual, op.value);
  };

  kv::KvStoreOptions options;
  options.dir = "/hbase/torn";
  options.wal_sync_interval_bytes = 0;  // an acknowledged op is a synced op
  options.memtable_flush_bytes = 1 << 10;

  // Fault-free run to learn how many mutating FS ops the workload performs.
  uint64_t total_ops = 0;
  {
    fs::SimFileSystem fs;
    auto store = kv::KvStore::Open(&fs, options);
    ASSERT_TRUE(store.ok());
    const uint64_t before = fs.MutatingOpCount();
    for (const Op& op : ops) ASSERT_TRUE(run_op(store->get(), op).ok());
    total_ops = fs.MutatingOpCount() - before;
  }
  ASSERT_GT(total_ops, 0u);

  Random crash_rng(p.seed ^ 0xC4A5C4A5ull);
  for (int trial = 0; trial < 8; ++trial) {
    const uint64_t crash_at = 1 + crash_rng.Uniform(total_ops);
    SCOPED_TRACE("crash at mutating op " + std::to_string(crash_at) + "/" +
                 std::to_string(total_ops));
    fs::SimFileSystem fs;
    auto store = kv::KvStore::Open(&fs, options);
    ASSERT_TRUE(store.ok());
    fs::FaultPolicy policy;
    policy.mode = fs::FaultMode::kCrash;
    policy.trigger_after_ops = crash_at;
    policy.tear_fraction = p.tear_fraction;
    fs.SetFaultPolicy(policy);

    std::map<std::pair<std::string, uint32_t>, std::string> model;
    std::optional<Op> in_flight;
    for (const Op& op : ops) {
      if (!run_op(store->get(), op).ok()) {
        in_flight = op;
        break;
      }
      if (op.is_delete) {
        model.erase({op.row, op.qual});
      } else {
        model[{op.row, op.qual}] = op.value;
      }
    }
    store->reset();  // process death while the fs is down: the writer is lost
    fs.ClearFaultPolicy();

    auto reopened = kv::KvStore::Open(&fs, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    for (int r = 0; r < kRows; ++r) {
      for (uint32_t q = 0; q < kQuals; ++q) {
        const std::string row = "row" + std::to_string(r);
        auto got = (*reopened)->Get(row, q);
        ASSERT_TRUE(got.ok()) << row << "/" << q << ": " << got.status().ToString();
        const auto it = model.find({row, q});
        const std::optional<std::string> acked =
            it == model.end() ? std::nullopt : std::optional<std::string>(it->second);
        if (in_flight.has_value() && in_flight->row == row && in_flight->qual == q) {
          // The op in flight at the crash may have reached the WAL before the
          // torn sync; either state is legal, a third state is not.
          const std::optional<std::string> applied =
              in_flight->is_delete ? std::nullopt
                                   : std::optional<std::string>(in_flight->value);
          EXPECT_TRUE(*got == acked || *got == applied)
              << row << "/" << q << " recovered as "
              << (got->has_value() ? "\"" + **got + "\"" : "<absent>");
        } else {
          EXPECT_TRUE(*got == acked)
              << row << "/" << q << " recovered as "
              << (got->has_value() ? "\"" + **got + "\"" : "<absent>") << ", expected "
              << (acked.has_value() ? "\"" + *acked + "\"" : "<absent>");
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TornWrites, TornWriteRecoveryTest,
                         ::testing::Values(TornWriteParam{60, 0.0, 21},
                                           TornWriteParam{60, 0.5, 22},
                                           TornWriteParam{120, 0.5, 23},
                                           TornWriteParam{120, 1.0, 24}));

}  // namespace
}  // namespace dtl
