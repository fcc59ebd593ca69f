// Randomized differential-DML harness (DESIGN.md §12): random
// INSERT/UPDATE/DELETE/COMPACT(full|incremental)/snapshot interleavings are
// executed against a DualTable and, in lockstep, against a trivially correct
// in-memory reference model. After every operation the table must agree with
// the model byte-for-byte on all three read paths (row iterator, batch
// iterator, parallel scan), and every still-pinned snapshot must keep
// replaying exactly the state it was acquired at.
//
// Reproduction: the seed is printed on entry and embedded in every assertion
// message; re-run a failure with DTL_DIFF_SEED=<seed> (and optionally
// DTL_DIFF_OPS=<n> to lengthen the interleaving).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "dualtable/dual_table.h"
#include "exec/operators.h"
#include "exec/parallel_scan.h"
#include "fs/filesystem.h"

namespace dtl::dual {
namespace {

Schema DiffSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"day", DataType::kDate},
                 {"amount", DataType::kDouble},
                 {"tag", DataType::kString}});
}

Row MakeSeedRow(int64_t id) {
  return Row{Value::Int64(id), Value::Date(id % 36), Value::Double(id * 1.5),
             Value::String("t" + std::to_string(id % 7))};
}

// Canonical rendering of a table state, keyed by the unique id column. Two
// states render identically iff every row is byte-identical.
std::string StateToString(const std::map<int64_t, Row>& state) {
  std::ostringstream out;
  for (const auto& [id, row] : state) out << id << "=>" << dtl::RowToString(row) << '\n';
  return out.str();
}

// [lo, hi) over the id column — the only predicate shape the harness uses,
// so the model can apply it without an expression evaluator.
table::ScanSpec IdRange(int64_t lo, int64_t hi) {
  table::ScanSpec spec;
  spec.predicate_columns = {0};
  spec.predicate = [lo, hi](const Row& row) {
    return !row[0].is_null() && row[0].AsInt64() >= lo && row[0].AsInt64() < hi;
  };
  return spec;
}

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::strtoull(env, nullptr, 10) : fallback;
}

class DifferentialHarness {
 public:
  DifferentialHarness(uint64_t seed, uint64_t ops) : seed_(seed), ops_(ops), rng_(seed) {}

  void Run() {
    fs::SimFileSystem fs;
    auto metadata = MetadataTable::Open(&fs);
    ASSERT_TRUE(metadata.ok());
    fs::ClusterModel cluster;
    ThreadPool pool(4);

    DualTableOptions options;
    // Small stripes/batches put every operation near stripe and batch
    // boundaries, where the folding and raw-copy paths actually branch.
    options.writer_options.stripe_rows = 16 + rng_() % 48;
    options.scan_batch_rows = 8 + rng_() % 56;
    // Rotate the selection policy: cost-model-derived threshold, rewrite
    // everything with any delta, and a mid density that leaves files behind.
    const double overrides[] = {-1.0, 0.0, 0.35};
    options.incremental_density_override = overrides[rng_() % 3];
    auto table = DualTable::Open(&fs, metadata->get(), &cluster, "diff",
                                 DiffSchema(), options);
    ASSERT_TRUE(table.ok());
    table_ = table->get();
    pool_ = &pool;
    // Pinned snapshots must not outlive this scope: releasing one runs the
    // generation's deferred file GC against `fs`, a local. Drop them on every
    // exit path (including assertion early-returns) before `fs` dies.
    struct PinDropper {
      std::vector<PinnedSnapshot>* pins;
      ~PinDropper() { pins->clear(); }
    } drop_pins{&pinned_};

    while (op_ < ops_) {
      ++op_;
      const uint64_t dice = rng_() % 100;
      if (dice < 25) {
        StepInsert();
      } else if (dice < 50) {
        StepUpdate();
      } else if (dice < 68) {
        StepDelete();
      } else if (dice < 76) {
        SCOPED_TRACE(Where("full compact"));
        ASSERT_TRUE(table_->Compact().ok());
      } else if (dice < 88) {
        StepIncrementalCompact();
      } else {
        StepSnapshot();
      }
      if (HasFatalFailure()) return;
      // Pinned snapshots are cheap to re-check (one row scan each), so they
      // are verified every step; the three-path sweep runs often enough to
      // pin divergence to a short window of operations.
      VerifySnapshots();
      if (HasFatalFailure()) return;
      if (op_ % 4 == 0 || op_ == ops_) {
        VerifyAllPaths();
        if (HasFatalFailure()) return;
      }
    }
  }

 private:
  static bool HasFatalFailure() { return ::testing::Test::HasFatalFailure(); }

  std::string Where(const std::string& what) const {
    return what + " at op " + std::to_string(op_) + " (seed " +
           std::to_string(seed_) + ")";
  }

  // Random existing-id window covering roughly `frac` of the key space.
  std::pair<int64_t, int64_t> RandomRange(double frac) {
    if (model_.empty()) return {0, 0};
    const int64_t span = std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(next_id_) * frac));
    const int64_t lo = static_cast<int64_t>(rng_() % static_cast<uint64_t>(next_id_));
    return {lo, lo + span};
  }

  void StepInsert() {
    SCOPED_TRACE(Where("insert"));
    const size_t n = 1 + rng_() % 48;
    std::vector<Row> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Row row = MakeSeedRow(next_id_++);
      model_[row[0].AsInt64()] = row;
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(table_->InsertRows(rows).ok());
  }

  void StepUpdate() {
    auto [lo, hi] = RandomRange(0.05 + (rng_() % 30) * 0.01);
    SCOPED_TRACE(Where("update [" + std::to_string(lo) + "," + std::to_string(hi) + ")"));
    const double amount_delta = static_cast<double>(rng_() % 1000) * 0.25;
    const std::string tag = "u" + std::to_string(op_);
    std::vector<table::Assignment> assigns(2);
    assigns[0].column = 2;
    assigns[0].input_columns = {2};
    assigns[0].compute = [amount_delta](const Row& row) {
      return Value::Double(row[2].AsDouble() + amount_delta);
    };
    assigns[1].column = 3;
    assigns[1].compute = [tag](const Row&) { return Value::String(tag); };
    // A random ratio hint steers the cost model across both plans; whichever
    // plan runs, the visible result must be identical.
    std::optional<double> hint;
    if (rng_() % 2 == 0) hint = (rng_() % 100) * 0.01;
    auto result = table_->UpdateWithHint(IdRange(lo, hi), assigns, hint);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    uint64_t touched = 0;
    for (auto it = model_.lower_bound(lo); it != model_.end() && it->first < hi; ++it) {
      it->second[2] = Value::Double(it->second[2].AsDouble() + amount_delta);
      it->second[3] = Value::String(tag);
      ++touched;
    }
    ASSERT_EQ(result->rows_matched, touched);
  }

  void StepDelete() {
    auto [lo, hi] = RandomRange(0.02 + (rng_() % 15) * 0.01);
    SCOPED_TRACE(Where("delete [" + std::to_string(lo) + "," + std::to_string(hi) + ")"));
    std::optional<double> hint;
    if (rng_() % 2 == 0) hint = (rng_() % 100) * 0.01;
    auto result = table_->DeleteWithHint(IdRange(lo, hi), hint);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    uint64_t touched = 0;
    auto it = model_.lower_bound(lo);
    while (it != model_.end() && it->first < hi) {
      it = model_.erase(it);
      ++touched;
    }
    ASSERT_EQ(result->rows_matched, touched);
  }

  void StepIncrementalCompact() {
    SCOPED_TRACE(Where("incremental compact"));
    auto plan = table_->PreviewIncrementalCompaction();
    ASSERT_TRUE(plan.ok());
    auto stats = table_->CompactIncremental();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    // The plan made outside the writer lock can lag a concurrent DML in
    // general, but this harness is single-threaded: what the preview selected
    // is exactly what the compact rewrote.
    EXPECT_EQ(stats->files_selected, plan->selected_files());
  }

  void StepSnapshot() {
    if (pinned_.size() < 4 && rng_() % 2 == 0) {
      SCOPED_TRACE(Where("acquire snapshot"));
      pinned_.push_back({table_->AcquireSnapshot(), StateToString(model_), op_});
    } else if (!pinned_.empty()) {
      SCOPED_TRACE(Where("release snapshot"));
      pinned_.erase(pinned_.begin() + rng_() % pinned_.size());
    }
  }

  /// Drains `batches` through the row operator tree's leaf.
  void CollectRows(std::unique_ptr<table::BatchIterator> batches,
                   std::map<int64_t, Row>* state, std::vector<std::string>* ordered) {
    exec::ScanOperator it(std::move(batches), nullptr);
    while (it.Next()) {
      const Row& row = it.row();
      ASSERT_FALSE(row[0].is_null());
      ASSERT_TRUE(state->emplace(row[0].AsInt64(), row).second)
          << "duplicate id " << row[0].AsInt64();
      if (ordered != nullptr) ordered->push_back(dtl::RowToString(row));
    }
    ASSERT_TRUE(it.status().ok()) << it.status().ToString();
  }

  void VerifySnapshots() {
    for (const PinnedSnapshot& pin : pinned_) {
      SCOPED_TRACE(Where("snapshot acquired at op " + std::to_string(pin.acquired_at)));
      auto it = table_->ScanBatchesAt(pin.snapshot, table::ScanSpec{});
      ASSERT_TRUE(it.ok());
      std::map<int64_t, Row> got;
      CollectRows(std::move(*it), &got, nullptr);
      if (HasFatalFailure()) return;
      ASSERT_EQ(StateToString(got), pin.frozen_state);
    }
  }

  void VerifyAllPaths() {
    const std::string want = StateToString(model_);

    SCOPED_TRACE(Where("verify"));
    std::vector<std::string> row_order;
    {
      auto it = table_->ScanBatches(table::ScanSpec{});
      ASSERT_TRUE(it.ok());
      std::map<int64_t, Row> got;
      CollectRows(std::move(*it), &got, &row_order);
      if (HasFatalFailure()) return;
      ASSERT_EQ(StateToString(got), want) << "row path diverged from the model";
    }
    {
      auto batches = table_->ScanBatches(table::ScanSpec{});
      ASSERT_TRUE(batches.ok());
      std::map<int64_t, Row> got;
      std::vector<std::string> batch_order;
      table::RowBatch batch;
      Row row;
      while ((*batches)->Next(&batch)) {
        for (size_t i = 0; i < batch.size(); ++i) {
          batch.MaterializeRow(i, &row);
          ASSERT_TRUE(got.emplace(row[0].AsInt64(), row).second);
          batch_order.push_back(dtl::RowToString(row));
        }
      }
      ASSERT_TRUE((*batches)->status().ok()) << (*batches)->status().ToString();
      ASSERT_EQ(StateToString(got), want) << "batch path diverged from the model";
      ASSERT_EQ(batch_order, row_order) << "batch path order diverged from row path";
    }
    {
      exec::ParallelScanOptions popts;
      popts.pool = pool_;
      popts.parallelism = 3;
      exec::ParallelScanner scanner(table_, table::ScanSpec{}, popts);
      auto rows = scanner.CollectRows();
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      std::vector<std::string> parallel_order;
      parallel_order.reserve(rows->size());
      for (const Row& row : *rows) parallel_order.push_back(dtl::RowToString(row));
      ASSERT_EQ(parallel_order, row_order) << "parallel path diverged from row path";
    }
  }

  struct PinnedSnapshot {
    SnapshotPtr snapshot;
    std::string frozen_state;
    uint64_t acquired_at;
  };

  const uint64_t seed_;
  const uint64_t ops_;
  std::mt19937_64 rng_;
  DualTable* table_ = nullptr;
  ThreadPool* pool_ = nullptr;
  std::map<int64_t, Row> model_;
  std::vector<PinnedSnapshot> pinned_;
  int64_t next_id_ = 0;
  uint64_t op_ = 0;
};

TEST(DifferentialDmlTest, RandomInterleavingsMatchReferenceModel) {
  // Fresh entropy every run (this is a property test); DTL_DIFF_SEED pins a
  // failing interleaving for replay.
  const uint64_t base = EnvOr("DTL_DIFF_SEED", std::random_device{}());
  const uint64_t ops = EnvOr("DTL_DIFF_OPS", 120);
  const uint64_t iterations = std::getenv("DTL_DIFF_SEED") != nullptr ? 1 : 3;
  for (uint64_t i = 0; i < iterations; ++i) {
    const uint64_t seed = base + i;
    std::fprintf(stderr, "differential-dml seed %llu (replay: DTL_DIFF_SEED=%llu)\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(seed));
    DifferentialHarness harness(seed, ops);
    harness.Run();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The fixed-seed companion keeps one deterministic interleaving in every CI
// run (the randomized test above rotates coverage across runs).
TEST(DifferentialDmlTest, FixedSeedInterleavingMatchesReferenceModel) {
  if (std::getenv("DTL_DIFF_SEED") != nullptr) GTEST_SKIP();
  DifferentialHarness harness(20260808, 160);
  harness.Run();
}

}  // namespace
}  // namespace dtl::dual
