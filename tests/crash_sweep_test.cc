// Crash-point recovery sweep (the fault-injection tentpole): each engine's
// mutation workload is replayed with a simulated process crash at the Nth
// mutating file-system operation, for a sweep of N covering the whole
// workload. After each crash the harness "restarts" — drops the dead engine
// instance while the file system is still down (so buffered writers are
// lost, not published), clears the fault, reopens from the surviving bytes —
// and checks the recovery contract:
//   * every acknowledged statement is fully visible after reopen,
//   * the statement in flight at the crash is atomic where the engine
//     promises atomicity (ACID deltas, Hive generation swaps) and at worst
//     row-wise old-or-new where it does not (KV cells, DualTable EDIT),
//   * recovery itself succeeds and reads never crash or return garbage.
// By default ~25 evenly spaced crash points per configuration keep the suite
// fast; DTL_FAULT_SWEEP_FULL=1 sweeps every single operation (the CI
// fault-matrix job does). The error sweeps inject one IO error without a
// crash instead: the KV store must keep serving, and a failed master rewrite
// must leave nothing staged. The bite test at the bottom disables the master
// manifest commit and demonstrates the sweep catching the regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "baseline/acid_table.h"
#include "baseline/hive_table.h"
#include "dualtable/dual_table.h"
#include "dualtable/metadata.h"
#include "fs/filesystem.h"
#include "kv/store.h"
#include "table/storage_table.h"

namespace dtl {
namespace {

using fs::FaultMode;
using fs::FaultOp;
using fs::FaultPolicy;

// --- Sweep driver ---------------------------------------------------------------

/// Crash points to test out of `total` mutating operations: every one under
/// DTL_FAULT_SWEEP_FULL=1, otherwise ~25 evenly spaced (always ending at the
/// last operation).
std::vector<uint64_t> SelectCrashPoints(uint64_t total) {
  constexpr uint64_t kDefaultPoints = 25;
  std::vector<uint64_t> points;
  const char* full = std::getenv("DTL_FAULT_SWEEP_FULL");
  if ((full != nullptr && std::string(full) == "1") || total <= kDefaultPoints) {
    for (uint64_t k = 1; k <= total; ++k) points.push_back(k);
    return points;
  }
  uint64_t last = 0;
  for (uint64_t i = 1; i <= kDefaultPoints; ++i) {
    const uint64_t k = std::max<uint64_t>(1, total * i / kDefaultPoints);
    if (k != last) points.push_back(k);
    last = k;
  }
  return points;
}

/// Runs one engine's sweep. `setup` builds the initial committed state on a
/// fresh file system and returns the live engine context (null fails the
/// test); `statement(env, i)` executes the i-th of `num_statements`
/// statements; `verify(fs, acked, total)` reopens from the surviving bytes
/// and asserts the recovery contract given that the first `acked` statements
/// were acknowledged (statement `acked`, if < total, was in flight).
template <typename Env>
void RunCrashSweep(const std::string& label, double tear_fraction, size_t num_statements,
                   const std::function<std::unique_ptr<Env>(fs::SimFileSystem*)>& setup,
                   const std::function<Status(Env*, size_t)>& statement,
                   const std::function<void(fs::SimFileSystem*, size_t, size_t)>& verify) {
  // Dry run: count the mutating ops the statements perform, and check that a
  // clean shutdown recovers the full final state.
  uint64_t total_ops = 0;
  {
    fs::SimFileSystem fs;
    auto env = setup(&fs);
    ASSERT_NE(env, nullptr) << label << ": setup failed";
    const uint64_t before = fs.MutatingOpCount();
    for (size_t i = 0; i < num_statements; ++i) {
      const Status st = statement(env.get(), i);
      ASSERT_TRUE(st.ok()) << label << " dry-run statement " << i << ": " << st.ToString();
    }
    total_ops = fs.MutatingOpCount() - before;
    env.reset();
    verify(&fs, num_statements, num_statements);
  }
  ASSERT_GT(total_ops, 0u) << label;

  for (const uint64_t k : SelectCrashPoints(total_ops)) {
    SCOPED_TRACE(label + ": crash at mutating op " + std::to_string(k) + "/" +
                 std::to_string(total_ops));
    fs::SimFileSystem fs;
    auto env = setup(&fs);
    ASSERT_NE(env, nullptr);
    FaultPolicy policy;
    policy.mode = FaultMode::kCrash;
    policy.trigger_after_ops = k;
    policy.tear_fraction = tear_fraction;
    fs.SetFaultPolicy(policy);
    // A statement is acknowledged when it returns OK; the first failure is
    // the statement in flight at the crash (the sticky crash fails every
    // later one too, so nothing after it is attempted). A statement that
    // returns OK even though the crash already fired swallowed an injected
    // failure somewhere — counting it as acknowledged holds the engine to
    // the promise its OK made.
    size_t acked = 0;
    while (acked < num_statements && statement(env.get(), acked).ok()) ++acked;
    // Process death: destructors run while the file system is still down,
    // so un-synced buffers are lost with the process, never published.
    env.reset();
    fs.ClearFaultPolicy();
    verify(&fs, acked, num_statements);
  }
}

// --- Row-table model ------------------------------------------------------------

/// Reference contents of a two-column (id, v) table.
using State = std::map<int64_t, int64_t>;

State InitialState(int64_t rows) {
  State state;
  for (int64_t id = 0; id < rows; ++id) state[id] = 0;
  return state;
}

std::vector<Row> InitialRows(int64_t rows) {
  std::vector<Row> out;
  for (int64_t id = 0; id < rows; ++id) {
    out.push_back({Value::Int64(id), Value::Int64(0)});
  }
  return out;
}

Schema TableSchema() {
  return Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}});
}

std::string FormatState(const State& state) {
  std::string out = "{";
  for (const auto& [id, v] : state) {
    out += std::to_string(id) + ":" + std::to_string(v) + " ";
  }
  out += "}";
  return out;
}

/// Reads the reopened table into id -> v. Returns false (without failing the
/// test) on a scan error or a duplicate id; the sweep tests treat that as a
/// contract violation in context.
bool TryReadState(table::StorageTable* table, State* out, std::string* why) {
  auto rows = table::CollectRows(table, table::ScanSpec());
  if (!rows.ok()) {
    *why = "scan failed: " + rows.status().ToString();
    return false;
  }
  out->clear();
  for (const Row& row : *rows) {
    if (row.size() != 2) {
      *why = "row width " + std::to_string(row.size());
      return false;
    }
    const int64_t id = row[0].AsInt64();
    if (!out->emplace(id, row[1].AsInt64()).second) {
      *why = "duplicate id " + std::to_string(id);
      return false;
    }
  }
  return true;
}

/// The recovery contract on table contents. `before` is the state after the
/// acknowledged prefix; `after` (when a statement was in flight) is the state
/// with that statement applied too. Atomic engines must land on exactly one
/// of the two states; non-atomic (EDIT-style) engines may show each affected
/// row in either its old or new state, but never anything else.
bool TableStateMatches(const State& actual, const State& before,
                       const std::optional<State>& after, bool statement_atomic) {
  if (!after.has_value()) return actual == before;
  if (statement_atomic) return actual == before || actual == *after;
  for (const auto& [id, v] : actual) {
    const auto b = before.find(id);
    const auto a = after->find(id);
    const bool old_ok = b != before.end() && b->second == v;
    const bool new_ok = a != after->end() && a->second == v;
    if (!old_ok && !new_ok) return false;  // garbage value or ghost row
  }
  for (const auto& [id, v] : before) {
    // A row live in both states must not vanish.
    if (after->count(id) != 0 && actual.count(id) == 0) return false;
  }
  return true;
}

/// One DML statement plus its model-side application. Predicates are on id
/// and assignments are constants, so the model stays deterministic no matter
/// which prefix of earlier statements was applied.
template <typename Env>
struct Statement {
  std::function<Status(Env*)> run;
  std::function<void(State*)> apply;
};

Status RunUpdate(table::StorageTable* table, int64_t value,
                 const std::function<bool(int64_t)>& pred) {
  table::ScanSpec filter;
  filter.predicate_columns = {0};
  filter.predicate = [pred](const Row& row) { return pred(row[0].AsInt64()); };
  table::Assignment assign;
  assign.column = 1;
  assign.input_columns = {0};
  assign.compute = [value](const Row&) { return Value::Int64(value); };
  return table->Update(filter, {assign}).status();
}

Status RunDelete(table::StorageTable* table, const std::function<bool(int64_t)>& pred) {
  table::ScanSpec filter;
  filter.predicate_columns = {0};
  filter.predicate = [pred](const Row& row) { return pred(row[0].AsInt64()); };
  return table->Delete(filter).status();
}

void ApplyUpdate(State* state, int64_t value, const std::function<bool(int64_t)>& pred) {
  for (auto& [id, v] : *state) {
    if (pred(id)) v = value;
  }
}

void ApplyDelete(State* state, const std::function<bool(int64_t)>& pred) {
  for (auto it = state->begin(); it != state->end();) {
    it = pred(it->first) ? state->erase(it) : std::next(it);
  }
}

/// Builds the shared verify lambda for a row-table engine: recompute the
/// model from the acknowledged prefix and compare against a fresh reopen.
template <typename Env>
std::function<void(fs::SimFileSystem*, size_t, size_t)> MakeTableVerifier(
    const std::vector<Statement<Env>>* statements, int64_t initial_rows,
    bool statement_atomic,
    std::function<Result<std::shared_ptr<table::StorageTable>>(fs::SimFileSystem*)> reopen) {
  return [=](fs::SimFileSystem* fs, size_t acked, size_t total) {
    auto table = reopen(fs);
    ASSERT_TRUE(table.ok()) << "recovery failed: " << table.status().ToString();
    State actual;
    std::string why;
    if (!TryReadState(table->get(), &actual, &why)) {
      ADD_FAILURE() << "reopened table unreadable: " << why;
      return;
    }
    State before = InitialState(initial_rows);
    for (size_t i = 0; i < acked; ++i) (*statements)[i].apply(&before);
    std::optional<State> after;
    if (acked < total) {
      after = before;
      (*statements)[acked].apply(&*after);
    }
    EXPECT_TRUE(TableStateMatches(actual, before, after, statement_atomic))
        << "acked=" << acked << "\n  actual=" << FormatState(actual)
        << "\n  before=" << FormatState(before)
        << (after.has_value() ? "\n  after=" + FormatState(*after) : "");
  };
}

// --- KV store sweep -------------------------------------------------------------

struct KvOp {
  enum Kind { kPut, kDeleteRow, kFlush, kCompact } kind = kPut;
  std::string row;
  std::string value;
};

/// Mixed workload exercising WAL append/sync, memtable flush (both explicit
/// and size-triggered via the tiny flush threshold below), tombstones, and
/// full compaction.
std::vector<KvOp> KvWorkload() {
  std::vector<KvOp> ops;
  for (int i = 0; i < 6; ++i) {
    ops.push_back({KvOp::kPut, "k" + std::to_string(i), "a" + std::to_string(i)});
  }
  ops.push_back({KvOp::kDeleteRow, "k1", ""});
  ops.push_back({KvOp::kPut, "k6", "a6"});
  ops.push_back({KvOp::kFlush, "", ""});
  ops.push_back({KvOp::kPut, "k0", "b0"});
  ops.push_back({KvOp::kPut, "k2", "b2"});
  ops.push_back({KvOp::kDeleteRow, "k3", ""});
  ops.push_back({KvOp::kCompact, "", ""});
  ops.push_back({KvOp::kPut, "k7", "b7"});
  ops.push_back({KvOp::kPut, "k1", "b1"});
  ops.push_back({KvOp::kFlush, "", ""});
  ops.push_back({KvOp::kPut, "k4", "c4"});
  return ops;
}

kv::KvStoreOptions KvSweepOptions() {
  kv::KvStoreOptions options;
  options.dir = "/hbase/sweep";
  options.wal_sync_interval_bytes = 0;  // an acknowledged write is a synced write
  options.memtable_flush_bytes = 256;   // force size-triggered flushes mid-workload
  return options;
}

Status RunKvOp(kv::KvStore* store, const KvOp& op) {
  switch (op.kind) {
    case KvOp::kPut:
      return store->Put(op.row, 1, op.value);
    case KvOp::kDeleteRow:
      return store->DeleteRow(op.row);
    case KvOp::kFlush:
      return store->Flush();
    case KvOp::kCompact:
      return store->Compact();
  }
  return Status::OK();
}

void ApplyKvOp(std::map<std::string, std::string>* model, const KvOp& op) {
  switch (op.kind) {
    case KvOp::kPut:
      (*model)[op.row] = op.value;
      break;
    case KvOp::kDeleteRow:
      model->erase(op.row);
      break;
    case KvOp::kFlush:
    case KvOp::kCompact:
      break;  // no logical effect
  }
}

struct KvEnv {
  std::unique_ptr<kv::KvStore> store;
};

void RunKvCrashSweep(double tear_fraction) {
  const std::vector<KvOp> ops = KvWorkload();
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) keys.push_back("k" + std::to_string(i));

  auto setup = [](fs::SimFileSystem* fs) -> std::unique_ptr<KvEnv> {
    auto store = kv::KvStore::Open(fs, KvSweepOptions());
    if (!store.ok()) return nullptr;
    auto env = std::make_unique<KvEnv>();
    env->store = std::move(store.value());
    return env;
  };
  auto statement = [&ops](KvEnv* env, size_t i) { return RunKvOp(env->store.get(), ops[i]); };
  auto verify = [&](fs::SimFileSystem* fs, size_t acked, size_t total) {
    auto reopened = kv::KvStore::Open(fs, KvSweepOptions());
    ASSERT_TRUE(reopened.ok()) << "recovery failed: " << reopened.status().ToString();
    std::map<std::string, std::string> model;
    for (size_t i = 0; i < acked; ++i) ApplyKvOp(&model, ops[i]);
    for (const std::string& key : keys) {
      auto got = (*reopened)->Get(key, 1);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      // Allowed: the acknowledged state, or — for the key the in-flight
      // statement touched — its post-statement state (the write can be
      // durable without its ack having been delivered).
      std::vector<std::optional<std::string>> allowed;
      const auto it = model.find(key);
      allowed.push_back(it == model.end() ? std::nullopt
                                          : std::optional<std::string>(it->second));
      if (acked < total && ops[acked].row == key) {
        std::map<std::string, std::string> with_inflight = model;
        ApplyKvOp(&with_inflight, ops[acked]);
        const auto it2 = with_inflight.find(key);
        allowed.push_back(it2 == with_inflight.end()
                              ? std::nullopt
                              : std::optional<std::string>(it2->second));
      }
      bool ok = false;
      for (const auto& candidate : allowed) ok = ok || *got == candidate;
      EXPECT_TRUE(ok) << "key " << key << " recovered as "
                      << (got->has_value() ? "\"" + **got + "\"" : "<absent>")
                      << " after " << acked << "/" << total << " acked ops";
    }
  };
  RunCrashSweep<KvEnv>("kv tear=" + std::to_string(tear_fraction), tear_fraction,
                       ops.size(), setup, statement, verify);
}

TEST(CrashSweepTest, KvStoreCleanTailLoss) { RunKvCrashSweep(0.0); }

TEST(CrashSweepTest, KvStoreTornTail) { RunKvCrashSweep(0.5); }

// --- DualTable EDIT sweep -------------------------------------------------------

struct DualEnv {
  std::unique_ptr<dual::MetadataTable> metadata;
  fs::ClusterModel cluster;
  std::shared_ptr<dual::DualTable> table;
};

dual::DualTableOptions DualSweepOptions() {
  dual::DualTableOptions options;
  options.plan_mode = dual::DualTableOptions::PlanMode::kForceEdit;
  options.writer_options.stripe_rows = 32;
  return options;
}

/// UPDATE/DELETE through the attached store (EDIT plan) plus an explicit
/// COMPACT — the generation swap whose manifest commit the sweep guards.
std::vector<Statement<DualEnv>> DualStatements() {
  auto update = [](int64_t value, std::function<bool(int64_t)> pred) {
    return Statement<DualEnv>{
        [value, pred](DualEnv* env) { return RunUpdate(env->table.get(), value, pred); },
        [value, pred](State* state) { ApplyUpdate(state, value, pred); }};
  };
  auto remove = [](std::function<bool(int64_t)> pred) {
    return Statement<DualEnv>{
        [pred](DualEnv* env) { return RunDelete(env->table.get(), pred); },
        [pred](State* state) { ApplyDelete(state, pred); }};
  };
  std::vector<Statement<DualEnv>> statements;
  statements.push_back(update(1, [](int64_t id) { return id % 3 == 0; }));
  statements.push_back(remove([](int64_t id) { return id >= 80; }));
  statements.push_back(update(2, [](int64_t id) { return id < 40; }));
  // COMPACT folds the attached modifications into a new master generation;
  // it must be a logical no-op at every crash point.
  statements.push_back({[](DualEnv* env) { return env->table->Compact().status(); },
                        [](State*) {}});
  statements.push_back(update(3, [](int64_t id) { return id % 5 == 0; }));
  statements.push_back(remove([](int64_t id) { return id < 10; }));
  return statements;
}

void RunDualCrashSweep(double tear_fraction) {
  static const std::vector<Statement<DualEnv>> statements = DualStatements();
  constexpr int64_t kRows = 100;

  auto setup = [](fs::SimFileSystem* fs) -> std::unique_ptr<DualEnv> {
    auto env = std::make_unique<DualEnv>();
    auto metadata = dual::MetadataTable::Open(fs);
    if (!metadata.ok()) return nullptr;
    env->metadata = std::move(metadata.value());
    auto table = dual::DualTable::Open(fs, env->metadata.get(), &env->cluster, "t",
                                       TableSchema(), DualSweepOptions());
    if (!table.ok()) return nullptr;
    env->table = std::move(table.value());
    if (!env->table->InsertRows(InitialRows(kRows)).ok()) return nullptr;
    return env;
  };
  auto statement = [](DualEnv* env, size_t i) { return statements[i].run(env); };
  auto verify = MakeTableVerifier<DualEnv>(
      &statements, kRows, /*statement_atomic=*/false,
      [](fs::SimFileSystem* fs) -> Result<std::shared_ptr<table::StorageTable>> {
        // The reopened instance owns its metadata/cluster for the check's
        // lifetime; shared_ptr aliasing keeps them alive with the table.
        auto metadata = dual::MetadataTable::Open(fs);
        if (!metadata.ok()) return metadata.status();
        auto cluster = std::make_shared<fs::ClusterModel>();
        auto table = dual::DualTable::Open(fs, metadata->get(), cluster.get(), "t",
                                           TableSchema(), DualSweepOptions());
        if (!table.ok()) return table.status();
        struct Holder {
          std::unique_ptr<dual::MetadataTable> metadata;
          std::shared_ptr<fs::ClusterModel> cluster;
          std::shared_ptr<dual::DualTable> table;
        };
        auto holder = std::make_shared<Holder>();
        holder->metadata = std::move(metadata.value());
        holder->cluster = std::move(cluster);
        holder->table = std::move(table.value());
        return std::shared_ptr<table::StorageTable>(holder, holder->table.get());
      });
  RunCrashSweep<DualEnv>("dualtable tear=" + std::to_string(tear_fraction), tear_fraction,
                         statements.size(), setup, statement, verify);
}

TEST(CrashSweepTest, DualTableEditAndCompact) { RunDualCrashSweep(0.0); }

TEST(CrashSweepTest, DualTableEditAndCompactTornTail) { RunDualCrashSweep(0.5); }

// --- Indexed-dual sweep: EDIT/COMPACT with a secondary index --------------------

/// Keyed UPDATE/DELETE on `id IN (keys)`: the EDIT takes its matches from the
/// secondary index (the keyed-DML route), not a scan. A statement that falls
/// back to the scan fails, so the sweep cannot silently stop covering the
/// route.
Statement<DualEnv> KeyedUpdate(int64_t value, std::vector<int64_t> keys) {
  auto pred = [keys](int64_t id) {
    return std::find(keys.begin(), keys.end(), id) != keys.end();
  };
  return Statement<DualEnv>{
      [value, keys, pred](DualEnv* env) -> Status {
        table::ScanSpec filter;
        filter.predicate_columns = {0};
        filter.predicate = [pred](const Row& row) { return pred(row[0].AsInt64()); };
        table::Assignment assign;
        assign.column = 1;
        assign.compute = [value](const Row&) { return Value::Int64(value); };
        dual::IndexProbe probe;
        for (int64_t k : keys) probe.values.push_back(Value::Int64(k));
        DTL_ASSIGN_OR_RETURN(auto result, env->table->UpdateWithHint(
                                              filter, {assign}, std::nullopt, probe));
        if (!result.index_lookup) return Status::Internal("keyed UPDATE scanned");
        return Status::OK();
      },
      [value, pred](State* state) { ApplyUpdate(state, value, pred); }};
}

Statement<DualEnv> KeyedDelete(std::vector<int64_t> keys) {
  auto pred = [keys](int64_t id) {
    return std::find(keys.begin(), keys.end(), id) != keys.end();
  };
  return Statement<DualEnv>{
      [keys, pred](DualEnv* env) -> Status {
        table::ScanSpec filter;
        filter.predicate_columns = {0};
        filter.predicate = [pred](const Row& row) { return pred(row[0].AsInt64()); };
        dual::IndexProbe probe;
        for (int64_t k : keys) probe.values.push_back(Value::Int64(k));
        DTL_ASSIGN_OR_RETURN(auto result,
                             env->table->DeleteWithHint(filter, std::nullopt, probe));
        if (!result.index_lookup) return Status::Internal("keyed DELETE scanned");
        return Status::OK();
      },
      [pred](State* state) { ApplyDelete(state, pred); }};
}

/// DualStatements() plus keyed UPDATE/DELETE through the index route: one
/// before COMPACT (its entries are folded by the generation swap) and one
/// after. Keys include ones deleted earlier (stale entries) and absent ones.
std::vector<Statement<DualEnv>> IndexedDualStatements() {
  std::vector<Statement<DualEnv>> statements = DualStatements();
  statements.insert(statements.begin() + 2, KeyedUpdate(4, {3, 12, 50, 85, 500}));
  statements.push_back(KeyedUpdate(6, {12, 25, 90}));
  statements.push_back(KeyedDelete({3, 12, 33, 81, 777}));
  return statements;
}

// Same EDIT/COMPACT workload, but with a secondary index on `id` and keyed
// statements that take the index route. The index adds its own mutating
// file-system operations (entry puts, WAL syncs, the meta commit,
// fold+compact during the generation swap), so the sweep lands crash points
// inside every window of index publication. The recovery
// contract: after reopen — which rebuilds the index whenever its persisted
// meta does not match the recovered table — every surviving row is reachable
// through an index point lookup with exactly its table value, and no phantom
// row is served for a key the table does not hold.
void RunIndexedDualCrashSweep(double tear_fraction) {
  static const std::vector<Statement<DualEnv>> statements = IndexedDualStatements();
  constexpr int64_t kRows = 100;

  auto options = []() {
    dual::DualTableOptions opt = DualSweepOptions();
    opt.indexed_columns = {0};
    return opt;
  };
  auto setup = [options](fs::SimFileSystem* fs) -> std::unique_ptr<DualEnv> {
    auto env = std::make_unique<DualEnv>();
    auto metadata = dual::MetadataTable::Open(fs);
    if (!metadata.ok()) return nullptr;
    env->metadata = std::move(metadata.value());
    auto table = dual::DualTable::Open(fs, env->metadata.get(), &env->cluster, "t",
                                       TableSchema(), options());
    if (!table.ok()) return nullptr;
    env->table = std::move(table.value());
    if (!env->table->InsertRows(InitialRows(kRows)).ok()) return nullptr;
    return env;
  };
  auto statement = [](DualEnv* env, size_t i) { return statements[i].run(env); };
  auto reopen = [options](fs::SimFileSystem* fs)
      -> Result<std::shared_ptr<table::StorageTable>> {
    auto metadata = dual::MetadataTable::Open(fs);
    if (!metadata.ok()) return metadata.status();
    auto cluster = std::make_shared<fs::ClusterModel>();
    auto table = dual::DualTable::Open(fs, metadata->get(), cluster.get(), "t",
                                       TableSchema(), options());
    if (!table.ok()) return table.status();
    struct Holder {
      std::unique_ptr<dual::MetadataTable> metadata;
      std::shared_ptr<fs::ClusterModel> cluster;
      std::shared_ptr<dual::DualTable> table;
    };
    auto holder = std::make_shared<Holder>();
    holder->metadata = std::move(metadata.value());
    holder->cluster = std::move(cluster);
    holder->table = std::move(table.value());
    return std::shared_ptr<table::StorageTable>(holder, holder->table.get());
  };
  auto base_verify =
      MakeTableVerifier<DualEnv>(&statements, kRows, /*statement_atomic=*/false, reopen);
  auto verify = [base_verify, reopen](fs::SimFileSystem* fs, size_t acked, size_t total) {
    base_verify(fs, acked, total);
    if (::testing::Test::HasFailure()) return;
    auto table = reopen(fs);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    auto* dual = dynamic_cast<dual::DualTable*>(table->get());
    ASSERT_NE(dual, nullptr);
    ASSERT_NE(dual->secondary_index(), nullptr);
    State actual;
    std::string why;
    ASSERT_TRUE(TryReadState(table->get(), &actual, &why)) << why;
    dual::SnapshotPtr snap = dual->AcquireSnapshot();
    for (const auto& [id, v] : actual) {
      auto looked = dual->IndexLookupAt(snap, 0, {Value::Int64(id)}, table::ScanSpec());
      ASSERT_TRUE(looked.ok()) << looked.status().ToString();
      ASSERT_EQ(looked->size(), 1u) << "index lost or duplicated id " << id;
      EXPECT_EQ(looked->front().second[1].AsInt64(), v) << "stale value for id " << id;
    }
    for (const int64_t id : {int64_t{-5}, int64_t{99999}}) {
      auto looked = dual->IndexLookupAt(snap, 0, {Value::Int64(id)}, table::ScanSpec());
      ASSERT_TRUE(looked.ok());
      EXPECT_TRUE(looked->empty()) << "phantom index hit for id " << id;
    }
  };
  RunCrashSweep<DualEnv>("indexed-dualtable tear=" + std::to_string(tear_fraction),
                         tear_fraction, statements.size(), setup, statement, verify);
}

TEST(CrashSweepTest, IndexedDualTableEditAndCompact) { RunIndexedDualCrashSweep(0.0); }

TEST(CrashSweepTest, IndexedDualTableEditAndCompactTornTail) {
  RunIndexedDualCrashSweep(0.5);
}

// --- Generation-pin sweep (snapshot vs COMPACT publish) ---------------------------

/// Reads a snapshot's row set into id -> v through the MVCC scan path.
bool TryReadSnapshotState(dual::DualTable* table, const dual::SnapshotPtr& snapshot,
                         State* out, std::string* why) {
  auto it = table->ScanAt(snapshot, table::ScanSpec());
  if (!it.ok()) {
    *why = "snapshot scan failed: " + it.status().ToString();
    return false;
  }
  out->clear();
  while ((*it)->Next()) {
    const Row& row = (*it)->row();
    if (row.size() != 2) {
      *why = "row width " + std::to_string(row.size());
      return false;
    }
    if (!out->emplace(row[0].AsInt64(), row[1].AsInt64()).second) {
      *why = "duplicate id " + std::to_string(row[0].AsInt64());
      return false;
    }
  }
  if (!(*it)->status().ok()) {
    *why = "snapshot scan errored: " + (*it)->status().ToString();
    return false;
  }
  return true;
}

// COMPACT's generation swap racing a live snapshot pin, crashed at every
// mutating op of the publish. Two contracts at each crash point:
//   * the pinned snapshot keeps reading its exact acquisition-time rows —
//     a partial publish must never have deleted a pinned old-generation
//     file (deferred GC only fires when the pin drops, and a failed delete
//     merely leaks the file, never tears a reader);
//   * a restart from the surviving bytes lands on exactly ONE valid
//     generation (the duplicate-id check catches a resurrected old
//     generation; the row-state check catches a half-published new one),
//     and since COMPACT is a logical no-op that state is the pre-COMPACT
//     table contents.
TEST(CrashSweepTest, CompactGenerationSwapWithPinnedSnapshot) {
  constexpr int64_t kRows = 100;
  const auto pred = [](int64_t id) { return id % 3 == 0; };

  auto setup = [&pred](fs::SimFileSystem* fs) -> std::unique_ptr<DualEnv> {
    auto env = std::make_unique<DualEnv>();
    auto metadata = dual::MetadataTable::Open(fs);
    if (!metadata.ok()) return nullptr;
    env->metadata = std::move(metadata.value());
    auto table = dual::DualTable::Open(fs, env->metadata.get(), &env->cluster, "pin",
                                       TableSchema(), DualSweepOptions());
    if (!table.ok()) return nullptr;
    env->table = std::move(table.value());
    if (!env->table->InsertRows(InitialRows(kRows)).ok()) return nullptr;
    // Attached deltas so COMPACT has something to fold into the new master.
    if (!RunUpdate(env->table.get(), 1, pred).ok()) return nullptr;
    return env;
  };

  State expected = InitialState(kRows);
  ApplyUpdate(&expected, 1, pred);

  uint64_t total_ops = 0;
  {
    fs::SimFileSystem fs;
    auto env = setup(&fs);
    ASSERT_NE(env, nullptr);
    const uint64_t before = fs.MutatingOpCount();
    ASSERT_TRUE(env->table->Compact().ok());
    total_ops = fs.MutatingOpCount() - before;
  }
  ASSERT_GT(total_ops, 0u);

  for (const uint64_t k : SelectCrashPoints(total_ops)) {
    SCOPED_TRACE("compact crash at mutating op " + std::to_string(k) + "/" +
                 std::to_string(total_ops));
    fs::SimFileSystem fs;
    auto env = setup(&fs);
    ASSERT_NE(env, nullptr);

    dual::SnapshotPtr snapshot = env->table->AcquireSnapshot();
    State baseline;
    std::string why;
    ASSERT_TRUE(TryReadSnapshotState(env->table.get(), snapshot, &baseline, &why)) << why;
    ASSERT_EQ(baseline, expected);

    FaultPolicy policy;
    policy.mode = FaultMode::kCrash;
    policy.trigger_after_ops = k;
    fs.SetFaultPolicy(policy);
    const Status compact_status = env->table->Compact().status();

    // Live-process contract: whether the publish committed or died halfway,
    // every file the snapshot pins is still readable and the snapshot's view
    // is bit-for-bit its acquisition-time row set.
    State pinned;
    ASSERT_TRUE(TryReadSnapshotState(env->table.get(), snapshot, &pinned, &why))
        << why << " (compact: " << compact_status.ToString() << ")";
    EXPECT_EQ(pinned, baseline);

    // Release the pin with the file system still down: the deferred GC of a
    // committed publish runs here and its deletes fail — files may leak,
    // readers must never have been torn. Then the process dies.
    snapshot.reset();
    env.reset();
    fs.ClearFaultPolicy();

    auto metadata = dual::MetadataTable::Open(&fs);
    ASSERT_TRUE(metadata.ok());
    fs::ClusterModel cluster;
    auto reopened = dual::DualTable::Open(&fs, metadata->get(), &cluster, "pin",
                                          TableSchema(), DualSweepOptions());
    ASSERT_TRUE(reopened.ok()) << "recovery failed: " << reopened.status().ToString();
    State recovered;
    ASSERT_TRUE(TryReadState(reopened->get(), &recovered, &why))
        << "reopened table unreadable (two live generations?): " << why;
    EXPECT_EQ(recovered, expected) << FormatState(recovered);
  }
}

// --- DualTable incremental-COMPACT sweep ------------------------------------------

dual::DualTableOptions DualIncrementalSweepOptions() {
  dual::DualTableOptions options = DualSweepOptions();
  // Mid-bar selection: dense files fold, sparse files survive with their
  // attached deltas — so every crash point lands inside a PARTIAL fold
  // (kept files + rewritten files + per-record tombstoning).
  options.incremental_density_override = 0.5;
  return options;
}

std::vector<Row> RowsInRange(int64_t lo, int64_t hi) {
  std::vector<Row> out;
  for (int64_t id = lo; id < hi; ++id) {
    out.push_back({Value::Int64(id), Value::Int64(0)});
  }
  return out;
}

/// EDITs at very different densities interleaved with incremental COMPACTs.
/// The first compact folds only the dense file (the sparse file's deltas stay
/// attached across the generation swap); the second folds the follow-up
/// damage. Both are logical no-ops at every crash point.
std::vector<Statement<DualEnv>> DualIncrementalStatements() {
  auto update = [](int64_t value, std::function<bool(int64_t)> pred) {
    return Statement<DualEnv>{
        [value, pred](DualEnv* env) { return RunUpdate(env->table.get(), value, pred); },
        [value, pred](State* state) { ApplyUpdate(state, value, pred); }};
  };
  auto remove = [](std::function<bool(int64_t)> pred) {
    return Statement<DualEnv>{
        [pred](DualEnv* env) { return RunDelete(env->table.get(), pred); },
        [pred](State* state) { ApplyDelete(state, pred); }};
  };
  auto incremental = []() {
    return Statement<DualEnv>{
        [](DualEnv* env) { return env->table->CompactIncremental().status(); },
        [](State*) {}};
  };
  std::vector<Statement<DualEnv>> statements;
  statements.push_back(update(1, [](int64_t id) { return id < 50; }));             // dense, file 1
  statements.push_back(update(2, [](int64_t id) { return id >= 60 && id < 66; })); // sparse, file 2
  statements.push_back(incremental());
  statements.push_back(remove([](int64_t id) { return id % 4 == 0; }));
  statements.push_back(update(3, [](int64_t id) { return id >= 30 && id < 90; }));
  statements.push_back(incremental());
  return statements;
}

void RunDualIncrementalCrashSweep(double tear_fraction) {
  static const std::vector<Statement<DualEnv>> statements = DualIncrementalStatements();
  constexpr int64_t kRows = 120;

  auto setup = [](fs::SimFileSystem* fs) -> std::unique_ptr<DualEnv> {
    auto env = std::make_unique<DualEnv>();
    auto metadata = dual::MetadataTable::Open(fs);
    if (!metadata.ok()) return nullptr;
    env->metadata = std::move(metadata.value());
    auto table = dual::DualTable::Open(fs, env->metadata.get(), &env->cluster, "it",
                                       TableSchema(), DualIncrementalSweepOptions());
    if (!table.ok()) return nullptr;
    env->table = std::move(table.value());
    // Two master files, so incremental selection has both a fold target and
    // a keeper at every point in the workload.
    if (!env->table->InsertRows(RowsInRange(0, 60)).ok()) return nullptr;
    if (!env->table->InsertRows(RowsInRange(60, kRows)).ok()) return nullptr;
    return env;
  };
  auto statement = [](DualEnv* env, size_t i) { return statements[i].run(env); };
  auto verify = MakeTableVerifier<DualEnv>(
      &statements, kRows, /*statement_atomic=*/false,
      [](fs::SimFileSystem* fs) -> Result<std::shared_ptr<table::StorageTable>> {
        auto metadata = dual::MetadataTable::Open(fs);
        if (!metadata.ok()) return metadata.status();
        auto cluster = std::make_shared<fs::ClusterModel>();
        auto table = dual::DualTable::Open(fs, metadata->get(), cluster.get(), "it",
                                           TableSchema(), DualIncrementalSweepOptions());
        if (!table.ok()) return table.status();
        struct Holder {
          std::unique_ptr<dual::MetadataTable> metadata;
          std::shared_ptr<fs::ClusterModel> cluster;
          std::shared_ptr<dual::DualTable> table;
        };
        auto holder = std::make_shared<Holder>();
        holder->metadata = std::move(metadata.value());
        holder->cluster = std::move(cluster);
        holder->table = std::move(table.value());
        return std::shared_ptr<table::StorageTable>(holder, holder->table.get());
      });
  RunCrashSweep<DualEnv>("dualtable incremental tear=" + std::to_string(tear_fraction),
                         tear_fraction, statements.size(), setup, statement, verify);
}

TEST(CrashSweepTest, DualTableIncrementalCompact) { RunDualIncrementalCrashSweep(0.0); }

TEST(CrashSweepTest, DualTableIncrementalCompactTornTail) {
  RunDualIncrementalCrashSweep(0.5);
}

// Incremental COMPACT's generation swap racing a live snapshot pin, crashed
// at every mutating op of the partial fold (stripe rewrite, raw stripe copy,
// manifest rename, per-record tombstoning). Contracts at each crash point:
//   * the pinned snapshot keeps reading its exact acquisition-time rows —
//     kept files are shared between the old and new generations, so the swap
//     must never tear a reader of either;
//   * recovery lands on exactly ONE generation (duplicate-id check), with
//     the sparse file's still-attached deltas intact;
//   * after recovery's garbage collection, no orphan master file survives
//     outside the committed manifest.
TEST(CrashSweepTest, IncrementalCompactGenerationSwapWithPinnedSnapshot) {
  constexpr int64_t kRows = 120;
  const auto dense = [](int64_t id) { return id < 50; };
  const auto sparse = [](int64_t id) { return id >= 60 && id < 66; };

  auto setup = [&](fs::SimFileSystem* fs) -> std::unique_ptr<DualEnv> {
    auto env = std::make_unique<DualEnv>();
    auto metadata = dual::MetadataTable::Open(fs);
    if (!metadata.ok()) return nullptr;
    env->metadata = std::move(metadata.value());
    auto table = dual::DualTable::Open(fs, env->metadata.get(), &env->cluster, "ipin",
                                       TableSchema(), DualIncrementalSweepOptions());
    if (!table.ok()) return nullptr;
    env->table = std::move(table.value());
    if (!env->table->InsertRows(RowsInRange(0, 60)).ok()) return nullptr;
    if (!env->table->InsertRows(RowsInRange(60, kRows)).ok()) return nullptr;
    if (!RunUpdate(env->table.get(), 1, dense).ok()) return nullptr;
    if (!RunUpdate(env->table.get(), 2, sparse).ok()) return nullptr;
    return env;
  };

  State expected = InitialState(kRows);
  ApplyUpdate(&expected, 1, dense);
  ApplyUpdate(&expected, 2, sparse);

  uint64_t total_ops = 0;
  {
    fs::SimFileSystem fs;
    auto env = setup(&fs);
    ASSERT_NE(env, nullptr);
    // The dry run must exercise the partial-fold shape this sweep targets.
    auto plan = env->table->PreviewIncrementalCompaction();
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->files.size(), 2u);
    ASSERT_EQ(plan->selected_files(), 1u);
    const uint64_t before = fs.MutatingOpCount();
    auto stats = env->table->CompactIncremental();
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats->files_selected, 1u);
    total_ops = fs.MutatingOpCount() - before;
  }
  ASSERT_GT(total_ops, 0u);

  for (const uint64_t k : SelectCrashPoints(total_ops)) {
    SCOPED_TRACE("incremental compact crash at mutating op " + std::to_string(k) + "/" +
                 std::to_string(total_ops));
    fs::SimFileSystem fs;
    auto env = setup(&fs);
    ASSERT_NE(env, nullptr);

    dual::SnapshotPtr snapshot = env->table->AcquireSnapshot();
    State baseline;
    std::string why;
    ASSERT_TRUE(TryReadSnapshotState(env->table.get(), snapshot, &baseline, &why)) << why;
    ASSERT_EQ(baseline, expected);

    FaultPolicy policy;
    policy.mode = FaultMode::kCrash;
    policy.trigger_after_ops = k;
    fs.SetFaultPolicy(policy);
    const Status compact_status = env->table->CompactIncremental().status();

    // Live-process contract: the pinned view is byte-stable through the
    // partial fold, committed or not.
    State pinned;
    ASSERT_TRUE(TryReadSnapshotState(env->table.get(), snapshot, &pinned, &why))
        << why << " (incremental compact: " << compact_status.ToString() << ")";
    EXPECT_EQ(pinned, baseline);

    // Drop the pin and the process with the file system still down, then
    // restart from the surviving bytes.
    snapshot.reset();
    env.reset();
    fs.ClearFaultPolicy();

    auto metadata = dual::MetadataTable::Open(&fs);
    ASSERT_TRUE(metadata.ok());
    fs::ClusterModel cluster;
    auto reopened = dual::DualTable::Open(&fs, metadata->get(), &cluster, "ipin",
                                          TableSchema(), DualIncrementalSweepOptions());
    ASSERT_TRUE(reopened.ok()) << "recovery failed: " << reopened.status().ToString();
    State recovered;
    ASSERT_TRUE(TryReadState(reopened->get(), &recovered, &why))
        << "reopened table unreadable (two live generations?): " << why;
    EXPECT_EQ(recovered, expected) << FormatState(recovered);

    // Orphan check: recovery's GC leaves exactly the committed manifest's
    // files in the warehouse directory — no staged replacement and no
    // doomed old-generation file survives.
    auto names = fs.ListDir("/warehouse/ipin");
    ASSERT_TRUE(names.ok());
    const auto listed = (*reopened)->master()->files();
    for (const std::string& name : *names) {
      if (name.rfind("f_", 0) != 0 || name.find(".orc") == std::string::npos) continue;
      const std::string path = "/warehouse/ipin/" + name;
      bool in_manifest = false;
      for (const auto& f : listed) in_manifest |= (f.path == path);
      EXPECT_TRUE(in_manifest) << "orphan master file survived recovery: " << path;
    }
  }
}

// --- Hive ACID baseline sweep ---------------------------------------------------

struct AcidEnv {
  std::unique_ptr<dual::MetadataTable> metadata;
  std::shared_ptr<baseline::AcidTable> table;
};

std::vector<Statement<AcidEnv>> AcidStatements() {
  auto update = [](int64_t value, std::function<bool(int64_t)> pred) {
    return Statement<AcidEnv>{
        [value, pred](AcidEnv* env) { return RunUpdate(env->table.get(), value, pred); },
        [value, pred](State* state) { ApplyUpdate(state, value, pred); }};
  };
  std::vector<Statement<AcidEnv>> statements;
  statements.push_back(update(1, [](int64_t id) { return id < 20; }));
  statements.push_back(
      {[](AcidEnv* env) { return RunDelete(env->table.get(), [](int64_t id) { return id >= 50; }); },
       [](State* state) { ApplyDelete(state, [](int64_t id) { return id >= 50; }); }});
  statements.push_back({[](AcidEnv* env) { return env->table->MinorCompact(); },
                        [](State*) {}});
  statements.push_back(update(2, [](int64_t id) { return id % 2 == 0; }));
  statements.push_back({[](AcidEnv* env) { return env->table->MajorCompact(); },
                        [](State*) {}});
  return statements;
}

TEST(CrashSweepTest, AcidDeltasAndCompactions) {
  static const std::vector<Statement<AcidEnv>> statements = AcidStatements();
  constexpr int64_t kRows = 60;

  auto setup = [](fs::SimFileSystem* fs) -> std::unique_ptr<AcidEnv> {
    auto env = std::make_unique<AcidEnv>();
    auto metadata = dual::MetadataTable::Open(fs);
    if (!metadata.ok()) return nullptr;
    env->metadata = std::move(metadata.value());
    auto table = baseline::AcidTable::Open(fs, env->metadata.get(), "acid", TableSchema());
    if (!table.ok()) return nullptr;
    env->table = std::move(table.value());
    if (!env->table->InsertRows(InitialRows(kRows)).ok()) return nullptr;
    return env;
  };
  auto statement = [](AcidEnv* env, size_t i) { return statements[i].run(env); };
  // Every ACID statement commits through a single delta-file (or manifest)
  // rename, so the in-flight statement must be all-or-nothing.
  auto verify = MakeTableVerifier<AcidEnv>(
      &statements, kRows, /*statement_atomic=*/true,
      [](fs::SimFileSystem* fs) -> Result<std::shared_ptr<table::StorageTable>> {
        auto metadata = dual::MetadataTable::Open(fs);
        if (!metadata.ok()) return metadata.status();
        auto table = baseline::AcidTable::Open(fs, metadata->get(), "acid", TableSchema());
        if (!table.ok()) return table.status();
        struct Holder {
          std::unique_ptr<dual::MetadataTable> metadata;
          std::shared_ptr<baseline::AcidTable> table;
        };
        auto holder = std::make_shared<Holder>();
        holder->metadata = std::move(metadata.value());
        holder->table = std::move(table.value());
        return std::shared_ptr<table::StorageTable>(holder, holder->table.get());
      });
  RunCrashSweep<AcidEnv>("acid tear=0.5", 0.5, statements.size(), setup, statement, verify);
}

// --- Hive INSERT OVERWRITE sweep ------------------------------------------------

struct HiveEnv {
  std::unique_ptr<dual::MetadataTable> metadata;
  std::shared_ptr<baseline::HiveTable> table;
};

std::vector<Statement<HiveEnv>> HiveStatements() {
  auto update = [](int64_t value, std::function<bool(int64_t)> pred) {
    return Statement<HiveEnv>{
        [value, pred](HiveEnv* env) { return RunUpdate(env->table.get(), value, pred); },
        [value, pred](State* state) { ApplyUpdate(state, value, pred); }};
  };
  std::vector<Statement<HiveEnv>> statements;
  statements.push_back(update(1, [](int64_t id) { return id < 15; }));
  statements.push_back(
      {[](HiveEnv* env) { return RunDelete(env->table.get(), [](int64_t id) { return id >= 30; }); },
       [](State* state) { ApplyDelete(state, [](int64_t id) { return id >= 30; }); }});
  statements.push_back(update(2, [](int64_t) { return true; }));
  return statements;
}

TEST(CrashSweepTest, HiveInsertOverwrite) {
  static const std::vector<Statement<HiveEnv>> statements = HiveStatements();
  constexpr int64_t kRows = 40;

  auto setup = [](fs::SimFileSystem* fs) -> std::unique_ptr<HiveEnv> {
    auto env = std::make_unique<HiveEnv>();
    auto metadata = dual::MetadataTable::Open(fs);
    if (!metadata.ok()) return nullptr;
    env->metadata = std::move(metadata.value());
    auto table = baseline::HiveTable::Open(fs, env->metadata.get(), "hive", TableSchema());
    if (!table.ok()) return nullptr;
    env->table = std::move(table.value());
    if (!env->table->InsertRows(InitialRows(kRows)).ok()) return nullptr;
    return env;
  };
  auto statement = [](HiveEnv* env, size_t i) { return statements[i].run(env); };
  // Every Hive DML is a whole-table rewrite committed by the manifest
  // rename: old generation or new generation, nothing in between.
  auto verify = MakeTableVerifier<HiveEnv>(
      &statements, kRows, /*statement_atomic=*/true,
      [](fs::SimFileSystem* fs) -> Result<std::shared_ptr<table::StorageTable>> {
        auto metadata = dual::MetadataTable::Open(fs);
        if (!metadata.ok()) return metadata.status();
        auto table = baseline::HiveTable::Open(fs, metadata->get(), "hive", TableSchema());
        if (!table.ok()) return table.status();
        struct Holder {
          std::unique_ptr<dual::MetadataTable> metadata;
          std::shared_ptr<baseline::HiveTable> table;
        };
        auto holder = std::make_shared<Holder>();
        holder->metadata = std::move(metadata.value());
        holder->table = std::move(table.value());
        return std::shared_ptr<table::StorageTable>(holder, holder->table.get());
      });
  RunCrashSweep<HiveEnv>("hive tear=0.5", 0.5, statements.size(), setup, statement, verify);
}

// --- Error-injection sweep (no crash) -------------------------------------------

// One injected IO error at each point of the KV workload: the failed
// statement is unacknowledged, the store keeps serving reads and writes, and
// both the live store and a reopened one show each key in a state explained
// by the acknowledged ops (plus, for the single failed op's key, its
// unacknowledged-but-possibly-durable state).
TEST(ErrorSweepTest, KvStoreSurvivesInjectedErrorAtEveryOperation) {
  const std::vector<KvOp> ops = KvWorkload();
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) keys.push_back("k" + std::to_string(i));

  uint64_t total_ops = 0;
  {
    fs::SimFileSystem fs;
    auto store = kv::KvStore::Open(&fs, KvSweepOptions());
    ASSERT_TRUE(store.ok());
    const uint64_t before = fs.MutatingOpCount();
    for (const KvOp& op : ops) ASSERT_TRUE(RunKvOp(store->get(), op).ok());
    total_ops = fs.MutatingOpCount() - before;
  }

  for (const uint64_t k : SelectCrashPoints(total_ops)) {
    SCOPED_TRACE("error at mutating op " + std::to_string(k) + "/" +
                 std::to_string(total_ops));
    fs::SimFileSystem fs;
    auto store = kv::KvStore::Open(&fs, KvSweepOptions());
    ASSERT_TRUE(store.ok());
    FaultPolicy policy;
    policy.mode = FaultMode::kErrorOnce;
    policy.trigger_after_ops = k;
    fs.SetFaultPolicy(policy);

    std::vector<bool> acked(ops.size(), false);
    size_t failures = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      acked[i] = RunKvOp(store->get(), ops[i]).ok();
      if (!acked[i]) ++failures;
    }
    EXPECT_LE(failures, 1u) << "a single injected error failed multiple statements";

    // Allowed states: acknowledged ops applied in order; the one failed op
    // may or may not have taken effect.
    std::map<std::string, std::string> without_failed;
    std::map<std::string, std::string> with_failed;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (acked[i]) ApplyKvOp(&without_failed, ops[i]);
      ApplyKvOp(&with_failed, ops[i]);
    }
    auto check = [&](kv::KvStore* s, const std::string& when) {
      for (const std::string& key : keys) {
        auto got = s->Get(key, 1);
        ASSERT_TRUE(got.ok()) << when << " " << key << ": " << got.status().ToString();
        auto lookup = [&](const std::map<std::string, std::string>& m) {
          const auto it = m.find(key);
          return it == m.end() ? std::optional<std::string>() : std::optional(it->second);
        };
        EXPECT_TRUE(*got == lookup(without_failed) || *got == lookup(with_failed))
            << when << ": key " << key << " is "
            << (got->has_value() ? "\"" + **got + "\"" : "<absent>");
      }
    };
    check(store->get(), "live");
    // The engine keeps running: a fresh write after the fault must succeed.
    EXPECT_TRUE((*store)->Put("k0", 1, "post-error").ok());
    without_failed["k0"] = "post-error";
    with_failed["k0"] = "post-error";

    fs.ClearFaultPolicy();
    store->reset();  // clean shutdown
    auto reopened = kv::KvStore::Open(&fs, KvSweepOptions());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    check(reopened->get(), "reopened");
  }
}

// --- Failed-rewrite sweep -------------------------------------------------------

/// A table in a known state plus one statement that rewrites its master
/// files: an OVERWRITE, a COMPACT, or a baseline rewrite.
struct RewriteEnv {
  std::unique_ptr<dual::MetadataTable> metadata;
  fs::ClusterModel cluster;
  std::shared_ptr<table::StorageTable> table;
  std::string master_dir;
  std::function<Status()> rewrite;
};

constexpr int64_t kRewriteRows = 150;
constexpr uint64_t kRewriteRollRows = 40;  // rewrites stage several files

/// Loads kRewriteRows rows as three master files of 50.
Status InsertThreeFiles(table::StorageTable* table) {
  const std::vector<Row> rows = InitialRows(kRewriteRows);
  for (int64_t begin = 0; begin < kRewriteRows; begin += 50) {
    DTL_RETURN_NOT_OK(
        table->InsertRows(std::vector<Row>(rows.begin() + begin, rows.begin() + begin + 50)));
  }
  return Status::OK();
}

/// Deltas dense in the first and last file, sparse in the middle one.
Status AddDeltas(table::StorageTable* table) {
  DTL_RETURN_NOT_OK(RunUpdate(table, 5, [](int64_t id) {
    return id < 50 ? id % 2 == 0 : (id >= 100 ? id % 3 == 0 : id == 75);
  }));
  return RunDelete(table, [](int64_t id) { return id % 10 == 3; });
}

enum class DualRewrite {
  kOverwriteUpdate,
  kOverwriteDelete,
  kInsertOverwrite,
  kCompact,
  kCompactIncremental,
};

std::unique_ptr<RewriteEnv> DualRewriteSetup(fs::SimFileSystem* fs, DualRewrite kind) {
  auto env = std::make_unique<RewriteEnv>();
  auto metadata = dual::MetadataTable::Open(fs);
  if (!metadata.ok()) return nullptr;
  env->metadata = std::move(metadata.value());
  const bool overwrite = kind == DualRewrite::kOverwriteUpdate ||
                         kind == DualRewrite::kOverwriteDelete ||
                         kind == DualRewrite::kInsertOverwrite;
  dual::DualTableOptions options;
  options.plan_mode = overwrite ? dual::DualTableOptions::PlanMode::kForceOverwrite
                                : dual::DualTableOptions::PlanMode::kForceEdit;
  options.writer_options.stripe_rows = 16;
  options.rewrite_file_rows = kRewriteRollRows;
  options.incremental_density_override = 0.2;  // selects the two dense files
  auto table = dual::DualTable::Open(fs, env->metadata.get(), &env->cluster, "dual",
                                     TableSchema(), options);
  if (!table.ok()) return nullptr;
  dual::DualTable* dual = table->get();
  env->table = std::move(table.value());
  env->master_dir = "/warehouse/dual";
  if (!InsertThreeFiles(dual).ok()) return nullptr;
  if (!overwrite && !AddDeltas(dual).ok()) return nullptr;
  switch (kind) {
    case DualRewrite::kOverwriteUpdate:
      env->rewrite = [dual] { return RunUpdate(dual, 7, [](int64_t id) { return id % 3 == 0; }); };
      break;
    case DualRewrite::kOverwriteDelete:
      env->rewrite = [dual] { return RunDelete(dual, [](int64_t id) { return id % 4 == 0; }); };
      break;
    case DualRewrite::kInsertOverwrite:
      env->rewrite = [dual] { return dual->OverwriteRows(InitialRows(kRewriteRows)); };
      break;
    case DualRewrite::kCompact:
      env->rewrite = [dual] { return dual->Compact().status(); };
      break;
    case DualRewrite::kCompactIncremental:
      env->rewrite = [dual] { return dual->CompactIncremental().status(); };
      break;
  }
  return env;
}

std::unique_ptr<RewriteEnv> HiveRewriteSetup(fs::SimFileSystem* fs) {
  auto env = std::make_unique<RewriteEnv>();
  auto metadata = dual::MetadataTable::Open(fs);
  if (!metadata.ok()) return nullptr;
  env->metadata = std::move(metadata.value());
  baseline::HiveTableOptions options;
  options.writer_options.stripe_rows = 16;
  options.rewrite_file_rows = kRewriteRollRows;
  auto table =
      baseline::HiveTable::Open(fs, env->metadata.get(), "hive", TableSchema(), options);
  if (!table.ok()) return nullptr;
  baseline::HiveTable* hive = table->get();
  env->table = std::move(table.value());
  env->master_dir = "/warehouse/hive";
  if (!InsertThreeFiles(hive).ok()) return nullptr;
  env->rewrite = [hive] { return RunUpdate(hive, 9, [](int64_t id) { return id % 4 == 0; }); };
  return env;
}

std::unique_ptr<RewriteEnv> AcidRewriteSetup(fs::SimFileSystem* fs) {
  auto env = std::make_unique<RewriteEnv>();
  auto metadata = dual::MetadataTable::Open(fs);
  if (!metadata.ok()) return nullptr;
  env->metadata = std::move(metadata.value());
  baseline::AcidTableOptions options;
  options.writer_options.stripe_rows = 16;
  options.rewrite_file_rows = kRewriteRollRows;
  auto table =
      baseline::AcidTable::Open(fs, env->metadata.get(), "acid", TableSchema(), options);
  if (!table.ok()) return nullptr;
  baseline::AcidTable* acid = table->get();
  env->table = std::move(table.value());
  env->master_dir = "/warehouse/acid";
  if (!InsertThreeFiles(acid).ok() || !AddDeltas(acid).ok()) return nullptr;
  env->rewrite = [acid] { return acid->MajorCompact(); };
  return env;
}

/// Injects one IO error at every create, append, sync and rename of the
/// paths containing `path_substring` — the rewrite's staged master files, or
/// its manifest commit — in turn. At each point the statement must return
/// the error and, without a reopen, leave the master directory as it was
/// (the manifest and the committed files, no `.tmp` and no unlisted
/// `f_*.orc`), and the table must read as before.
void RunFailedRewriteSweep(const std::string& label, const std::string& path_substring,
                           const std::function<std::unique_ptr<RewriteEnv>(fs::SimFileSystem*)>& setup) {
  FaultPolicy policy;
  policy.mode = FaultMode::kErrorOnce;
  policy.path_substring = path_substring;
  policy.ops = {FaultOp::kCreate, FaultOp::kAppend, FaultOp::kSync, FaultOp::kRename};
  uint64_t total = 0;
  {
    fs::SimFileSystem fs;
    auto env = setup(&fs);
    ASSERT_NE(env, nullptr) << label << ": setup failed";
    FaultPolicy counting = policy;
    counting.trigger_after_ops = UINT64_MAX;  // never fires; counts every match
    fs.SetFaultPolicy(counting);
    const Status st = env->rewrite();
    ASSERT_TRUE(st.ok()) << label << " dry run: " << st.ToString();
    total = fs.FaultMatchingOpCount();
  }
  ASSERT_GT(total, 0u) << label;

  for (uint64_t k = 1; k <= total; ++k) {
    SCOPED_TRACE(label + ": error at " + path_substring + " op " + std::to_string(k) + "/" +
                 std::to_string(total));
    fs::SimFileSystem fs;
    auto env = setup(&fs);
    ASSERT_NE(env, nullptr);
    State before;
    std::string why;
    ASSERT_TRUE(TryReadState(env->table.get(), &before, &why)) << why;
    auto listing = [&fs, &env] {
      auto names = fs.ListDir(env->master_dir);
      EXPECT_TRUE(names.ok()) << names.status().ToString();
      return names.ok() ? std::set<std::string>(names->begin(), names->end())
                        : std::set<std::string>();
    };
    const std::set<std::string> committed = listing();
    ASSERT_EQ(committed.count("manifest"), 1u);

    policy.trigger_after_ops = k;
    fs.SetFaultPolicy(policy);
    EXPECT_FALSE(env->rewrite().ok()) << "the injected error was swallowed";
    fs.ClearFaultPolicy();

    EXPECT_EQ(listing(), committed);
    State after;
    ASSERT_TRUE(TryReadState(env->table.get(), &after, &why)) << why;
    EXPECT_EQ(after, before) << "\n  after=" << FormatState(after)
                             << "\n  before=" << FormatState(before);
  }
}

TEST(ErrorSweepTest, FailedRewriteLeavesNothingStaged) {
  const std::pair<const char*, DualRewrite> dual_cases[] = {
      {"dual OVERWRITE UPDATE", DualRewrite::kOverwriteUpdate},
      {"dual OVERWRITE DELETE", DualRewrite::kOverwriteDelete},
      {"dual INSERT OVERWRITE", DualRewrite::kInsertOverwrite},
      {"dual COMPACT", DualRewrite::kCompact},
      {"dual COMPACT INCREMENTAL", DualRewrite::kCompactIncremental},
  };
  for (const char* path : {"/f_", "/manifest"}) {
    for (const auto& [label, kind] : dual_cases) {
      RunFailedRewriteSweep(label, path, [kind = kind](fs::SimFileSystem* fs) {
        return DualRewriteSetup(fs, kind);
      });
    }
    RunFailedRewriteSweep("hive OVERWRITE", path, HiveRewriteSetup);
    RunFailedRewriteSweep("acid major compaction", path, AcidRewriteSetup);
  }
}

// --- Bite test ------------------------------------------------------------------

// Demonstrates that the sweep has teeth: with the master-table manifest
// commit disabled (SetUnsafeGenerationCommitForTests reverts recovery to
// "scan whatever ORC files exist"), a crash between publishing the rewritten
// generation and deleting the old one resurrects both generations, and the
// sweep must observe duplicate rows at some crash point. If this test ever
// fails, the harness has lost its ability to catch the bug class the
// manifest was introduced to fix.
TEST(CrashSweepBiteTest, UnsafeGenerationCommitIsDetected) {
  constexpr int64_t kRows = 40;
  auto setup = [](fs::SimFileSystem* fs)
      -> std::pair<std::unique_ptr<dual::MetadataTable>, std::shared_ptr<baseline::HiveTable>> {
    auto metadata = dual::MetadataTable::Open(fs);
    if (!metadata.ok()) return {};
    auto table = baseline::HiveTable::Open(fs, metadata->get(), "hive", TableSchema());
    if (!table.ok()) return {};
    (*table)->storage()->SetUnsafeGenerationCommitForTests(true);
    if (!(*table)->InsertRows(InitialRows(kRows)).ok()) return {};
    return {std::move(metadata.value()), std::move(table.value())};
  };

  uint64_t total_ops = 0;
  {
    fs::SimFileSystem fs;
    auto [metadata, table] = setup(&fs);
    ASSERT_NE(table, nullptr);
    const uint64_t before = fs.MutatingOpCount();
    ASSERT_TRUE(RunUpdate(table.get(), 1, [](int64_t id) { return id < 15; }).ok());
    total_ops = fs.MutatingOpCount() - before;
  }

  State old_state = InitialState(kRows);
  State new_state = old_state;
  ApplyUpdate(&new_state, 1, [](int64_t id) { return id < 15; });

  size_t violations = 0;
  for (const uint64_t k : SelectCrashPoints(total_ops)) {
    fs::SimFileSystem fs;
    auto [metadata, table] = setup(&fs);
    ASSERT_NE(table, nullptr);
    FaultPolicy policy;
    policy.mode = FaultMode::kCrash;
    policy.trigger_after_ops = k;
    fs.SetFaultPolicy(policy);
    const Status st = RunUpdate(table.get(), 1, [](int64_t id) { return id < 15; });
    table.reset();
    metadata.reset();
    fs.ClearFaultPolicy();

    auto reopened_meta = dual::MetadataTable::Open(&fs);
    ASSERT_TRUE(reopened_meta.ok());
    auto reopened =
        baseline::HiveTable::Open(&fs, reopened_meta->get(), "hive", TableSchema());
    if (!reopened.ok()) {
      ++violations;  // recovery itself failing is a detected violation too
      continue;
    }
    State actual;
    std::string why;
    if (!TryReadState(reopened->get(), &actual, &why)) {
      ++violations;  // duplicate rows from the resurrected generation
      continue;
    }
    const std::optional<State> after =
        st.ok() ? std::nullopt : std::optional<State>(new_state);
    if (!TableStateMatches(actual, st.ok() ? new_state : old_state, after,
                           /*statement_atomic=*/true)) {
      ++violations;
    }
  }
  EXPECT_GT(violations, 0u)
      << "disabling the manifest commit was not detected by the crash sweep";
}

}  // namespace
}  // namespace dtl
