// Randomized oracle for the attached scan and the UNION READ patch
// (DESIGN.md §6). Seeded interleavings of attached-table writes (PutUpdate,
// PutDeleteMarker, KV row and column tombstones), flushes, KV compactions,
// Clear() and table reopens run against a DualTable and, in lockstep,
// against a brute-force model of HBase visibility: every cell written since
// the last Clear(), with its timestamp. Some flushes fail to retire their
// WAL segment, and a reopen then replays cells an SSTable already holds, so
// the merge must deduplicate shadowed copies.
//
// Checks, at random points:
//   * the raw CellScanner stream of a pinned KvSnapshot is strictly
//     increasing in CellKey order (no shadowed copy survives the merge);
//   * AttachedTable::NewScannerAt over random [start, end) ranges, at the
//     snapshot's read_ts or clamped to an earlier as_of, returns exactly the
//     model's visible modifications, and GetModificationAt agrees; snapshots
//     pinned earlier keep replaying their acquisition state;
//   * UNION READ drains with random projections and predicates return the
//     model's rows in record-ID order: required columns carry the patched
//     values, unread columns read NULL, and the predicate sees post-merge
//     values.
//
// Reproduction: the seed is printed on entry and embedded in every assertion
// message; re-run a failure with DTL_DIFF_SEED=<seed> (and optionally
// DTL_DIFF_OPS=<n> to lengthen the interleaving).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dualtable/dual_table.h"
#include "dualtable/record_id.h"
#include "fs/filesystem.h"

namespace dtl::dual {
namespace {

constexpr size_t kFields = 6;

Schema OracleSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"a", DataType::kInt64},
                 {"b", DataType::kDouble},
                 {"c", DataType::kString},
                 {"d", DataType::kInt64},
                 {"e", DataType::kString}});
}

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::strtoull(env, nullptr, 10) : fallback;
}

/// One cell as the model keeps it.
struct ModelCell {
  uint64_t rid = 0;
  uint32_t qualifier = 0;
  uint64_t ts = 0;
  kv::CellType type = kv::CellType::kPut;
  std::string value;  // Value::EncodeTo bytes of an update
};

/// One record's visible modification: the delete flag and the update run.
struct Expected {
  bool deleted = false;
  std::vector<std::pair<uint32_t, std::string>> updates;  // ascending column

  bool operator==(const Expected& o) const {
    return deleted == o.deleted && updates == o.updates;
  }
};

std::string Render(const std::map<uint64_t, Expected>& mods) {
  std::ostringstream out;
  for (const auto& [rid, m] : mods) {
    out << rid << (m.deleted ? " deleted" : "");
    for (const auto& [col, bytes] : m.updates) {
      Slice in(bytes);
      Value v;
      out << " c" << col << "="
          << (Value::DecodeFrom(&in, &v).ok() ? v.ToString() : std::string("<bad>"));
    }
    out << '\n';
  }
  return out.str();
}

/// HBase visibility by brute force: per record, the newest put per qualifier
/// with ts <= read_ts that no row or column tombstone at or above it masks.
std::map<uint64_t, Expected> Visible(const std::vector<ModelCell>& cells,
                                     uint64_t read_ts, uint64_t start, uint64_t end) {
  std::map<uint64_t, std::vector<const ModelCell*>> by_rid;
  for (const ModelCell& c : cells) {
    if (c.rid >= start && c.rid < end && c.ts <= read_ts) by_rid[c.rid].push_back(&c);
  }
  std::map<uint64_t, Expected> out;
  for (const auto& [rid, row] : by_rid) {
    uint64_t row_tomb = 0;
    std::map<uint32_t, uint64_t> col_tomb;
    std::map<uint32_t, const ModelCell*> newest;
    for (const ModelCell* c : row) {
      switch (c->type) {
        case kv::CellType::kDeleteRow:
          row_tomb = std::max(row_tomb, c->ts);
          break;
        case kv::CellType::kDeleteColumn:
          col_tomb[c->qualifier] = std::max(col_tomb[c->qualifier], c->ts);
          break;
        case kv::CellType::kPut: {
          const ModelCell*& best = newest[c->qualifier];
          if (best == nullptr || c->ts > best->ts) best = c;
          break;
        }
      }
    }
    Expected m;
    bool any = false;
    for (const auto& [qual, put] : newest) {
      const uint64_t mask = std::max(row_tomb, col_tomb[qual]);
      if (put->ts <= mask) continue;
      any = true;
      if (qual == kDeleteMarkerQualifier) {
        m.deleted = true;
      } else {
        m.updates.emplace_back(qual, put->value);
      }
    }
    if (any) out[rid] = std::move(m);
  }
  return out;
}

Expected FromModification(const RecordModification& mod) {
  Expected e;
  e.deleted = mod.deleted;
  for (size_t u = 0; u < mod.num_updates(); ++u) {
    e.updates.emplace_back(mod.column(u), mod.value_bytes(u).ToString());
  }
  return e;
}

class AttachedScanHarness {
 public:
  AttachedScanHarness(uint64_t seed, uint64_t ops) : seed_(seed), ops_(ops), rng_(seed) {}

  void Run() {
    auto metadata = MetadataTable::Open(&fs_);
    ASSERT_TRUE(metadata.ok());
    metadata_ = std::move(*metadata);
    options_.plan_mode = DualTableOptions::PlanMode::kForceEdit;
    // Small stripes, batches and memtables put modifications at batch
    // boundaries and the attached cells across several SSTables.
    options_.writer_options.stripe_rows = 8 + rng_() % 32;
    options_.scan_batch_rows = 4 + rng_() % 40;
    options_.attached_options.memtable_flush_bytes = 512 + rng_() % 4096;
    options_.attached_options.l0_compaction_trigger = 2 + static_cast<int>(rng_() % 3);
    options_.attached_options.max_versions = 1 + static_cast<int>(rng_() % 3);
    Reopen();
    if (HasFatalFailure()) return;
    const size_t files = 1 + rng_() % 3;
    int64_t next_id = 0;
    for (size_t f = 0; f < files; ++f) {
      std::vector<Row> rows;
      const size_t n = 10 + rng_() % 50;
      for (size_t i = 0; i < n; ++i) rows.push_back(SeedRow(next_id++));
      ASSERT_TRUE(table_->InsertRows(rows).ok());
    }
    {
      auto it = table_->ScanBatches(table::ScanSpec{});
      ASSERT_TRUE(it.ok());
      table::RowBatch batch;
      Row row;
      while ((*it)->Next(&batch)) {
        for (size_t i = 0; i < batch.size(); ++i) {
          batch.MaterializeRow(i, &row);
          master_rids_.push_back(batch.record_id(i));
          master_rows_.push_back(row);
        }
      }
      ASSERT_TRUE((*it)->status().ok());
    }
    // Writes target the master rows plus a few record IDs no master row
    // has: the scan must carry those too, and UNION READ must skip them.
    keys_ = master_rids_;
    for (int i = 0; i < 4; ++i) keys_.push_back(MakeRecordId(900 + i, rng_() % 64));
    std::sort(keys_.begin(), keys_.end());

    while (op_ < ops_) {
      ++op_;
      Step();
      if (HasFatalFailure()) return;
      table_->PublishEditCommit();
      NoteCompactions();
      VerifyKv(table_->AcquireSnapshot()->attached, cells_, floor_, "live", 2);
      if (HasFatalFailure()) return;
      if (op_ % 3 == 0) {
        for (const Pin& pin : pins_) {
          VerifyKv(pin.kv, pin.cells, pin.floor,
                   "snapshot pinned at op " + std::to_string(pin.acquired_at), 1);
          if (HasFatalFailure()) return;
        }
      }
      if (op_ % 4 == 0 || op_ == ops_) {
        VerifyUnionRead();
        if (HasFatalFailure()) return;
      }
    }
  }

 private:
  struct Pin {
    kv::KvSnapshot kv;
    std::vector<ModelCell> cells;
    uint64_t floor = 0;
    uint64_t acquired_at = 0;
  };

  static bool HasFatalFailure() { return ::testing::Test::HasFatalFailure(); }

  std::string Where(const std::string& what) const {
    return what + " at op " + std::to_string(op_) + " (seed " + std::to_string(seed_) +
           ")";
  }

  /// `prefix` followed by `n` (appending sidesteps a GCC 12 -Wrestrict
  /// false positive on `"literal" + std::to_string(n)`).
  static Value Tagged(const char* prefix, int64_t n) {
    std::string s = prefix;
    s += std::to_string(n);
    return Value::String(std::move(s));
  }

  static Row SeedRow(int64_t id) {
    return Row{Value::Int64(id),        Value::Int64(id % 11), Value::Double(id * 0.5),
               Tagged("s", id % 7),     Value::Int64(100 - id), Tagged("e", id)};
  }

  Value RandomValue(size_t column) {
    if (rng_() % 10 == 0) return Value::Null();
    switch (column) {
      case 2: return Value::Double(static_cast<double>(rng_() % 400) * 0.25);
      case 3: return Tagged("s", static_cast<int64_t>(rng_() % 9));
      case 5: return Tagged("u", static_cast<int64_t>(rng_() % 1000));
      default: return Value::Int64(static_cast<int64_t>(rng_() % 120) - 10);
    }
  }

  uint64_t RandomKey() { return keys_[rng_() % keys_.size()]; }
  kv::KvStore* store() { return table_->attached()->store(); }

  void Record(uint64_t rid, uint32_t qualifier, kv::CellType type, std::string value) {
    cells_.push_back(
        ModelCell{rid, qualifier, store()->LastTimestamp(), type, std::move(value)});
  }

  void Step() {
    const uint64_t dice = rng_() % 100;
    const uint64_t rid = RandomKey();
    if (dice < 34) {
      const auto column = static_cast<uint32_t>(rng_() % kFields);
      const Value v = RandomValue(column);
      SCOPED_TRACE(
          Where("update " + std::to_string(rid) + " c" + std::to_string(column)));
      ASSERT_TRUE(table_->attached()->PutUpdate(rid, column, v).ok());
      std::string encoded;
      v.EncodeTo(&encoded);
      Record(rid, column, kv::CellType::kPut, std::move(encoded));
    } else if (dice < 42) {
      SCOPED_TRACE(Where("delete marker " + std::to_string(rid)));
      ASSERT_TRUE(table_->attached()->PutDeleteMarker(rid).ok());
      Record(rid, kDeleteMarkerQualifier, kv::CellType::kPut, "");
    } else if (dice < 48) {
      SCOPED_TRACE(Where("row tombstone " + std::to_string(rid)));
      ASSERT_TRUE(store()->DeleteRow(RecordIdKey(rid)).ok());
      Record(rid, kv::kRowTombstoneQualifier, kv::CellType::kDeleteRow, "");
    } else if (dice < 56) {
      // A column tombstone on the delete marker's qualifier undeletes.
      const auto qualifier = rng_() % 4 == 0 ? kDeleteMarkerQualifier
                                             : static_cast<uint32_t>(rng_() % kFields);
      SCOPED_TRACE(Where("column tombstone " + std::to_string(rid)));
      ASSERT_TRUE(store()->DeleteColumn(RecordIdKey(rid), qualifier).ok());
      Record(rid, qualifier, kv::CellType::kDeleteColumn, "");
    } else if (dice < 63) {
      SCOPED_TRACE(Where("flush"));
      ASSERT_TRUE(store()->Flush().ok());
    } else if (dice < 68) {
      StepFlushKeepingWal();
    } else if (dice < 72) {
      SCOPED_TRACE(Where("kv compact"));
      ASSERT_TRUE(store()->Compact().ok());
      floor_ = store()->LastTimestamp();
    } else if (dice < 74) {
      SCOPED_TRACE(Where("clear"));
      ASSERT_TRUE(table_->attached()->Clear().ok());
      cells_.clear();
      floor_ = store()->LastTimestamp();
    } else if (dice < 79) {
      SCOPED_TRACE(Where("reopen"));
      Reopen();
    } else if (dice < 87) {
      if (pins_.size() < 4 && rng_() % 2 == 0) {
        pins_.push_back(Pin{table_->AcquireSnapshot()->attached, cells_, floor_, op_});
      } else if (!pins_.empty()) {
        pins_.erase(pins_.begin() + static_cast<std::ptrdiff_t>(rng_() % pins_.size()));
      }
    }
  }

  // A flush whose WAL retirement fails: the SSTable is published but the
  // synced segment stays, so a reopen replays its cells into the memtable
  // next to their SSTable copies.
  void StepFlushKeepingWal() {
    SCOPED_TRACE(Where("flush keeping its WAL segment"));
    ASSERT_TRUE(table_->attached()->Sync().ok());
    fs::FaultPolicy policy;
    policy.mode = fs::FaultMode::kErrorOnce;
    policy.path_substring = "_attached/wal_";
    policy.ops = {fs::FaultOp::kDelete};
    fs_.SetFaultPolicy(policy);
    const Status st = store()->Flush();
    fs_.ClearFaultPolicy();
    ASSERT_TRUE(st.ok() || st.IsIoError()) << st.ToString();
    if (rng_() % 2 == 0) Reopen();
  }

  void Reopen() {
    table_.reset();  // closes the attached store and its WAL
    auto t = DualTable::Open(&fs_, metadata_.get(), &cluster_, "oracle", OracleSchema(),
                             options_);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    table_ = *t;
    // The clock restarts from the surviving cells; past a Clear() nothing
    // survives, and the model holds nothing newer than the clock.
    const uint64_t clock = store()->LastTimestamp();
    for (const ModelCell& c : cells_) ASSERT_LE(c.ts, clock) << Where("reopen");
    floor_ = std::min(floor_, clock);
    compactions_seen_ = 0;
  }

  // A size-tiered compaction on the write path drops history exactly like
  // an explicit one.
  void NoteCompactions() {
    const uint64_t n = store()->stats().compactions.load();
    if (n != compactions_seen_) floor_ = store()->LastTimestamp();
    compactions_seen_ = n;
  }

  std::pair<uint64_t, uint64_t> RandomRange() {
    uint64_t start = rng_() % 4 == 0 ? 0 : RandomKey();
    uint64_t end = rng_() % 4 == 0 ? UINT64_MAX : RandomKey() + rng_() % 2;
    if (start > end) std::swap(start, end);
    return {start, end};
  }

  void VerifyKv(const kv::KvSnapshot& pinned, const std::vector<ModelCell>& cells,
                uint64_t floor, const std::string& label, int ranges) {
    SCOPED_TRACE(Where(label));
    {
      auto it = store()->NewCellScannerAt(pinned);
      bool first = true;
      kv::CellKey prev;
      for (; it->Valid(); it->Next()) {
        if (!first) {
          ASSERT_LT(prev.Compare(it->key()), 0)
              << "raw merge out of order or duplicated at row "
              << RecordIdFromKey(it->key().row) << " qualifier " << it->key().qualifier
              << " ts " << it->key().timestamp;
        }
        prev = it->key();
        first = false;
      }
      ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    }
    for (int r = 0; r < ranges; ++r) {
      kv::KvSnapshot snapshot = pinned;
      // Half the reads travel back in time, never past the history floor.
      if (rng_() % 2 == 0 && floor <= snapshot.read_ts) {
        snapshot.read_ts = floor + rng_() % (snapshot.read_ts - floor + 1);
      }
      const auto [start, end] = RandomRange();
      SCOPED_TRACE("range [" + std::to_string(start) + ", " + std::to_string(end) +
                   ") as of " + std::to_string(snapshot.read_ts));
      std::map<uint64_t, Expected> got;
      auto scanner = table_->attached()->NewScannerAt(snapshot, start, end);
      uint64_t prev_rid = 0;
      while (scanner->Next()) {
        const RecordModification& mod = scanner->modification();
        ASSERT_TRUE(got.empty() || mod.record_id > prev_rid);
        prev_rid = mod.record_id;
        got[mod.record_id] = FromModification(mod);
      }
      ASSERT_TRUE(scanner->status().ok()) << scanner->status().ToString();
      ASSERT_EQ(Render(got), Render(Visible(cells, snapshot.read_ts, start, end)));

      const uint64_t probe = RandomKey();
      auto point = table_->attached()->GetModificationAt(snapshot, probe);
      ASSERT_TRUE(point.ok()) << point.status().ToString();
      const auto one = Visible(cells, snapshot.read_ts, probe, probe + 1);
      ASSERT_EQ(point->has_value(), !one.empty()) << "point read of " << probe;
      if (point->has_value()) {
        ASSERT_TRUE(FromModification(**point) == one.begin()->second);
      }
    }
  }

  void VerifyUnionRead() {
    for (int round = 0; round < 2; ++round) {
      table::ScanSpec spec;
      if (rng_() % 4 != 0) {
        for (size_t c = 0; c < kFields; ++c) {
          if (rng_() % 2 == 0) spec.projection.push_back(c);
        }
        if (spec.projection.empty()) spec.projection.push_back(rng_() % kFields);
      }
      std::string label =
          "union read, projection of " + std::to_string(spec.projection.size());
      if (rng_() % 2 == 0) {
        const size_t column = rng_() % kFields;
        const Value threshold = RandomValue(column);
        spec.predicate_columns = {column};
        spec.predicate = [column, threshold](const Row& row) {
          return row[column].Compare(threshold) <= 0;
        };
        label += ", predicate on c" + std::to_string(column);
      }
      SCOPED_TRACE(Where(label));
      const SnapshotPtr snapshot = table_->AcquireSnapshot();
      const std::vector<size_t> required = spec.RequiredColumns(kFields);

      std::vector<std::pair<uint64_t, Row>> want;
      for (size_t i = 0; i < master_rids_.size(); ++i) {
        const uint64_t rid = master_rids_[i];
        const auto mods = Visible(cells_, snapshot->attached.read_ts, rid, rid + 1);
        Row full = master_rows_[i];
        if (!mods.empty()) {
          const Expected& m = mods.begin()->second;
          if (m.deleted) continue;
          for (const auto& [col, bytes] : m.updates) {
            Slice in(bytes);
            ASSERT_TRUE(Value::DecodeFrom(&in, &full[col]).ok());
          }
        }
        if (spec.predicate && !spec.predicate(full)) continue;
        Row row(kFields, Value::Null());
        for (size_t c : required) row[c] = full[c];
        want.emplace_back(rid, std::move(row));
      }

      auto it = table_->ScanBatchesAt(snapshot, spec);
      ASSERT_TRUE(it.ok()) << it.status().ToString();
      std::vector<std::pair<uint64_t, Row>> got;
      table::RowBatch batch;
      Row row;
      while ((*it)->Next(&batch)) {
        for (size_t i = 0; i < batch.size(); ++i) {
          batch.MaterializeRow(i, &row);
          got.emplace_back(batch.record_id(i), row);
        }
      }
      ASSERT_TRUE((*it)->status().ok()) << (*it)->status().ToString();
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].first, want[i].first) << "row " << i;
        ASSERT_EQ(RowToString(got[i].second), RowToString(want[i].second))
            << "record " << got[i].first;
      }
    }
  }

  const uint64_t seed_;
  const uint64_t ops_;
  std::mt19937_64 rng_;
  fs::SimFileSystem fs_;
  std::unique_ptr<MetadataTable> metadata_;
  fs::ClusterModel cluster_;
  DualTableOptions options_;
  std::shared_ptr<DualTable> table_;
  std::vector<uint64_t> master_rids_;
  std::vector<Row> master_rows_;
  std::vector<uint64_t> keys_;
  std::vector<ModelCell> cells_;
  /// History before this timestamp is not reconstructible (a KV compaction
  /// or Clear() folded it); time-travel reads stay at or above it.
  uint64_t floor_ = 0;
  uint64_t compactions_seen_ = 0;
  std::vector<Pin> pins_;
  uint64_t op_ = 0;
};

TEST(AttachedScanDifferentialTest, RandomInterleavingsMatchVisibilityModel) {
  // Fresh entropy every run; DTL_DIFF_SEED pins a failing interleaving.
  const uint64_t base = EnvOr("DTL_DIFF_SEED", std::random_device{}());
  const uint64_t ops = EnvOr("DTL_DIFF_OPS", 120);
  const uint64_t iterations = std::getenv("DTL_DIFF_SEED") != nullptr ? 1 : 3;
  for (uint64_t i = 0; i < iterations; ++i) {
    const uint64_t seed = base + i;
    std::fprintf(stderr,
                 "attached-scan-differential seed %llu (replay: DTL_DIFF_SEED=%llu)\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(seed));
    AttachedScanHarness harness(seed, ops);
    harness.Run();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A fixed interleaving in every run, next to the rotating random ones.
TEST(AttachedScanDifferentialTest, FixedSeedInterleavingMatchesVisibilityModel) {
  if (std::getenv("DTL_DIFF_SEED") != nullptr) GTEST_SKIP();
  AttachedScanHarness harness(20261018, 200);
  harness.Run();
}

}  // namespace
}  // namespace dtl::dual
