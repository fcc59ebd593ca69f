// point-serve: a lookup-serving DualTable with a secondary index on its key
// (CREATE TABLE ... INDEX (id)); ~100k keys whose decoded stripes fit the
// stripe cache. The stream is uniform `SELECT ... WHERE id = k` with 1%
// keyed UPDATEs. A lookup spends its time in sql parse and bind, snapshot
// acquisition, the index KV probe and a cache-hit patch, with no decode; a
// keyed UPDATE does not use the index and scans the table (stripe pruning is
// off while deltas exist), then writes one attached cell. This exercises the
// kv and dualtable layers by key instead of by scan.
//
// Every returned row is checked against a key -> value model that the keyed
// UPDATEs maintain.
#include <algorithm>

#include "common/random.h"
#include "workload.h"

namespace dtl::perfbench {
namespace {

constexpr const char* kTable = "point_serve";
constexpr size_t kId = 0;
constexpr size_t kV = 1;
constexpr size_t kName = 2;
constexpr int64_t kKeys = 100000;
constexpr size_t kLoadBatch = 32768;
// One block: 99 lookups and one keyed UPDATE at a seeded position.
constexpr size_t kBlock = 100;
enum Tmpl : size_t { kLookup, kUpdate };
// Measured statements per second of nominal run length (reference host).
constexpr size_t kStatementsPerSecond = 7000;
// Warm-up blocks: every stripe decoded into the cache, the attached table
// and the index holding a steady share of deltas.
constexpr size_t kWarmupBlocks = 100;

class PointServe : public Workload {
 public:
  PointServe(uint64_t seed, int seconds) : seed_(seed), seconds_(seconds) {
    templates_ = {{"lookup", Kind::kLookup}, {"keyed_update", Kind::kDml}};
  }

  std::string name() const override { return "point-serve"; }
  const std::vector<Template>& templates() const override { return templates_; }

  void Setup(SetupClock* clock) override {
    NewSession();
    table_ = CreateDualTable(kTable,
                             Schema({{"id", DataType::kInt64},
                                     {"v", DataType::kInt64},
                                     {"name", DataType::kString},
                                     {"score", DataType::kDouble}}),
                             "INDEX (id)");
    tables_ = {{kTable, table_}};

    // Keys in seeded shuffled order, so stripe key ranges overlap.
    clock->Pause();
    Random rng(MixSeed(seed_, 1));
    std::vector<int64_t> ids(static_cast<size_t>(kKeys));
    for (int64_t i = 0; i < kKeys; ++i) ids[static_cast<size_t>(i)] = i;
    for (size_t i = ids.size(); i > 1; --i) std::swap(ids[i - 1], ids[rng.Uniform(i)]);
    values_.assign(static_cast<size_t>(kKeys), 0);
    names_.assign(static_cast<size_t>(kKeys), std::string());
    std::vector<std::vector<Row>> batches;
    uint64_t bytes = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i % kLoadBatch == 0) batches.emplace_back();
      const int64_t id = ids[i];
      values_[static_cast<size_t>(id)] = static_cast<int64_t>(rng.Uniform(1000000000));
      names_[static_cast<size_t>(id)] = rng.NextString(12);
      Row row = {Value::Int64(id), Value::Int64(values_[static_cast<size_t>(id)]),
                 Value::String(names_[static_cast<size_t>(id)]),
                 Value::Double(rng.NextDouble())};
      bytes += LogicalRowBytes(row);
      batches.back().push_back(std::move(row));
    }
    mean_row_bytes_ = static_cast<double>(bytes) / static_cast<double>(kKeys);
    clock->Resume();
    for (const auto& batch : batches) {
      Status st = table_->InsertRows(batch);
      if (!st.ok()) Fatal("load", st);
    }
    clock->Pause();
    batches.clear();
    clock->Resume();

    rng_ = Random(MixSeed(seed_, 2));
    block_.clear();
    for (size_t i = 0; i < kWarmupBlocks * kBlock; ++i) Issue(Next(), clock);
  }

  size_t MeasuredStatements() const override {
    return std::max<size_t>(1, kStatementsPerSecond * static_cast<size_t>(seconds_) /
                                   kBlock) *
           kBlock;
  }

  Stmt Next() override {
    if (block_.empty()) {
      block_.assign(kBlock, kLookup);
      block_[rng_.Uniform(kBlock)] = kUpdate;
    }
    Stmt s;
    s.tmpl = block_.back();
    block_.pop_back();
    const int64_t key = static_cast<int64_t>(rng_.Uniform(static_cast<uint64_t>(kKeys)));
    if (s.tmpl == kLookup) {
      s.sql = std::string("SELECT id, v, name FROM ") + kTable +
              " WHERE id = " + std::to_string(key);
      s.params = {key};
    } else {
      const int64_t v = static_cast<int64_t>(rng_.Uniform(1000000000));
      s.sql = std::string("UPDATE ") + kTable + " SET v = " + std::to_string(v) +
              " WHERE id = " + std::to_string(key) + " WITH RATIO 0.00001";
      s.params = {key, v};
    }
    return s;
  }

  std::string Check(const Stmt& s, const sql::QueryResult& r) override {
    const size_t key = static_cast<size_t>(s.params[0]);
    if (s.tmpl == kUpdate) {
      if (r.affected_rows != 1) {
        return "keyed UPDATE affected " + std::to_string(r.affected_rows) + " rows";
      }
      values_[key] = s.params[1];
      return "";
    }
    if (r.rows.size() != 1) return "lookup returned " + std::to_string(r.rows.size()) + " rows";
    const Row& row = r.rows[0];
    if (row.size() != 3 || !row[0].is_int64() || !row[1].is_int64() || !row[2].is_string() ||
        row[0].AsInt64() != s.params[0] || row[1].AsInt64() != values_[key] ||
        row[2].AsString() != names_[key]) {
      return "lookup row differs from the model";
    }
    return "";
  }

  std::vector<ReplayScan> Replay(const Stmt& s) override {
    ReplayScan rs;
    rs.table = table_;
    const int64_t key = s.params[0];
    rs.spec.predicate_columns = {kId};
    rs.spec.predicate = [key](const Row& row) { return row[kId].AsInt64() == key; };
    table::ColumnBound b;
    b.column = kId;
    b.lower = Value::Int64(key);
    b.upper = Value::Int64(key);
    rs.spec.bounds.push_back(std::move(b));
    if (s.tmpl == kLookup) {
      rs.lookup = true;
      rs.column = kId;
      rs.probes = {Value::Int64(key)};
      rs.spec.projection = {kId, kV, kName};
    } else {
      rs.spec.projection = {kId};
    }
    return {std::move(rs)};
  }

  void CorruptReference() override {
    for (int64_t& v : values_) ++v;
  }

  double LiveLogicalBytes() const override {
    return static_cast<double>(kKeys) * mean_row_bytes_;
  }
  double MeanRowBytes() const override { return mean_row_bytes_; }

  double ReplayShare(const Stmt& s) const override {
    return s.tmpl == kLookup ? 0.02 : 0.5;
  }

 private:
  uint64_t seed_;
  int seconds_;
  std::vector<Template> templates_;
  dual::DualTable* table_ = nullptr;  // owned by the session catalog
  Random rng_{0};
  std::vector<size_t> block_;
  double mean_row_bytes_ = 0;
  std::vector<int64_t> values_;     // reference model: id -> v
  std::vector<std::string> names_;  // id -> name (never updated)
};

}  // namespace

std::unique_ptr<Workload> MakePointServe(uint64_t seed, int seconds) {
  return std::make_unique<PointServe>(seed, seconds);
}

}  // namespace dtl::perfbench
