// grid-etl: the paper's DML-heavy regime (Table I: 50-79% DML) on the
// smart-grid detail table tj_gbsjwzl_mx. Low-ratio UPDATE/DELETE statements
// carry WITH RATIO hints so the cost model picks EDIT; one-day UPDATEs build
// stripe delta density until an inline COMPACT INCREMENTAL folds it; a rare
// half-table UPDATE crosses over to OVERWRITE. Reads after the writes (the
// Fig. 7/9 full aggregate, a per-day GROUP BY, a selective projection) pay
// the UNION READ merge cost the deltas add, so read latency saw-tooths
// between folds.
//
// Every SELECT result and every DML affected-row count is checked against a
// reference model of (yhlx, rq, dwdm, cjbm, live) built from one checked
// full scan after the load.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/random.h"
#include "workload.h"
#include "workload/grid_gen.h"

namespace dtl::perfbench {
namespace {

constexpr const char* kTable = "tj_gbsjwzl_mx";
// Ordinals of the experiment columns in tj_gbsjwzl_mx.
constexpr size_t kYhlx = 0;
constexpr size_t kRq = 1;
constexpr size_t kDwdm = 2;
constexpr size_t kCjbm = 3;
constexpr int64_t kOrgs = 30;  // dwdm cardinality of the generator

// `--scale=2` of the paper-figure benches: ~60k rows, all decoded stripes
// fit the 64 MB stripe cache.
constexpr double kFraction = 2.0 / 8000.0;

// One block of the stream: a COMPACT INCREMENTAL closes every block, the
// other slots are shuffled by the seed. 29 of 50 statements are DML (58%).
constexpr size_t kBlock = 50;
enum Tmpl : size_t {
  kAgg,
  kDayGroupBy,
  kProjection,
  kUpdateEdit,
  kUpdateType,
  kDeleteEdit,
  kUpdateDay,
  kUpdateBulk,
  kCompact,
};
constexpr size_t kSlots[] = {6, 5, 9, 13, 7, 6, 3, 0, 1};
// Every eighth block opens with the half-table UPDATE the cost model sends
// to OVERWRITE (in place of one EDIT update), right after a fold.
constexpr size_t kBulkEvery = 8;
// Measured statements per second of nominal run length (reference host).
constexpr size_t kStatementsPerSecond = 50;
// One-day UPDATEs walk a seeded permutation of the days, so stripe delta
// density climbs at the same rate for every seed and the incremental fold
// lands every few blocks at the same stream position; the warm-up covers the
// first fold and the measured phase several saw-tooth cycles.
constexpr size_t kWarmupBlocks = 6;

struct ModelRow {
  int64_t yhlx = 0;
  int64_t dwdm = 0;  // org index
  std::string cjbm;
  bool live = true;
};

bool NumEquals(const Value& v, double expected) {
  if (v.is_int64()) return static_cast<double>(v.AsInt64()) == expected;
  if (v.is_double()) return std::abs(v.AsDouble() - expected) <= 1e-9 * std::abs(expected);
  return false;
}

std::string Org(int64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "org_%02lld", static_cast<long long>(i));
  return buf;
}

class GridEtl : public Workload {
 public:
  GridEtl(uint64_t seed, int seconds) : seed_(seed), seconds_(seconds) {
    templates_ = {{"agg", Kind::kRead},          {"day_groupby", Kind::kRead},
                  {"projection", Kind::kRead},   {"update_edit", Kind::kDml},
                  {"update_type", Kind::kDml},   {"delete_edit", Kind::kDml},
                  {"update_day", Kind::kDml},    {"update_bulk", Kind::kDml},
                  {"compact", Kind::kCompact}};
  }

  std::string name() const override { return "grid-etl"; }
  const std::vector<Template>& templates() const override { return templates_; }

  void Setup(SetupClock* clock) override {
    NewSession();
    workload::GridConfig config;
    config.fraction = kFraction;
    config.seed = MixSeed(seed_, 1);
    const auto specs = workload::TableIISpecs(config);
    const workload::GridTableSpec* spec = nullptr;
    for (const auto& s : specs) {
      if (s.name == kTable) spec = &s;
    }
    table_ = CreateDualTable(kTable, spec->schema);
    tables_ = {{kTable, table_}};
    Status st = workload::GenerateGridTable(*spec, config, table_);
    if (!st.ok()) Fatal("load", st);

    clock->Pause();
    BuildModel(workload::ScaledRows(*spec, config));
    clock->Resume();

    // Warm-up: the stream itself, through the first incremental fold.
    rng_ = Random(MixSeed(seed_, 2));
    block_.clear();
    issued_ = 0;
    day_order_.clear();
    day_updates_ = 0;
    folds_ = 0;
    generation_ = table_->AcquireSnapshot()->manifest_generation();
    for (size_t i = 0; i < kWarmupBlocks * kBlock; ++i) Issue(Next(), clock);
    if (folds_ == 0) std::fprintf(stderr, "grid-etl: no incremental fold during warm-up\n");
    warmup_folds_ = folds_;
  }

  void CorruptReference() override { days_[0].front().yhlx += 1; }

  std::string Describe() const override {
    return "incremental folds: " + std::to_string(warmup_folds_) + " in warm-up, " +
           std::to_string(folds_ - warmup_folds_) + " measured";
  }

  size_t MeasuredStatements() const override {
    const size_t blocks =
        std::max<size_t>(1, kStatementsPerSecond * static_cast<size_t>(seconds_) / kBlock);
    return blocks * kBlock;
  }

  Stmt Next() override {
    if (day_order_.empty()) {
      for (int64_t d = 0; d < workload::kGridDays; ++d) day_order_.push_back(day_base_ + d);
    }
    if (block_.empty()) {
      for (size_t t = 0; t < kCompact; ++t) {
        for (size_t i = 0; i < kSlots[t]; ++i) block_.push_back(t);
      }
      const bool bulk = (issued_ / kBlock) % kBulkEvery == kBulkEvery / 2;
      if (bulk) block_.erase(std::find(block_.begin(), block_.end(), kUpdateEdit));
      for (size_t i = block_.size(); i > 1; --i) {
        std::swap(block_[i - 1], block_[rng_.Uniform(i)]);
      }
      if (bulk) block_.insert(block_.begin(), kUpdateBulk);
      block_.push_back(kCompact);
      std::reverse(block_.begin(), block_.end());  // pop_back order
    }
    const size_t t = block_.back();
    block_.pop_back();
    ++issued_;

    Stmt s;
    s.tmpl = t;
    const int64_t day = day_base_ + static_cast<int64_t>(rng_.Uniform(workload::kGridDays));
    const int64_t type = static_cast<int64_t>(rng_.Uniform(workload::kUserTypes));
    const int64_t org = static_cast<int64_t>(rng_.Uniform(kOrgs));
    const std::string where_day_type =
        " WHERE rq = " + std::to_string(day) + " AND yhlx = " + std::to_string(type);
    switch (t) {
      case kAgg:
        s.sql = std::string("SELECT COUNT(*) cnt, SUM(yhlx) total_type FROM ") + kTable;
        break;
      case kDayGroupBy:
        s.sql = std::string("SELECT rq, COUNT(*) cnt, SUM(yhlx) s FROM ") + kTable +
                " GROUP BY rq ORDER BY rq";
        break;
      case kProjection:
        s.sql = std::string("SELECT dwdm, cjbm FROM ") + kTable + where_day_type;
        s.params = {day, type};
        break;
      case kUpdateEdit:
        s.sql = std::string("UPDATE ") + kTable + " SET cjbm = 'c" +
                std::to_string(issued_) + "'" + where_day_type + " WITH RATIO 0.001";
        s.params = {day, type, static_cast<int64_t>(issued_)};
        break;
      case kUpdateType: {
        const int64_t to = static_cast<int64_t>(rng_.Uniform(workload::kUserTypes));
        s.sql = std::string("UPDATE ") + kTable + " SET yhlx = " + std::to_string(to) +
                " WHERE rq = " + std::to_string(day) + " AND dwdm = '" + Org(org) +
                "' WITH RATIO 0.001";
        s.params = {day, org, to};
        break;
      }
      case kDeleteEdit:
        s.sql = std::string("DELETE FROM ") + kTable + where_day_type + " AND dwdm = '" +
                Org(org) + "' WITH RATIO 0.0001";
        s.params = {day, type, org};
        break;
      case kUpdateDay: {
        if (day_updates_ % day_order_.size() == 0) {
          for (size_t i = day_order_.size(); i > 1; --i) {
            std::swap(day_order_[i - 1], day_order_[rng_.Uniform(i)]);
          }
        }
        const int64_t d = day_order_[day_updates_++ % day_order_.size()];
        s.sql = std::string("UPDATE ") + kTable + " SET dwdm = '" + Org(org) +
                "' WHERE rq = " + std::to_string(d) + " WITH RATIO 0.028";
        s.params = {d, org};
        break;
      }
      case kUpdateBulk:
        s.sql = std::string("UPDATE ") + kTable + " SET cjbm = 'bulk" +
                std::to_string(issued_) + "' WHERE rq < " +
                std::to_string(day_base_ + workload::kGridDays / 2) + " WITH RATIO 0.5";
        s.params = {static_cast<int64_t>(issued_)};
        break;
      case kCompact:
        s.sql = std::string("COMPACT INCREMENTAL TABLE ") + kTable;
        break;
    }
    return s;
  }

  std::string Check(const Stmt& s, const sql::QueryResult& r) override {
    const uint64_t generation = table_->AcquireSnapshot()->manifest_generation();
    if (s.tmpl == kCompact && generation != generation_) ++folds_;
    generation_ = generation;
    switch (s.tmpl) {
      case kAgg: {
        int64_t count = 0, sum = 0;
        for (size_t d = 0; d < days_.size(); ++d) {
          const auto [c, y] = DayTotals(d);
          count += c;
          sum += y;
        }
        if (r.rows.size() != 1 || r.rows[0].size() != 2 ||
            !NumEquals(r.rows[0][0], static_cast<double>(count)) ||
            !NumEquals(r.rows[0][1], static_cast<double>(sum))) {
          return "aggregate differs from the model (count " + std::to_string(count) +
                 ", sum " + std::to_string(sum) + ")";
        }
        return "";
      }
      case kDayGroupBy: {
        size_t i = 0;
        for (size_t d = 0; d < days_.size(); ++d) {
          const auto [count, sum] = DayTotals(d);
          if (count == 0) continue;
          if (i >= r.rows.size()) return "fewer groups than the model";
          const Row& got = r.rows[i++];
          if (got.size() != 3 ||
              !NumEquals(got[0], static_cast<double>(day_base_ + static_cast<int64_t>(d))) ||
              !NumEquals(got[1], static_cast<double>(count)) ||
              !NumEquals(got[2], static_cast<double>(sum))) {
            return "group of day " + std::to_string(d) + " differs from the model";
          }
        }
        return i == r.rows.size() ? "" : "more groups than the model";
      }
      case kProjection: {
        std::vector<std::pair<std::string, std::string>> expected, got;
        for (const ModelRow& m : Day(s.params[0])) {
          if (m.live && m.yhlx == s.params[1]) expected.emplace_back(Org(m.dwdm), m.cjbm);
        }
        for (const Row& row : r.rows) {
          if (row.size() != 2 || !row[0].is_string() || !row[1].is_string()) {
            return "projection row has the wrong shape";
          }
          got.emplace_back(row[0].AsString(), row[1].AsString());
        }
        std::sort(expected.begin(), expected.end());
        std::sort(got.begin(), got.end());
        return got == expected ? "" : "projection rows differ from the model";
      }
      default:
        break;
    }
    if (templates_[s.tmpl].kind != Kind::kDml) return "";
    // Apply the DML to the model and compare the affected-row count.
    uint64_t affected = 0;
    const auto& p = s.params;
    switch (s.tmpl) {
      case kUpdateEdit:
        for (ModelRow& m : Day(p[0])) {
          if (m.live && m.yhlx == p[1]) {
            m.cjbm = "c" + std::to_string(p[2]);
            ++affected;
          }
        }
        break;
      case kUpdateType:
        for (ModelRow& m : Day(p[0])) {
          if (m.live && m.dwdm == p[1]) {
            m.yhlx = p[2];
            ++affected;
          }
        }
        break;
      case kDeleteEdit:
        for (ModelRow& m : Day(p[0])) {
          if (m.live && m.yhlx == p[1] && m.dwdm == p[2]) {
            m.live = false;
            ++affected;
          }
        }
        break;
      case kUpdateDay:
        for (ModelRow& m : Day(p[0])) {
          if (m.live) {
            m.dwdm = p[1];
            ++affected;
          }
        }
        break;
      case kUpdateBulk: {
        const std::string value = "bulk" + std::to_string(p[0]);
        for (size_t d = 0; d < static_cast<size_t>(workload::kGridDays / 2); ++d) {
          for (ModelRow& m : days_[d]) {
            if (!m.live) continue;
            m.cjbm = value;
            ++affected;
          }
        }
        break;
      }
      default:
        break;
    }
    if (r.affected_rows != affected) {
      return "affected " + std::to_string(r.affected_rows) + " rows, model says " +
             std::to_string(affected);
    }
    return "";
  }

  std::vector<ReplayScan> Replay(const Stmt& s) override {
    ReplayScan rs;
    rs.table = table_;
    table::ScanSpec& spec = rs.spec;
    auto eq = [&spec](size_t column, Value v) {
      table::ColumnBound b;
      b.column = column;
      b.lower = v;
      b.upper = v;
      spec.bounds.push_back(std::move(b));
    };
    const auto& p = s.params;
    switch (s.tmpl) {
      case kAgg:
        spec.projection = {kYhlx};
        break;
      case kDayGroupBy:
        spec.projection = {kYhlx, kRq};
        break;
      case kProjection:
      case kUpdateEdit:
        spec.projection = s.tmpl == kProjection
                              ? std::vector<size_t>{kYhlx, kRq, kDwdm, kCjbm}
                              : std::vector<size_t>{kYhlx, kRq};
        spec.predicate_columns = {kYhlx, kRq};
        spec.predicate = [day = p[0], type = p[1]](const Row& row) {
          return row[kRq].AsInt64() == day && row[kYhlx].AsInt64() == type;
        };
        eq(kRq, Value::Int64(p[0]));
        eq(kYhlx, Value::Int64(p[1]));
        break;
      case kUpdateType:
        spec.projection = {kRq, kDwdm};
        spec.predicate_columns = {kRq, kDwdm};
        spec.predicate = [day = p[0], org = Org(p[1])](const Row& row) {
          return row[kRq].AsInt64() == day && row[kDwdm].AsString() == org;
        };
        eq(kRq, Value::Int64(p[0]));
        eq(kDwdm, Value::String(Org(p[1])));
        break;
      case kDeleteEdit:
        spec.projection = {kYhlx, kRq, kDwdm};
        spec.predicate_columns = {kYhlx, kRq, kDwdm};
        spec.predicate = [day = p[0], type = p[1], org = Org(p[2])](const Row& row) {
          return row[kRq].AsInt64() == day && row[kYhlx].AsInt64() == type &&
                 row[kDwdm].AsString() == org;
        };
        eq(kRq, Value::Int64(p[0]));
        eq(kYhlx, Value::Int64(p[1]));
        eq(kDwdm, Value::String(Org(p[2])));
        break;
      case kUpdateDay:
        spec.projection = {kRq};
        spec.predicate_columns = {kRq};
        spec.predicate = [day = p[0]](const Row& row) { return row[kRq].AsInt64() == day; };
        eq(kRq, Value::Int64(p[0]));
        break;
      case kUpdateBulk: {
        const int64_t cutoff = day_base_ + workload::kGridDays / 2;
        spec.projection = {kRq};
        spec.predicate_columns = {kRq};
        spec.predicate = [cutoff](const Row& row) { return row[kRq].AsInt64() < cutoff; };
        table::ColumnBound b;
        b.column = kRq;
        b.upper = Value::Int64(cutoff);
        spec.bounds.push_back(std::move(b));
        break;
      }
      default:
        return {};
    }
    return {std::move(rs)};
  }

  double LiveLogicalBytes() const override {
    uint64_t live = 0;
    for (const auto& day : days_) {
      for (const ModelRow& m : day) live += m.live ? 1 : 0;
    }
    return static_cast<double>(live) * mean_row_bytes_;
  }
  double MeanRowBytes() const override { return mean_row_bytes_; }

  double ReplayShare(const Stmt&) const override { return 0.25; }

 private:
  std::vector<ModelRow>& Day(int64_t rq) { return days_[static_cast<size_t>(rq - day_base_)]; }

  /// Live rows and their SUM(yhlx) on model day `d`.
  std::pair<int64_t, int64_t> DayTotals(size_t d) const {
    int64_t count = 0, sum = 0;
    for (const ModelRow& m : days_[d]) {
      if (!m.live) continue;
      ++count;
      sum += m.yhlx;
    }
    return {count, sum};
  }

  /// One checked full scan after the load: every row has the generator's
  /// shape and the row count is the generator's.
  void BuildModel(uint64_t expected_rows) {
    std::vector<Row> rows;
    uint64_t bytes = 0;
    int64_t min_day = INT64_MAX;
    ForEachRow(table_, [&](const Row& row) {
      if (!row[kYhlx].is_int64() || !row[kRq].is_int64() || !row[kDwdm].is_string() ||
          !row[kCjbm].is_string()) {
        Fatal("model scan", Status::Corruption("row with an unexpected shape"));
      }
      bytes += LogicalRowBytes(row);
      min_day = std::min(min_day, row[kRq].AsInt64());
      rows.push_back(row);
      return true;
    });
    if (rows.size() != expected_rows) {
      Fatal("model scan", Status::Corruption("scanned " + std::to_string(rows.size()) +
                                             " rows, generated " +
                                             std::to_string(expected_rows)));
    }
    day_base_ = min_day;
    mean_row_bytes_ = static_cast<double>(bytes) / static_cast<double>(rows.size());
    days_.assign(static_cast<size_t>(workload::kGridDays), {});
    for (const Row& r : rows) {
      const int64_t d = r[kRq].AsInt64() - day_base_;
      if (d < 0 || d >= workload::kGridDays) {
        Fatal("model scan", Status::Corruption("rq outside the generator's days"));
      }
      ModelRow m;
      m.yhlx = r[kYhlx].AsInt64();
      m.dwdm = std::stoll(r[kDwdm].AsString().substr(4));
      m.cjbm = r[kCjbm].AsString();
      days_[static_cast<size_t>(d)].push_back(std::move(m));
    }
  }

  uint64_t seed_;
  int seconds_;
  std::vector<Template> templates_;
  dual::DualTable* table_ = nullptr;  // owned by the session catalog
  Random rng_{0};
  std::vector<size_t> block_;
  size_t issued_ = 0;
  std::vector<int64_t> day_order_;  // permutation the one-day UPDATEs walk
  size_t day_updates_ = 0;
  uint64_t generation_ = 0;  // master generation after the last statement
  size_t folds_ = 0;
  size_t warmup_folds_ = 0;
  int64_t day_base_ = 0;
  double mean_row_bytes_ = 0;
  std::vector<std::vector<ModelRow>> days_;  // reference model, by rq
};

}  // namespace

std::unique_ptr<Workload> MakeGridEtl(uint64_t seed, int seconds) {
  return std::make_unique<GridEtl>(seed, seconds);
}

}  // namespace dtl::perfbench
