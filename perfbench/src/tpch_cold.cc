// tpch-cold: read-only TPC-H on DualTables whose attached tables stay
// empty, sized past the 64 MB process-wide stripe cache. Q1 (group-by
// aggregate), Q12 (join), COUNT(*) and a selective projection (seeded
// ship date) rotate in a fixed order; the decoded stripes of one rotation
// exceed the cache, so the LRU evicts each query's stripes before the
// rotation comes back to it and every scan decodes. The fixed order keeps
// the cache's miss pattern, and with it the modeled I/O, the same for every
// seed. UNION
// READ passes batches through and the kv layer is idle: this is the
// workload for ORC decode and the exec operators, and the bypass case for
// every write-path change.
//
// Answers are computed once per process through DualTable::ScanBatches plus
// benchmark-side aggregation, never through the SQL executor.
#include <algorithm>
#include <cmath>
#include <map>

#include "common/random.h"
#include "workload.h"
#include "workload/tpch_gen.h"

namespace dtl::perfbench {
namespace {

namespace li = workload::lineitem;
namespace od = workload::orders;

// 576k lineitem rows (~65 MB stored); one rotation decodes more than the
// stripe cache holds.
constexpr double kScaleFactor = 0.004 * 24;
enum Tmpl : size_t { kQ1, kQ12, kCount, kProjection };
constexpr size_t kTemplates = 4;
// Measured statements per second of nominal run length (reference host).
constexpr double kStatementsPerSecond = 6.0;

constexpr int64_t kQ1Cutoff = workload::kDateEpoch + workload::kDateSpanDays - 90;
constexpr int64_t kQ12From = workload::kDateEpoch + 365;
constexpr int64_t kQ12To = kQ12From + 365;

bool Near(const Value& v, double expected) {
  double got = 0;
  if (v.is_int64()) {
    got = static_cast<double>(v.AsInt64());
  } else if (v.is_double()) {
    got = v.AsDouble();
  } else {
    return false;
  }
  return std::abs(got - expected) <= 1e-9 * std::max(1.0, std::abs(expected));
}

/// Order-independent fingerprint of a multiset of rows.
uint64_t RowHash(const Row& row) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const Value& v : row) h = (h ^ v.HashCode()) * 0x100000001b3ull;
  return h;
}

struct Q1Group {
  double sum_qty = 0, sum_price = 0, sum_disc_price = 0, sum_charge = 0, sum_disc = 0;
  int64_t count = 0;
};

struct Q12Group {
  int64_t high = 0, low = 0;
};

struct DayAnswer {
  int64_t count = 0;
  uint64_t hash = 0;
};

class TpchCold : public Workload {
 public:
  TpchCold(uint64_t seed, int seconds) : seed_(seed), seconds_(seconds) {
    templates_ = {{"q1", Kind::kRead},
                  {"q12", Kind::kRead},
                  {"count", Kind::kRead},
                  {"projection", Kind::kRead}};
  }

  std::string name() const override { return "tpch-cold"; }
  const std::vector<Template>& templates() const override { return templates_; }

  void Setup(SetupClock* clock) override {
    NewSession();
    workload::TpchConfig config;
    config.scale_factor = kScaleFactor;
    config.seed = MixSeed(seed_, 1);
    lineitem_ = CreateDualTable("lineitem", workload::LineitemSchema());
    orders_ = CreateDualTable("orders", workload::OrdersSchema());
    tables_ = {{"lineitem", lineitem_}, {"orders", orders_}};
    Status st = workload::GenerateLineitem(lineitem_, config);
    if (!st.ok()) Fatal("load lineitem", st);
    st = workload::GenerateOrders(orders_, config);
    if (!st.ok()) Fatal("load orders", st);

    if (!have_answers_) {
      clock->Pause();
      BuildAnswers();
      clock->Resume();
    }

    // Warm-up: one rotation, so lazy state (reader caches, metadata) exists.
    rng_ = Random(MixSeed(seed_, 2));
    issued_ = 0;
    for (size_t i = 0; i < kTemplates; ++i) Issue(Next(), clock);
  }

  size_t MeasuredStatements() const override {
    const double rotations = std::round(kStatementsPerSecond * seconds_ / kTemplates);
    return kTemplates * std::max<size_t>(1, static_cast<size_t>(rotations));
  }

  Stmt Next() override {
    Stmt s;
    s.tmpl = issued_++ % kTemplates;
    const int64_t day =
        workload::kDateEpoch + static_cast<int64_t>(rng_.Uniform(workload::kDateSpanDays));
    switch (s.tmpl) {
      case kQ1:
        s.sql = workload::QueryA("lineitem");
        break;
      case kQ12:
        s.sql = workload::QueryB("lineitem", "orders");
        break;
      case kCount:
        s.sql = workload::QueryC("lineitem");
        break;
      case kProjection:
        s.sql = "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem "
                "WHERE l_shipdate = " + std::to_string(day);
        s.params = {day};
        break;
    }
    return s;
  }

  std::string Check(const Stmt& s, const sql::QueryResult& r) override {
    switch (s.tmpl) {
      case kQ1: {
        if (r.rows.size() != q1_.size()) return "Q1 group count differs";
        size_t i = 0;
        for (const auto& [key, g] : q1_) {
          const Row& row = r.rows[i++];
          const double n = static_cast<double>(g.count);
          if (row.size() != 10 || !row[0].is_string() || !row[1].is_string() ||
              row[0].AsString() != key.first || row[1].AsString() != key.second ||
              !Near(row[2], g.sum_qty) || !Near(row[3], g.sum_price) ||
              !Near(row[4], g.sum_disc_price) || !Near(row[5], g.sum_charge) ||
              !Near(row[6], g.sum_qty / n) || !Near(row[7], g.sum_price / n) ||
              !Near(row[8], g.sum_disc / n) || !Near(row[9], n)) {
            return "Q1 group " + key.first + key.second + " differs";
          }
        }
        return "";
      }
      case kQ12: {
        if (r.rows.size() != q12_.size()) return "Q12 group count differs";
        size_t i = 0;
        for (const auto& [mode, g] : q12_) {
          const Row& row = r.rows[i++];
          if (row.size() != 3 || !row[0].is_string() || row[0].AsString() != mode ||
              !Near(row[1], static_cast<double>(g.high)) ||
              !Near(row[2], static_cast<double>(g.low))) {
            return "Q12 group " + mode + " differs";
          }
        }
        return "";
      }
      case kCount:
        return r.rows.size() == 1 && r.rows[0].size() == 1 &&
                       Near(r.rows[0][0], static_cast<double>(lineitem_rows_))
                   ? ""
                   : "COUNT(*) differs";
      case kProjection: {
        DayAnswer got;
        for (const Row& row : r.rows) {
          ++got.count;
          got.hash += RowHash(row);
        }
        const DayAnswer& want = by_day_[s.params[0]];
        return got.count == want.count && got.hash == want.hash
                   ? ""
                   : "projection rows differ (" + std::to_string(got.count) + " vs " +
                         std::to_string(want.count) + ")";
      }
    }
    return "unknown template";
  }

  std::vector<ReplayScan> Replay(const Stmt& s) override {
    ReplayScan rs;
    rs.table = lineitem_;
    table::ScanSpec& spec = rs.spec;
    switch (s.tmpl) {
      case kQ1: {
        spec.projection = {li::kQuantity,   li::kExtendedPrice, li::kDiscount, li::kTax,
                           li::kReturnFlag, li::kLineStatus,    li::kShipDate};
        spec.predicate_columns = {li::kShipDate};
        spec.predicate = [](const Row& row) {
          return row[li::kShipDate].AsInt64() <= kQ1Cutoff;
        };
        table::ColumnBound b;
        b.column = li::kShipDate;
        b.upper = Value::Int64(kQ1Cutoff);
        spec.bounds.push_back(std::move(b));
        return {std::move(rs)};
      }
      case kQ12: {
        spec.projection = {li::kOrderKey, li::kShipDate, li::kCommitDate, li::kReceiptDate,
                           li::kShipMode};
        spec.predicate_columns = spec.projection;
        spec.predicate = [](const Row& row) { return Q12Line(row); };
        table::ColumnBound lo;
        lo.column = li::kReceiptDate;
        lo.lower = Value::Int64(kQ12From);
        spec.bounds.push_back(lo);
        table::ColumnBound hi;
        hi.column = li::kReceiptDate;
        hi.upper = Value::Int64(kQ12To);
        spec.bounds.push_back(hi);
        ReplayScan orders;
        orders.table = orders_;
        orders.spec.projection = {od::kOrderKey, od::kOrderPriority};
        return {std::move(rs), std::move(orders)};
      }
      case kCount:
        spec.projection = {li::kOrderKey};
        return {std::move(rs)};
      case kProjection: {
        const int64_t day = s.params[0];
        spec.projection = {li::kOrderKey, li::kLineNumber, li::kExtendedPrice,
                           li::kShipDate};
        spec.predicate_columns = {li::kShipDate};
        spec.predicate = [day](const Row& row) {
          return row[li::kShipDate].AsInt64() == day;
        };
        table::ColumnBound b;
        b.column = li::kShipDate;
        b.lower = Value::Int64(day);
        b.upper = Value::Int64(day);
        spec.bounds.push_back(std::move(b));
        return {std::move(rs)};
      }
    }
    return {};
  }

  void CorruptReference() override { ++lineitem_rows_; }

  double LiveLogicalBytes() const override { return live_bytes_; }
  double MeanRowBytes() const override { return mean_row_bytes_; }

  double ReplayShare(const Stmt&) const override { return 0.5; }

 private:
  /// Q12's lineitem-side filter over a full-width row.
  static bool Q12Line(const Row& row) {
    const std::string& mode = row[li::kShipMode].AsString();
    const int64_t ship = row[li::kShipDate].AsInt64();
    const int64_t commit = row[li::kCommitDate].AsInt64();
    const int64_t receipt = row[li::kReceiptDate].AsInt64();
    return (mode == "MAIL" || mode == "SHIP") && commit < receipt && ship < commit &&
           receipt >= kQ12From && receipt < kQ12To;
  }

  /// Scans both tables once through the storage API and aggregates the
  /// answers on the benchmark side.
  void BuildAnswers() {
    std::map<int64_t, std::string> priority;
    uint64_t order_bytes = 0, order_rows = 0;
    ForEachRow(orders_, [&](const Row& row) {
      priority[row[od::kOrderKey].AsInt64()] = row[od::kOrderPriority].AsString();
      order_bytes += LogicalRowBytes(row);
      ++order_rows;
      return true;
    });
    uint64_t line_bytes = 0;
    ForEachRow(lineitem_, [&](const Row& row) {
      ++lineitem_rows_;
      line_bytes += LogicalRowBytes(row);
      if (row[li::kShipDate].AsInt64() <= kQ1Cutoff) {
        Q1Group& g = q1_[{row[li::kReturnFlag].AsString(), row[li::kLineStatus].AsString()}];
        const double qty = row[li::kQuantity].AsDouble();
        const double price = row[li::kExtendedPrice].AsDouble();
        const double disc = row[li::kDiscount].AsDouble();
        const double tax = row[li::kTax].AsDouble();
        g.sum_qty += qty;
        g.sum_price += price;
        g.sum_disc_price += price * (1 - disc);
        g.sum_charge += price * (1 - disc) * (1 + tax);
        g.sum_disc += disc;
        ++g.count;
      }
      if (Q12Line(row)) {
        auto it = priority.find(row[li::kOrderKey].AsInt64());
        if (it != priority.end()) {
          Q12Group& g = q12_[row[li::kShipMode].AsString()];
          if (it->second == "1-URGENT" || it->second == "2-HIGH") {
            ++g.high;
          } else {
            ++g.low;
          }
        }
      }
      DayAnswer& d = by_day_[row[li::kShipDate].AsInt64()];
      ++d.count;
      d.hash += RowHash({row[li::kOrderKey], row[li::kLineNumber], row[li::kExtendedPrice]});
      return true;
    });
    live_bytes_ = static_cast<double>(line_bytes + order_bytes);
    mean_row_bytes_ = static_cast<double>(line_bytes + order_bytes) /
                      static_cast<double>(lineitem_rows_ + order_rows);
    have_answers_ = true;
  }

  uint64_t seed_;
  int seconds_;
  std::vector<Template> templates_;
  dual::DualTable* lineitem_ = nullptr;  // owned by the session catalog
  dual::DualTable* orders_ = nullptr;
  Random rng_{0};
  size_t issued_ = 0;

  bool have_answers_ = false;
  uint64_t lineitem_rows_ = 0;
  double live_bytes_ = 0;
  double mean_row_bytes_ = 0;
  std::map<std::pair<std::string, std::string>, Q1Group> q1_;
  std::map<std::string, Q12Group> q12_;
  std::map<int64_t, DayAnswer> by_day_;
};

}  // namespace

std::unique_ptr<Workload> MakeTpchCold(uint64_t seed, int seconds) {
  return std::make_unique<TpchCold>(seed, seconds);
}

}  // namespace dtl::perfbench
