#include "workload/grid_gen.h"

#include <algorithm>
#include <cstdio>

#include "common/random.h"

namespace dtl::workload {

namespace {

/// Abstract integer day base for rq columns.
constexpr int64_t kDayBase = 736000;
/// Months in tj_sjwzl_y (one month ≈ 4%).
constexpr int64_t kMonths = 25;
/// Distinct terminal codes in tj_tdjl (one code + one time ≈ 0.01%).
constexpr int64_t kTdjlTerminals = 200;
/// Organization codes.
constexpr int64_t kOrgs = 30;
/// Manufacturer codes.
constexpr int64_t kManufacturers = 20;

std::string OrgCode(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "org_%02llu", static_cast<unsigned long long>(i));
  return buf;
}

std::string AreaCode(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "area_%02llu", static_cast<unsigned long long>(i));
  return buf;
}

std::string ManuCode(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "manu_%02llu", static_cast<unsigned long long>(i));
  return buf;
}

Schema WithFillers(std::vector<Field> fields, int filler_columns) {
  for (int i = 0; i < filler_columns; ++i) {
    if (i % 2 == 0) {
      fields.push_back(Field{"pad_s" + std::to_string(i / 2), DataType::kString});
    } else {
      fields.push_back(Field{"pad_i" + std::to_string(i / 2), DataType::kInt64});
    }
  }
  return Schema(std::move(fields));
}

void AppendFillers(Random* rng, int filler_columns, Row* row) {
  for (int i = 0; i < filler_columns; ++i) {
    if (i % 2 == 0) {
      row->push_back(Value::String(rng->NextString(8)));
    } else {
      row->push_back(Value::Int64(static_cast<int64_t>(rng->Uniform(1000000))));
    }
  }
}

}  // namespace

std::vector<GridTableSpec> TableIISpecs(const GridConfig& config) {
  const int f = config.filler_columns;
  return {
      {"yh_gbjld", 7112576,
       WithFillers({{"dwdm", DataType::kString},
                    {"gddy", DataType::kInt64},
                    {"hh", DataType::kInt64},
                    {"sfyzx", DataType::kInt64},
                    {"cldjh", DataType::kInt64}},
                   f)},
      {"zd_gbcld", 7963648,
       WithFillers({{"cldjh", DataType::kInt64},
                    {"zdjh", DataType::kInt64},
                    {"dwdm", DataType::kString}},
                   f)},
      {"zc_zdzc", 74104736,
       WithFillers({{"dwdm", DataType::kString},
                    {"zdjh", DataType::kInt64},
                    {"zzcjbm", DataType::kString},
                    {"cjfs", DataType::kInt64},
                    {"zdlx", DataType::kInt64}},
                   f)},
      {"rw_gbrw", 34045664,
       WithFillers({{"xfsj", DataType::kInt64},
                    {"rwsx", DataType::kInt64},
                    {"cldh", DataType::kInt64}},
                   f)},
      {"tj_gbsjwzl_mx", 239032928,
       WithFillers({{"yhlx", DataType::kInt64},
                    {"rq", DataType::kDate},
                    {"dwdm", DataType::kString},
                    {"cjbm", DataType::kString}},
                   f)},
      {"tj_dzdyh", 9805312, WithFillers({{"zdjh", DataType::kInt64}}, f)},
  };
}

std::vector<GridTableSpec> TableIIISpecs(const GridConfig& config) {
  const int f = config.filler_columns;
  return {
      {"tj_tdjl", 58494976,
       WithFillers({{"tdsj", DataType::kInt64},
                    {"qym", DataType::kString},
                    {"zdjh", DataType::kInt64}},
                   f)},
      {"tj_td", 33036288,
       WithFillers({{"hfsj", DataType::kInt64}, {"tdsj", DataType::kInt64}}, f)},
      {"tj_sjwzl_r", 73569360,
       WithFillers({{"rq", DataType::kDate},
                    {"rcjl", DataType::kInt64},
                    {"yhlx", DataType::kInt64}},
                   f)},
      {"tj_dysjwzl_mx", 382890014,
       WithFillers({{"rq", DataType::kDate},
                    {"sfld", DataType::kBool},
                    {"cjfs", DataType::kInt64}},
                   f)},
      {"tj_sjwzl_y", 2586120, WithFillers({{"rq", DataType::kDate}}, f)},
      {"tj_gk", 30655920,
       WithFillers({{"rq", DataType::kDate},
                    {"dwdm", DataType::kString},
                    {"bz", DataType::kInt64}},
                   f)},
  };
}

uint64_t ScaledRows(const GridTableSpec& spec, const GridConfig& config) {
  return std::max<uint64_t>(
      config.min_rows,
      static_cast<uint64_t>(static_cast<double>(spec.paper_rows) * config.fraction));
}

Status GenerateGridTable(const GridTableSpec& spec, const GridConfig& config,
                         table::StorageTable* storage) {
  Random rng(config.seed ^ std::hash<std::string>{}(spec.name));
  const uint64_t rows = ScaledRows(spec, config);
  const int f = config.filler_columns;
  // zd_gbcld's measure-point key space; yh_gbjld/zc_zdzc reference it.
  const uint64_t zd_rows = ScaledRows(GridTableSpec{"zd_gbcld", 7963648, Schema()}, config);

  std::vector<Row> batch;
  batch.reserve(config.batch_rows);
  for (uint64_t i = 0; i < rows; ++i) {
    Row row;
    if (spec.name == "yh_gbjld") {
      row.push_back(Value::String(OrgCode(rng.Uniform(kOrgs))));
      row.push_back(Value::Int64(rng.Bernoulli(0.6) ? 220 : (rng.Bernoulli(0.5) ? 110 : 380)));
      row.push_back(Value::Int64(static_cast<int64_t>(i + 1)));          // hh
      row.push_back(Value::Int64(rng.Bernoulli(0.1) ? 1 : 0));          // sfyzx
      row.push_back(Value::Int64(static_cast<int64_t>(1 + rng.Uniform(zd_rows))));
    } else if (spec.name == "zd_gbcld") {
      row.push_back(Value::Int64(static_cast<int64_t>(i + 1)));  // cldjh
      row.push_back(Value::Int64(static_cast<int64_t>(i + 1)));  // zdjh
      row.push_back(Value::String(OrgCode(rng.Uniform(kOrgs))));
    } else if (spec.name == "zc_zdzc") {
      row.push_back(Value::String(OrgCode(rng.Uniform(kOrgs))));
      row.push_back(Value::Int64(static_cast<int64_t>(1 + rng.Uniform(zd_rows))));
      row.push_back(Value::String(ManuCode(rng.Uniform(kManufacturers))));
      row.push_back(Value::Int64(1 + static_cast<int64_t>(rng.Uniform(3))));  // cjfs
      row.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(4))));      // zdlx
    } else if (spec.name == "rw_gbrw") {
      row.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(96))));  // xfsj
      row.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(5))));   // rwsx
      row.push_back(Value::Int64(static_cast<int64_t>(1 + rng.Uniform(zd_rows))));
    } else if (spec.name == "tj_gbsjwzl_mx") {
      row.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(kUserTypes))));
      row.push_back(Value::Date(kDayBase + static_cast<int64_t>(rng.Uniform(kGridDays))));
      row.push_back(Value::String(OrgCode(rng.Uniform(kOrgs))));
      row.push_back(Value::String(ManuCode(rng.Uniform(kManufacturers))));
    } else if (spec.name == "tj_dzdyh") {
      row.push_back(Value::Int64(static_cast<int64_t>(1 + rng.Uniform(zd_rows))));
    } else if (spec.name == "tj_tdjl") {
      row.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(kOutageTimes))));
      row.push_back(Value::String(AreaCode(rng.Uniform(kAreaCodes))));
      row.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(kTdjlTerminals))));
    } else if (spec.name == "tj_td") {
      const int64_t tdsj = static_cast<int64_t>(1000 + rng.Uniform(100000));
      // 5% of outages have a (bogus) recovery time earlier than the outage.
      const int64_t hfsj = rng.Bernoulli(0.05) ? tdsj - 1 - static_cast<int64_t>(rng.Uniform(50))
                                               : tdsj + 1 + static_cast<int64_t>(rng.Uniform(500));
      row.push_back(Value::Int64(hfsj));
      row.push_back(Value::Int64(tdsj));
    } else if (spec.name == "tj_sjwzl_r") {
      row.push_back(Value::Date(kDayBase + static_cast<int64_t>(rng.Uniform(kGridDays))));
      row.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(97))));  // rcjl
      row.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(kUserTypes))));
    } else if (spec.name == "tj_dysjwzl_mx") {
      row.push_back(Value::Date(kDayBase + static_cast<int64_t>(rng.Uniform(kGridDays))));
      row.push_back(Value::Bool(rng.Bernoulli(0.02)));  // sfld: missed points rare
      row.push_back(Value::Int64(1 + static_cast<int64_t>(rng.Uniform(3))));  // cjfs
    } else if (spec.name == "tj_sjwzl_y") {
      row.push_back(Value::Date(kDayBase + static_cast<int64_t>(rng.Uniform(kMonths))));
    } else if (spec.name == "tj_gk") {
      row.push_back(Value::Date(kDayBase + static_cast<int64_t>(rng.Uniform(kGridDays))));
      row.push_back(Value::String(OrgCode(rng.Uniform(kOrgs))));
      row.push_back(Value::Int64(rng.Bernoulli(0.9) ? 1 : 0));  // bz marker
    } else {
      return Status::InvalidArgument("unknown grid table: " + spec.name);
    }
    AppendFillers(&rng, f, &row);
    batch.push_back(std::move(row));
    if (batch.size() >= config.batch_rows) {
      DTL_RETURN_NOT_OK(storage->InsertRows(batch));
      batch.clear();
    }
  }
  if (!batch.empty()) DTL_RETURN_NOT_OK(storage->InsertRows(batch));
  return Status::OK();
}

std::string GridSelect1() {
  return "SELECT y.hh, y.dwdm, c.zzcjbm "
         "FROM yh_gbjld y "
         "JOIN zd_gbcld d ON y.cldjh = d.cldjh "
         "JOIN zc_zdzc c ON d.zdjh = c.zdjh "
         "WHERE y.sfyzx = 0 AND y.gddy = 220 AND c.zdlx = 1";
}

std::string GridSelect2() { return "SELECT COUNT(*) FROM tj_gbsjwzl_mx"; }

std::string GridDaysPredicate(int days) {
  return "rq < " + std::to_string(kDayBase + days);
}

namespace {

std::string DaysRatio(int days) {
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.6f",
                static_cast<double>(days) / static_cast<double>(kGridDays));
  return ratio;
}

}  // namespace

std::string GridUpdateDays(int days) {
  return "UPDATE tj_gbsjwzl_mx SET cjbm = 'recollected' WHERE " +
         GridDaysPredicate(days) + " WITH RATIO " + DaysRatio(days);
}

std::string GridDeleteDays(int days) {
  return "DELETE FROM tj_gbsjwzl_mx WHERE " + GridDaysPredicate(days) + " WITH RATIO " +
         DaysRatio(days);
}

std::string GridReadAfterDml() {
  return "SELECT COUNT(*) cnt, SUM(yhlx) total_type FROM tj_gbsjwzl_mx";
}

std::vector<GridStatement> TableIVStatements() {
  std::vector<GridStatement> out;
  out.push_back({"U#1",
                 "Set the area code in which an outage event happens at a specified time",
                 "tj_tdjl", 0.02,
                 "UPDATE tj_tdjl SET qym = 'area_99' WHERE tdsj = 7 WITH RATIO 0.02"});
  out.push_back({"U#2",
                 "When the outage recovery time is earlier than the start time, mark it "
                 "as an error",
                 "tj_td", 0.05,
                 "UPDATE tj_td SET hfsj = -1 WHERE hfsj < tdsj WITH RATIO 0.05"});
  out.push_back({"U#3",
                 "Set the sampling rate of a day for a specified date and user type",
                 "tj_sjwzl_r", 0.001,
                 "UPDATE tj_sjwzl_r SET rcjl = 96 WHERE rq = " +
                     std::to_string(kDayBase + 3) + " AND yhlx = 5 WITH RATIO 0.001"});
  out.push_back({"U#4",
                 "Set the collection method of a specified day and user type",
                 "tj_dysjwzl_mx", 0.03,
                 "UPDATE tj_dysjwzl_mx SET cjfs = 2 WHERE rq = " +
                     std::to_string(kDayBase + 5) + " WITH RATIO 0.03"});
  out.push_back({"D#1", "Delete records from table tj_sjwzl_y for a specified month",
                 "tj_sjwzl_y", 0.04,
                 "DELETE FROM tj_sjwzl_y WHERE rq = " + std::to_string(kDayBase + 2) +
                     " WITH RATIO 0.04"});
  out.push_back({"D#2", "Delete records from table tj_tdjl for a specified area code",
                 "tj_tdjl", 0.05,
                 "DELETE FROM tj_tdjl WHERE qym = 'area_03' WITH RATIO 0.05"});
  out.push_back({"D#3",
                 "Delete records from table tj_gk for a specified organization code and "
                 "a marker",
                 "tj_gk", 0.03,
                 "DELETE FROM tj_gk WHERE dwdm = 'org_07' AND bz = 1 WITH RATIO 0.03"});
  out.push_back({"D#4",
                 "Delete records from table tj_tdjl for a specified terminal code and "
                 "outage time",
                 "tj_tdjl", 0.0001,
                 "DELETE FROM tj_tdjl WHERE zdjh = 42 AND tdsj = 13 WITH RATIO 0.0001"});
  return out;
}

std::vector<ScenarioMix> ScenarioMixes() {
  // Paper Table I: statement counts of the five core business scenarios.
  return {
      {1, 133, 15, 52, 15},
      {2, 75, 25, 20, 9},
      {3, 174, 27, 97, 13},
      {4, 12, 3, 3, 0},
      {5, 41, 3, 23, 0},
  };
}

}  // namespace dtl::workload
