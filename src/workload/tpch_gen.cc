#include "workload/tpch_gen.h"

#include <cstdio>
#include <memory>
#include <unordered_set>

#include "common/random.h"

namespace dtl::workload {

namespace {

const char* kShipModes[] = {"MAIL", "SHIP", "AIR", "RAIL", "TRUCK", "FOB", "REG AIR"};
const char* kShipInstructs[] = {"DELIVER IN PERSON", "COLLECT COD", "TAKE BACK RETURN",
                                "NONE"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                             "5-LOW"};
const char* kStatuses[] = {"O", "F", "P"};

}  // namespace

Schema LineitemSchema() {
  return Schema({
      {"l_orderkey", DataType::kInt64},
      {"l_partkey", DataType::kInt64},
      {"l_suppkey", DataType::kInt64},
      {"l_linenumber", DataType::kInt64},
      {"l_quantity", DataType::kDouble},
      {"l_extendedprice", DataType::kDouble},
      {"l_discount", DataType::kDouble},
      {"l_tax", DataType::kDouble},
      {"l_returnflag", DataType::kString},
      {"l_linestatus", DataType::kString},
      {"l_shipdate", DataType::kDate},
      {"l_commitdate", DataType::kDate},
      {"l_receiptdate", DataType::kDate},
      {"l_shipinstruct", DataType::kString},
      {"l_shipmode", DataType::kString},
      {"l_comment", DataType::kString},
  });
}

Schema OrdersSchema() {
  return Schema({
      {"o_orderkey", DataType::kInt64},
      {"o_custkey", DataType::kInt64},
      {"o_orderstatus", DataType::kString},
      {"o_totalprice", DataType::kDouble},
      {"o_orderdate", DataType::kDate},
      {"o_orderpriority", DataType::kString},
      {"o_clerk", DataType::kString},
      {"o_shippriority", DataType::kInt64},
      {"o_comment", DataType::kString},
  });
}

Status GenerateLineitem(table::StorageTable* table, const TpchConfig& config) {
  Random rng(config.seed);
  const uint64_t total = config.lineitem_rows();
  const uint64_t orders = std::max<uint64_t>(1, config.orders_rows());
  std::vector<Row> batch;
  batch.reserve(config.batch_rows);
  uint64_t order_key = 0;
  int line_number = 0;
  int lines_in_order = 0;
  for (uint64_t i = 0; i < total; ++i) {
    if (line_number >= lines_in_order) {
      // Next order: 1-7 lines, orderkey spread over the orders key space.
      order_key = 1 + rng.Uniform(orders * 4);
      lines_in_order = 1 + static_cast<int>(rng.Uniform(7));
      line_number = 0;
    }
    ++line_number;
    const int64_t ship = kDateEpoch + static_cast<int64_t>(rng.Uniform(kDateSpanDays));
    const int64_t commit = ship + rng.UniformRange(-30, 60);
    const int64_t receipt = ship + rng.UniformRange(1, 30);
    Row row;
    row.reserve(16);
    row.push_back(Value::Int64(static_cast<int64_t>(order_key)));
    row.push_back(Value::Int64(rng.UniformRange(1, 200000)));
    row.push_back(Value::Int64(rng.UniformRange(1, 10000)));
    row.push_back(Value::Int64(line_number));
    row.push_back(Value::Double(1.0 + static_cast<double>(rng.Uniform(50))));
    row.push_back(Value::Double(900.0 + rng.NextDouble() * 104000.0));
    row.push_back(Value::Double(static_cast<double>(rng.Uniform(11)) / 100.0));
    row.push_back(Value::Double(static_cast<double>(rng.Uniform(9)) / 100.0));
    row.push_back(Value::String(rng.Bernoulli(0.25) ? "R" : (rng.Bernoulli(0.5) ? "A" : "N")));
    row.push_back(Value::String(rng.Bernoulli(0.5) ? "O" : "F"));
    row.push_back(Value::Date(ship));
    row.push_back(Value::Date(commit));
    row.push_back(Value::Date(receipt));
    row.push_back(Value::String(kShipInstructs[rng.Uniform(4)]));
    row.push_back(Value::String(kShipModes[rng.Uniform(7)]));
    row.push_back(Value::String("lineitem comment " + rng.NextString(16)));
    batch.push_back(std::move(row));
    if (batch.size() >= config.batch_rows) {
      DTL_RETURN_NOT_OK(table->InsertRows(batch));
      batch.clear();
    }
  }
  if (!batch.empty()) DTL_RETURN_NOT_OK(table->InsertRows(batch));
  return Status::OK();
}

Status GenerateOrders(table::StorageTable* table, const TpchConfig& config) {
  Random rng(config.seed + 1);
  const uint64_t total = config.orders_rows();
  std::vector<Row> batch;
  batch.reserve(config.batch_rows);
  for (uint64_t i = 0; i < total; ++i) {
    Row row;
    row.reserve(9);
    row.push_back(Value::Int64(static_cast<int64_t>(1 + i * 4 + rng.Uniform(4))));
    row.push_back(Value::Int64(rng.UniformRange(1, 150000)));
    row.push_back(Value::String(kStatuses[rng.Uniform(3)]));
    row.push_back(Value::Double(800.0 + rng.NextDouble() * 500000.0));
    row.push_back(Value::Date(kDateEpoch + static_cast<int64_t>(rng.Uniform(kDateSpanDays))));
    row.push_back(Value::String(kPriorities[rng.Uniform(5)]));
    row.push_back(Value::String("Clerk#" + std::to_string(rng.Uniform(1000))));
    row.push_back(Value::Int64(0));
    row.push_back(Value::String("orders comment " + rng.NextString(12)));
    batch.push_back(std::move(row));
    if (batch.size() >= config.batch_rows) {
      DTL_RETURN_NOT_OK(table->InsertRows(batch));
      batch.clear();
    }
  }
  if (!batch.empty()) DTL_RETURN_NOT_OK(table->InsertRows(batch));
  return Status::OK();
}

std::string QueryA(const std::string& t) {
  const int64_t cutoff = kDateEpoch + kDateSpanDays - 90;
  return "SELECT l_returnflag, l_linestatus, "
         "SUM(l_quantity) sum_qty, SUM(l_extendedprice) sum_base_price, "
         "SUM(l_extendedprice * (1 - l_discount)) sum_disc_price, "
         "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) sum_charge, "
         "AVG(l_quantity) avg_qty, AVG(l_extendedprice) avg_price, "
         "AVG(l_discount) avg_disc, COUNT(*) count_order "
         "FROM " + t + " WHERE l_shipdate <= " + std::to_string(cutoff) +
         " GROUP BY l_returnflag, l_linestatus "
         "ORDER BY l_returnflag, l_linestatus";
}

std::string QueryB(const std::string& lineitem, const std::string& orders) {
  const int64_t from = kDateEpoch + 365;
  const int64_t to = from + 365;
  return "SELECT l_shipmode, "
         "SUM(IF(o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH', 1, 0)) "
         "high_line_count, "
         "SUM(IF(o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH', 1, 0)) "
         "low_line_count "
         "FROM " + orders + " o JOIN " + lineitem + " l ON o.o_orderkey = l.l_orderkey "
         "WHERE l.l_shipmode IN ('MAIL', 'SHIP') "
         "AND l.l_commitdate < l.l_receiptdate "
         "AND l.l_shipdate < l.l_commitdate "
         "AND l.l_receiptdate >= " + std::to_string(from) +
         " AND l.l_receiptdate < " + std::to_string(to) +
         " GROUP BY l_shipmode ORDER BY l_shipmode";
}

std::string QueryC(const std::string& t) {
  return "SELECT COUNT(*) FROM " + t;
}

std::string LineitemRatioPredicate(double ratio) {
  const int64_t cutoff =
      kDateEpoch + static_cast<int64_t>(ratio * static_cast<double>(kDateSpanDays));
  return "l_shipdate < " + std::to_string(cutoff);
}

std::string DmlA(const std::string& t) {
  // Ship dates are uniform, so the first 5% of the span hits ~5% of rows.
  return "UPDATE " + t + " SET l_discount = 0.99 WHERE " + LineitemRatioPredicate(0.05) +
         " WITH RATIO 0.05";
}

std::string DmlB(const std::string& t) {
  return "DELETE FROM " + t + " WHERE " + LineitemRatioPredicate(0.02) +
         " WITH RATIO 0.02";
}

Result<table::DmlResult> RunDmlC(table::StorageTable* orders_table,
                                 table::StorageTable* lineitem_table) {
  // Join side: collect the order keys of lineitems shipped in the first 16%
  // of the date span whose orders should be re-prioritized.
  const int64_t cutoff = kDateEpoch + static_cast<int64_t>(0.16 * kDateSpanDays);
  std::unordered_set<int64_t> keys;
  {
    table::ScanSpec spec;
    spec.projection = {lineitem::kOrderKey};
    spec.predicate_columns = {lineitem::kShipDate};
    spec.predicate = [cutoff](const Row& row) {
      const Value& v = row[lineitem::kShipDate];
      return v.is_int64() && v.AsInt64() < cutoff;
    };
    table::ColumnBound bound;
    bound.column = lineitem::kShipDate;
    bound.upper = Value::Int64(cutoff);
    spec.bounds.push_back(std::move(bound));
    DTL_ASSIGN_OR_RETURN(auto it, lineitem_table->ScanBatches(spec));
    DTL_RETURN_NOT_OK(table::ForEachRow(it.get(), [&keys](uint64_t, Row* row) {
      const Value& v = (*row)[lineitem::kOrderKey];
      if (v.is_int64()) keys.insert(v.AsInt64());
      return Status::OK();
    }));
  }

  // Update side: set o_orderpriority for orders whose key joined.
  table::ScanSpec filter;
  filter.predicate_columns = {orders::kOrderKey};
  auto shared_keys = std::make_shared<std::unordered_set<int64_t>>(std::move(keys));
  filter.predicate = [shared_keys](const Row& row) {
    const Value& v = row[orders::kOrderKey];
    return v.is_int64() && shared_keys->count(v.AsInt64()) > 0;
  };
  table::Assignment assign;
  assign.column = orders::kOrderPriority;
  assign.compute = [](const Row&) { return Value::String("1-URGENT"); };
  return orders_table->Update(filter, {assign});
}

}  // namespace dtl::workload
