// Synthetic stand-in for the Zhejiang Grid production data sets (paper
// Tables II and III). The real data is proprietary; these generators keep
// what the experiments actually exercise:
//   * the schemas and the experiment columns the paper lists,
//   * relative table sizes (scaled by a single fraction),
//   * value distributions that give the paper's predicate selectivities
//     (e.g. 36 uniform days for the ratio sweeps, 20 area codes so one code
//     selects 5%, ...),
//   * wide rows (filler columns emulate the ">50 columns, <3 modified"
//     regime the paper describes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "table/storage_table.h"

namespace dtl::workload {

/// Scale knob: rows = max(min_rows, paper_rows × fraction).
struct GridConfig {
  double fraction = 1.0 / 4000.0;
  uint64_t min_rows = 500;
  uint64_t seed = 20150915;
  uint64_t batch_rows = 32768;
  /// Filler columns appended to every schema (wide-row emulation).
  int filler_columns = 8;
};

/// Days in the ratio-sweep tables (paper: "roughly uniformly distributed
/// data of 36 days").
inline constexpr int64_t kGridDays = 36;
/// Area-code cardinality: one code selects ~5%.
inline constexpr int64_t kAreaCodes = 20;
/// Outage-time cardinality: one time selects ~2%.
inline constexpr int64_t kOutageTimes = 50;
/// User types: selecting one day AND one of ~25 user types gives ~0.1%.
inline constexpr int64_t kUserTypes = 25;
/// Collection methods within a day: one day and one method ≈ 3%.
inline constexpr int64_t kCollectionMethods = 1;  // see U#4 predicate docs

/// One table of the grid data set.
struct GridTableSpec {
  std::string name;
  uint64_t paper_rows = 0;
  Schema schema;  // includes filler columns
};

/// Paper Table II (first experiment set: queries + ratio sweeps).
std::vector<GridTableSpec> TableIISpecs(const GridConfig& config);
/// Paper Table III (the Table IV statement suite).
std::vector<GridTableSpec> TableIIISpecs(const GridConfig& config);

/// Scaled row count for a spec.
uint64_t ScaledRows(const GridTableSpec& spec, const GridConfig& config);

/// Fills `storage` with deterministic rows for the named grid table.
Status GenerateGridTable(const GridTableSpec& spec, const GridConfig& config,
                         table::StorageTable* storage);

// --- the evaluation statements -------------------------------------------------

/// Grid SELECT #1 (Fig. 4): 3-way join of yh_gbjld, zc_zdzc, zd_gbcld with
/// predicates.
std::string GridSelect1();
/// Grid SELECT #2 (Fig. 4): COUNT(*) on tj_gbsjwzl_mx.
std::string GridSelect2();

/// WHERE predicate selecting the first `days` of the 36-day span.
std::string GridDaysPredicate(int days);
/// UPDATE touching the first `days` of the 36-day span of tj_gbsjwzl_mx
/// (Fig. 5); selects days/36 of the rows.
std::string GridUpdateDays(int days);
/// DELETE touching the first `days` of the span (Fig. 6).
std::string GridDeleteDays(int days);
/// Full-view SELECT issued after the DML (Figs. 7-10).
std::string GridReadAfterDml();

/// One statement of the paper's Table IV suite.
struct GridStatement {
  std::string id;          // "U#1".."D#4"
  std::string description; // paper's semantics column
  std::string table;       // target table
  double ratio = 0.0;      // paper's modification ratio
  std::string sql;         // engine SQL (includes WITH RATIO)
};

/// The 8 representative statements (U#1-U#4, D#1-D#4) of paper Table IV.
std::vector<GridStatement> TableIVStatements();

// --- paper Table I: DML mix of the 5 business scenarios --------------------------

struct ScenarioMix {
  int scenario = 0;
  int total = 0;
  int deletes = 0;
  int updates = 0;
  int merges = 0;

  int dml() const { return deletes + updates + merges; }
  double dml_percent() const {
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(dml()) / total;
  }
};

/// Statement counts of the five core scenarios (paper Table I input data).
std::vector<ScenarioMix> ScenarioMixes();

}  // namespace dtl::workload
