// Paper Fig. 5: UPDATE run time vs modification ratio (1/36 .. 17/36 of the
// 36-day consumption table) for Hive(HDFS), DualTable in forced-EDIT mode,
// and DualTable with the cost model.
//
// Shapes to reproduce: Hive flat across ratios (always a full rewrite);
// DT-EDIT grows with the ratio and beats Hive at small ratios; the
// cost-model series follows EDIT below the crossover and switches to
// OVERWRITE above it (paper: switch at 6/36).
//
// Every sweep point builds a fresh table, so its one EDIT scans a cold
// stripe cache. The warm EDIT series first runs an untimed SELECT of the
// column the EDIT's scan reads (rq, under the same predicate and stripe
// pruning), so the timed EDIT finds it decoded — the cached scan a
// DML-heavy workload gets. Labels name each point's cache state; the
// cache_misses counter counts the timed statement's stripe-cache misses.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "orc/stripe_cache.h"

namespace {

using dtl::bench::Env;
using dtl::bench::MakeGridMx;
using dtl::bench::PlanMode;
using dtl::bench::RunSql;

void RunUpdateSweep(benchmark::State& state, const std::string& kind, PlanMode mode,
                    bool warm = false) {
  const int days = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Env env = MakeGridMx(kind, mode);  // fresh table per measurement
    if (warm) {
      RunSql(&env, "SELECT rq FROM tj_gbsjwzl_mx WHERE " +
                       dtl::workload::GridDaysPredicate(days));
    }
    const uint64_t misses = dtl::orc::StripeCache::Default()->Stats().misses;
    auto stats = RunSql(&env, dtl::workload::GridUpdateDays(days));
    state.SetIterationTime(stats.seconds);
    state.counters["model_s"] = stats.modeled_seconds;
    state.counters["rows_changed"] = static_cast<double>(stats.affected_rows);
    state.counters["plan_edit"] = stats.plan == "EDIT" ? 1 : 0;
    state.counters["cache_misses"] =
        static_cast<double>(dtl::orc::StripeCache::Default()->Stats().misses - misses);
  }
  state.SetLabel(dtl::bench::DayLabel(days) + (warm ? " warm" : " cold"));
}

void BM_Fig05_Hive(benchmark::State& state) {
  RunUpdateSweep(state, "hive", PlanMode::kCostModel);
}
void BM_Fig05_DualTableEdit(benchmark::State& state) {
  RunUpdateSweep(state, "dualtable", PlanMode::kForceEdit);
}
void BM_Fig05_DualTableEditWarm(benchmark::State& state) {
  RunUpdateSweep(state, "dualtable", PlanMode::kForceEdit, /*warm=*/true);
}
void BM_Fig05_DualTableCostModel(benchmark::State& state) {
  RunUpdateSweep(state, "dualtable", PlanMode::kCostModel);
}

}  // namespace

BENCHMARK(BM_Fig05_Hive)
    ->DenseRange(1, 17, 2)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);
BENCHMARK(BM_Fig05_DualTableEdit)
    ->DenseRange(1, 17, 2)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);
BENCHMARK(BM_Fig05_DualTableEditWarm)
    ->DenseRange(1, 17, 2)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);
BENCHMARK(BM_Fig05_DualTableCostModel)
    ->DenseRange(1, 17, 2)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

int main(int argc, char** argv) {
  dtl::bench::ParseScaleFlag(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
