// Paper Fig. 13: UPDATE run time on TPC-H lineitem for ratios 1%..50%.
// Series: DualTable-EDIT, Hive(HDFS), DualTable cost model.
//
// Shapes to reproduce: Hive flat; EDIT linear in the ratio; cost model
// follows EDIT until the crossover (paper: ~35% with k=1) and then tracks
// Hive's overwrite cost plus a small overhead.
//
// Cold vs warm as in Fig. 5: every point builds a fresh table (cold stripe
// cache); the warm EDIT series first runs an untimed SELECT of l_shipdate,
// the one column the EDIT's scan reads, under the same predicate. The
// cache_misses counter counts the timed statement's stripe-cache misses.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "orc/stripe_cache.h"

namespace {

using dtl::bench::Env;
using dtl::bench::MakeTpch;
using dtl::bench::PlanMode;
using dtl::bench::RunSql;

std::string UpdateSql(int percent) {
  return "UPDATE lineitem SET l_discount = 0.99 WHERE " +
         dtl::workload::LineitemRatioPredicate(percent / 100.0) + " WITH RATIO " +
         std::to_string(percent / 100.0);
}

void RunUpdateSweep(benchmark::State& state, const std::string& kind, PlanMode mode,
                    bool warm = false) {
  const int percent = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Env env = MakeTpch(kind, mode);
    if (warm) {
      RunSql(&env, "SELECT l_shipdate FROM lineitem WHERE " +
                       dtl::workload::LineitemRatioPredicate(percent / 100.0));
    }
    const uint64_t misses = dtl::orc::StripeCache::Default()->Stats().misses;
    auto stats = RunSql(&env, UpdateSql(percent));
    state.SetIterationTime(stats.seconds);
    state.counters["model_s"] = stats.modeled_seconds;
    state.counters["rows_changed"] = static_cast<double>(stats.affected_rows);
    state.counters["plan_edit"] = stats.plan == "EDIT" ? 1 : 0;
    state.counters["cache_misses"] =
        static_cast<double>(dtl::orc::StripeCache::Default()->Stats().misses - misses);
  }
  state.SetLabel(std::to_string(percent) + (warm ? "% warm" : "% cold"));
}

void BM_Fig13_DualTableEdit(benchmark::State& state) {
  RunUpdateSweep(state, "dualtable", PlanMode::kForceEdit);
}
void BM_Fig13_DualTableEditWarm(benchmark::State& state) {
  RunUpdateSweep(state, "dualtable", PlanMode::kForceEdit, /*warm=*/true);
}
void BM_Fig13_Hive(benchmark::State& state) {
  RunUpdateSweep(state, "hive", PlanMode::kCostModel);
}
void BM_Fig13_DualTableCostModel(benchmark::State& state) {
  RunUpdateSweep(state, "dualtable", PlanMode::kCostModel);
}

void RatioArgs(benchmark::internal::Benchmark* bench) {
  for (int percent : {1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50}) bench->Arg(percent);
  bench->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1);
}

}  // namespace

BENCHMARK(BM_Fig13_DualTableEdit)->Apply(RatioArgs);
BENCHMARK(BM_Fig13_DualTableEditWarm)->Apply(RatioArgs);
BENCHMARK(BM_Fig13_Hive)->Apply(RatioArgs);
BENCHMARK(BM_Fig13_DualTableCostModel)->Apply(RatioArgs);

int main(int argc, char** argv) {
  dtl::bench::ParseScaleFlag(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
