// Instrumentation-overhead guard for the unified observability layer
// (DESIGN.md §10, §14). Runs the Fig. 4 grid-read scan (SELECT #2: COUNT(*)
// on the big consumption table, executed through the SQL engine) against two
// sessions — one fully wired (metrics registry with windowed histograms,
// session scan meter published into the scan.* counters once per statement,
// tracer configured but idle, cost audit armed, query log + metrics recorder
// live) and one with SessionOptions::observability = false, whose scans are
// not counted at all — and writes both rows/sec rates plus the relative
// overhead to BENCH_observability.json.
//
// The two sides are measured INTERLEAVED, one scan each per round, and each
// side's rate comes from its minimum scan time. Sequential A-then-B runs on
// a shared container showed up to ~2.6% spread between two identical
// baseline runs (thermal / scheduling drift); strict alternation cancels
// that drift so the differential actually measures instrumentation cost.
// The contract is overhead_pct < 3. With scan counting reduced to plain
// adds into the statement's own meter and one registry publish per
// statement, five interleaved runs at --scale=1 read -1.7 to 1.8% (DESIGN.md
// §14 has the runs). The instrumented session also runs a small cost-model
// DML mix so the JSON carries a nonzero cost_audit_records count.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/telemetry_clock.h"
#include "workload/grid_gen.h"

namespace {

using dtl::bench::Env;
using dtl::bench::MakeGridTableII;

struct ObsBenchResult {
  uint64_t rows = 0;
  double rows_per_sec_on = 0;
  double rows_per_sec_off = 0;
  uint64_t cost_audit_records = 0;
  double hist_observe_ns = 0;   // per-Observe cost with the window ring live
  double hist_rotate_ns = 0;    // per-MaybeRotate cost, rotation forced
  uint64_t recorder_samples = 0;  // recorder ticks taken during the on-run
};

ObsBenchResult& Result() {
  static ObsBenchResult result;
  return result;
}

double RunScan(Env* env, const std::string& select) {
  dtl::Stopwatch watch;
  auto result = env->session->Execute(select);
  if (!result.ok()) {
    std::fprintf(stderr, "observability bench: select failed: %s\n",
                 result.status().message().c_str());
    return -1;
  }
  return watch.ElapsedSeconds();
}

/// Interleaved differential: one baseline scan then one instrumented scan
/// per round, minimum per side. On the instrumented session every scan counts
/// into the session meter, whose statement delta lands in the scan.*
/// counters, sql.statements counters tick, windowed histograms observe, the
/// query log records the statement, and the idle tracer is probed per stage —
/// the exact hot path of a production query. The baseline session wires none
/// of it, its scan meter included.
bool MeasureScanOverhead() {
  Env off = MakeGridTableII("dualtable", false);
  Env on = MakeGridTableII("dualtable", true);
  const std::string select = dtl::workload::GridSelect2();

  constexpr int kWarmup = 3;
  constexpr int kRounds = 1000;
  for (int i = 0; i < kWarmup; ++i) {
    if (RunScan(&off, select) < 0 || RunScan(&on, select) < 0) return false;
  }

  double best_off = std::numeric_limits<double>::infinity();
  double best_on = std::numeric_limits<double>::infinity();
  double since_tick = 0;
  for (int i = 0; i < kRounds; ++i) {
    const double s_off = RunScan(&off, select);
    const double s_on = RunScan(&on, select);
    if (s_off < 0 || s_on < 0) return false;
    best_off = std::min(best_off, s_off);
    best_on = std::min(best_on, s_on);
    // The recorder ticks between rounds at roughly the background sampler's
    // cadence (sub-second, time-based — not per query, which no deployment
    // does): the instrumented scans run with the window ring and the sample
    // ring both live, which is the state the <3% contract covers.
    since_tick += s_on;
    if (on.session->recorder() != nullptr && since_tick >= 0.25) {
      on.session->recorder()->Tick();
      since_tick = 0;
    }
  }

  auto& result = Result();
  result.rows = on.rows;
  if (best_off > 0) result.rows_per_sec_off = static_cast<double>(off.rows) / best_off;
  if (best_on > 0) result.rows_per_sec_on = static_cast<double>(on.rows) / best_on;
  std::fprintf(stderr,
               "grid_read_scan: off %.3f ms (%.3e rows/s)  on %.3f ms (%.3e "
               "rows/s)  [%d interleaved rounds]\n",
               best_off * 1e3, result.rows_per_sec_off, best_on * 1e3,
               result.rows_per_sec_on, kRounds);

  // A small cost-model DML mix: one update on each side of the EDIT /
  // OVERWRITE frontier plus a delete, so the audit satellite is exercised
  // end-to-end on the same session the overhead was measured on.
  dtl::bench::RunSql(&on, dtl::workload::GridUpdateDays(1));
  dtl::bench::RunSql(&on, dtl::workload::GridUpdateDays(30));
  dtl::bench::RunSql(&on, dtl::workload::GridDeleteDays(1));
  result.cost_audit_records = on.session->cost_audit()->size();
  if (on.session->recorder() != nullptr) {
    result.recorder_samples = on.session->recorder()->total_samples();
  }
  return true;
}

/// Micro-costs of the windowed histogram itself: the per-Observe price with
/// the slot ring live (lifetime + window writes), and the per-MaybeRotate
/// price with a rotation forced every call (a manual clock jumping one slot
/// width per call — the worst case; the steady-state early exit is cheaper).
void MeasureHistogramMicro() {
  auto& result = Result();
  dtl::obs::Histogram hist;

  constexpr uint64_t kObserves = 4'000'000;
  dtl::Stopwatch watch;
  for (uint64_t i = 0; i < kObserves; ++i) hist.Observe(i & 4095);
  result.hist_observe_ns = watch.ElapsedSeconds() * 1e9 / kObserves;

  dtl::obs::ManualTelemetryClock clock;
  hist.MaybeRotate(clock.NowMicros());  // anchor the ring
  constexpr uint64_t kRotates = 200'000;
  watch.Restart();
  for (uint64_t i = 0; i < kRotates; ++i) {
    clock.Advance(dtl::obs::Histogram::kDefaultSlotWidthMicros);
    hist.MaybeRotate(clock.NowMicros());
  }
  result.hist_rotate_ns = watch.ElapsedSeconds() * 1e9 / kRotates;
}

void FlushObservabilityBench(const std::string& path) {
  const ObsBenchResult& result = Result();
  if (result.rows_per_sec_on <= 0 || result.rows_per_sec_off <= 0) {
    std::fprintf(stderr, "observability bench incomplete; not writing %s\n",
                 path.c_str());
    return;
  }
  const double overhead_pct = (result.rows_per_sec_off - result.rows_per_sec_on) /
                              result.rows_per_sec_off * 100.0;
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "  {\"workload\":\"grid\",\"scan\":\"fig04_select2\","
                "\"rows\":%llu,\"rows_per_sec_on\":%.1f,"
                "\"rows_per_sec_off\":%.1f,\"overhead_pct\":%.3f,"
                "\"cost_audit_records\":%llu,"
                "\"hist_observe_ns\":%.2f,\"hist_rotate_ns\":%.2f,"
                "\"recorder_samples\":%llu}",
                static_cast<unsigned long long>(result.rows),
                result.rows_per_sec_on, result.rows_per_sec_off, overhead_pct,
                static_cast<unsigned long long>(result.cost_audit_records),
                result.hist_observe_ns, result.hist_rotate_ns,
                static_cast<unsigned long long>(result.recorder_samples));
  std::ofstream out(path, std::ios::trunc);
  out << "[\n" << buf << "\n]\n";
  std::fprintf(stderr, "wrote %s (overhead %.3f%%, contract < 3%%)\n",
               path.c_str(), overhead_pct);
}

}  // namespace

int main(int argc, char** argv) {
  dtl::bench::ParseScaleFlag(&argc, argv);
  if (!MeasureScanOverhead()) return 1;
  MeasureHistogramMicro();
  FlushObservabilityBench("BENCH_observability.json");
  return 0;
}
