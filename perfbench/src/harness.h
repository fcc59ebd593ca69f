// Shared machinery of the repo benchmark: command-line arguments, sample
// statistics, the session options every workload runs with, the span log of
// the traced run, and the result report (a human-readable table followed by
// one JSON line).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "sql/session.h"

namespace dtl::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Corrupt the reference after set-up (bite check of the answer checks).
  bool bite = false;
  /// Directory (inside the checkout) the traced run writes its spans to.
  std::string out_dir = ".";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--out DIR] [--bite 0|1]`.
/// Returns an error message, empty on success.
std::string ParseArgs(int argc, char** argv, Args* args);

/// Mixes the run seed with a stream tag so each generator gets its own
/// independent, reproducible sequence.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// Latency or size samples of one kind.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void AddAll(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Geometric mean of positive values; 0 when `values` is empty.
double GeoMean(const std::vector<double>& values);

/// Seconds one run of a fixed, memory-bound probe kernel takes on the
/// current machine right now (hash-map inserts and a strided pass over 2 MB). It calls no
/// engine code, so only the host's speed moves it.
double HostProbeSeconds();

/// Peak resident set of this process in MB (VmHWM).
double PeakRssMb();

/// Session options shared by every workload: the defaults users run with,
/// observability on, plus the cluster calibration of the paper-figure
/// benches (k = 1, calibrated HBase rates, 8k-row stripes). The simulated
/// per-put latency stays at its default of 0: the figure benches' 6 us per
/// put is paid as sleeps of at least a timer slice, which would time the
/// timer rather than the engine.
sql::SessionOptions BenchSessionOptions();

/// Sum of Value::ByteSize over a row: the logical width of one row.
uint64_t LogicalRowBytes(const Row& row);

/// Seconds of benchmark-owned set-up work, pausable so that checking work
/// (reference models, answer keys) stays out of the program's set-up time.
class SetupClock {
 public:
  void Pause() {
    total_ += watch_.ElapsedSeconds();
    running_ = false;
  }
  void Resume() {
    watch_.Restart();
    running_ = true;
  }
  double Seconds() const { return total_ + (running_ ? watch_.ElapsedSeconds() : 0.0); }

 private:
  Stopwatch watch_;
  double total_ = 0;
  bool running_ = true;
};

/// Nanoseconds since the first call (the time base of every span).
int64_t NowNs();

/// One recorded span of the traced run.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;   // index of the parent span, -1 for a root
  int64_t stmt = -1;     // statement id, -1 for set-up work
  std::string tmpl;      // statement template, empty for set-up work
};

/// In-memory span log; written out once when the run ends.
class SpanLog {
 public:
  /// Opens a span and returns its id.
  int64_t Begin(const char* name, int64_t parent, int64_t stmt, const std::string& tmpl);
  /// Closes a span; returns its duration in seconds.
  double End(int64_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span. Returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // 0 = a count or ratio, not a sampled statistic
};

/// Collects metrics and renders the run's output.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0);
  /// Prints a note line for a metric the run's sample does not support.
  void Unsupported(const std::string& name, const std::string& why);
  /// Prints the human-readable metric table.
  void PrintTable(const std::string& title) const;
  /// Prints the final JSON line with the metrics named in `keys` (all when
  /// empty). Metrics missing from the report are an error: returns false.
  bool PrintJson(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<std::string>& keys) const;
  const Metric* Find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

}  // namespace dtl::perfbench
