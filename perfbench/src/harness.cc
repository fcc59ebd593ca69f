#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

#include "common/random.h"

namespace dtl::perfbench {

std::string ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return "missing value for " + flag;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return "bad --seed " + value;
    } else if (flag == "--seconds") {
      const long s = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || s < 1 || s > 600) {
        return "bad --seconds " + value;
      }
      args->seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return "bad --trace " + value;
      args->trace = value == "1";
    } else if (flag == "--bite") {
      if (value != "0" && value != "1") return "bad --bite " + value;
      args->bite = value == "1";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else {
      return "unknown flag " + flag;
    }
  }
  if (!have_workload) return "--workload is required";
  return "";
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Mean() const { return values_.empty() ? 0.0 : Sum() / values_.size(); }

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double HostProbeSeconds() {
  static const std::vector<uint64_t> data = [] {
    std::vector<uint64_t> d(1u << 18);
    Random rng(0x5eed);
    for (uint64_t& x : d) x = rng.Next();
    return d;
  }();
  Stopwatch watch;
  std::unordered_map<uint64_t, uint32_t> counts;
  counts.reserve(8192);
  for (size_t i = 0; i < 8192; ++i) ++counts[data[(i * 7919) % data.size()] & 0xFFFFF];
  uint64_t acc = 0;
  for (size_t i = 0; i < data.size(); i += 4) {
    acc += data[i] * 31 + counts.count(data[i] & 0xFFFFF);
  }
  static volatile uint64_t sink = 0;
  sink = sink + acc;
  return watch.ElapsedSeconds();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

sql::SessionOptions BenchSessionOptions() {
  sql::SessionOptions options;
  options.dual_defaults.cost_params.k = 1.0;
  options.dual_defaults.cost_params.delete_marker_bytes = 200.0;
  options.dual_defaults.writer_options.stripe_rows = 8 * 1024;
  options.cluster.hbase_write_bps = 0.175e9;
  options.cluster.hbase_read_bps = 0.35e9;
  return options;
}

uint64_t LogicalRowBytes(const Row& row) {
  uint64_t bytes = 0;
  for (const Value& v : row) bytes += v.ByteSize();
  return bytes;
}

namespace {
const Stopwatch& ProcessClock() {
  static const Stopwatch watch;
  return watch;
}
}  // namespace

int64_t NowNs() { return static_cast<int64_t>(ProcessClock().ElapsedSeconds() * 1e9); }

int64_t SpanLog::Begin(const char* name, int64_t parent, int64_t stmt,
                       const std::string& tmpl) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.stmt = stmt;
  span.tmpl = tmpl;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

double SpanLog::End(int64_t id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = NowNs();
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"stmt\":%lld,\"template\":\"%s\"}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(s.parent),
                 static_cast<long long>(s.stmt), s.tmpl.c_str());
  }
  return std::fclose(f) == 0;
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 uint64_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::Unsupported(const std::string& name, const std::string& why) {
  notes_.push_back(name + ": not reported (" + why + ")");
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::PrintTable(const std::string& title) const {
  std::printf("== %s\n", title.c_str());
  std::printf("%-40s %16s  %-8s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics_) {
    std::printf("%-40s %16.6g  %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples == 0 ? "-" : std::to_string(m.samples).c_str());
  }
  for (const std::string& note : notes_) std::printf("  %s\n", note.c_str());
}

bool Report::PrintJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<std::string>& keys) const {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const Metric& m) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  };
  if (keys.empty()) {
    for (const Metric& m : metrics_) emit(m);
  } else {
    for (const std::string& key : keys) {
      const Metric* m = Find(key);
      if (m == nullptr) {
        std::fprintf(stderr, "metric %s was not measured\n", key.c_str());
        return false;
      }
      emit(*m);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace dtl::perfbench
