// Entry point of the repo benchmark. Usage:
//
//   dtl_perfbench --workload grid-etl|tpch-cold|point-serve --seed N
//                 --seconds S --trace 0|1 [--out DIR] [--bite 1]
//
// Prints a human-readable report and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (which also writes the
// run's spans under DIR). --bite 1 corrupts the reference answers after
// set-up, so a healthy checker reports failures.
#include <cstdio>

#include "workload.h"

int main(int argc, char** argv) {
  using namespace dtl::perfbench;
  Args args;
  const std::string error = ParseArgs(argc, argv, &args);
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  std::unique_ptr<Workload> workload;
  if (args.workload == "grid-etl") {
    workload = MakeGridEtl(args.seed, args.seconds);
  } else if (args.workload == "tpch-cold") {
    workload = MakeTpchCold(args.seed, args.seconds);
  } else if (args.workload == "point-serve") {
    workload = MakePointServe(args.seed, args.seconds);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return RunWorkload(workload.get(), args);
}
