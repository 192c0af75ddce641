#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for distributed state and sockets.
  std::string state_dir;
  /// Self-test knobs: tiny inputs, and a deliberately wrong reference so
  /// every check fails.
  bool tiny = false;
  bool wrong_reference = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics of an untraced run, or per-layer metrics of a
  /// traced one.
  std::vector<Metric> metrics;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Runs one workload for args.seconds, checking every result against its
/// reference. `tracer` is non-null exactly when args.trace is set. Returns
/// false (with *error set) when the workload could not run at all.
bool RunWorkload(const Args& args, Tracer* tracer, Outcome* outcome,
                 std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
