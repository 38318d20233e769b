// The benchmark's workloads and the run that measures them.
//
// A run builds one cluster per workload, replays a seeded op program in
// identical rounds until the time budget is spent, checks every result and
// the replicas, then times machine recoveries. Rounds are exact replays —
// each leaves the live set as it found it — so model counts per op do not
// depend on how many rounds the host managed to run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans; empty = do not write them.
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<std::string> errors;  ///< empty = every check passed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The metrics of the final result line: end-to-end ones untraced,
  /// per-layer ones traced.
  std::vector<Metric> metrics;
  /// Model counts per op, which must repeat exactly for a given seed.
  std::vector<Metric> model;
  /// Host-noise record printed next to every run's metrics.
  std::vector<Metric> host;
};

/// Runs one workload. Throws std::invalid_argument on an unknown name.
Report run(const Options& options);

}  // namespace perfbench
