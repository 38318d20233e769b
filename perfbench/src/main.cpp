// paso_perfbench: one run of one benchmark workload.
//
//   paso_perfbench --workload <sim-query|threaded-batch>
//                  --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// Prints a host-noise line and a model-count line, then, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// any result or replica check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Metric;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <file>]\n",
               argv0);
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument("missing value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        if (!(options.seconds > 0)) throw std::invalid_argument("seconds");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument("trace");
        options.trace = value == "1";
      } else if (flag == "--spans") {
        options.spans_path = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (!have_workload) throw std::invalid_argument("no workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad arguments: %s\n", e.what());
    usage(argv[0]);
    return 2;
  }

  perfbench::Report report;
  try {
    report = perfbench::run(options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }

  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  const bool correct = report.errors.empty() && report.failed == 0;
  std::printf("{\"host\": %s}\n", json_metrics(report.host).c_str());
  std::printf("{\"model\": %s}\n", json_metrics(report.model).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      json_metrics(report.metrics).c_str());
  return correct ? 0 : 1;
}
