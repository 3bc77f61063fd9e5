// perfbench_pipeline: drives one generated workload through the reader ->
// uplink -> backend objects for a fixed wall-clock budget, checks the
// outputs, and prints a table plus one JSON result line.
//
//   perfbench_pipeline --workload <plaza_dense|corridor_pass|fleet_ingest>
//                      --seed N --seconds S --trace 0|1 --state-dir DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports per-layer
// metrics from a separate traced pass. Exit status is non-zero when any
// output check failed or the arguments are bad.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "pipeline/bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_pipeline: %s\n"
               "usage: perfbench_pipeline --workload "
               "plaza_dense|corridor_pass|fleet_ingest --seed N --seconds S "
               "--trace 0|1 --state-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload")
      options.workload = value;
    else if (flag == "--seed")
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds")
      options.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace")
      options.trace = value == "1";
    else if (flag == "--state-dir")
      options.stateDir = value;
    else
      return usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  if (options.stateDir.empty()) return usage("--state-dir is required");

  perfbench::RunResult result;
  if (options.workload == "plaza_dense")
    result = perfbench::runPlazaDense(options);
  else if (options.workload == "corridor_pass")
    result = perfbench::runCorridorPass(options);
  else if (options.workload == "fleet_ingest")
    result = perfbench::runFleetIngest(options);
  else
    return usage(("unknown workload '" + options.workload + "'").c_str());

  perfbench::printReport(options, result);
  return result.failed == 0 ? 0 : 1;
}
