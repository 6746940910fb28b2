// perfbench — the repo benchmark harness (see perfbench/README.md).
//
//   perfbench --workload census|tcad-cold --seed N --seconds S
//             --trace 0|1 --tcad PATH [--out DIR] [--source-id ID]
//             [--dump-inputs]
//
// Prints tables, a host line, and as the last stdout line one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 without a
// result line when the run is invalid or cannot run.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload census|tcad-cold --seed N "
               "--seconds S --trace 0|1 --tcad PATH [--out DIR] "
               "[--source-id ID] [--dump-inputs]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--dump-inputs") {
      options.dump_inputs = true;
    } else if (!has_value) {
      return usage(argv[0]);
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--tcad") {
      options.tcad = argv[++i];
    } else if (arg == "--out") {
      options.out_dir = argv[++i];
    } else if (arg == "--source-id") {
      options.source_id = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (!(options.seconds > 0)) return usage(argv[0]);

  // A daemon that dies mid-run must fail the run, not kill it by SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  perfbench::RunResult result;
  try {
    std::filesystem::create_directories(options.out_dir);
    if (options.workload == "census") {
      perfbench::run_census(options, result);
    } else if (options.workload == "tcad-cold") {
      perfbench::run_tcad_cold(options, result);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (options.dump_inputs) return 0;
  if (!result.valid) {
    std::fprintf(stderr, "perfbench: run invalid, no result reported: %s\n",
                 result.invalid_reason.c_str());
    return 1;
  }
  result.report.print_table(options.workload + (options.trace
                                                    ? " (traced)"
                                                    : " (end to end)"));
  std::printf("fail_ratio: %.6f (%llu of %llu attempted)\n",
              result.attempted == 0
                  ? 0.0
                  : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  result.report.print_result(result.correct, result.attempted, result.failed);
  return 0;
}
