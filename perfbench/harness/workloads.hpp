#pragma once
// The workloads, the hot-cache phase, and the metric schema they share.

#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One slice of a timed phase: a round of a closed loop (every client or
/// entry once) or a one-second window of an open loop's schedule.
struct Group {
  double wall_s = 0;
  double states = 0;               ///< sum of 2^n over completed work
  std::vector<double> latency_ms;  ///< one per completed request
  std::size_t good = 0;            ///< correct within the latency limit
  std::size_t attempted = 0;
};

/// End-to-end metrics, reported by every workload when tracing is off.
/// Rates, latency percentiles and goodput are medians over the groups of
/// the timed phase (each group's own rate or percentile), so one
/// disturbed slice of a run does not move them.
struct EndToEnd {
  double setup_s = 0;
  double states_per_s = 0;
  double requests_per_s = 0;
  double latency_p50_ms = 0;
  double latency_p90_ms = 0;
  double latency_p99_ms = 0;
  double goodput_ratio = 0;
  double peak_rss_mib = 0;
  std::string groups;         ///< e.g. "3 rounds, 12 censuses"
  std::string group_rates;    ///< requests_per_s of each group
  std::string latency_limit;  ///< goodput's latency limit, for the table
  std::string rss_process;    ///< whose VmHWM peak_rss_mib is
};

/// Fills the rate, latency and goodput fields from the groups.
void summarize(const std::vector<Group>& groups, const char* group_name,
               const char* sample_name, EndToEnd& e2e);

void add_end_to_end(Report& report, const EndToEnd& e2e);

/// Per-layer values one workload measured: name -> {value, note}. Every
/// per-layer metric is printed on every traced run; a layer the workload
/// does not exercise reads 0 with the note "not exercised".
struct LayerValue {
  double value = 0;
  std::string note;
};
using LayerValues = std::map<std::string, LayerValue>;

void add_per_layer(Report& report, const LayerValues& values);

/// Outcome of one workload run.
struct RunResult {
  bool correct = true;
  bool valid = true;          ///< false: the run measured nothing usable
  std::string invalid_reason;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Report report;
};

/// Each prints its tables and fills `result`; the caller prints the
/// final line. With options.dump_inputs they print the generated inputs
/// only.
void run_census(const Options& options, RunResult& result);
void run_tcad_cold(const Options& options, RunResult& result);

/// The hot-cache phase a traced tcad-cold run adds (tcad_hot.cpp): fills
/// the cache, coalescer, handler, server and wire per-layer metrics and
/// counts its requests and failures in `result`.
void run_hot_phase(const Options& options, const std::string& work_dir,
                   LayerValues& lv, RunResult& result);
void dump_hot_inputs(const Options& options);

}  // namespace perfbench
