// The metric schema: every name and unit here appears in BENCHMARK.json
// (the self-test in perfbench/tests checks that they agree).

#include "workloads.hpp"

namespace perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Layer -> metric, in the order of the layer table in perfbench/README.md.
constexpr LayerMetric kPerLayer[] = {
    {"core.kernel_ns_per_state", "ns"},
    {"phasespace.build_ns_per_state", "ns"},
    {"phasespace.build_speedup", "x"},
    {"phasespace.shards_stolen", "count"},
    {"phasespace.store_bytes_per_state.flat", "B"},
    {"phasespace.store_bytes_per_state.packed", "B"},
    {"phasespace.classify_ns_per_state", "ns"},
    {"phasespace.classify_share", "ratio"},
    {"phasespace.goe_ns_per_state", "ns"},
    {"runtime.ckpt_saves", "count"},
    {"runtime.ckpt_bytes_per_state", "B"},
    {"runtime.supervisor_retries", "count"},
    {"service.engine_execute_ms_p50.attractor-summary", "ms"},
    {"service.engine_execute_ms_p50.transient-depth", "ms"},
    {"service.engine_execute_ms_p50.goe-census", "ms"},
    {"service.engine_execute_ms_p50.preimage-count", "ms"},
    {"service.engine_ckpt_ratio", "x"},
    {"service.admission_wait_ms_p90", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_disk_hit_ratio", "ratio"},
    {"service.cache_evictions", "count"},
    {"service.cache_lookup_us", "us"},
    {"service.coalesce_rider_ratio", "ratio"},
    {"service.handle_us_p50", "us"},
    {"service.query_parse_us", "us"},
    {"service.server_request_us_p50", "us"},
    {"service.server_request_us_p99", "us"},
    {"service.wire_us_p50", "us"},
    {"bench.generator_late_ms_p99", "ms"},
    {"bench.trace_overhead_ratio", "x"},
};

}  // namespace

void summarize(const std::vector<Group>& groups, const char* group_name,
               const char* sample_name, EndToEnd& e2e) {
  std::vector<double> states, requests, p50, p90, p99, goodput;
  std::size_t samples = 0;
  for (const Group& g : groups) {
    if (g.wall_s <= 0) continue;
    const auto n = static_cast<double>(g.latency_ms.size());
    states.push_back(g.states / g.wall_s);
    requests.push_back(n / g.wall_s);
    p50.push_back(percentile(g.latency_ms, 0.50));
    p90.push_back(percentile(g.latency_ms, 0.90));
    p99.push_back(percentile(g.latency_ms, 0.99));
    goodput.push_back(g.attempted == 0
                          ? 0
                          : static_cast<double>(g.good) /
                                static_cast<double>(g.attempted));
    samples += g.latency_ms.size();
    if (!e2e.group_rates.empty()) e2e.group_rates += ' ';
    e2e.group_rates += fmt(requests.back(), 4);
  }
  e2e.states_per_s = median(states);
  e2e.requests_per_s = median(requests);
  e2e.latency_p50_ms = median(p50);
  e2e.latency_p90_ms = median(p90);
  e2e.latency_p99_ms = median(p99);
  e2e.goodput_ratio = median(goodput);
  e2e.groups = std::to_string(states.size()) + " " + group_name + ", " +
               std::to_string(samples) + " " + sample_name;
}

void add_end_to_end(Report& report, const EndToEnd& e) {
  const std::string& n = e.groups;
  report.add_line("  requests_per_s by slice: " + e.group_rates);
  report.add("setup_s", e.setup_s, "s", "median of repeated set-ups");
  report.add("states_per_s", e.states_per_s, "1/s", "median of " + n);
  report.add("requests_per_s", e.requests_per_s, "1/s", "median of " + n);
  report.add("latency_p50_ms", e.latency_p50_ms, "ms", "median of " + n);
  report.add("latency_p90_ms", e.latency_p90_ms, "ms", "median of " + n);
  report.add("latency_p99_ms", e.latency_p99_ms, "ms", "median of " + n);
  report.add("goodput_ratio", e.goodput_ratio, "ratio",
             "correct within " + e.latency_limit + ", median of " + n);
  report.add("peak_rss_mib", e.peak_rss_mib, "MiB",
             "VmHWM of the " + e.rss_process);
}

void add_per_layer(Report& report, const LayerValues& values) {
  for (const LayerMetric& m : kPerLayer) {
    const auto it = values.find(m.name);
    if (it == values.end()) {
      report.add(m.name, 0, m.unit, "not exercised by this workload");
    } else {
      report.add(m.name, it->second.value, m.unit, it->second.note);
    }
  }
}

}  // namespace perfbench
