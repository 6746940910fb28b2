#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "obs/build_info.hpp"

namespace perfbench {
namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  return bound == 0 ? 0 : next() % bound;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Rng make_rng(std::uint64_t seed, std::uint64_t stream) {
  Rng mix(seed ^ (0xd1b54a32d192ed03ULL * (stream + 1)));
  return Rng(mix.next());
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

Tracer::Tracer(bool enabled, std::size_t threads)
    : enabled_(enabled), epoch_(Clock::now()), logs_(threads) {
  if (enabled_) {
    for (std::vector<Span>& log : logs_) log.reserve(1 << 16);
  }
}

std::int64_t Tracer::begin(std::size_t thread, const char* name,
                           std::int64_t parent, std::uint64_t request) {
  if (!enabled_) return -1;
  std::vector<Span>& log = logs_[thread];
  Span s;
  s.name = name;
  s.start_ns = (Clock::now() - epoch_).count();
  s.parent = parent;
  s.request = request;
  s.thread = static_cast<std::uint32_t>(thread);
  log.push_back(std::move(s));
  return static_cast<std::int64_t>(log.size() - 1);
}

void Tracer::end(std::size_t thread, std::int64_t span) {
  if (!enabled_ || span < 0) return;
  logs_[thread][static_cast<std::size_t>(span)].end_ns =
      (Clock::now() - epoch_).count();
}

void Tracer::record(std::size_t thread, const char* name,
                    Clock::time_point start, Clock::time_point end,
                    std::int64_t parent, std::uint64_t request) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start_ns = (start - epoch_).count();
  s.end_ns = (end - epoch_).count();
  s.parent = parent;
  s.request = request;
  s.thread = static_cast<std::uint32_t>(thread);
  logs_[thread].push_back(std::move(s));
}

std::map<std::string, Tracer::LayerTime> Tracer::self_times() const {
  std::map<std::string, LayerTime> out;
  for (const std::vector<Span>& log : logs_) {
    // Children of one span are sequential on its thread, so the covered
    // part of a parent is the sum of its children's durations.
    std::vector<std::int64_t> child_ns(log.size(), 0);
    for (const Span& s : log) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < log.size(); ++i) {
      const Span& s = log[i];
      LayerTime& t = out[s.name];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      t.calls += 1;
      t.total_s += dur;
      t.self_s += dur - static_cast<double>(child_ns[i]) * 1e-9;
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (const std::vector<Span>& log : logs_) {
    for (const Span& s : log) {
      out << "{\"name\":" << json_string(s.name)
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"thread\":" << s.thread << "}\n";
    }
  }
  return static_cast<bool>(out);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit, note});
}

void Report::print_table(const std::string& title) const {
  std::printf("== %s ==\n", title.c_str());
  for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-46s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void Report::print_result(bool correct, std::uint64_t attempted,
                          std::uint64_t failed) const {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) line += ", ";
    first = false;
    line += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void write_trace(const Tracer& tracer, const Options& options,
                 const std::string& phase) {
  const std::string path = options.out_dir + "/" + options.workload +
                           (phase.empty() ? "" : "-" + phase) + "-seed" +
                           std::to_string(options.seed) + "-" +
                           std::to_string(::getpid()) + ".trace.jsonl";
  if (tracer.write(path)) std::printf("trace: %s\n", path.c_str());
}

void print_self_times(const std::string& title,
                      const std::map<std::string, Tracer::LayerTime>& layers) {
  double total_self = 0;
  for (const auto& [name, t] : layers) total_self += t.self_s;
  std::printf("-- self time: %s --\n", title.c_str());
  std::printf("  %-34s %8s %12s %12s %7s\n", "layer", "calls", "total_ms",
              "self_ms", "share");
  std::vector<std::pair<std::string, Tracer::LayerTime>> rows(layers.begin(),
                                                              layers.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  for (const auto& [name, t] : rows) {
    std::printf("  %-34s %8llu %12.2f %12.2f %6.1f%%\n", name.c_str(),
                static_cast<unsigned long long>(t.calls), t.total_s * 1e3,
                t.self_s * 1e3,
                total_self > 0 ? 100.0 * t.self_s / total_self : 0.0);
  }
}

void print_host(const Options& options, const std::string& isa) {
  std::printf(
      "host: {\"nproc\": %u, \"batch_isa\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"git_sha\": %s, \"source\": %s}\n",
      std::thread::hardware_concurrency(), json_string(isa).c_str(),
      json_string(tca::obs::build_info::kCompiler).c_str(),
      json_string(tca::obs::build_info::kBuildType).c_str(),
      json_string(tca::obs::build_info::kGitSha).c_str(),
      json_string(options.source_id).c_str());
}

std::string dispatched_isa(
    const std::map<std::string, std::uint64_t>& counters) {
  for (const char* tier : {"avx512", "avx2", "neon", "scalar"}) {
    const auto it = counters.find(std::string("engine.batch.isa.") + tier);
    if (it != counters.end() && it->second > 0) return tier;
  }
  return "none";
}

double peak_rss_mib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

WorkDir::WorkDir(const std::string& out_dir, const std::string& prefix) {
  std::filesystem::create_directories(out_dir);
  std::string tmpl = out_dir + "/" + prefix + "-XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + out_dir);
  }
  path_ = tmpl;
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string samples_note(std::size_t n) {
  return "samples=" + std::to_string(n);
}

std::string fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

}  // namespace perfbench
