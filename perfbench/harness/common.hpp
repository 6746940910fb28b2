#pragma once
// Shared pieces of the benchmark harness: seeded generators, statistics,
// benchmark-side trace spans, the metric report and the final result line,
// host fingerprint, and per-run work directories.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool dump_inputs = false;  ///< print the generated inputs and exit
  std::string tcad;          ///< path of the tcad daemon binary
  std::string out_dir = ".bench_out";
  std::string source_id = "unknown";
};

/// SplitMix64: the whole input stream of a run is a function of the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound);
  /// Uniform in [0, 1).
  double uniform();

 private:
  std::uint64_t state_;
};

/// Independent stream `stream` of seed `seed`.
[[nodiscard]] Rng make_rng(std::uint64_t seed, std::uint64_t stream);

/// Percentile with linear interpolation between order statistics
/// (p in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// One benchmark-side span: a timed call into a layer.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index in the same thread's log, -1 = root
  std::uint64_t request = 0;  ///< request or census id
  std::uint32_t thread = 0;
};

/// In-memory span recorder: one log per thread slot, so recording takes
/// no lock. Disabled tracers record nothing and return -1.
class Tracer {
 public:
  Tracer(bool enabled, std::size_t threads);

  std::int64_t begin(std::size_t thread, const char* name,
                     std::int64_t parent, std::uint64_t request);
  void end(std::size_t thread, std::int64_t span);
  /// Records a finished span with explicit times.
  void record(std::size_t thread, const char* name, Clock::time_point start,
              Clock::time_point end, std::int64_t parent,
              std::uint64_t request);

  /// Name -> {calls, total seconds, self seconds}; self time is a span's
  /// duration minus the part its children cover.
  struct LayerTime {
    std::uint64_t calls = 0;
    double total_s = 0;
    double self_s = 0;
  };
  [[nodiscard]] std::map<std::string, LayerTime> self_times() const;
  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<std::vector<Span>> logs_;
};

/// RAII span on a tracer (no-op when tracing is off).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::size_t thread, const char* name,
             std::int64_t parent = -1, std::uint64_t request = 0)
      : tracer_(tracer),
        thread_(thread),
        id_(tracer.begin(thread, name, parent, request)) {}
  ~ScopedSpan() { tracer_.end(thread_, id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::size_t thread_;
  std::int64_t id_;
};

/// One reported metric. `note` carries the sample count or the base of a
/// ratio; it is printed in the table, not in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

/// Collected metrics, printed as a table and as the final result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void add_line(const std::string& line) { lines_.push_back(line); }
  /// Human-readable lines, then the metric table.
  void print_table(const std::string& title) const;
  /// The last stdout line: {"correct","attempted","failed","metrics"}.
  void print_result(bool correct, std::uint64_t attempted,
                    std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> lines_;
};

/// Writes the tracer's spans to
/// <out_dir>/<workload>[-<phase>]-seed<N>-<pid>.trace.jsonl and prints the
/// path.
void write_trace(const Tracer& tracer, const Options& options,
                 const std::string& phase = "");

/// Prints the layer self-time table of a tracer.
void print_self_times(const std::string& title,
                      const std::map<std::string, Tracer::LayerTime>& layers);

/// Host fingerprint printed with every result; `isa` is the dispatched
/// batch-kernel tier read from the engine.batch.isa.* counters.
void print_host(const Options& options, const std::string& isa);

/// The widest engine.batch.isa.* counter that is non-zero in `counters`,
/// "none" when no batch stepper was built.
[[nodiscard]] std::string dispatched_isa(
    const std::map<std::string, std::uint64_t>& counters);

/// VmHWM of a process in MiB ("self" or a pid); 0 when unreadable.
[[nodiscard]] double peak_rss_mib(const std::string& pid = "self");

/// A uniquely named directory under the run output directory, removed
/// with everything in it when the object is destroyed.
class WorkDir {
 public:
  WorkDir(const std::string& out_dir, const std::string& prefix);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Metric helpers shared by the workloads.
[[nodiscard]] std::string samples_note(std::size_t n);
[[nodiscard]] std::string fmt(double v, int digits = 3);

}  // namespace perfbench
