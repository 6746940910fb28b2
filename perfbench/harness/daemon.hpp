#pragma once
// A spawned tcad daemon and the pieces tcad-cold and the hot phase share:
// query JSON generation, response parsing, histogram percentiles from the
// daemon's manifest, and the byte-for-byte replay check.

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/json_parse.hpp"

namespace perfbench {

/// One tcad child process: spawned in the constructor, ready when the
/// constructor returns, killed and reaped by the destructor if stop() was
/// never called.
class Daemon {
 public:
  /// `dir` holds the socket, ready file, manifest and log; `flags` are
  /// extra tcad flags (--workers, --cache-dir, ...). A non-null `cpus`
  /// confines the daemon to those CPUs.
  Daemon(const std::string& tcad, const std::string& dir,
         const std::vector<std::string>& flags,
         const cpu_set_t* cpus = nullptr);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// Live counters over the protocol (the `counters` op).
  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;

  struct Shutdown {
    bool clean = false;
    std::string detail;
    tca::service::JsonValue manifest;  ///< null when unreadable
  };
  /// SIGTERM, reap, and audit the daemon's manifest: exit status 0,
  /// status PASS and a PASS clean-shutdown check (zero leaked requests).
  Shutdown stop();

 private:
  std::string socket_, ready_, manifest_, log_;
  pid_t pid_ = -1;
};

/// Histogram from a daemon manifest (metrics.histograms.<name>).
struct Histogram {
  std::vector<double> bounds;
  std::vector<double> counts;
  double count = 0;
  double sum = 0;
  /// Percentile, interpolated linearly inside the bucket that holds it.
  [[nodiscard]] double percentile(double p) const;
};
[[nodiscard]] Histogram manifest_histogram(
    const tca::service::JsonValue& manifest, const std::string& name);
/// Counters recorded in a daemon manifest.
[[nodiscard]] std::map<std::string, std::uint64_t> manifest_counters(
    const tca::service::JsonValue& manifest);

/// One generated query: its JSON, canonical key and state count.
struct Query {
  std::string json;
  std::string key;
  std::string kind;
  std::uint32_t n = 0;
};

/// Query spec the generators draw parameters for.
struct QueryClass {
  const char* kind;
  std::uint32_t n;
  bool sweep;
  bool line;
};

/// Draws a query of `cls` whose canonical key is not yet in `seen`
/// (and adds it): rule, radius, sweep order and target come from `rng`.
[[nodiscard]] Query draw_query(const QueryClass& cls, Rng& rng,
                               std::set<std::string>& seen);

/// Request frame for a query.
[[nodiscard]] std::string request_frame(std::uint64_t id,
                                        const std::string& query_json);

/// The parts of a response the checks need.
struct Response {
  std::string status;
  std::string source;
  std::string result;  ///< the "result" object, verbatim
};
[[nodiscard]] Response parse_response(const std::string& body);

/// Expected result bytes for each distinct query, from an in-process
/// QueryEngine with no cache and no checkpoints, run on `threads`
/// threads. Per-query execute seconds land in `seconds` (keyed like the
/// result map) when it is non-null.
[[nodiscard]] std::map<std::string, std::string> replay(
    const std::vector<Query>& queries, unsigned threads,
    std::map<std::string, double>* seconds);

/// Connection count: one per CPU.
[[nodiscard]] unsigned connection_count();

/// The CPUs this process may run on, split into one for an open-loop
/// generator (the highest) and the rest for the daemon; `split` is false
/// when there is a single CPU.
struct CpuSplit {
  bool split = false;
  cpu_set_t generator;
  cpu_set_t daemon;
};
[[nodiscard]] CpuSplit split_cpus();

}  // namespace perfbench
