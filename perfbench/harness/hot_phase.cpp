// The hot phase of a traced tcad-cold run: cached queries against a
// spawned tcad, open loop.
//
// Independent users send requests on their own schedule, so the load is
// an open loop: a fixed rate spread evenly over the connections, each
// request timed from its scheduled send time. Requests follow a Zipf draw
// over a key set of small queries that set-up computed into the disk tier;
// the key set is twice the memory tier, so some lookups fall to disk and
// promote (evicting others). A few cheap cold queries (n <= 11) add
// inserts, evictions and disk writes beside the reads, and every burst
// period all connections send one identical cold query at the same
// instant, for the coalescer. Compute is nearly absent: socket, protocol,
// handler, cache and coalescer are the whole cost.
//
// This is a phase of the traced run, not a workload of its own: its tail
// latencies are set by the host's scheduling of short requests, which on
// a shared virtual machine moves p90 between 0.12 and 1.7 ms from one run
// to the next, too far for an end-to-end bound. Its per-layer metrics
// have no bound, so it measures the cache, coalescer, handler, server and
// wire layers here.

#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/fnv.hpp"
#include "daemon.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/handler.hpp"
#include "service/protocol.hpp"
#include "service/query.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kKeys = 128;
constexpr std::size_t kMemoryEntries = kKeys / 2;
constexpr double kZipfS = 1.0;
constexpr double kRatePerConnection = 500;  // requests per second
constexpr double kColdShare = 0.0025;
constexpr double kBurstPeriodS = 0.1;
constexpr double kLatencyLimitMs = 5;
// A run is invalid when the generator fell behind its schedule: the
// median send is late on a free connection, or one send in a hundred
// stalls longer than several times the host's own wake-up jitter.
constexpr double kMaxGeneratorLateP50Ms = 0.5;
constexpr double kMaxGeneratorLateP99Ms = 25;
constexpr std::size_t kProbeCalls = 20000;

constexpr QueryClass kKeyClasses[] = {
    {"attractor-summary", 10, false, false},
    {"attractor-summary", 12, true, false},
    {"transient-depth", 11, false, true},
    {"goe-census", 10, false, false},
    {"goe-census", 11, true, false},
    {"preimage-count", 12, false, false},
    {"preimage-count", 10, false, true},
    {"preimage-count", 12, true, false},
};
constexpr QueryClass kColdClasses[] = {
    {"attractor-summary", 11, false, false},
    {"transient-depth", 10, false, true},
    {"goe-census", 11, true, false},
    {"preimage-count", 10, true, false},
};
// A sweep census costs the same whatever the rule, so a burst's stall
// does not depend on the seed.
constexpr QueryClass kBurstClass = {"goe-census", 16, true, false};

/// The phase runs for half of the run's --seconds, which keeps a traced
/// tcad-cold run (two cold phases, the replay, this phase) well inside
/// three minutes.
double hot_seconds(const Options& options) { return options.seconds / 2; }

struct Event {
  double t = 0;  ///< scheduled send time, seconds after the start
  const Query* query = nullptr;
  std::string frame;
};

/// Every input of a run, generated from the seed.
struct Inputs {
  /// Zipf rank r -> keys[r]. The class of a rank is fixed and the seed
  /// draws its rule, so the seed does not change the mix of sizes.
  std::vector<Query> keys;
  std::vector<Query> cold;   ///< burst queries, then cold singles
  std::vector<std::vector<Event>> schedule;  ///< per connection
  std::size_t bursts = 0;
};

/// Zipf(kZipfS) rank sampler over kKeys ranks.
class Zipf {
 public:
  Zipf() {
    double sum = 0;
    for (std::size_t r = 1; r <= kKeys; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r), kZipfS);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t draw(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 kKeys - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::unique_ptr<Inputs> make_inputs(std::uint64_t seed, double seconds,
                                    unsigned conns) {
  auto in = std::make_unique<Inputs>();
  std::set<std::string> seen;
  Rng key_rng = make_rng(seed, 10);
  for (std::size_t i = 0; i < kKeys; ++i) {
    in->keys.push_back(draw_query(
        kKeyClasses[i % (sizeof kKeyClasses / sizeof kKeyClasses[0])],
        key_rng, seen));
  }

  const Zipf zipf;
  in->bursts = static_cast<std::size_t>(seconds / kBurstPeriodS);
  Rng cold_rng = make_rng(seed, 11);
  // Reserve first: events point into the cold vector.
  const auto expected_cold = static_cast<std::size_t>(
      seconds * kRatePerConnection * conns * kColdShare * 2 + 64);
  in->cold.reserve(expected_cold + in->bursts);
  for (std::size_t j = 0; j < in->bursts; ++j) {
    in->cold.push_back(draw_query(kBurstClass, cold_rng, seen));
  }
  std::uint64_t id = 1;
  in->schedule.resize(conns);
  for (unsigned c = 0; c < conns; ++c) {
    Rng rng = make_rng(seed, 200 + c);
    std::vector<Event>& events = in->schedule[c];
    // Evenly spaced sends, the connections staggered: arrivals do not
    // bunch, so a request waits for its connection only behind a stall.
    const double phase = (c + 0.5) / conns;
    for (std::size_t k = 0;; ++k) {
      const double t = (static_cast<double>(k) + phase) / kRatePerConnection;
      if (t >= seconds) break;
      const Query* q = nullptr;
      if (rng.uniform() < kColdShare && in->cold.size() < in->cold.capacity()) {
        in->cold.push_back(draw_query(
            kColdClasses[rng.below(sizeof kColdClasses /
                                   sizeof kColdClasses[0])],
            cold_rng, seen));
        q = &in->cold.back();
      } else {
        q = &in->keys[zipf.draw(rng)];
      }
      events.push_back({t, q, ""});
    }
    for (std::size_t j = 0; j < in->bursts; ++j) {
      events.push_back({kBurstPeriodS * (0.5 + static_cast<double>(j)),
                        &in->cold[j], ""});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.t < b.t; });
    for (Event& e : events) e.frame = request_frame(id++, e.query->json);
  }
  return in;
}

struct Sample {
  const Query* query = nullptr;
  double scheduled_s = 0;  ///< scheduled send, seconds after the start
  double latency_s = 0;  ///< from the scheduled send time
  double rtt_s = 0;      ///< from the actual send time
  double late_s = 0;     ///< generator lateness on a free connection
  double delay_s = 0;    ///< scheduled -> actual send
  std::string body;
};

struct Phase {
  std::unique_ptr<Inputs> inputs;
  std::vector<Sample> samples;
  std::vector<std::pair<const Query*, std::string>> warmup;
  std::size_t sent = 0;
  Daemon::Shutdown shutdown;
};

std::vector<std::string> daemon_flags(const std::string& cache_dir,
                                      unsigned conns) {
  return {"--workers", std::to_string(conns), "--cache-dir", cache_dir,
          "--cache-entries", std::to_string(kMemoryEntries)};
}

/// Set-up: generate inputs, compute the key set into the disk tier with a
/// first daemon, then start the serving daemon on that tier, so its
/// counters and histograms see only the timed phase.
std::unique_ptr<Daemon> set_up(const Options& options,
                                    const std::string& dir, Phase& phase,
                                    const CpuSplit& cpus, bool& clean) {
  const unsigned conns = connection_count();
  phase.inputs = make_inputs(options.seed, hot_seconds(options), conns);
  const std::string cache_dir = dir + "/cache";
  phase.warmup.clear();
  {
    Daemon warm(options.tcad, dir + "/warm", daemon_flags(cache_dir, conns));
    tca::service::TcadClient client =
        tca::service::TcadClient::connect_uds(warm.socket());
    std::uint64_t id = 0;
    for (const Query& q : phase.inputs->keys) {
      phase.warmup.emplace_back(&q, client.call(request_frame(id++, q.json)));
    }
    clean = warm.stop().clean && clean;
  }
  return std::make_unique<Daemon>(options.tcad, dir + "/serve",
                                  daemon_flags(cache_dir, conns),
                                  cpus.split ? &cpus.daemon : nullptr);
}

/// A client connection the open-loop generator drives without blocking:
/// requests go out with the protocol's write_frame, and a reply is read
/// with read_frame once poll() reports it.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("hot phase: cannot open a socket");
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("hot phase: connect failed: " + path);
    }
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
};

Phase timed_phase(const Options& options, const WorkDir& work,
                  const char* tag, Tracer& tracer, bool& clean) {
  const unsigned conns = connection_count();
  Phase phase;
  const CpuSplit cpus = split_cpus();
  const std::unique_ptr<Daemon> daemon = set_up(
      options, work.path() + "/" + tag, phase, cpus, clean);

  // One thread drives every connection and never sleeps, so sends leave
  // on schedule: a sleeping generator on a virtual machine wakes up to
  // milliseconds late, which would be measured as service latency. It has
  // a CPU of its own (the daemon runs on the others): a daemon build that
  // fills every CPU would otherwise stall the schedule it is measured by.
  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  const bool pinned =
      cpus.split && ::sched_getaffinity(0, sizeof all_cpus, &all_cpus) == 0 &&
      ::sched_setaffinity(0, sizeof cpus.generator, &cpus.generator) == 0;
  std::vector<std::unique_ptr<Conn>> conn(conns);
  for (unsigned c = 0; c < conns; ++c) {
    conn[c] = std::make_unique<Conn>(daemon->socket());
  }
  struct State {
    std::size_t next = 0;
    bool busy = false;
    Clock::time_point target, sent, free_at;
  };
  std::vector<State> st(conns);
  std::vector<pollfd> fds;
  std::vector<unsigned> fd_conn;
  const auto at = [&](Clock::time_point base, double t) {
    return base + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(t));
  };
  const Clock::time_point t0 = at(Clock::now(), 0.001);
  for (State& s : st) s.free_at = t0;
  for (bool active = true; active;) {
    active = false;
    for (unsigned c = 0; c < conns; ++c) {
      State& s = st[c];
      const std::vector<Event>& events = phase.inputs->schedule[c];
      if (!conn[c] || (!s.busy && s.next >= events.size())) continue;
      active = true;
      if (s.busy) continue;
      s.target = at(t0, events[s.next].t);
      const auto now = Clock::now();
      if (now < s.target) continue;
      s.sent = now;
      try {
        tca::service::write_frame(conn[c]->fd(), events[s.next].frame);
        s.busy = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "hot phase: send: %s\n", e.what());
        conn[c].reset();  // its unsent requests count as failed
      }
    }
    fds.clear();
    fd_conn.clear();
    for (unsigned c = 0; c < conns; ++c) {
      if (conn[c] && st[c].busy) {
        fds.push_back({conn[c]->fd(), POLLIN, 0});
        fd_conn.push_back(c);
      }
    }
    if (fds.empty() || ::poll(fds.data(), fds.size(), 0) <= 0) continue;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const unsigned c = fd_conn[i];
      State& s = st[c];
      std::string body;
      bool open = false;
      try {
        open = tca::service::read_frame(conn[c]->fd(), body);
        if (!open) body = "connection closed";
      } catch (const std::exception& e) {
        body = e.what();  // not a response: fails the check
      }
      const auto done = Clock::now();
      const Event& e = phase.inputs->schedule[c][s.next];
      tracer.record(c, "tcad.call", s.sent, done, -1, s.next);
      phase.samples.push_back(
          {e.query, e.t, seconds_between(s.target, done),
           seconds_between(s.sent, done),
           std::max(0.0, seconds_between(std::max(s.target, s.free_at),
                                         s.sent)),
           seconds_between(s.target, s.sent), std::move(body)});
      s.busy = false;
      s.free_at = done;
      ++s.next;
      if (!open) conn[c].reset();  // its unsent requests count as failed
    }
  }
  if (pinned) ::sched_setaffinity(0, sizeof all_cpus, &all_cpus);
  conn.clear();  // the daemon drains open connections before it exits
  for (unsigned c = 0; c < conns; ++c) {
    phase.sent += phase.inputs->schedule[c].size();
  }
  phase.shutdown = daemon->stop();
  clean = clean && phase.shutdown.clean;
  if (!phase.shutdown.clean) {
    std::fprintf(stderr, "hot phase: unclean daemon shutdown: %s\n",
                 phase.shutdown.detail.c_str());
  }
  return phase;
}

/// Expected result bytes of every query a phase sent.
void add_expected(const Phase& phase,
                  std::map<std::string, std::string>& expected,
                  std::map<std::string, double>& engine_s) {
  std::vector<Query> todo;
  std::set<std::string> keys;
  const auto want = [&](const Query* q) {
    if (expected.count(q->key) == 0 && keys.insert(q->key).second) {
      todo.push_back(*q);
    }
  };
  for (const auto& w : phase.warmup) want(w.first);
  for (const Sample& s : phase.samples) want(s.query);
  std::map<std::string, double> times;
  for (auto& [k, v] : replay(todo, connection_count(), &times)) {
    expected[k] = std::move(v);
  }
  engine_s.insert(times.begin(), times.end());
}

bool response_ok(const Query& q, const std::string& body,
                 const std::map<std::string, std::string>& expected) {
  const Response r = parse_response(body);
  const auto it = expected.find(q.key);
  return r.status == "ok" && it != expected.end() && !it->second.empty() &&
         r.result == it->second;
}

struct Checked {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<bool> ok;  ///< per sample
  double late_p50_ms = 0;
  double late_p99_ms = 0;
};

Checked check(const Phase& phase,
              const std::map<std::string, std::string>& expected) {
  Checked out;
  const auto fail = [&](const Query& q, const std::string& body) {
    ++out.failed;
    std::fprintf(stderr, "hot phase: bad response to %s: %s\n",
                 q.json.c_str(), body.c_str());
  };
  for (const auto& [q, body] : phase.warmup) {
    ++out.attempted;
    if (!response_ok(*q, body, expected)) fail(*q, body);
  }
  std::vector<double> late_ms;
  // Scheduled requests a broken connection never sent count as failed.
  out.attempted += phase.sent;
  out.failed += phase.sent - phase.samples.size();
  for (const Sample& s : phase.samples) {
    late_ms.push_back(s.late_s * 1e3);
    const bool ok = response_ok(*s.query, s.body, expected);
    if (!ok) fail(*s.query, s.body);
    out.ok.push_back(ok);
  }
  out.late_p50_ms = percentile(late_ms, 0.50);
  out.late_p99_ms = percentile(late_ms, 0.99);
  return out;
}

/// One-second windows of the schedule; a request belongs to the window of
/// its scheduled send time.
std::vector<Group> windows(const Phase& p, const Checked& ok,
                           double seconds) {
  const auto count = static_cast<std::size_t>(std::ceil(seconds));
  std::vector<Group> groups(count);
  for (std::size_t w = 0; w < count; ++w) {
    groups[w].wall_s = std::min(1.0, seconds - static_cast<double>(w));
  }
  const auto window = [&](double t) {
    return std::min(count - 1, static_cast<std::size_t>(t));
  };
  for (const auto& events : p.inputs->schedule) {
    for (const Event& e : events) ++groups[window(e.t)].attempted;
  }
  for (std::size_t i = 0; i < p.samples.size(); ++i) {
    const Sample& s = p.samples[i];
    Group& g = groups[window(s.scheduled_s)];
    g.states += static_cast<double>(std::uint64_t{1} << s.query->n);
    g.latency_ms.push_back(s.latency_s * 1e3);
    if (ok.ok[i] && s.latency_s * 1e3 <= kLatencyLimitMs) ++g.good;
  }
  return groups;
}

/// In-process probes of the service layers over the hot key set.
void probe_in_process(const Phase& phase, const WorkDir& work,
                      const std::map<std::string, std::string>& expected,
                      std::uint64_t seed, Tracer& tracer, LayerValues& lv) {
  const std::vector<Query>& keys = phase.inputs->keys;
  const Zipf zipf;
  std::vector<tca::service::ServiceQuery> parsed;
  for (const Query& q : keys) {
    parsed.push_back(tca::service::ServiceQuery::from_json(
        tca::service::parse_json(q.json)));
  }

  // Parse + digest: the per-request canonicalization cost.
  {
    std::set<std::string> digests;
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, 0, "service.query.parse+digest");
      for (std::size_t i = 0; i < kProbeCalls; ++i) {
        const auto q = tca::service::ServiceQuery::from_json(
            tca::service::parse_json(keys[i % kKeys].json));
        if (i < kKeys) digests.insert(q.digest());
      }
    }
    lv["service.query_parse_us"] = {
        seconds_since(t0) * 1e6 / static_cast<double>(kProbeCalls),
        "mean of ServiceQuery::from_json + digest(), " +
            samples_note(kProbeCalls) + ", " +
            std::to_string(digests.size()) + " distinct digests"};
  }

  // ResultCache: memory tier of the daemon's size over a disk tier.
  {
    WorkDir dir(work.path(), "probe-cache");
    tca::service::ResultCache cache({kMemoryEntries, dir.path()});
    for (std::size_t i = 0; i < kKeys; ++i) {
      cache.insert(parsed[i], expected.at(keys[i].key));
    }
    Rng rng = make_rng(seed, 300);
    std::size_t hits = 0;
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, 0, "service.cache.lookup");
      for (std::size_t i = 0; i < kProbeCalls; ++i) {
        hits += cache.lookup(parsed[zipf.draw(rng)]).has_value() ? 1 : 0;
      }
    }
    lv["service.cache_lookup_us"] = {
        seconds_since(t0) * 1e6 / static_cast<double>(kProbeCalls),
        "mean ResultCache::lookup over the Zipf key draw, " +
            samples_note(kProbeCalls) + ", hits=" + std::to_string(hits)};
  }

  // RequestHandler::handle: the daemon's per-request work without the
  // socket.
  {
    WorkDir dir(work.path(), "probe-handler");
    tca::service::HandlerOptions ho;
    ho.cache.max_entries = kMemoryEntries;
    ho.cache.disk_dir = dir.path();
    tca::service::RequestHandler handler(ho);
    for (std::size_t i = 0; i < kKeys; ++i) {
      (void)handler.handle(request_frame(i, keys[i].json));
    }
    Rng rng = make_rng(seed, 301);
    std::vector<std::string> frames;
    for (std::size_t i = 0; i < kProbeCalls; ++i) {
      frames.push_back(request_frame(i, keys[zipf.draw(rng)].json));
    }
    std::vector<double> us;
    us.reserve(kProbeCalls);
    ScopedSpan span(tracer, 0, "service.handler.handle");
    for (const std::string& f : frames) {
      const auto t0 = Clock::now();
      const std::string r = handler.handle(f);
      us.push_back(seconds_since(t0) * 1e6);
    }
    lv["service.handle_us_p50"] = {
        median(us), "in-process RequestHandler::handle, " +
                        samples_note(kProbeCalls)};
  }
}

}  // namespace

void dump_hot_inputs(const Options& options) {
  const auto in = make_inputs(options.seed, hot_seconds(options),
                              connection_count());
  for (std::size_t r = 0; r < in->keys.size(); ++r) {
    std::printf("hot key rank %zu %s\n", r, in->keys[r].json.c_str());
  }
  std::string all;
  std::size_t events = 0;
  for (const auto& conn : in->schedule) {
    for (const Event& e : conn) {
      all += fmt(e.t, 9) + " " + e.frame + "\n";
      ++events;
    }
  }
  std::printf("hot schedule events=%zu cold+burst=%zu fnv=%016llx\n", events,
              in->cold.size(),
              static_cast<unsigned long long>(tca::core::fnv1a64(all)));
}

void run_hot_phase(const Options& options, const std::string& work_dir,
                   LayerValues& lv, RunResult& result) {
  const unsigned conns = connection_count();
  WorkDir work(work_dir, "hot");
  bool clean = true;
  Tracer tracer(true, conns);
  const Phase hot = timed_phase(options, work, "hot", tracer, clean);

  // Output checks, after the timed phase and outside every timing.
  std::map<std::string, std::string> expected;
  std::map<std::string, double> engine_s;
  add_expected(hot, expected, engine_s);
  const Checked ok = check(hot, expected);
  result.attempted += ok.attempted;
  result.failed += ok.failed;
  result.correct = result.correct && ok.failed == 0 && clean;
  if (ok.late_p50_ms > kMaxGeneratorLateP50Ms ||
      ok.late_p99_ms > kMaxGeneratorLateP99Ms) {
    result.valid = false;
    result.invalid_reason =
        "hot phase: generator fell behind its schedule: sends late by p50 " +
        fmt(ok.late_p50_ms) + " ms, p99 " + fmt(ok.late_p99_ms) +
        " ms (limits " + fmt(kMaxGeneratorLateP50Ms) + ", " +
        fmt(kMaxGeneratorLateP99Ms) + " ms)";
  }
  EndToEnd e2e;
  summarize(windows(hot, ok, hot_seconds(options)), "1 s windows", "requests",
            e2e);
  std::printf(
      "hot phase: %s requests/s open loop over %u connections, %s; latency "
      "from scheduled send p50 %s / p90 %s / p99 %s ms; goodput (%s ms) "
      "%s\n",
      fmt(kRatePerConnection * conns, 0).c_str(), conns, e2e.groups.c_str(),
      fmt(e2e.latency_p50_ms, 4).c_str(), fmt(e2e.latency_p90_ms, 4).c_str(),
      fmt(e2e.latency_p99_ms, 4).c_str(), fmt(kLatencyLimitMs, 0).c_str(),
      fmt(e2e.goodput_ratio, 4).c_str());

  const tca::service::JsonValue& manifest = hot.shutdown.manifest;
  const std::map<std::string, std::uint64_t> counters =
      manifest_counters(manifest);
  const auto counter = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const Histogram request_us =
      manifest_histogram(manifest, "service.request_us");

  const std::string from = "hot phase: ";
  const double lookups = counter("service.cache.hit") +
                         counter("service.cache.disk_hit") +
                         counter("service.cache.miss");
  lv["service.cache_hit_ratio"] = {
      lookups > 0 ? counter("service.cache.hit") / lookups : 0,
      from + "memory hits over " + fmt(lookups, 0) + " lookups"};
  lv["service.cache_disk_hit_ratio"] = {
      lookups > 0 ? counter("service.cache.disk_hit") / lookups : 0,
      from + "disk hits over " + fmt(lookups, 0) + " lookups"};
  lv["service.cache_evictions"] = {
      counter("service.cache.evict"),
      from + samples_note(hot.samples.size())};
  const double followers =
      static_cast<double>(hot.inputs->bursts) * (conns - 1);
  lv["service.coalesce_rider_ratio"] = {
      followers > 0 ? counter("service.coalesced") / followers : 0,
      from + "service.coalesced over " + fmt(followers, 0) +
          " identical concurrent requests beyond each burst's first"};
  const double server_p50 = request_us.percentile(0.50);
  const std::string server_note =
      from + "daemon service.request_us, " +
      samples_note(static_cast<std::size_t>(request_us.count));
  lv["service.server_request_us_p50"] = {server_p50, server_note};
  lv["service.server_request_us_p99"] = {request_us.percentile(0.99),
                                         server_note};
  std::vector<double> rtt_us;
  double rtt_s = 0, delay_s = 0, cold_compute_s = 0;
  std::set<std::string> computed;
  for (const Sample& s : hot.samples) {
    rtt_us.push_back(s.rtt_s * 1e6);
    rtt_s += s.rtt_s;
    delay_s += s.delay_s;
    if (parse_response(s.body).source == "computed" &&
        computed.insert(s.query->key).second) {
      cold_compute_s += engine_s[s.query->key];
    }
  }
  lv["service.wire_us_p50"] = {percentile(rtt_us, 0.5) - server_p50,
                               from + "client round-trip p50 minus daemon p50"};
  lv["bench.generator_late_ms_p99"] = {
      ok.late_p99_ms,
      from + "send time minus max(schedule, previous reply)"};
  probe_in_process(hot, work, expected, options.seed, tracer, lv);

  // Self time of the request path: client spans, the daemon's request
  // histogram, and the replayed compute of the cold queries. The wait
  // between a scheduled and an actual send is listed apart.
  const double server_s = request_us.sum * 1e-6;
  std::map<std::string, Tracer::LayerTime> busy;
  busy["client+wire"] = {hot.samples.size(), rtt_s, rtt_s - server_s};
  busy["service handler (daemon)"] = {
      static_cast<std::uint64_t>(request_us.count), server_s,
      server_s - cold_compute_s};
  busy["engine compute (cold, replay)"] = {computed.size(), cold_compute_s,
                                           cold_compute_s};
  print_self_times("hot phase request path, busy", busy);
  print_self_times("hot phase request path, waiting",
                   {{"bench.schedule send delay",
                     {hot.samples.size(), delay_s, delay_s}}});
  print_self_times("hot phase benchmark spans", tracer.self_times());
  write_trace(tracer, options, "hot");
}

}  // namespace perfbench
