// tcad-cold — distinct queries against a spawned tcad, closed loop.
//
// One client per CPU, each sending its next query when the previous one
// answers (callers wait for their answer). There are more clients than
// the daemon's two admission slots, so admission queueing shows. Every
// query is distinct, so none hits the cache. The load runs in rounds: in
// each, every client walks one cycle of 12 query classes, and the next
// round starts when all have finished. Most classes are at n in {18, 20,
// 22} (the supervised, checkpointed path, where checkpoint saves
// dominate); two are at n <= 16 (the direct path). The seed draws the
// rule, radius, sweep order and target inside each class, which changes
// the answers but not the amount of work, so every round and every seed
// carries the same load.

#include <atomic>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "daemon.hpp"
#include "service/client.hpp"
#include "service/engine.hpp"
#include "service/query.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr QueryClass kCycle[] = {
    {"attractor-summary", 22, false, false},
    {"attractor-summary", 20, false, false},
    {"transient-depth", 20, false, false},
    {"goe-census", 20, true, false},
    {"preimage-count", 20, false, true},
    {"preimage-count", 20, true, false},
    {"goe-census", 20, false, false},
    {"attractor-summary", 18, true, false},
    {"transient-depth", 18, false, true},
    {"goe-census", 18, true, false},
    {"attractor-summary", 16, false, false},
    {"preimage-count", 14, false, true},
};
constexpr std::size_t kCycleLen = sizeof kCycle / sizeof kCycle[0];
constexpr std::size_t kQueriesPerClient = 400;
constexpr std::size_t kMinRequests = 100;
constexpr int kSetupRepeats = 3;
constexpr double kLatencyLimitS = 10;

/// Per-client query lists: client c's k-th query is of class k mod 12.
/// Every client opens each round with an n = 22 build, so the slow part
/// of a round (four builds, and the requests queued behind them) is an
/// eighth of its requests: p90 falls among the builds, not on the edge
/// between them and the rest, and every round reaches the same memory
/// peak.
std::vector<std::vector<Query>> make_lists(std::uint64_t seed,
                                           unsigned clients) {
  std::set<std::string> seen;
  std::vector<std::vector<Query>> lists(clients);
  for (unsigned c = 0; c < clients; ++c) {
    Rng rng = make_rng(seed, 100 + c);
    for (std::size_t k = 0; k < kQueriesPerClient; ++k) {
      lists[c].push_back(draw_query(kCycle[k % kCycleLen], rng, seen));
    }
  }
  return lists;
}

struct Sample {
  const Query* query = nullptr;
  std::size_t round = 0;
  double latency_s = 0;
  std::string body;
};

struct Phase {
  std::vector<Sample> samples;
  std::vector<double> round_s;  ///< wall time of each round
  double setup_s = 0;
  double peak_rss_mib = 0;
  std::map<std::string, std::uint64_t> counters;
  Daemon::Shutdown shutdown;
  std::vector<std::vector<Query>> lists;
};

std::vector<std::string> daemon_flags(const std::string& dir,
                                      unsigned clients) {
  return {"--workers", std::to_string(clients), "--cache-dir", dir + "/cache",
          "--ckpt-dir", dir + "/ckpt"};
}

/// Set-up (input generation, spawn, ready) repeated; the last daemon
/// serves the timed phase. Returns the median set-up time.
double set_up(const Options& options, const WorkDir& work, const char* tag,
              unsigned clients, std::unique_ptr<Daemon>& daemon,
              std::vector<std::vector<Query>>& lists, bool& clean) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (daemon) {
      clean = daemon->stop().clean && clean;
      daemon.reset();
    }
    const std::string dir =
        work.path() + "/" + tag + "-" + std::to_string(i);
    const auto t0 = Clock::now();
    lists = make_lists(options.seed, clients);
    daemon = std::make_unique<Daemon>(options.tcad, dir,
                                      daemon_flags(dir, clients));
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

Phase timed_phase(const Options& options, const WorkDir& work,
                  const char* tag, Tracer& tracer, bool& clean) {
  const unsigned clients = connection_count();
  Phase phase;
  std::unique_ptr<Daemon> daemon;
  phase.setup_s =
      set_up(options, work, tag, clients, daemon, phase.lists, clean);

  // Rounds: in each, every client walks one full cycle of its list; the
  // next round starts when all have finished. Every round carries the same
  // mix, so where the clock runs out does not change what was measured.
  std::vector<std::vector<Sample>> per_client(clients);
  std::atomic<unsigned> connected{0};
  std::atomic<bool> go{false};
  bool more = true;
  std::size_t round = 0;
  Clock::time_point t0, end;
  std::barrier sync(static_cast<std::ptrdiff_t>(clients), [&]() noexcept {
    const auto now = Clock::now();
    phase.round_s.push_back(seconds_between(round == 0 ? t0 : end, now));
    end = now;
    ++round;
    more = seconds_between(t0, end) < options.seconds &&
           (round + 1) * kCycleLen <= kQueriesPerClient;
  });
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::optional<tca::service::TcadClient> client;
      try {
        client = tca::service::TcadClient::connect_uds(daemon->socket());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "tcad-cold: connect: %s\n", e.what());
      }
      connected.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const std::vector<Query>& list = phase.lists[c];
      while (more) {
        for (std::size_t k = round * kCycleLen; k < (round + 1) * kCycleLen;
             ++k) {
          const std::string frame = request_frame(k, list[k].json);
          const auto sent = Clock::now();
          std::string body;
          try {
            if (client) body = client->call(frame);
          } catch (const std::exception& e) {
            body = e.what();  // not a response: fails the check
            client.reset();
          }
          const auto done = Clock::now();
          tracer.record(c, "tcad.request", sent, done, -1,
                        (std::uint64_t{c} << 32) | k);
          per_client[c].push_back(
              {&list[k], round, seconds_between(sent, done), std::move(body)});
        }
        sync.arrive_and_wait();
      }
    });
  }
  while (connected.load() < clients) std::this_thread::yield();
  t0 = Clock::now();
  go.store(true);
  for (std::thread& t : threads) t.join();
  for (std::vector<Sample>& v : per_client) {
    for (Sample& s : v) phase.samples.push_back(std::move(s));
  }
  phase.counters = daemon->counters();
  phase.peak_rss_mib = peak_rss_mib(std::to_string(daemon->pid()));
  phase.shutdown = daemon->stop();
  clean = clean && phase.shutdown.clean;
  if (!phase.shutdown.clean) {
    std::fprintf(stderr, "tcad-cold: unclean daemon shutdown: %s\n",
                 phase.shutdown.detail.c_str());
  }
  return phase;
}

struct Checked {
  std::uint64_t failed = 0;
  std::vector<bool> ok;  ///< per sample
};

Checked check(const Phase& phase,
              const std::map<std::string, std::string>& expected) {
  Checked out;
  for (const Sample& s : phase.samples) {
    const Response r = parse_response(s.body);
    const auto it = expected.find(s.query->key);
    const bool ok = r.status == "ok" && r.source == "computed" &&
                    it != expected.end() && !it->second.empty() &&
                    r.result == it->second;
    if (!ok) {
      ++out.failed;
      std::fprintf(stderr, "tcad-cold: bad response to %s: %s\n",
                   s.query->json.c_str(), s.body.c_str());
    }
    out.ok.push_back(ok);
  }
  return out;
}

/// Every distinct query the phases sent (the traced phase resends the
/// untraced phase's queries: same seed, fresh daemon).
std::vector<Query> distinct_sent(const Phase& a, const Phase& b) {
  std::vector<Query> out;
  std::set<std::string> keys;
  for (const Phase* p : {&a, &b}) {
    for (const Sample& s : p->samples) {
      if (keys.insert(s.query->key).second) out.push_back(*s.query);
    }
  }
  return out;
}

double states(const Sample& s) {
  return static_cast<double>(std::uint64_t{1} << s.query->n);
}

}  // namespace

void run_tcad_cold(const Options& options, RunResult& result) {
  if (options.dump_inputs) {
    const auto lists = make_lists(options.seed, connection_count());
    for (std::size_t c = 0; c < lists.size(); ++c) {
      for (std::size_t k = 0; k < 24; ++k) {
        std::printf("client %zu #%zu %s\n", c, k, lists[c][k].json.c_str());
      }
    }
    dump_hot_inputs(options);
    return;
  }
  WorkDir work(options.out_dir, "tcad-cold");
  bool clean = true;
  Tracer off(false, connection_count());
  const Phase plain = timed_phase(options, work, "plain", off, clean);
  Tracer tracer(options.trace, connection_count());
  Phase traced;
  if (options.trace) {
    traced = timed_phase(options, work, "traced", tracer, clean);
  }

  // Output checks, after the timed phases and outside every timing. The
  // traced run replays on one thread so the replay also times the engine.
  std::map<std::string, double> engine_s;
  const std::map<std::string, std::string> expected =
      replay(distinct_sent(plain, traced),
             options.trace ? 1 : connection_count(), &engine_s);
  const Checked plain_ok = check(plain, expected);
  const Checked traced_ok = check(traced, expected);
  result.attempted = plain.samples.size() + traced.samples.size();
  result.failed = plain_ok.failed + traced_ok.failed;
  result.correct = result.failed == 0 && clean;
  const Phase* const phases[] = {&plain, &traced};
  for (const Phase* p : phases) {
    if (p == &traced && !options.trace) continue;
    if (p->samples.size() < kMinRequests) {
      result.valid = false;
      result.invalid_reason = "only " + std::to_string(p->samples.size()) +
                              " requests completed; p90 needs " +
                              std::to_string(kMinRequests);
    }
  }

  const auto rounds = [](const Phase& p, const Checked& ok) {
    std::vector<Group> groups(p.round_s.size());
    for (std::size_t i = 0; i < p.samples.size(); ++i) {
      const Sample& s = p.samples[i];
      Group& g = groups[s.round];
      g.wall_s = p.round_s[s.round];
      g.states += states(s);
      g.latency_ms.push_back(s.latency_s * 1e3);
      ++g.attempted;
      if (ok.ok[i] && s.latency_s <= kLatencyLimitS) ++g.good;
    }
    return groups;
  };
  const auto rps = [&](const Phase& p, const Checked& ok) {
    EndToEnd e;
    summarize(rounds(p, ok), "rounds", "requests", e);
    return e.requests_per_s;
  };
  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = plain.setup_s;
    summarize(rounds(plain, plain_ok), "rounds", "requests", e2e);
    e2e.peak_rss_mib = plain.peak_rss_mib;
    e2e.latency_limit = fmt(kLatencyLimitS, 0) + " s";
    e2e.rss_process = "tcad daemon";
    add_end_to_end(result.report, e2e);
    print_host(options, dispatched_isa(plain.counters));
    return;
  }

  // Per-layer attribution from the traced phase.
  const tca::service::JsonValue& manifest = traced.shutdown.manifest;
  const std::map<std::string, std::uint64_t> counters =
      manifest_counters(manifest);
  const auto counter = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const Histogram request_us = manifest_histogram(manifest,
                                                  "service.request_us");
  const Histogram wait_us =
      manifest_histogram(manifest, "service.admission.wait_us");
  const Histogram ckpt_bytes = manifest_histogram(manifest,
                                                  "checkpoint.bytes");

  LayerValues lv;
  double total_states = 0, total_rtt_s = 0, compute_s = 0;
  std::map<std::string, std::vector<double>> by_kind_ms;
  for (const Sample& s : traced.samples) {
    total_states += states(s);
    total_rtt_s += s.latency_s;
    const double e = engine_s[s.query->key];
    compute_s += e;
    by_kind_ms[s.query->kind].push_back(e * 1e3);
  }
  const std::string reqs = samples_note(traced.samples.size());
  lv["runtime.ckpt_saves"] = {
      counter("service.resume.saved"),
      "service.resume.saved; checkpoint.saves=" +
          fmt(counter("checkpoint.saves"), 0) + ", " + reqs};
  lv["runtime.ckpt_bytes_per_state"] = {
      ckpt_bytes.sum / total_states,
      "checkpoint.bytes sum over sum of 2^n of " + reqs};
  lv["runtime.supervisor_retries"] = {counter("supervisor.retries"), reqs};
  for (const auto& [kind, ms] : by_kind_ms) {
    lv["service.engine_execute_ms_p50." + kind] = {
        median(ms), "in-process QueryEngine::execute, no checkpoints, " +
                        samples_note(ms.size())};
  }

  // Checkpoint cost in process: one cycle of client 0's queries with and
  // without a checkpoint directory.
  {
    const std::vector<Query> cycle(traced.lists[0].begin(),
                                   traced.lists[0].begin() + kCycleLen);
    std::map<std::string, double> without;
    (void)replay(cycle, 1, &without);
    WorkDir ckpt(work.path(), "engine-ckpt");
    tca::service::EngineOptions with_ckpt;
    with_ckpt.ckpt_dir = ckpt.path();
    tca::service::QueryEngine engine{with_ckpt};
    double with_s = 0, without_s = 0;
    for (const Query& q : cycle) {
      const auto parsed = tca::service::ServiceQuery::from_json(
          tca::service::parse_json(q.json));
      const auto t0 = Clock::now();
      {
        ScopedSpan span(tracer, 0, "service.engine.execute+ckpt");
        (void)engine.execute(parsed, tca::service::RequestBudget{}, {});
      }
      with_s += seconds_since(t0);
      without_s += without[q.key];
    }
    lv["service.engine_ckpt_ratio"] = {
        with_s / without_s,
        "QueryEngine::execute with ckpt_dir over without, " +
            std::to_string(kCycleLen) + " queries (one client cycle)"};
  }
  lv["service.admission_wait_ms_p90"] = {
      wait_us.percentile(0.90) / 1e3,
      "daemon service.admission.wait_us, " +
          samples_note(static_cast<std::size_t>(wait_us.count))};
  lv["bench.trace_overhead_ratio"] = {rps(plain, plain_ok) /
                                          rps(traced, traced_ok),
                                      "untraced over traced requests_per_s"};

  // Self time of the request path, summed over the traced phase. Spans
  // come from the client; the daemon's histograms split its part; the
  // in-process replay gives the compute without checkpoints; what remains
  // of the daemon's busy time is checkpointing (plus cache writes).
  // Waiting for an admission slot is listed apart from busy time.
  const double server_s = request_us.sum * 1e-6;
  const double wait_s = wait_us.sum * 1e-6;
  const double ckpt_s = server_s - wait_s - compute_s;
  std::map<std::string, Tracer::LayerTime> busy;
  busy["client+wire"] = {traced.samples.size(), total_rtt_s,
                         total_rtt_s - server_s};
  busy["engine build+derive (replay)"] = {traced.samples.size(), compute_s,
                                          compute_s};
  busy["runtime.checkpoint (residual)"] = {
      static_cast<std::uint64_t>(counter("service.resume.saved")), ckpt_s,
      ckpt_s};
  print_self_times("tcad-cold request path, busy (traced phase)", busy);
  print_self_times(
      "tcad-cold request path, waiting (traced phase)",
      {{"service.admission wait", {static_cast<std::uint64_t>(wait_us.count),
                                   wait_s, wait_s}}});
  print_self_times("tcad-cold benchmark spans", tracer.self_times());
  write_trace(tracer, options);

  // The cache, coalescer, handler, server and wire layers are measured in
  // a hot-cache phase after the cold one (hot_phase.cpp).
  run_hot_phase(options, work.path(), lv, result);
  add_per_layer(result.report, lv);
  print_host(options, dispatched_isa(counters));
}

}  // namespace perfbench
