#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "service/client.hpp"
#include "service/engine.hpp"
#include "service/query.hpp"

namespace perfbench {
namespace {

constexpr double kReadyTimeoutS = 30;
constexpr double kStopTimeoutS = 60;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// waitpid with a deadline; true when the child was reaped.
bool reap(pid_t pid, double timeout_s, int& status) {
  const auto t0 = Clock::now();
  while (true) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return true;
    if (r < 0) return false;
    if (seconds_since(t0) > timeout_s) return false;
    ::usleep(1000);
  }
}

}  // namespace

Daemon::Daemon(const std::string& tcad, const std::string& dir,
               const std::vector<std::string>& flags,
               const cpu_set_t* cpus) {
  std::filesystem::create_directories(dir);
  socket_ = dir + "/s";
  ready_ = dir + "/ready";
  manifest_ = dir + "/manifest.json";
  log_ = dir + "/tcad.log";
  std::vector<std::string> args = {tcad,         "--socket", socket_,
                                   "--ready-file", ready_,     "--manifest",
                                   manifest_};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The daemon must not outlive the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (cpus != nullptr) ::sched_setaffinity(0, sizeof *cpus, cpus);
    const int fd = ::open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const auto t0 = Clock::now();
  while (!std::filesystem::exists(ready_)) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("tcad exited before it was ready: " +
                               read_file(log_));
    }
    if (seconds_since(t0) > kReadyTimeoutS) {
      throw std::runtime_error("tcad did not become ready");
    }
    ::usleep(200);
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

std::map<std::string, std::uint64_t> Daemon::counters() const {
  tca::service::TcadClient client =
      tca::service::TcadClient::connect_uds(socket_);
  const tca::service::JsonValue v = tca::service::parse_json(
      client.call(R"({"op":"counters","id":0})"));
  std::map<std::string, std::uint64_t> out;
  if (const tca::service::JsonValue* c = v.find("counters")) {
    for (const auto& [name, value] : c->as_object()) {
      out[name] = value.as_u64();
    }
  }
  return out;
}

Daemon::Shutdown Daemon::stop() {
  Shutdown s;
  if (pid_ <= 0) {
    s.detail = "daemon not running";
    return s;
  }
  ::kill(pid_, SIGTERM);
  int status = 0;
  if (!reap(pid_, kStopTimeoutS, status)) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    s.detail = "daemon did not stop within " + fmt(kStopTimeoutS, 0) + " s";
    return s;
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    s.detail = "daemon exit status " + std::to_string(status);
    return s;
  }
  try {
    s.manifest = tca::service::parse_json(read_file(manifest_));
  } catch (const std::exception& e) {
    s.detail = std::string("manifest unreadable: ") + e.what();
    return s;
  }
  bool check_pass = false;
  if (const tca::service::JsonValue* checks = s.manifest.find("checks")) {
    for (const tca::service::JsonValue& c : checks->as_array()) {
      if (c.string_or("id", "") == "clean-shutdown") {
        check_pass = c.string_or("status", "") == "PASS";
        s.detail = c.string_or("detail", "");
      }
    }
  }
  s.clean = check_pass && s.manifest.string_or("status", "") == "PASS";
  return s;
}

double Histogram::percentile(double p) const {
  if (count <= 0) return 0;
  const double rank = p * count;
  double below = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (below + counts[i] >= rank && counts[i] > 0) {
      const double lo = i == 0 ? 0 : bounds[i - 1];
      if (i >= bounds.size()) return lo;  // overflow bucket
      const double frac = (rank - below) / counts[i];
      return lo + (bounds[i] - lo) * frac;
    }
    below += counts[i];
  }
  return bounds.empty() ? 0 : bounds.back();
}

Histogram manifest_histogram(const tca::service::JsonValue& manifest,
                             const std::string& name) {
  Histogram h;
  const tca::service::JsonValue* metrics = manifest.find("metrics");
  const tca::service::JsonValue* hists =
      metrics != nullptr ? metrics->find("histograms") : nullptr;
  const tca::service::JsonValue* v =
      hists != nullptr ? hists->find(name) : nullptr;
  if (v == nullptr) return h;
  for (const tca::service::JsonValue& b : v->find("bounds")->as_array()) {
    h.bounds.push_back(b.as_double());
  }
  for (const tca::service::JsonValue& c : v->find("counts")->as_array()) {
    h.counts.push_back(c.as_double());
  }
  h.count = static_cast<double>(v->u64_or("count", 0));
  h.sum = static_cast<double>(v->u64_or("sum", 0));
  return h;
}

std::map<std::string, std::uint64_t> manifest_counters(
    const tca::service::JsonValue& manifest) {
  std::map<std::string, std::uint64_t> out;
  const tca::service::JsonValue* metrics = manifest.find("metrics");
  const tca::service::JsonValue* c =
      metrics != nullptr ? metrics->find("counters") : nullptr;
  if (c == nullptr) return out;
  for (const auto& [name, value] : c->as_object()) out[name] = value.as_u64();
  return out;
}

Query draw_query(const QueryClass& cls, Rng& rng,
                 std::set<std::string>& seen) {
  for (int attempt = 0; attempt < 100000; ++attempt) {
    std::uint32_t radius = 1 + static_cast<std::uint32_t>(rng.below(2));
    std::string rule;
    switch (rng.below(6)) {
      case 0: rule = R"("majority")"; break;
      case 1: rule = R"("majority1")"; break;
      case 2: rule = R"("parity")"; break;
      case 3:
        rule = R"({"type":"kofn","k":)" +
               std::to_string(1 + rng.below(2 * radius + 1)) + "}";
        break;
      case 4:
        rule = R"({"type":"symmetric","mask":)" +
               std::to_string(1 + rng.below(
                                      tca::service::ServiceQuery::mask_bits(
                                          2 * radius + 1))) +
               "}";
        break;
      default:
        radius = 1;
        rule = R"({"type":"wolfram","code":)" +
               std::to_string(rng.below(256)) + "}";
        break;
    }
    std::string json = std::string(R"({"kind":")") + cls.kind +
                       R"(","n":)" + std::to_string(cls.n) +
                       R"(,"radius":)" + std::to_string(radius) +
                       R"(,"rule":)" + rule + R"(,"topology":")" +
                       (cls.line ? "line" : "ring") + "\"";
    if (cls.sweep) {
      std::vector<std::uint32_t> order(cls.n);
      std::iota(order.begin(), order.end(), 0u);
      while (std::is_sorted(order.begin(), order.end())) {
        for (std::size_t i = order.size() - 1; i > 0; --i) {
          std::swap(order[i], order[rng.below(i + 1)]);
        }
      }
      json += R"(,"scheme":"sweep","order":[)";
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (i != 0) json += ',';
        json += std::to_string(order[i]);
      }
      json += "]";
    }
    if (std::string(cls.kind) == "preimage-count") {
      json += R"(,"target":)" +
              std::to_string(rng.below(std::uint64_t{1} << cls.n));
    }
    json += "}";
    const tca::service::ServiceQuery q = tca::service::ServiceQuery::from_json(
        tca::service::parse_json(json));
    q.validate();
    std::string key = q.canonical_key();
    if (seen.insert(key).second) {
      return {std::move(json), std::move(key), cls.kind, cls.n};
    }
  }
  throw std::runtime_error("query generator exhausted its class");
}

std::string request_frame(std::uint64_t id, const std::string& query_json) {
  return R"({"op":"query","id":)" + std::to_string(id) +
         R"(,"query":)" + query_json + "}";
}

Response parse_response(const std::string& body) {
  Response r;
  try {
    const tca::service::JsonValue v = tca::service::parse_json(body);
    r.status = v.string_or("status", "");
    r.source = v.string_or("source", "");
  } catch (const std::exception&) {
    return r;  // not a response frame
  }
  // "result" is the last member of a query response.
  const std::size_t pos = body.find("\"result\":");
  if (pos != std::string::npos && body.size() > pos + 10) {
    r.result = body.substr(pos + 9, body.size() - pos - 10);
  }
  return r;
}

std::map<std::string, std::string> replay(
    const std::vector<Query>& queries, unsigned threads,
    std::map<std::string, double>* seconds) {
  tca::service::EngineOptions options;
  options.max_concurrent_builds = threads;
  tca::service::QueryEngine engine{options};
  std::vector<std::string> results(queries.size());
  std::vector<double> times(queries.size(), 0);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < queries.size();
         i = next.fetch_add(1)) {
      try {
        const tca::service::ServiceQuery q =
            tca::service::ServiceQuery::from_json(
                tca::service::parse_json(queries[i].json));
        const auto t0 = Clock::now();
        const tca::service::QueryOutcome out =
            engine.execute(q, tca::service::RequestBudget{}, {});
        times[i] = seconds_since(t0);
        results[i] = out.ok() ? out.result.to_json() : "";
      } catch (const std::exception&) {
        results[i] = "";  // an empty expectation never matches
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  std::map<std::string, std::string> out;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    out[queries[i].key] = results[i];
    if (seconds != nullptr) (*seconds)[queries[i].key] = times[i];
  }
  return out;
}

CpuSplit split_cpus() {
  CpuSplit out;
  cpu_set_t all;
  CPU_ZERO(&all);
  CPU_ZERO(&out.generator);
  CPU_ZERO(&out.daemon);
  if (::sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2) {
    return out;
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) last = cpu;
  }
  out.daemon = all;
  CPU_CLR(last, &out.daemon);
  CPU_SET(last, &out.generator);
  out.split = true;
  return out;
}

unsigned connection_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
