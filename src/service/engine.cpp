#include "service/engine.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phasespace/classify.hpp"
#include "phasespace/preimage.hpp"
#include "phasespace/sharded_build.hpp"
#include "phasespace/supervised.hpp"
#include "runtime/error.hpp"

namespace tca::service {
namespace {

namespace fs = std::filesystem;

/// The store directory is named by the query digest; a `key` file holding
/// the canonical key stops a digest collision from seeding another query's
/// build: a foreign or missing key wipes the directory first.
void claim_store_dir(const fs::path& dir, const std::string& key) {
  std::string held;
  if (std::ifstream in{dir / "key", std::ios::binary}) {
    held.assign(std::istreambuf_iterator<char>(in), {});
  }
  if (held == key) return;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  std::ofstream(dir / "key", std::ios::binary) << key;
}

/// Derives the typed result from a completed explicit graph. Every path
/// is storage-generic: random access goes through FunctionalGraph::succ
/// and whole-table scans stream via SuccessorStore::for_each_range, so
/// the same code serves the flat, packed, and disk backends
/// (docs/service.md "storage backends").
QueryResult result_from_graph(const ServiceQuery& query,
                              const phasespace::FunctionalGraph& fg) {
  QueryResult r;
  r.kind = query.kind;
  r.num_states = fg.num_states();
  switch (query.kind) {
    case QueryKind::kAttractorSummary:
    case QueryKind::kTransientDepth: {
      const phasespace::Classification c = phasespace::classify(fg);
      r.num_attractors = c.attractors.size();
      r.num_fixed_points = c.num_fixed_points;
      r.num_cycle_states = c.num_cycle_states;
      r.num_transient_states = c.num_transient_states;
      r.num_gardens_of_eden = c.num_gardens_of_eden;
      r.max_period = c.max_period();
      r.max_transient = c.max_transient;
      r.cycle_lengths.assign(c.cycle_length_histogram.begin(),
                             c.cycle_length_histogram.end());
      break;
    }
    case QueryKind::kGoeCensus: {
      runtime::RunControl unlimited{runtime::RunBudget{}};
      r.gardens = phasespace::count_gardens_of_eden(fg.store(), unlimited)
                      .gardens;
      r.scanned = fg.num_states();
      break;
    }
    case QueryKind::kPreimageCount: {
      std::uint64_t count = 0;
      fg.store().for_each_range(
          [&](phasespace::StateCode, std::size_t n,
              const phasespace::StateCode* block) {
            for (std::size_t i = 0; i < n; ++i) {
              count += block[i] == query.target ? 1 : 0;
            }
          });
      r.preimage_count = count;
      r.is_garden_of_eden = count == 0;
      r.method = "explicit";
      break;
    }
  }
  return r;
}

}  // namespace

runtime::SupervisorOptions RequestBudget::supervise(
    runtime::SupervisorOptions options, runtime::CancelToken token) const {
  options.attempt_budget = runtime::RunBudget{};
  options.attempt_budget.max_states = max_states;
  if (wall_ms != 0) {
    options.attempt_budget.wall_limit = std::chrono::milliseconds(wall_ms);
    options.deadline = std::chrono::milliseconds(wall_ms);
  }
  options.token = std::move(token);
  return options;
}

/// FIFO-ish admission: holds one of max_concurrent_builds slots for the
/// lifetime of the object; the wait is recorded in
/// service.admission.wait_us.
class QueryEngine::AdmissionSlot {
 public:
  explicit AdmissionSlot(QueryEngine& engine) : engine_(engine) {
    static obs::Histogram& wait_us = obs::histogram(
        "service.admission.wait_us", obs::default_latency_bounds_us());
    const auto t0 = std::chrono::steady_clock::now();
    {
      LockGuard lock(engine_.mu_);
      while (engine_.active_builds_ >= engine_.options_.max_concurrent_builds) {
        engine_.cv_.wait(lock);
      }
      ++engine_.active_builds_;
      ++engine_.builds_started_;
    }
    wait_us.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }

  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

  ~AdmissionSlot() {
    {
      LockGuard lock(engine_.mu_);
      --engine_.active_builds_;
    }
    engine_.cv_.notify_one();
  }

 private:
  QueryEngine& engine_;
};

QueryEngine::QueryEngine(EngineOptions options)
    : options_([&] {
        options.max_concurrent_builds =
            std::max<std::uint32_t>(options.max_concurrent_builds, 1);
        options.ckpt_every_states =
            std::max<std::uint64_t>(options.ckpt_every_states, 1024);
        return options;
      }()) {}

std::uint64_t QueryEngine::builds_started() const {
  LockGuard lock(mu_);
  return builds_started_;
}

QueryOutcome QueryEngine::execute(const ServiceQuery& query,
                                  const RequestBudget& budget,
                                  runtime::CancelToken token) {
  TCA_SPAN("service_execute");
  if (query.kind == QueryKind::kPreimageCount && !query.needs_explicit_graph()) {
    return run_preimage_transfer_matrix(query);
  }
  if (query.kind == QueryKind::kGoeCensus &&
      query.scheme == Scheme::kSynchronous) {
    return run_goe_supervised(query, budget, token);
  }
  return run_explicit(query, budget, std::move(token));
}

QueryOutcome QueryEngine::run_preimage_transfer_matrix(
    const ServiceQuery& query) const {
  TCA_SPAN("service_preimage_tm");
  QueryOutcome out;
  const phasespace::RingPreimageSolver solver(
      query.rule.materialize(2 * query.radius + 1), query.radius,
      core::Memory::kWith);
  const core::Configuration target =
      core::Configuration::from_bits(query.target, query.n);
  const std::uint64_t count = solver.count(target);
  out.status = QueryOutcome::Status::kOk;
  out.result.kind = query.kind;
  out.result.num_states = std::uint64_t{1} << query.n;
  out.result.preimage_count = count;
  out.result.is_garden_of_eden = count == 0;
  out.result.method = "transfer-matrix";
  out.states_done = out.states_total = out.result.num_states;
  return out;
}

QueryOutcome QueryEngine::run_goe_supervised(const ServiceQuery& query,
                                             const RequestBudget& budget,
                                             runtime::CancelToken token) {
  TCA_SPAN("service_goe_census");
  static obs::Counter& supervised = obs::counter("service.engine.supervised");
  static obs::Counter& truncated = obs::counter("service.engine.truncated");
  static obs::Counter& failed = obs::counter("service.engine.failed");

  const AdmissionSlot slot(*this);
  supervised.add();

  const core::Automaton a = query.automaton();
  const phasespace::SupervisedGoeCensus sup =
      phasespace::supervised_goe_census(
          a, budget.supervise(options_.supervisor, std::move(token)));

  QueryOutcome out;
  out.degraded = sup.report.degraded;
  out.states_total = std::uint64_t{1} << query.n;
  out.stop_reason = sup.census.stop_reason;
  if (!sup.report.ok()) {
    out.status = QueryOutcome::Status::kFailed;
    out.error_code = sup.report.last_error;
    out.error = sup.report.last_error_what;
    failed.add();
    return out;
  }
  if (sup.census.truncated) {
    out.status = QueryOutcome::Status::kTruncated;
    truncated.add();
    return out;
  }
  out.status = QueryOutcome::Status::kOk;
  out.states_done = out.states_total;
  out.result.kind = query.kind;
  out.result.num_states = out.states_total;
  out.result.gardens = sup.census.gardens;
  out.result.scanned = sup.census.scanned;
  return out;
}

QueryOutcome QueryEngine::run_explicit(const ServiceQuery& query,
                                       const RequestBudget& budget,
                                       runtime::CancelToken token) {
  TCA_SPAN("service_explicit_build");
  static obs::Counter& builds = obs::counter("service.engine.builds");
  static obs::Counter& small_n = obs::counter("service.engine.small_n");
  static obs::Counter& supervised = obs::counter("service.engine.supervised");
  static obs::Counter& truncated = obs::counter("service.engine.truncated");
  static obs::Counter& failed = obs::counter("service.engine.failed");
  static obs::Counter& resume_saved = obs::counter("service.resume.saved");
  static obs::Counter& resume_resumed = obs::counter("service.resume.resumed");

  std::optional<AdmissionSlot> slot(std::in_place, *this);
  builds.add();

  const core::Automaton a = query.automaton();
  QueryOutcome out;
  out.states_total = std::uint64_t{1} << query.n;

  phasespace::StoreKind store_kind = options_.store;
  if (store_kind == phasespace::StoreKind::kDisk &&
      options_.ckpt_dir.empty()) {
    obs::log_event(obs::LogLevel::kWarn, "service.store.fallback",
                   {{"reason", "disk backend needs ckpt_dir"},
                    {"fallback", "flat"}});
    store_kind = phasespace::StoreKind::kFlat;
  }

  // A resumable build writes through: each shard goes into the configured
  // store and is spilled as a digested extent under
  // ckpt_dir/store/<digest>, with a manifest every ckpt_every_states
  // states; the next identical request builds only the missing shards.
  const bool small = query.n <= options_.small_n_bits;
  const bool resumable = !small && !options_.ckpt_dir.empty();
  phasespace::ShardedBuildOptions build_options;
  build_options.store = store_kind;
  if (resumable || store_kind == phasespace::StoreKind::kDisk) {
    build_options.disk_dir =
        (fs::path(options_.ckpt_dir) / "store" / query.digest()).string();
  }
  if (resumable) {
    claim_store_dir(build_options.disk_dir, query.canonical_key());
    build_options.resume = true;
    build_options.publish_every_states = options_.ckpt_every_states;
  }
  std::vector<core::NodeId> sweep_order;
  if (query.scheme == Scheme::kSweep) sweep_order = query.effective_order();

  runtime::SupervisorOptions opts =
      budget.supervise(options_.supervisor, std::move(token));
  if (small) {
    small_n.add();
    opts.retry.max_attempts = 1;  // one shot: recomputing beats retrying
  } else {
    supervised.add();
  }
  phasespace::SupervisedShardedBuild sup = phasespace::supervised_sharded(
      a, std::move(sweep_order), build_options, opts);
  out.degraded = sup.report.degraded;
  resume_saved.add(sup.build.stats.manifests);
  if (!sup.report.ok()) {
    out.status = QueryOutcome::Status::kFailed;
    out.error_code = sup.report.last_error;
    out.error = sup.report.last_error_what;
    failed.add();
    return out;
  }
  phasespace::ShardedBuild build = std::move(sup.build);

  out.resumed = build.stats.resumed_states != 0;
  if (out.resumed) {
    resume_resumed.add();
    obs::log_event(obs::LogLevel::kInfo, "service.resume",
                   {{"key", query.canonical_key()},
                    {"resumed_states", build.stats.resumed_states},
                    {"total", out.states_total}});
  }
  if (!build.complete()) {
    // Only whole shards named by the manifest survive a truncation;
    // they are exactly what the next identical request skips.
    out.status = QueryOutcome::Status::kTruncated;
    out.stop_reason = build.build.status.stop_reason;
    if (resumable) out.states_done = build.stats.stored_states;
    out.resumable = out.states_done != 0;
    truncated.add();
    return out;
  }

  out.states_done = out.states_total;
  std::optional<phasespace::FunctionalGraph> fg = std::move(build.build.graph);
  build.store.reset();
  {
    TCA_SPAN("derive");
    static obs::Histogram& derive_us = obs::histogram(
        "service.stage.derive_us", obs::default_latency_bounds_us());
    const auto t0 = std::chrono::steady_clock::now();
    out.result = result_from_graph(query, *fg);
    derive_us.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  out.status = QueryOutcome::Status::kOk;

  // The spilled extents are resume state and scratch space, not a cache
  // (the RESULT cache lives in front of the engine); reclaim them after
  // handing the slot on, so the unlink delays no queued build.
  fg.reset();  // release the table and unmap before unlinking
  slot.reset();
  if (!build_options.disk_dir.empty()) {
    std::error_code ec;
    fs::remove_all(build_options.disk_dir, ec);
  }
  return out;
}

}  // namespace tca::service
