#include "testing/oracles.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "aca/aca.hpp"
#include "aca/explorer.hpp"
#include "analysis/energy.hpp"
#include "core/batch_isa.hpp"
#include "core/batch_kernels.hpp"
#include "core/block_sequential.hpp"
#include "core/schedule.hpp"
#include "core/sequential.hpp"
#include "core/synchronous.hpp"
#include "core/synchronous_fast.hpp"
#include "core/thread_pool.hpp"
#include "core/threaded.hpp"
#include "graph/properties.hpp"
#include "phasespace/classify.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/sharded_build.hpp"
#include "phasespace/successor_store.hpp"
#include "phasespace/supervised.hpp"
#include "runtime/budget.hpp"
#include "runtime/fault.hpp"
#include "runtime/supervisor.hpp"
#include "service/handler.hpp"
#include "service/json_parse.hpp"
#include "service/query.hpp"

namespace tca::testing {
namespace {

using core::Automaton;
using core::Configuration;

/// Shared pool for the threaded engine path; sized past one worker even on
/// single-core machines so the fork-join handoff is actually exercised.
core::ThreadPool& shared_pool() {
  static core::ThreadPool pool(3);
  return pool;
}

/// Largest n whose phase space (2^n states) we enumerate explicitly.
constexpr std::uint32_t kExplicitBits = 12;

PropertyResult check_engines_agree(const TestCase& tc) {
  const auto a = tc.automaton();
  Configuration current = tc.configuration();
  Configuration generic(a.size()), fast(a.size()), threaded(a.size());
  for (std::uint32_t t = 0; t < tc.steps; ++t) {
    core::step_synchronous(a, current, generic);
    core::step_synchronous_fast(a, current, fast);
    if (fast != generic) {
      return PropertyResult::fail(
          "step_synchronous_fast diverges from step_synchronous at step " +
          std::to_string(t) + ": " + fast.to_string() + " vs " +
          generic.to_string());
    }
    core::step_synchronous_threaded(a, current, threaded, shared_pool());
    if (threaded != generic) {
      return PropertyResult::fail(
          "step_synchronous_threaded diverges from step_synchronous at step " +
          std::to_string(t) + ": " + threaded.to_string() + " vs " +
          generic.to_string());
    }
    Configuration block = current;
    core::step_block_sequential(a, block,
                                core::BlockOrder::synchronous(a.size()));
    if (block != generic) {
      return PropertyResult::fail(
          "trivial-block block_sequential diverges from step_synchronous at "
          "step " + std::to_string(t) + ": " + block.to_string() + " vs " +
          generic.to_string());
    }
    current = generic;
  }
  return PropertyResult::pass();
}

PropertyResult check_sweep_consistency(const TestCase& tc) {
  const auto a = tc.automaton();
  std::mt19937_64 rng(tc.seed ^ 0x5eedf00dull);
  const auto order = core::random_permutation(a.size(), rng);

  Configuration via_sequence = tc.configuration();
  core::apply_sequence(a, via_sequence, order);

  Configuration via_blocks = tc.configuration();
  core::step_block_sequential(a, via_blocks,
                              core::BlockOrder::sequential(order));

  Configuration via_updates = tc.configuration();
  for (const auto v : order) core::update_node(a, via_updates, v);

  if (via_sequence != via_blocks) {
    return PropertyResult::fail(
        "apply_sequence vs singleton-block block_sequential: " +
        via_sequence.to_string() + " vs " + via_blocks.to_string());
  }
  if (via_sequence != via_updates) {
    return PropertyResult::fail("apply_sequence vs update_node chain: " +
                                via_sequence.to_string() + " vs " +
                                via_updates.to_string());
  }
  return PropertyResult::pass();
}

PropertyResult check_sca_no_cycle(const TestCase& tc) {
  if (!tc.rule.monotone_symmetric()) return PropertyResult::pass();
  const auto a = tc.automaton();
  std::mt19937_64 rng(tc.seed ^ 0xc0ffeeull);

  // Certificate 1 (exhaustive, n small): the one-sweep phase space of ANY
  // fixed permutation has no proper cycle — Theorem 1 over all 2^n starts.
  if (tc.n <= kExplicitBits) {
    const auto order = core::random_permutation(a.size(), rng);
    const auto cls = phasespace::classify(
        phasespace::FunctionalGraph::sweep(a, order));
    if (cls.max_period() > 1) {
      return PropertyResult::fail(
          "sequential sweep phase space has a proper cycle of period " +
          std::to_string(cls.max_period()));
    }
  }

  // Certificate 2 (trajectory): a bounded-fair random schedule converges
  // from the case's start configuration.
  Configuration c = tc.configuration();
  core::RandomSweepSchedule schedule(a.size(), rng());
  if (!core::run_schedule_to_fixed_point(a, c, schedule, 100000).has_value()) {
    return PropertyResult::fail(
        "bounded-fair random schedule failed to reach a fixed point within "
        "100000 updates");
  }
  return PropertyResult::pass();
}

PropertyResult check_energy_descent(const TestCase& tc) {
  if (tc.rule.kind != RuleSpec::Kind::kKOfN) return PropertyResult::pass();
  const auto net = analysis::ThresholdNetwork::homogeneous(
      tc.space(), tc.rule.k, tc.memory == core::Memory::kWith);
  const auto a = net.automaton();
  auto c = tc.configuration();
  std::mt19937_64 rng(tc.seed ^ 0xe4e26eull);
  for (std::uint32_t step = 0; step < 64; ++step) {
    const auto before = analysis::sequential_energy(net, c);
    const auto v = static_cast<core::NodeId>(rng() % a.size());
    if (core::update_node(a, c, v)) {
      const auto after = analysis::sequential_energy(net, c);
      if (after > before - 1) {
        return PropertyResult::fail(
            "changing update of node " + std::to_string(v) +
            " moved the Goles-Martinez energy from " +
            std::to_string(before) + " to " + std::to_string(after) +
            " (must drop by >= 1)");
      }
    }
  }
  return PropertyResult::pass();
}

PropertyResult check_parallel_period(const TestCase& tc) {
  if (!tc.rule.monotone_symmetric() || tc.n > kExplicitBits) {
    return PropertyResult::pass();
  }
  const auto a = tc.automaton();
  const auto cls =
      phasespace::classify(phasespace::FunctionalGraph::synchronous(a));
  if (cls.max_period() > 2) {
    return PropertyResult::fail(
        "parallel threshold CA has an attractor of period " +
        std::to_string(cls.max_period()) + " (Proposition 1 bound is 2)");
  }
  return PropertyResult::pass();
}

PropertyResult check_bipartite_two_cycle(const TestCase& tc) {
  // Envelope: memoryless k-of-n with k <= min degree on a bipartite
  // substrate with both sides populated.
  if (tc.memory != core::Memory::kWithout ||
      tc.rule.kind != RuleSpec::Kind::kKOfN || tc.n == 0) {
    return PropertyResult::pass();
  }
  const auto g = tc.space();
  const auto coloring = graph::bipartition(g);
  if (!coloring.has_value()) return PropertyResult::pass();
  graph::NodeId min_deg = g.degree(0);
  for (graph::NodeId v = 1; v < tc.n; ++v) {
    min_deg = std::min(min_deg, g.degree(v));
  }
  if (min_deg < 1 || tc.rule.k > min_deg) return PropertyResult::pass();

  const auto a = tc.automaton();
  Configuration side0(tc.n), side1(tc.n);
  for (graph::NodeId v = 0; v < tc.n; ++v) {
    side0.set(v, (*coloring)[v] == 0 ? 1 : 0);
    side1.set(v, (*coloring)[v] == 1 ? 1 : 0);
  }
  if (side0 == side1) return PropertyResult::pass();  // one side empty

  const auto after_one = core::step_synchronous(a, side0);
  if (after_one != side1) {
    return PropertyResult::fail(
        "one parallel step from the side-0 indicator gave " +
        after_one.to_string() + ", expected the side-1 indicator " +
        side1.to_string());
  }
  const auto after_two = core::step_synchronous(a, after_one);
  if (after_two != side0) {
    return PropertyResult::fail(
        "bipartition indicator is not on a two-cycle: step^2 gave " +
        after_two.to_string() + ", expected " + side0.to_string());
  }
  return PropertyResult::pass();
}

PropertyResult check_aca_subsumption(const TestCase& tc) {
  const auto a = tc.automaton();
  // AcaSystem needs node states + channels to fit one 64-bit word; one
  // channel per non-self input slot = 2 * num_edges.
  const std::size_t state_bits = tc.n + 2 * tc.edges.size();
  if (tc.n == 0 || tc.n > 16 || state_bits > 63) return PropertyResult::pass();
  const aca::AcaSystem sys(a);

  const auto start = tc.configuration();
  const auto x0 = start.to_bits();

  // Classical parallel step == all-delivers-then-all-computes macro step.
  aca::AcaState s = sys.initial(x0);
  s = sys.synchronous_macro_step(s);
  const auto parallel = core::step_synchronous(a, start);
  if (sys.config_of(s) != parallel.to_bits()) {
    return PropertyResult::fail(
        "ACA synchronous macro step projects to " +
        std::to_string(sys.config_of(s)) + ", classical parallel step gives " +
        std::to_string(parallel.to_bits()));
  }

  // SCA chain == deliver-then-compute macro updates, node by node.
  std::mt19937_64 rng(tc.seed ^ 0xacaacaull);
  const auto order = core::random_permutation(a.size(), rng);
  aca::AcaState t = sys.initial(x0);
  Configuration sca = start;
  for (const auto v : order) {
    t = sys.sequential_macro_update(t, v);
    core::update_node(a, sca, v);
    if (sys.config_of(t) != sca.to_bits()) {
      return PropertyResult::fail(
          "ACA sequential macro updates diverge from the SCA chain after "
          "node " + std::to_string(v));
    }
  }
  return PropertyResult::pass();
}

PropertyResult check_reach_subsumption(const TestCase& tc) {
  // Full reach-set exploration is exponential in global-state bits, so
  // only tiny systems qualify; everything else passes vacuously.
  const std::size_t state_bits = tc.n + 2 * tc.edges.size();
  if (tc.n == 0 || tc.n > 8 || state_bits > 63) return PropertyResult::pass();
  const auto a = tc.automaton();

  // Bounded exploration: on truncation the verdict's containment flags are
  // meaningless, so the oracle SKIPS (vacuous pass) rather than fails —
  // budget exhaustion is not a counterexample.
  runtime::RunBudget budget;
  budget.max_states = std::uint64_t{1} << 16;
  runtime::RunControl control(budget);
  const auto verdict =
      aca::compare_reach_sets(a, tc.configuration().to_bits(), control);
  if (verdict.truncated) return PropertyResult::pass();

  if (!verdict.contains_synchronous) {
    return PropertyResult::fail(
        "reach(CA) not contained in reach(ACA): |CA|=" +
        std::to_string(verdict.sync_total) + ", |ACA|=" +
        std::to_string(verdict.aca_total));
  }
  if (!verdict.contains_sequential) {
    return PropertyResult::fail(
        "reach(SCA) not contained in reach(ACA): |SCA|=" +
        std::to_string(verdict.seq_total) + ", |ACA|=" +
        std::to_string(verdict.aca_total));
  }
  return PropertyResult::pass();
}

PropertyResult check_budget_truncation(const TestCase& tc) {
  if (tc.n == 0 || tc.n > kExplicitBits) return PropertyResult::pass();
  const auto a = tc.automaton();
  const auto full = phasespace::FunctionalGraph::synchronous(a);
  const std::uint64_t count = full.num_states();

  // A state budget of half the space must stop the build exactly there,
  // with the computed prefix bit-identical to the full table's.
  const std::uint64_t cap = std::max<std::uint64_t>(1, count / 2);
  runtime::RunBudget budget;
  budget.max_states = cap;
  runtime::RunControl control(budget);
  const auto build = phasespace::FunctionalGraph::build_synchronous(a,
                                                                    control);
  if (cap >= count) {
    if (!build.complete() ||
        build.graph->successors() != full.successors()) {
      return PropertyResult::fail("unlimited-enough budget still truncated");
    }
    return PropertyResult::pass();
  }
  if (!build.truncated() ||
      build.status.stop_reason != runtime::StopReason::kMaxStates) {
    return PropertyResult::fail(
        "budget of " + std::to_string(cap) + "/" + std::to_string(count) +
        " states did not stop the build with max-states (got " +
        runtime::stop_reason_name(build.status.stop_reason) + ")");
  }
  if (build.states_built != cap ||
      build.partial_succ.size() != build.states_built) {
    return PropertyResult::fail(
        "truncated build reports " + std::to_string(build.states_built) +
        " states with a " + std::to_string(build.partial_succ.size()) +
        "-entry prefix; budget was " + std::to_string(cap));
  }
  for (std::uint64_t s = 0; s < build.states_built; ++s) {
    if (build.partial_succ[s] != full.succ(s)) {
      return PropertyResult::fail(
          "truncated prefix diverges from the full table at state " +
          std::to_string(s));
    }
  }
  return PropertyResult::pass();
}

PropertyResult check_batch_isa_agree(const TestCase& tc) {
  const auto a = tc.automaton();
  // Automata the batch engine declines are covered by the scalar-fallback
  // tests; the cross-ISA property is vacuous for them.
  if (!core::batch_support(a).ok || tc.n == 0) return PropertyResult::pass();

  // Lanes: the case's start configuration plus random perturbations —
  // enough to fill the widest tier's ragged top block.
  std::mt19937_64 rng(tc.seed ^ 0x51caull);
  std::vector<Configuration> in;
  in.push_back(tc.configuration());
  while (in.size() < 8 * 64 - 5) {
    Configuration c(tc.n);
    for (std::size_t i = 0; i < tc.n; ++i) {
      c.set(i, static_cast<core::State>(rng() & 1u));
    }
    in.push_back(c);
  }

  // Reference: the 64-lane scalar bit-slice engine.
  std::vector<Configuration> want(in.size(), Configuration(tc.n));
  {
    core::BatchStepper ref(a);
    core::BatchSlice src(tc.n);
    core::BatchSlice dst(tc.n);
    for (std::size_t done = 0; done < in.size(); done += 64) {
      const std::size_t take = std::min<std::size_t>(64, in.size() - done);
      src.load_configurations(
          std::span<const Configuration>(in.data() + done, take));
      ref.step(src, dst);
      dst.store_configurations(
          std::span<Configuration>(want.data() + done, take));
    }
  }

  for (unsigned i = 0; i < core::kNumBatchIsa; ++i) {
    const auto isa = static_cast<core::BatchIsa>(i);
    if (!core::isa_available(isa)) continue;
    const auto stepper = core::make_wide_stepper(a, isa);
    const unsigned w = stepper->lane_words();
    core::BatchSlice src(tc.n, w);
    core::BatchSlice dst(tc.n, w);
    std::vector<Configuration> got(in.size(), Configuration(tc.n));
    for (std::size_t done = 0; done < in.size(); done += 64 * w) {
      const std::size_t take =
          std::min<std::size_t>(64 * w, in.size() - done);
      src.load_configurations(
          std::span<const Configuration>(in.data() + done, take));
      stepper->step(src, dst);
      dst.store_configurations(
          std::span<Configuration>(got.data() + done, take));
    }
    for (std::size_t j = 0; j < in.size(); ++j) {
      if (got[j] != want[j]) {
        return PropertyResult::fail(
            "ISA tier " + std::string(core::isa_name(isa)) +
            " diverges from the 64-lane bit-slice engine at lane " +
            std::to_string(j) + ": " + got[j].to_string() + " vs " +
            want[j].to_string());
      }
    }
  }
  return PropertyResult::pass();
}

PropertyResult check_supervised_equivalence(const TestCase& tc) {
  if (tc.n == 0 || tc.n > kExplicitBits) return PropertyResult::pass();
  const auto a = tc.automaton();
  const auto reference = phasespace::FunctionalGraph::synchronous(a);

  // Supervised build under one injected transient failure, starting at a
  // seed-rotated ladder rung: the supervisor must absorb the fault in
  // exactly one retry and the result must be bit-identical to the
  // fault-free baseline — a degraded/retried result IS the result.
  runtime::SupervisorOptions options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = std::chrono::milliseconds{1};
  options.retry.seed = tc.seed;
  options.apply_backoff = false;  // record delays, never sleep in PBT
  options.start_rung =
      static_cast<runtime::EngineRung>(tc.seed % runtime::kEngineRungCount);

  runtime::ScopedFaultPlan plan({.retry_transient_at = 1});
  const auto out = phasespace::supervised_synchronous(a, options);
  if (out.report.state != runtime::SupervisedState::kCompleted) {
    return PropertyResult::fail(
        "supervised build under one injected transient ended " +
        std::string(runtime::supervised_state_name(out.report.state)) +
        " (last error: " + out.report.last_error_what + ")");
  }
  if (out.report.attempts != 2) {
    return PropertyResult::fail(
        "expected exactly 2 attempts (1 injected failure + 1 success), got " +
        std::to_string(out.report.attempts));
  }
  if (!out.build.complete() ||
      out.build.graph->successors() != reference.successors()) {
    return PropertyResult::fail(
        "supervised successor table diverges from the fault-free baseline "
        "(start rung " +
        std::string(runtime::rung_name(options.start_rung)) + ")");
  }
  return PropertyResult::pass();
}

PropertyResult check_service_vs_library(const TestCase& tc) {
  if (tc.n == 0 || tc.n > kExplicitBits) return PropertyResult::pass();

  // The service speaks circulant ring/line topologies, not arbitrary edge
  // lists, so the case's substrate is ignored; n, the rule, and the seed
  // drive coverage over query kind, topology, radius, and scheme instead.
  const std::uint64_t s = tc.seed;
  const std::uint32_t radius = 1 + static_cast<std::uint32_t>(s % 3);
  const bool ring = tc.n >= 2 * radius + 1 && ((s >> 2) & 1) == 0;
  const auto kind = static_cast<service::QueryKind>((s >> 3) % 4);
  const bool sweep = ((s >> 5) & 1) == 1;
  const std::uint32_t arity = 2 * radius + 1;
  const std::uint64_t num_states = std::uint64_t{1} << tc.n;

  std::string rule_json;
  switch (tc.rule.kind) {
    case RuleSpec::Kind::kMajority:
      rule_json = "\"majority\"";
      break;
    case RuleSpec::Kind::kMajorityTieOne:
      rule_json = "\"majority1\"";
      break;
    case RuleSpec::Kind::kParity:
      rule_json = "\"parity\"";
      break;
    case RuleSpec::Kind::kKOfN:
      rule_json = "{\"type\":\"kofn\",\"k\":" +
                  std::to_string(std::min<std::uint32_t>(tc.rule.k, 64)) + "}";
      break;
    case RuleSpec::Kind::kSymmetric:
      rule_json = "{\"type\":\"symmetric\",\"mask\":" +
                  std::to_string(tc.rule.bits &
                                 service::ServiceQuery::mask_bits(arity)) +
                  "}";
      break;
  }

  std::ostringstream qjson;
  qjson << "{\"kind\":\"" << service::query_kind_name(kind) << "\""
        << ",\"n\":" << tc.n << ",\"radius\":" << radius << ",\"topology\":\""
        << (ring ? "ring" : "line") << "\",\"rule\":" << rule_json;
  if (sweep) {
    // Rotate-by-one sweep order: a valid non-identity permutation for
    // n >= 2 (for n == 1 it IS the identity, which the service requires
    // to be spelled as an omitted order).
    qjson << ",\"scheme\":\"sweep\"";
    if (tc.n >= 2) {
      qjson << ",\"order\":[";
      for (std::uint32_t i = 0; i < tc.n; ++i) {
        qjson << (i ? "," : "") << (i + 1) % tc.n;
      }
      qjson << "]";
    }
  }
  if (kind == service::QueryKind::kPreimageCount) {
    qjson << ",\"target\":" << (tc.config_bits & (num_states - 1));
  }
  qjson << "}";

  const service::ServiceQuery query =
      service::ServiceQuery::from_json(service::parse_json(qjson.str()));

  // The library side: the raw phase-space primitives, none of the service
  // stack (no engine, no cache, no JSON round trip).
  const Automaton a = query.automaton();
  const phasespace::FunctionalGraph fg =
      sweep ? phasespace::FunctionalGraph::sweep(a, query.effective_order())
            : phasespace::FunctionalGraph::synchronous(a);

  // The service side: a full in-process handler, twice — the second
  // response must come from the cache and be byte-identical.
  service::RequestHandler handler{service::HandlerOptions{}};
  const std::string request =
      "{\"op\":\"query\",\"id\":1,\"query\":" + qjson.str() + "}";
  const std::string first = handler.handle(request);
  const std::string second = handler.handle(request);

  const service::JsonValue v1 = service::parse_json(first);
  if (v1.string_or("status", "") != "ok") {
    return PropertyResult::fail("service rejected " + qjson.str() + ": " +
                                first);
  }
  if (v1.string_or("source", "") != "computed") {
    return PropertyResult::fail("first response not computed: " + first);
  }
  const service::JsonValue v2 = service::parse_json(second);
  if (v2.string_or("source", "") != "memory-cache") {
    return PropertyResult::fail("second response not a cache hit: " + second);
  }
  const auto result_of = [](const std::string& response) {
    const std::size_t pos = response.find("\"result\":");
    return pos == std::string::npos
               ? std::string()
               : response.substr(pos + 9, response.size() - pos - 10);
  };
  if (result_of(first) != result_of(second)) {
    return PropertyResult::fail(
        "cached result is not byte-identical to the computed one");
  }

  // The checkpointed path: with a ckpt_dir and small_n_bits = 0 every
  // explicit build is supervised, spilled as digested disk extents and
  // streamed back before results are derived. Same bytes required.
  service::HandlerOptions checkpointed;
  checkpointed.engine.ckpt_dir =
      (std::filesystem::temp_directory_path() /
       ("tca-service-oracle-" + std::to_string(::getpid()) + "-" +
        std::to_string(tc.seed)))
          .string();
  checkpointed.engine.small_n_bits = 0;
  const std::string third =
      service::RequestHandler{checkpointed}.handle(request);
  std::filesystem::remove_all(checkpointed.engine.ckpt_dir);
  if (result_of(third) != result_of(first)) {
    return PropertyResult::fail("checkpointed handler disagrees: " + third +
                                " vs " + first);
  }

  const service::JsonValue* result = v1.find("result");
  if (result == nullptr) return PropertyResult::fail("response lacks result");
  const auto expect = [&](const char* field,
                          std::uint64_t want) -> PropertyResult {
    const std::uint64_t got = result->u64_or(field, ~std::uint64_t{0});
    if (got != want) {
      return PropertyResult::fail(std::string(field) + ": service says " +
                                  std::to_string(got) + ", library says " +
                                  std::to_string(want) + " for " +
                                  qjson.str());
    }
    return PropertyResult::pass();
  };

  switch (kind) {
    case service::QueryKind::kAttractorSummary: {
      const phasespace::Classification c = phasespace::classify(fg);
      for (const PropertyResult& r : {
               expect("num_states", fg.num_states()),
               expect("num_attractors", c.attractors.size()),
               expect("num_fixed_points", c.num_fixed_points),
               expect("num_cycle_states", c.num_cycle_states),
               expect("num_transient_states", c.num_transient_states),
               expect("num_gardens_of_eden", c.num_gardens_of_eden),
               expect("max_period", c.max_period()),
               expect("max_transient", c.max_transient),
           }) {
        if (!r.ok) return r;
      }
      break;
    }
    case service::QueryKind::kTransientDepth: {
      const phasespace::Classification c = phasespace::classify(fg);
      for (const PropertyResult& r : {
               expect("max_transient", c.max_transient),
               expect("num_transient_states", c.num_transient_states),
           }) {
        if (!r.ok) return r;
      }
      break;
    }
    case service::QueryKind::kGoeCensus: {
      const phasespace::Classification c = phasespace::classify(fg);
      for (const PropertyResult& r : {
               expect("gardens", c.num_gardens_of_eden),
               expect("scanned", fg.num_states()),
           }) {
        if (!r.ok) return r;
      }
      break;
    }
    case service::QueryKind::kPreimageCount: {
      // Explicit enumeration as the reference — for synchronous rings this
      // cross-validates the service's O(n) transfer-matrix path against
      // brute force.
      std::uint64_t count = 0;
      for (const phasespace::StateCode succ : fg.successors()) {
        count += succ == query.target ? 1 : 0;
      }
      return expect("preimage_count", count);
    }
  }
  return PropertyResult::pass();
}

PropertyResult check_store_backend_agree(const TestCase& tc) {
  if (tc.n == 0 || tc.n > kExplicitBits) return PropertyResult::pass();
  const auto a = tc.automaton();

  // Reference: the serial flat build.
  const auto reference = phasespace::FunctionalGraph::synchronous(a);

  // Seed-rotated build shape so the sweep covers worker counts, shard
  // sizes (including non-multiples of 64, which straddle packed words
  // across shard boundaries), and ladder rungs.
  phasespace::ShardedBuildOptions options;
  options.workers = 1 + static_cast<unsigned>(tc.seed % 3);
  options.shard_states = 1 + (tc.seed >> 2) % 130;
  options.rung =
      static_cast<runtime::EngineRung>(tc.seed % runtime::kEngineRungCount);

  const auto check_backend =
      [&](phasespace::StoreKind kind,
          const std::string& disk_dir) -> PropertyResult {
    phasespace::ShardedBuildOptions opt = options;
    opt.store = kind;
    opt.disk_dir = disk_dir;
    runtime::RunControl control{runtime::RunBudget{}};
    const phasespace::ShardedBuild out =
        phasespace::build_synchronous_sharded(a, opt, control);
    if (!out.complete() || out.store == nullptr) {
      return PropertyResult::fail(
          std::string("unbudgeted sharded build on the ") +
          phasespace::store_kind_name(kind) + " backend did not complete");
    }
    // Successor tables must be bit-identical entry by entry...
    PropertyResult verdict = PropertyResult::pass();
    out.store->for_each_range([&](phasespace::StateCode first, std::size_t n,
                                  const phasespace::StateCode* block) {
      for (std::size_t i = 0; i < n; ++i) {
        if (verdict.ok && block[i] != reference.succ(first + i)) {
          verdict = PropertyResult::fail(
              std::string(phasespace::store_kind_name(kind)) +
              " backend diverges from the flat serial table at state " +
              std::to_string(first + i) + ": " + std::to_string(block[i]) +
              " vs " + std::to_string(reference.succ(first + i)));
        }
      }
    });
    if (!verdict.ok) return verdict;
    // ... and so must the classify summary derived THROUGH the backend.
    const phasespace::Classification got =
        phasespace::classify(*out.build.graph);
    const phasespace::Classification want = phasespace::classify(reference);
    if (got.num_fixed_points != want.num_fixed_points ||
        got.num_cycle_states != want.num_cycle_states ||
        got.num_transient_states != want.num_transient_states ||
        got.num_gardens_of_eden != want.num_gardens_of_eden ||
        got.max_period() != want.max_period() ||
        got.max_transient != want.max_transient ||
        got.attractors.size() != want.attractors.size()) {
      return PropertyResult::fail(
          std::string(phasespace::store_kind_name(kind)) +
          " backend classify summary diverges from the flat one");
    }
    return PropertyResult::pass();
  };

  for (const auto kind :
       {phasespace::StoreKind::kFlat, phasespace::StoreKind::kPacked}) {
    const PropertyResult r = check_backend(kind, "");
    if (!r.ok) return r;
  }
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("tca-store-oracle-" + std::to_string(::getpid()) + "-" +
       std::to_string(tc.seed) + "-" + std::to_string(tc.n));
  std::error_code ec;
  fs::remove_all(dir, ec);
  const PropertyResult r =
      check_backend(phasespace::StoreKind::kDisk, dir.string());
  fs::remove_all(dir, ec);
  return r;
}

/// Brute-force classification for classify-agree, deliberately unlike
/// classify's peel: every state's orbit is iterated until it repeats. The
/// first repeated state opens the cycle, so the steps before it are the
/// state's depth and the smallest state after it names its attractor.
/// O(states x orbit length) time, which is why the oracle stays at n <= 12.
phasespace::Classification reference_classification(
    const phasespace::FunctionalGraph& fg) {
  using phasespace::StateCode;
  using phasespace::StateKind;
  const StateCode count = fg.num_states();
  std::vector<StateCode> rep(count);
  std::vector<std::uint64_t> period(count);
  std::vector<std::uint64_t> depth(count);
  std::vector<std::int64_t> pos(count, -1);
  std::vector<std::uint8_t> reached(count, 0);
  std::vector<StateCode> orbit;
  for (StateCode s = 0; s < count; ++s) {
    reached[fg.succ(s)] = 1;
    orbit.clear();
    StateCode x = s;
    while (pos[x] < 0) {
      pos[x] = static_cast<std::int64_t>(orbit.size());
      orbit.push_back(x);
      x = fg.succ(x);
    }
    const auto first = static_cast<std::size_t>(pos[x]);
    depth[s] = first;
    period[s] = orbit.size() - first;
    rep[s] = *std::min_element(orbit.begin() + static_cast<std::ptrdiff_t>(first),
                               orbit.end());
    for (const StateCode y : orbit) pos[y] = -1;
  }

  phasespace::Classification out;
  std::map<StateCode, std::uint64_t> basin;  // representative -> states
  for (StateCode s = 0; s < count; ++s) ++basin[rep[s]];
  std::map<StateCode, std::uint32_t> id;
  for (const auto& [r, size] : basin) {
    id[r] = static_cast<std::uint32_t>(out.attractors.size());
    out.attractors.push_back({period[r], r, size});
    ++out.cycle_length_histogram[period[r]];
  }
  for (StateCode s = 0; s < count; ++s) {
    out.attractor.push_back(id[rep[s]]);
    if (depth[s] > 0) {
      out.kind.push_back(StateKind::kTransient);
      ++out.num_transient_states;
    } else if (period[s] == 1) {
      out.kind.push_back(StateKind::kFixedPoint);
      ++out.num_fixed_points;
    } else {
      out.kind.push_back(StateKind::kCycle);
      ++out.num_cycle_states;
    }
    out.max_transient = std::max(out.max_transient, depth[s]);
    out.num_gardens_of_eden += reached[s] == 0 ? 1u : 0u;
  }
  return out;
}

/// The first field where two classifications differ, or "" if none.
std::string classification_diff(const phasespace::Classification& got,
                                const phasespace::Classification& want) {
  if (got.kind.size() != want.kind.size() ||
      got.attractor.size() != want.attractor.size()) {
    return "per-state array sizes";
  }
  for (std::size_t s = 0; s < want.kind.size(); ++s) {
    if (got.kind[s] != want.kind[s]) return "kind of state " + std::to_string(s);
    if (got.attractor[s] != want.attractor[s]) {
      return "attractor of state " + std::to_string(s) + ": " +
             std::to_string(got.attractor[s]) + " vs " +
             std::to_string(want.attractor[s]);
    }
  }
  if (got.attractors.size() != want.attractors.size()) {
    return "attractor count " + std::to_string(got.attractors.size()) +
           " vs " + std::to_string(want.attractors.size());
  }
  for (std::size_t i = 0; i < want.attractors.size(); ++i) {
    const phasespace::Attractor& g = got.attractors[i];
    const phasespace::Attractor& w = want.attractors[i];
    if (g.period != w.period || g.representative != w.representative ||
        g.basin_size != w.basin_size) {
      return "attractor " + std::to_string(i) + " (period, representative, "
             "basin) (" + std::to_string(g.period) + ", " +
             std::to_string(g.representative) + ", " +
             std::to_string(g.basin_size) + ") vs (" +
             std::to_string(w.period) + ", " +
             std::to_string(w.representative) + ", " +
             std::to_string(w.basin_size) + ")";
    }
  }
  const auto field = [](const char* name, std::uint64_t a, std::uint64_t b) {
    return a == b ? std::string()
                  : std::string(name) + " " + std::to_string(a) + " vs " +
                        std::to_string(b);
  };
  for (const std::string& d :
       {field("num_fixed_points", got.num_fixed_points, want.num_fixed_points),
        field("num_cycle_states", got.num_cycle_states, want.num_cycle_states),
        field("num_transient_states", got.num_transient_states,
              want.num_transient_states),
        field("num_gardens_of_eden", got.num_gardens_of_eden,
              want.num_gardens_of_eden),
        field("max_transient", got.max_transient, want.max_transient)}) {
    if (!d.empty()) return d;
  }
  if (got.cycle_length_histogram != want.cycle_length_histogram) {
    return "cycle_length_histogram";
  }
  return "";
}

PropertyResult check_classify_agree(const TestCase& tc) {
  if (tc.n == 0 || tc.n > kExplicitBits) return PropertyResult::pass();
  using phasespace::FunctionalGraph;
  using phasespace::StateCode;
  const auto a = tc.automaton();
  std::mt19937_64 rng(tc.seed ^ 0xc1a55ull);

  // The maps: the case's automaton in parallel and under a seeded sweep,
  // the identity (2^n attractors), and one seed-chosen Wolfram rule —
  // rule 150 on a ring (a bijection: every state cyclic), 41 or 126 on a
  // line (deep transients), or a random code.
  struct Map {
    std::string label;
    FunctionalGraph fg;
  };
  std::vector<Map> maps;
  maps.push_back({"synchronous", FunctionalGraph::synchronous(a)});
  maps.push_back({"sweep", FunctionalGraph::sweep(
                               a, core::random_permutation(a.size(), rng))});
  phasespace::FlatTable identity(StateCode{1} << tc.n);
  for (StateCode s = 0; s < identity.size(); ++s) identity[s] = s;
  maps.push_back({"identity", FunctionalGraph::from_table(
                                  tc.n, std::move(identity))});
  std::uint32_t wn = std::max<std::uint32_t>(tc.n, 4);
  std::uint32_t code = 0;
  core::Boundary boundary = core::Boundary::kFixedZero;
  switch (tc.seed % 4) {
    case 0:
      code = 150;
      boundary = core::Boundary::kRing;
      if (wn % 3 == 0) --wn;  // rule 150 is bijective on rings 3 does not divide
      break;
    case 1: code = 41; break;
    case 2: code = 126; break;
    default: code = static_cast<std::uint32_t>(rng() % 256); break;
  }
  maps.push_back(
      {"wolfram " + std::to_string(code) + " n=" + std::to_string(wn),
       FunctionalGraph::synchronous(core::Automaton::line(
           wn, 1, boundary, rules::Rule(rules::wolfram(code)),
           core::Memory::kWith))});

  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("tca-classify-oracle-" + std::to_string(::getpid()) + "-" +
       std::to_string(tc.seed) + "-" + std::to_string(tc.n));
  std::error_code ec;
  PropertyResult verdict = PropertyResult::pass();
  for (const Map& m : maps) {
    const phasespace::Classification want = reference_classification(m.fg);
    if (code == 150 && m.label.rfind("wolfram", 0) == 0 &&
        want.num_transient_states != 0) {
      return PropertyResult::fail(m.label + " ring is not a bijection");
    }
    // The same table through every backend.
    const phasespace::FlatTable& table = m.fg.successors();
    const std::uint32_t bits = m.fg.bits();
    fs::remove_all(dir, ec);
    std::vector<std::pair<std::string, FunctionalGraph>> inputs;
    inputs.emplace_back("flat", m.fg);
    for (const auto kind :
         {phasespace::StoreKind::kPacked, phasespace::StoreKind::kDisk}) {
      std::shared_ptr<phasespace::SuccessorStore> store;
      if (kind == phasespace::StoreKind::kPacked) {
        store = std::make_shared<phasespace::PackedStore>(bits);
      } else {
        store = std::make_shared<phasespace::DiskStore>(bits, dir.string());
      }
      store->put_range(0, table.size(), table.data());
      store->finalize();
      inputs.emplace_back(phasespace::store_kind_name(kind),
                          FunctionalGraph::from_store(std::move(store)));
    }
    for (const auto& [backend, fg] : inputs) {
      const std::string diff =
          classification_diff(phasespace::classify(fg), want);
      if (!diff.empty()) {
        verdict = PropertyResult::fail(
            "classify of the " + m.label + " map on the " + backend +
            " store differs from the orbit reference: " + diff);
        break;
      }
    }
    inputs.clear();  // unmap the disk store before its directory goes
    fs::remove_all(dir, ec);
    if (!verdict.ok) return verdict;
  }
  return verdict;
}

std::vector<Oracle> build_registry() {
  std::vector<Oracle> r;
  CaseOptions any;

  r.push_back({"engines-agree", "EnginesAgree", any, check_engines_agree});
  r.push_back({"sweep-consistency", "SweepConsistency", any,
               check_sweep_consistency});

  CaseOptions monotone;
  monotone.rules = CaseOptions::RuleClass::kMonotoneSymmetric;
  r.push_back({"sca-no-cycle", "ScaNoCycle", monotone, check_sca_no_cycle});
  r.push_back({"parallel-period-two", "ParallelPeriodAtMostTwo", monotone,
               check_parallel_period});

  CaseOptions threshold;
  threshold.rules = CaseOptions::RuleClass::kThreshold;
  r.push_back({"energy-descent", "EnergyDescent", threshold,
               check_energy_descent});

  CaseOptions bipartite;
  bipartite.substrate = CaseOptions::SubstrateClass::kBipartite;
  r.push_back({"bipartite-two-cycle", "BipartiteTwoCycle", bipartite,
               check_bipartite_two_cycle});

  CaseOptions tiny;
  tiny.substrate = CaseOptions::SubstrateClass::kTiny;
  r.push_back({"aca-subsumption", "AcaSubsumption", tiny,
               check_aca_subsumption});
  r.push_back({"reach-subsumption", "ReachSubsumption", tiny,
               check_reach_subsumption});
  r.push_back({"budget-truncation", "BudgetTruncation", any,
               check_budget_truncation});
  r.push_back({"batch-isa-agree", "BatchIsaAgree", any,
               check_batch_isa_agree});
  r.push_back({"supervised-equivalence", "SupervisedEquivalence", any,
               check_supervised_equivalence});
  r.push_back({"service-vs-library", "ServiceVsLibrary", any,
               check_service_vs_library});
  r.push_back({"store-backend-agree", "StoreBackendAgree", any,
               check_store_backend_agree});
  r.push_back({"classify-agree", "ClassifyAgree", any, check_classify_agree});
  return r;
}

}  // namespace

const std::vector<Oracle>& oracles() {
  static const std::vector<Oracle> registry = build_registry();
  return registry;
}

const Oracle* find_oracle(std::string_view name) {
  for (const auto& o : oracles()) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

}  // namespace tca::testing
