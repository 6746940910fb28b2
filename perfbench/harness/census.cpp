// census — the library path from automaton to verdict, in process.
//
// A seeded list of four n = 24 automata spanning attractor structure:
//   * majority r=1 ring: ~10^5 attractors, nearly all fixed points plus
//     the alternating 2-cycle (Lemma 1);
//   * majority r=2 ring: far fewer attractors with larger basins;
//   * a non-monotone Wolfram rule on a line with proper cycles, drawn
//     from a pool whose censuses cost the same to within 1%, so the seed
//     changes the rule but not the amount of work;
//   * majority r=1 under one sequential sweep of a seeded non-identity
//     node order (Lemma 1: no proper cycle).
// Each census builds the phase space into the flat and the packed store
// with the sharded builder, classifies both, and streams the Garden-of-
// Eden count over both stores. No service code runs.

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "core/automaton.hpp"
#include "obs/metrics.hpp"
#include "phasespace/classify.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/preimage.hpp"
#include "phasespace/sharded_build.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using tca::phasespace::StoreKind;

constexpr std::uint32_t kCensusBits = 24;
constexpr std::uint32_t kWarmupBits = 16;
constexpr int kSetupRepeats = 5;
constexpr double kCensusLimitS = 60;
// Wolfram codes whose n = 24 line censuses have proper cycles and cost
// within 1% of each other (median of three, 4-vCPU x86-64 host).
constexpr unsigned kNonMonotoneCodes[] = {41, 118, 126};

struct Entry {
  std::string name;
  std::uint32_t radius = 1;
  tca::core::Boundary boundary = tca::core::Boundary::kRing;
  unsigned wolfram = 0;  ///< 0 = majority
  bool sweep = false;
  std::vector<tca::core::NodeId> order;  ///< sweep order

  [[nodiscard]] bool majority() const { return wolfram == 0; }
  [[nodiscard]] tca::core::Automaton automaton(std::uint32_t n) const {
    const tca::rules::Rule rule =
        majority() ? tca::rules::majority()
                   : tca::rules::Rule(tca::rules::wolfram(wolfram));
    return tca::core::Automaton::line(n, radius, boundary, rule,
                                      tca::core::Memory::kWith);
  }
  /// The sweep order scaled to n cells (the warm-up runs at small n).
  [[nodiscard]] std::vector<tca::core::NodeId> order_for(
      std::uint32_t n) const {
    std::vector<tca::core::NodeId> out;
    for (const tca::core::NodeId v : order) {
      if (v < n) out.push_back(v);
    }
    return out;
  }
};

std::vector<Entry> make_entries(std::uint64_t seed) {
  Rng rng = make_rng(seed, 1);
  std::vector<Entry> list;
  list.push_back({"majority-r1-ring", 1, tca::core::Boundary::kRing, 0,
                  false, {}});
  list.push_back({"majority-r2-ring", 2, tca::core::Boundary::kRing, 0,
                  false, {}});
  const unsigned code = kNonMonotoneCodes[rng.below(
      sizeof kNonMonotoneCodes / sizeof kNonMonotoneCodes[0])];
  list.push_back({"wolfram-" + std::to_string(code) + "-line", 1,
                  tca::core::Boundary::kFixedZero, code, false, {}});
  Entry sweep{"majority-r1-sweep", 1, tca::core::Boundary::kRing, 0, true,
              {}};
  sweep.order.resize(kCensusBits);
  std::iota(sweep.order.begin(), sweep.order.end(), tca::core::NodeId{0});
  do {  // Fisher-Yates; redraw the (unlikely) identity order
    for (std::size_t i = sweep.order.size() - 1; i > 0; --i) {
      std::swap(sweep.order[i], sweep.order[rng.below(i + 1)]);
    }
  } while (std::is_sorted(sweep.order.begin(), sweep.order.end()));
  list.push_back(std::move(sweep));
  return list;
}

/// The verdict-bearing part of a Classification, compared across stores.
struct Summary {
  std::uint64_t attractors = 0;
  std::uint64_t fixed_points = 0;
  std::uint64_t cycle_states = 0;
  std::uint64_t transient_states = 0;
  std::uint64_t gardens = 0;
  std::uint64_t max_transient = 0;
  std::map<std::uint64_t, std::uint64_t> cycle_lengths;
  friend bool operator==(const Summary&, const Summary&) = default;
};

struct StoreRun {
  Summary summary;
  std::uint64_t streamed_gardens = 0;
  bool goe_complete = false;
  double build_s = 0, classify_s = 0, goe_s = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t shards_stolen = 0;
};

struct CensusRun {
  std::size_t entry = 0;
  std::size_t round = 0;
  bool complete = false;
  StoreRun flat, packed;
  double seconds = 0;
};

unsigned workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

tca::phasespace::ShardedBuild build(const Entry& e,
                                    const tca::core::Automaton& a,
                                    std::uint32_t n, StoreKind kind,
                                    unsigned threads) {
  tca::phasespace::ShardedBuildOptions opt;
  opt.store = kind;
  opt.workers = threads;
  tca::runtime::RunControl control;
  return e.sweep
             ? tca::phasespace::build_sweep_sharded(a, e.order_for(n), opt,
                                                    control)
             : tca::phasespace::build_synchronous_sharded(a, opt, control);
}

/// Build -> classify -> streamed GoE on one store. Returns false when
/// the build did not complete.
bool census_store(const Entry& e, const tca::core::Automaton& a,
                  std::uint32_t n, StoreKind kind, Tracer& tracer,
                  std::int64_t parent, std::uint64_t id, StoreRun& out) {
  auto t0 = Clock::now();
  tca::phasespace::ShardedBuild b;
  {
    ScopedSpan span(tracer, 0, "phasespace.build", parent, id);
    b = build(e, a, n, kind, workers());
  }
  out.build_s = seconds_since(t0);
  if (!b.complete()) return false;
  out.resident_bytes = b.store->resident_bytes();
  out.shards_stolen = b.stats.shards_stolen;

  t0 = Clock::now();
  tca::phasespace::Classification c;
  {
    ScopedSpan span(tracer, 0, "phasespace.classify", parent, id);
    c = tca::phasespace::classify(*b.build.graph);
  }
  out.classify_s = seconds_since(t0);
  Summary& s = out.summary;
  s.attractors = c.attractors.size();
  s.fixed_points = c.num_fixed_points;
  s.cycle_states = c.num_cycle_states;
  s.transient_states = c.num_transient_states;
  s.gardens = c.num_gardens_of_eden;
  s.max_transient = c.max_transient;
  s.cycle_lengths.insert(c.cycle_length_histogram.begin(),
                         c.cycle_length_histogram.end());

  t0 = Clock::now();
  {
    ScopedSpan span(tracer, 0, "phasespace.goe", parent, id);
    tca::runtime::RunControl control;
    const tca::phasespace::GoeCensus g =
        tca::phasespace::count_gardens_of_eden(*b.store, control);
    out.streamed_gardens = g.gardens;
    out.goe_complete = !g.truncated;
  }
  out.goe_s = seconds_since(t0);
  return true;
}

CensusRun run_one(const Entry& e, std::size_t index, std::uint32_t n,
                  Tracer& tracer, std::uint64_t id) {
  CensusRun run;
  run.entry = index;
  const auto t0 = Clock::now();
  {
    ScopedSpan root(tracer, 0, "census", -1, id);
    const tca::core::Automaton a = e.automaton(n);
    run.complete =
        census_store(e, a, n, StoreKind::kFlat, tracer, root.id(), id,
                     run.flat) &&
        census_store(e, a, n, StoreKind::kPacked, tracer, root.id(), id,
                     run.packed);
  }
  run.seconds = seconds_since(t0);
  return run;
}

/// The four output checks; returns the failures, each printed.
std::uint64_t check(const std::vector<Entry>& entries, const CensusRun& r,
                    std::uint32_t n) {
  const Entry& e = entries[r.entry];
  std::uint64_t bad = 0;
  const auto fail = [&](const char* what) {
    std::fprintf(stderr, "census %s: %s\n", e.name.c_str(), what);
    ++bad;
  };
  if (!r.complete) {
    fail("build did not complete");
    return bad;
  }
  const Summary& s = r.flat.summary;
  if (!(r.flat.summary == r.packed.summary)) {
    fail("flat and packed stores classify differently");
  }
  if (!r.flat.goe_complete || !r.packed.goe_complete ||
      r.flat.streamed_gardens != s.gardens ||
      r.packed.streamed_gardens != s.gardens) {
    fail("streamed GoE count differs from classify's");
  }
  if (s.fixed_points + s.cycle_states + s.transient_states !=
      (std::uint64_t{1} << n)) {
    fail("fixed-point, cycle and transient states do not sum to 2^n");
  }
  if (e.majority()) {
    const bool two_cycle = s.cycle_lengths.count(2) > 0;
    if (!e.sweep && !two_cycle) fail("Lemma 1: parallel map has no 2-cycle");
    if (e.sweep && s.cycle_states != 0) {
      fail("Lemma 1: sweep map has a proper cycle");
    }
  }
  return bad;
}

struct Phase {
  std::vector<CensusRun> runs;
  std::vector<double> round_s;  ///< wall time of each round
  double wall_s = 0;
};

Phase timed_phase(const std::vector<Entry>& entries, double seconds,
                  Tracer& tracer, std::uint64_t first_id) {
  Phase phase;
  const auto t0 = Clock::now();
  std::uint64_t id = first_id;
  // Whole rounds over the list, so every run censuses each entry equally
  // often and the mix does not depend on where the clock runs out.
  while (seconds_since(t0) < seconds) {
    const auto round_t0 = Clock::now();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      phase.runs.push_back(run_one(entries[i], i, kCensusBits, tracer, id++));
      phase.runs.back().round = phase.round_s.size();
    }
    phase.round_s.push_back(seconds_since(round_t0));
  }
  phase.wall_s = seconds_since(t0);
  return phase;
}

double setup_once(std::uint64_t seed) {
  const auto t0 = Clock::now();
  const std::vector<Entry> entries = make_entries(seed);
  Tracer off(false, 1);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    (void)run_one(entries[i], i, kWarmupBits, off, 0);
  }
  return seconds_since(t0);
}

/// Single-thread BatchCodeStepper over all 2^n codes: ns per state.
double kernel_ns_per_state(const Entry& e, Tracer& tracer, std::uint64_t id) {
  const tca::core::Automaton a = e.automaton(kCensusBits);
  tca::phasespace::BatchCodeStepper stepper =
      e.sweep ? tca::phasespace::BatchCodeStepper(a, e.order)
              : tca::phasespace::BatchCodeStepper(a);
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  std::vector<tca::phasespace::StateCode> out(kBlock);
  const std::uint64_t total = std::uint64_t{1} << kCensusBits;
  const auto t0 = Clock::now();
  {
    ScopedSpan span(tracer, 0, "core.kernel", -1, id);
    for (std::uint64_t first = 0; first < total; first += kBlock) {
      stepper.step_range(first, kBlock, out.data());
    }
  }
  return seconds_since(t0) * 1e9 / static_cast<double>(total);
}

}  // namespace

void run_census(const Options& options, RunResult& result) {
  if (options.dump_inputs) {
    for (const Entry& e : make_entries(options.seed)) {
      std::printf("census n=%u %s radius=%u wolfram=%u sweep=%d order=",
                  kCensusBits, e.name.c_str(), e.radius, e.wolfram,
                  e.sweep ? 1 : 0);
      for (const tca::core::NodeId v : e.order) std::printf("%u,", v);
      std::printf("\n");
    }
    return;
  }

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setups.push_back(setup_once(options.seed));
  }
  const std::vector<Entry> entries = make_entries(options.seed);
  for (const Entry& e : entries) {
    result.report.add_line("  entry " + e.name);
  }

  Tracer untraced(false, 1);
  const Phase plain = timed_phase(entries, options.seconds, untraced, 1);
  const double peak_mib = peak_rss_mib();

  Phase traced_phase;
  Tracer tracer(options.trace, 1);
  if (options.trace) {
    traced_phase = timed_phase(entries, options.seconds, tracer, 1000);
  }

  // Output checks, outside every timing.
  std::vector<bool> plain_ok;
  const Phase* const phases[] = {&plain, &traced_phase};
  for (const Phase* p : phases) {
    for (const CensusRun& r : p->runs) {
      const bool ok = check(entries, r, kCensusBits) == 0;
      if (p == &plain) plain_ok.push_back(ok);
      ++result.attempted;
      if (!ok) ++result.failed;
    }
  }
  result.correct = result.failed == 0;

  const double states = static_cast<double>(std::uint64_t{1} << kCensusBits);
  const auto rounds = [&](const Phase& p, const std::vector<bool>& ok) {
    std::vector<Group> groups(p.round_s.size());
    for (std::size_t i = 0; i < p.runs.size(); ++i) {
      const CensusRun& r = p.runs[i];
      Group& g = groups[r.round];
      g.wall_s = p.round_s[r.round];
      g.states += states;
      g.latency_ms.push_back(r.seconds * 1e3);
      ++g.attempted;
      if (ok.empty() || (ok[i] && r.seconds <= kCensusLimitS)) ++g.good;
    }
    return groups;
  };
  const auto rate = [&](const Phase& p) {
    EndToEnd e;
    summarize(rounds(p, {}), "rounds", "censuses", e);
    return e.states_per_s;
  };

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = median(setups);
    summarize(rounds(plain, plain_ok), "rounds", "censuses", e2e);
    e2e.peak_rss_mib = peak_mib;
    e2e.latency_limit = fmt(kCensusLimitS, 0) + " s per census";
    e2e.rss_process = "benchmark process";
    add_end_to_end(result.report, e2e);
    print_host(options, dispatched_isa(tca::obs::snapshot_metrics().counters));
    return;
  }

  // Traced run: per-layer attribution from the traced phase's spans plus
  // two probes outside it (single-thread kernel, workers=1 build).
  LayerValues lv;
  double build_s = 0, classify_s = 0, goe_s = 0, built = 0;
  double bytes_flat = 0, bytes_packed = 0;
  std::uint64_t stolen = 0;
  for (const CensusRun& r : traced_phase.runs) {
    for (const StoreRun* s : {&r.flat, &r.packed}) {
      build_s += s->build_s;
      classify_s += s->classify_s;
      goe_s += s->goe_s;
      built += states;
      stolen += s->shards_stolen;
    }
    bytes_flat = static_cast<double>(r.flat.resident_bytes) / states;
    bytes_packed = static_cast<double>(r.packed.resident_bytes) / states;
  }
  const std::string base = "n=" + std::to_string(kCensusBits) + ", " +
                           std::to_string(traced_phase.runs.size()) +
                           " censuses x 2 stores";
  lv["phasespace.build_ns_per_state"] = {build_s * 1e9 / built, base};
  lv["phasespace.classify_ns_per_state"] = {classify_s * 1e9 / built, base};
  lv["phasespace.goe_ns_per_state"] = {goe_s * 1e9 / built, base};
  lv["phasespace.classify_share"] = {
      classify_s / traced_phase.wall_s,
      "of " + fmt(traced_phase.wall_s) + " s census wall time"};
  lv["phasespace.shards_stolen"] = {static_cast<double>(stolen), base};
  lv["phasespace.store_bytes_per_state.flat"] = {bytes_flat,
                                                 "resident_bytes / 2^n"};
  lv["phasespace.store_bytes_per_state.packed"] = {bytes_packed,
                                                   "resident_bytes / 2^n"};

  // Self time of the traced phase, before the probes add their spans.
  const auto layers = tracer.self_times();
  std::vector<double> kernel;
  double one = 0, many = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    kernel.push_back(kernel_ns_per_state(entries[i], tracer, i));
    const tca::core::Automaton a = entries[i].automaton(kCensusBits);
    auto t0 = Clock::now();
    (void)build(entries[i], a, kCensusBits, StoreKind::kFlat, 1);
    one += seconds_since(t0);
    t0 = Clock::now();
    (void)build(entries[i], a, kCensusBits, StoreKind::kFlat, workers());
    many += seconds_since(t0);
  }
  lv["core.kernel_ns_per_state"] = {
      median(kernel), "median of " + std::to_string(kernel.size()) +
                          " automata, 1 thread, n=24"};
  lv["phasespace.build_speedup"] = {
      one / many, "flat store, n=24, workers=1 over workers=" +
                      std::to_string(workers()) + ", " +
                      std::to_string(entries.size()) + " automata"};
  lv["bench.trace_overhead_ratio"] = {
      rate(plain) / rate(traced_phase),
      "untraced over traced states_per_s"};

  add_per_layer(result.report, lv);
  print_self_times("census (traced phase)", layers);
  write_trace(tracer, options);
  print_host(options, dispatched_isa(tca::obs::snapshot_metrics().counters));
}

}  // namespace perfbench
