// Unit tests for the tcad service brain (docs/service.md): canonical
// query keys and digests, the two-tier content-addressed cache (LRU
// order, disk round-trip, quarantine-on-corrupt), the request
// coalescer ("N identical concurrent requests start exactly one engine
// build", counter-asserted), and the handler's error envelope.
//
// Every test that touches disk gets its own unique temp directory —
// the suite must stay safe under `ctest -j`.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "phasespace/classify.hpp"
#include "phasespace/functional_graph.hpp"
#include "runtime/fault.hpp"
#include "service/cache.hpp"
#include "service/engine.hpp"
#include "service/handler.hpp"
#include "service/json_parse.hpp"
#include "service/query.hpp"
#include "temp_dir.hpp"

namespace tca::service {
namespace {

namespace fs = std::filesystem;

ServiceQuery query_from(const std::string& json) {
  return ServiceQuery::from_json(parse_json(json));
}

ServiceQuery attractor_query(std::uint32_t n) {
  return query_from(R"({"kind":"attractor-summary","n":)" +
                    std::to_string(n) +
                    R"(,"radius":1,"rule":"majority","topology":"ring"})");
}

// ---------------------------------------------------------------------
// Canonical keys and digests
// ---------------------------------------------------------------------

TEST(QueryDigest, FieldOrderDoesNotMatter) {
  const ServiceQuery a = query_from(
      R"({"kind":"goe-census","n":9,"radius":1,"rule":"parity","topology":"line"})");
  const ServiceQuery b = query_from(
      R"({"topology":"line","rule":"parity","radius":1,"n":9,"kind":"goe-census"})");
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(QueryDigest, ExplicitIdentityOrderCanonicalizesToDefault) {
  // A sweep whose order is spelled out as the identity permutation is the
  // same query as one whose order is omitted.
  const ServiceQuery spelled = query_from(
      R"({"kind":"attractor-summary","n":5,"radius":1,"rule":"majority",)"
      R"("scheme":"sweep","order":[0,1,2,3,4]})");
  const ServiceQuery omitted = query_from(
      R"({"kind":"attractor-summary","n":5,"radius":1,"rule":"majority",)"
      R"("scheme":"sweep"})");
  EXPECT_EQ(spelled.canonical_key(), omitted.canonical_key());
  EXPECT_EQ(spelled.digest(), omitted.digest());
}

TEST(QueryDigest, RuleShorthandMatchesObjectForm) {
  const ServiceQuery shorthand = attractor_query(8);
  const ServiceQuery object = query_from(
      R"({"kind":"attractor-summary","n":8,"radius":1,)"
      R"("rule":{"type":"majority"},"topology":"ring"})");
  EXPECT_EQ(shorthand.canonical_key(), object.canonical_key());
}

TEST(QueryDigest, DistinctQueriesGetDistinctKeys) {
  std::vector<std::string> keys = {
      attractor_query(8).canonical_key(),
      attractor_query(9).canonical_key(),
      query_from(R"({"kind":"transient-depth","n":8,"radius":1,)"
                 R"("rule":"majority","topology":"ring"})")
          .canonical_key(),
      query_from(R"({"kind":"attractor-summary","n":8,"radius":1,)"
                 R"("rule":"majority","topology":"line"})")
          .canonical_key(),
      query_from(R"({"kind":"attractor-summary","n":8,"radius":1,)"
                 R"("rule":"majority1","topology":"ring"})")
          .canonical_key(),
  };
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());
}

TEST(QueryDigest, DigestIs16LowercaseHexChars) {
  const std::string digest = attractor_query(8).digest();
  ASSERT_EQ(digest.size(), 16u);
  for (const char c : digest) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << digest;
  }
}

TEST(QueryValidation, RejectsBadQueries) {
  // Ring too small for the radius.
  EXPECT_THROW(query_from(R"({"kind":"attractor-summary","n":4,"radius":2,)"
                          R"("rule":"majority","topology":"ring"})"),
               InvalidArgumentError);
  // Sweep order must be a permutation.
  EXPECT_THROW(query_from(R"({"kind":"attractor-summary","n":3,"radius":1,)"
                          R"("rule":"majority","scheme":"sweep",)"
                          R"("order":[0,0,1]})"),
               InvalidArgumentError);
  // Synchronous scheme takes no order.
  EXPECT_THROW(query_from(R"({"kind":"attractor-summary","n":3,"radius":1,)"
                          R"("rule":"majority","order":[2,1,0]})"),
               InvalidArgumentError);
  // Preimage target out of range.
  EXPECT_THROW(query_from(R"({"kind":"preimage-count","n":4,"radius":1,)"
                          R"("rule":"majority","target":16})"),
               InvalidArgumentError);
  // Explicit-graph query beyond the explicit-state ceiling.
  EXPECT_THROW(query_from(R"({"kind":"attractor-summary","n":40,"radius":1,)"
                          R"("rule":"majority","topology":"ring"})"),
               DomainTooLargeError);
}

// ---------------------------------------------------------------------
// Cache: memory tier
// ---------------------------------------------------------------------

TEST(ResultCacheMemory, LruEvictionOrder) {
  ResultCache cache({/*max_entries=*/3, /*disk_dir=*/""});
  const ServiceQuery q5 = attractor_query(5);
  const ServiceQuery q6 = attractor_query(6);
  const ServiceQuery q7 = attractor_query(7);
  const ServiceQuery q8 = attractor_query(8);

  cache.insert(q5, "{\"a\":5}");
  cache.insert(q6, "{\"a\":6}");
  cache.insert(q7, "{\"a\":7}");
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.keys_by_recency(),
            (std::vector<std::string>{q7.canonical_key(), q6.canonical_key(),
                                      q5.canonical_key()}));

  // Touch q5: it becomes most recent, so q6 is now the eviction victim.
  ASSERT_TRUE(cache.lookup(q5).has_value());
  cache.insert(q8, "{\"a\":8}");
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.keys_by_recency(),
            (std::vector<std::string>{q8.canonical_key(), q5.canonical_key(),
                                      q7.canonical_key()}));
  EXPECT_FALSE(cache.lookup(q6).has_value());
  const auto hit = cache.lookup(q5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result_json, "{\"a\":5}");
  EXPECT_EQ(hit->tier, CacheTier::kMemory);
}

TEST(ResultCacheMemory, InsertRefreshesExistingEntry) {
  ResultCache cache({2, ""});
  const ServiceQuery q5 = attractor_query(5);
  cache.insert(q5, "{\"v\":1}");
  cache.insert(q5, "{\"v\":2}");
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.lookup(q5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result_json, "{\"v\":2}");
}

// ---------------------------------------------------------------------
// Cache: disk tier
// ---------------------------------------------------------------------

TEST(ResultCacheDisk, RoundTripThroughAFreshCache) {
  const tests::TempDir dir("service");
  const ServiceQuery q = attractor_query(6);
  {
    ResultCache writer({8, dir.str()});
    writer.insert(q, "{\"answer\":42}");
  }
  // A fresh cache has a cold memory tier; the hit must come from disk and
  // be promoted into memory.
  ResultCache reader({8, dir.str()});
  const auto first = reader.lookup(q);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->result_json, "{\"answer\":42}");
  EXPECT_EQ(first->tier, CacheTier::kDisk);
  const auto second = reader.lookup(q);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tier, CacheTier::kMemory);
}

TEST(ResultCacheDisk, CorruptEntryIsQuarantinedNotServed) {
  const tests::TempDir dir("service");
  const ServiceQuery q = attractor_query(6);
  std::string path;
  {
    ResultCache writer({8, dir.str()});
    writer.insert(q, "{\"answer\":42}");
    path = writer.disk_path(q);
  }
  ASSERT_TRUE(fs::exists(path));
  // Flip one payload byte (the checkpoint checksum must catch it).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);
    char c = 0;
    f.read(&c, 1);
    f.seekp(-3, std::ios::end);
    c = static_cast<char>(c ^ 0x5a);
    f.write(&c, 1);
  }
  ResultCache reader({8, dir.str()});
  EXPECT_FALSE(reader.lookup(q).has_value());
  EXPECT_FALSE(fs::exists(path)) << "corrupt file must not stay in place";
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
  // The quarantined file is out of the lookup path: still a miss, and no
  // crash on repeat lookups.
  EXPECT_FALSE(reader.lookup(q).has_value());
}

TEST(ResultCacheDisk, EmbeddedKeyMismatchIsQuarantined) {
  const tests::TempDir dir("service");
  const ServiceQuery q6 = attractor_query(6);
  const ServiceQuery q7 = attractor_query(7);
  ResultCache cache({8, dir.str()});
  cache.insert(q6, "{\"answer\":6}");
  // Simulate a digest collision: q7's slot filled with q6's entry.
  fs::copy_file(cache.disk_path(q6), cache.disk_path(q7));
  ResultCache reader({8, dir.str()});
  EXPECT_FALSE(reader.lookup(q7).has_value());
  EXPECT_TRUE(fs::exists(cache.disk_path(q7) + ".quarantined"));
}

// ---------------------------------------------------------------------
// Coalescing: N identical concurrent requests -> exactly one build
// ---------------------------------------------------------------------

TEST(Coalescing, ConcurrentIdenticalRequestsStartOneBuild) {
  const tests::TempDir dir("service");
  HandlerOptions options;
  options.cache.disk_dir = "";  // memory only: the engine must be the
                                // only thing that can satisfy a miss
  RequestHandler handler(options);

  const std::string request =
      R"({"op":"query","id":1,"query":{"kind":"attractor-summary","n":12,)"
      R"("radius":1,"rule":"majority","topology":"ring"}})";

  constexpr std::size_t kThreads = 8;
  std::atomic<std::uint64_t> ok{0};
  std::vector<std::string> sources(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const std::string response = handler.handle(request);
      const JsonValue v = parse_json(response);
      if (v.string_or("status", "") == "ok") ok.fetch_add(1);
      sources[i] = v.string_or("source", "");
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ok.load(), kThreads);
  // The counter-asserted invariant: one engine build, total.
  EXPECT_EQ(handler.engine().builds_started(), 1u);
  std::size_t computed = 0;
  for (const std::string& s : sources) {
    EXPECT_TRUE(s == "computed" || s == "coalesced" || s == "memory-cache")
        << s;
    if (s == "computed") ++computed;
  }
  EXPECT_EQ(computed, 1u);
  EXPECT_EQ(handler.active_requests(), 0u);
}

// ---------------------------------------------------------------------
// Handler error envelope
// ---------------------------------------------------------------------

TEST(Handler, MalformedRequestsBecomeErrorResponses) {
  RequestHandler handler(HandlerOptions{});
  for (const char* bad : {
           "not json at all",
           "{}",
           R"({"op":"launch-missiles","id":1})",
           R"({"op":"query","id":1})",
           R"({"op":"query","id":1,"query":{"kind":"attractor-summary"}})",
       }) {
    const std::string response = handler.handle(bad);
    const JsonValue v = parse_json(response);
    EXPECT_EQ(v.string_or("status", ""), "error") << bad;
    EXPECT_NE(v.find("error"), nullptr) << bad;
  }
  EXPECT_EQ(handler.active_requests(), 0u);
}

TEST(Handler, CachedAnswerIsBitIdenticalToComputedAnswer) {
  RequestHandler handler(HandlerOptions{});
  const std::string request =
      R"({"op":"query","id":7,"query":{"kind":"transient-depth","n":8,)"
      R"("radius":1,"rule":"majority","topology":"ring"}})";
  const std::string first = handler.handle(request);
  const std::string second = handler.handle(request);
  const JsonValue v1 = parse_json(first);
  const JsonValue v2 = parse_json(second);
  EXPECT_EQ(v1.string_or("source", ""), "computed");
  EXPECT_EQ(v2.string_or("source", ""), "memory-cache");
  // Identical modulo the source tag: compare the result payloads.
  const auto result_of = [](const std::string& s) {
    const std::size_t pos = s.find("\"result\":");
    return pos == std::string::npos ? std::string()
                                    : s.substr(pos, s.size() - pos - 1);
  };
  EXPECT_EQ(result_of(first), result_of(second));
  EXPECT_NE(result_of(first), "");
}

// ---------------------------------------------------------------------
// Resume: a truncated or failed build keeps its whole shards as digested
// disk extents under ckpt_dir, and the next identical request skips them
// ---------------------------------------------------------------------

constexpr std::uint64_t kShard = std::uint64_t{1} << 16;

/// The attractor summary straight from the library (no engine, no store).
std::string library_summary(const ServiceQuery& q) {
  const core::Automaton a = q.automaton();
  const phasespace::FunctionalGraph fg =
      q.scheme == Scheme::kSweep
          ? phasespace::FunctionalGraph::sweep(a, q.effective_order())
          : phasespace::FunctionalGraph::synchronous(a);
  const phasespace::Classification c = phasespace::classify(fg);
  QueryResult r;
  r.kind = q.kind;
  r.num_states = fg.num_states();
  r.num_attractors = c.attractors.size();
  r.num_fixed_points = c.num_fixed_points;
  r.num_cycle_states = c.num_cycle_states;
  r.num_transient_states = c.num_transient_states;
  r.num_gardens_of_eden = c.num_gardens_of_eden;
  r.max_period = c.max_period();
  r.max_transient = c.max_transient;
  r.cycle_lengths.assign(c.cycle_length_histogram.begin(),
                         c.cycle_length_histogram.end());
  return r.to_json();
}

std::size_t files_under(const fs::path& dir) {
  std::size_t files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) ++files;
  }
  return files;
}

/// `q` answered by an engine without a ckpt_dir: a plain build into the
/// `store` backend.
std::string plain_answer(const ServiceQuery& q, phasespace::StoreKind store) {
  EngineOptions options;
  options.store = store;
  QueryEngine engine(options);
  const QueryOutcome out = engine.execute(q, RequestBudget{}, {});
  EXPECT_TRUE(out.ok()) << out.error;
  EXPECT_FALSE(out.resumed);
  return out.result.to_json();
}

/// Truncates `q` after two of its four shards, then reruns it unbudgeted:
/// the rerun must skip the persisted shards, filling the `store` backend
/// from the revalidated extents, and answer like the library and like a
/// plain build.
void expect_truncate_then_resume(
    const ServiceQuery& q,
    phasespace::StoreKind store = phasespace::StoreKind::kFlat) {
  ASSERT_EQ(q.n, 18u);  // four 2^16-state shards
  const tests::TempDir dir("service");
  EngineOptions options;
  options.ckpt_dir = dir.str();
  options.store = store;
  QueryEngine engine(options);

  RequestBudget budget;
  budget.max_states = 2 * kShard + 1000;  // admits exactly two shards
  const QueryOutcome first = engine.execute(q, budget, {});
  ASSERT_EQ(first.status, QueryOutcome::Status::kTruncated);
  EXPECT_EQ(first.stop_reason, runtime::StopReason::kMaxStates);
  EXPECT_TRUE(first.resumable);
  EXPECT_EQ(first.states_done, 2 * kShard);
  EXPECT_EQ(first.states_total, 4 * kShard);

  obs::Counter& resumed_states =
      obs::counter("phasespace.shard.resumed_states");
  const std::uint64_t resumed_before = resumed_states.value();
  const QueryOutcome second = engine.execute(q, RequestBudget{}, {});
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(resumed_states.value() - resumed_before, 2 * kShard);
  EXPECT_EQ(second.result.to_json(), library_summary(q));
  EXPECT_EQ(second.result.to_json(), plain_answer(q, store));
  EXPECT_FALSE(fs::exists(dir.path() / "store" / q.digest()))
      << "a completed build leaves no store directory";
  EXPECT_EQ(files_under(dir.path()), 0u)
      << "a completed build leaves no store or checkpoint files";
}

TEST(EngineResume, TruncatedSynchronousBuildResumesToTheLibraryAnswer) {
  expect_truncate_then_resume(attractor_query(18));
}

TEST(EngineResume, TruncatedPackedBuildResumesToTheLibraryAnswer) {
  expect_truncate_then_resume(attractor_query(18),
                              phasespace::StoreKind::kPacked);
}

// An untruncated resumable request spills and publishes as it builds,
// then removes its store directory once the answer is derived.
TEST(EngineResume, CompletedRequestLeavesNoStoreDirectory) {
  const tests::TempDir dir("service");
  const ServiceQuery q = attractor_query(18);
  EngineOptions options;
  options.ckpt_dir = dir.str();
  options.ckpt_every_states = kShard;
  QueryEngine engine(options);
  obs::Counter& saved = obs::counter("service.resume.saved");
  const std::uint64_t saved_before = saved.value();
  const QueryOutcome out = engine.execute(q, RequestBudget{}, {});
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_FALSE(out.resumed);
  EXPECT_GE(saved.value() - saved_before, 1u) << "no manifest was published";
  EXPECT_EQ(out.result.to_json(), library_summary(q));
  EXPECT_FALSE(fs::exists(dir.path() / "store" / q.digest()));
  EXPECT_EQ(files_under(dir.path()), 0u);
}

TEST(EngineResume, TruncatedSweepBuildResumesToTheLibraryAnswer) {
  std::string order;
  for (int i = 17; i >= 0; --i) {
    order += std::to_string(i) + (i != 0 ? "," : "");
  }
  expect_truncate_then_resume(query_from(
      R"({"kind":"attractor-summary","n":18,"radius":1,"rule":"majority",)"
      R"("topology":"ring","scheme":"sweep","order":[)" +
      order + "]}"));
}

TEST(EngineResume, BuildKilledEveryAttemptResumesFromLastCadenceManifest) {
  const tests::TempDir dir("service");
  const ServiceQuery q = attractor_query(18);
  EngineOptions options;
  options.ckpt_dir = dir.str();
  options.ckpt_every_states = kShard;  // a manifest after every shard
  {
    options.supervisor.retry.max_attempts = 1;
    QueryEngine engine(options);
    // The second manifest write fails, which kills the only attempt.
    runtime::ScopedFaultPlan plan({.checkpoint_write_at = 2});
    const QueryOutcome dead = engine.execute(q, RequestBudget{}, {});
    ASSERT_EQ(dead.status, QueryOutcome::Status::kFailed);
    EXPECT_FALSE(dead.resumable);
  }
  // The failed save leaves the earlier manifest behind.
  std::size_t manifests = 0;
  for (const auto& entry :
       fs::directory_iterator(dir.path() / "store" / q.digest())) {
    if (entry.path().filename().string().rfind("manifest.ckpt", 0) == 0) {
      ++manifests;
    }
  }
  EXPECT_GE(manifests, 1u);

  options.supervisor = runtime::SupervisorOptions{};
  QueryEngine fresh(options);
  obs::Counter& resumed_states =
      obs::counter("phasespace.shard.resumed_states");
  const std::uint64_t resumed_before = resumed_states.value();
  const QueryOutcome out = fresh.execute(q, RequestBudget{}, {});
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_TRUE(out.resumed);
  EXPECT_GE(resumed_states.value() - resumed_before, kShard);
  EXPECT_EQ(out.result.to_json(), library_summary(q));
  EXPECT_EQ(files_under(dir.path()), 0u);
}

// The store directory is named by the digest; a directory holding
// another query's extents (a digest collision) is wiped, never resumed.
TEST(EngineResume, ForeignExtentsUnderTheDigestAreNeverResumed) {
  const tests::TempDir dir("service");
  EngineOptions options;
  options.ckpt_dir = dir.str();
  QueryEngine engine(options);
  const ServiceQuery other = query_from(
      R"({"kind":"attractor-summary","n":18,"radius":1,"rule":"parity",)"
      R"("topology":"ring"})");
  RequestBudget budget;
  budget.max_states = 2 * kShard;
  ASSERT_EQ(engine.execute(other, budget, {}).status,
            QueryOutcome::Status::kTruncated);

  const ServiceQuery q = attractor_query(18);
  const fs::path store = dir.path() / "store";
  fs::rename(store / other.digest(), store / q.digest());
  const QueryOutcome out = engine.execute(q, RequestBudget{}, {});
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_FALSE(out.resumed);
  EXPECT_EQ(out.result.to_json(), library_summary(q));
}

TEST(Handler, TruncatedResponseIsResumableOnlyWhenExtentsPersisted) {
  const std::string request =
      R"({"op":"query","id":3,"budget":{"max_states":140000},)"
      R"("query":{"kind":"attractor-summary","n":18,"radius":1,)"
      R"("rule":"majority","topology":"ring"}})";
  {
    // No --ckpt-dir: nothing is persisted, so nothing is resumable.
    RequestHandler handler(HandlerOptions{});
    const JsonValue v = parse_json(handler.handle(request));
    EXPECT_EQ(v.string_or("status", ""), "truncated");
    EXPECT_EQ(v.string_or("stop_reason", ""), "max-states");
    EXPECT_EQ(v.u64_or("states_done", 1), 0u);
    EXPECT_EQ(v.u64_or("states_total", 0), 4 * kShard);
    EXPECT_FALSE(v.bool_or("resumable", true));
  }
  const tests::TempDir dir("service");
  HandlerOptions options;
  options.engine.ckpt_dir = dir.str();
  RequestHandler handler(options);
  const JsonValue v = parse_json(handler.handle(request));
  EXPECT_EQ(v.string_or("status", ""), "truncated");
  EXPECT_EQ(v.u64_or("states_done", 0), 2 * kShard);
  ASSERT_NE(v.find("resumable"), nullptr);
  EXPECT_TRUE(v.find("resumable")->as_bool());

  // Small-n builds take the direct path, which never persists.
  const JsonValue small = parse_json(handler.handle(
      R"({"op":"query","id":4,"budget":{"max_states":100},)"
      R"("query":{"kind":"attractor-summary","n":12,"radius":1,)"
      R"("rule":"majority","topology":"ring"}})"));
  EXPECT_EQ(small.string_or("status", ""), "truncated");
  EXPECT_EQ(small.u64_or("states_done", 1), 0u);
  EXPECT_FALSE(small.bool_or("resumable", true));
}

}  // namespace
}  // namespace tca::service
