#pragma once
// Sharded, NUMA-aware phase-space construction
// (docs/performance.md "successor storage hierarchy").
//
// build_synchronous_parallel (functional_graph.cpp) hands contiguous
// chunks to the fork-join ThreadPool and writes a flat 8-byte-per-state
// table. This builder replaces both halves for large n:
//
//  * the 2^n code range is cut into fixed shards (multiples of
//    successor_store.hpp's kPutAlign, so shards never share a packed
//    word or a disk byte) and the shards are partitioned into one
//    contiguous region per WORKER GROUP — one group per NUMA node when
//    /sys/devices/system/node exposes several (probed at startup,
//    graceful single-group fallback otherwise). Workers claim shards
//    from their own group's cursor and, once it drains, STEAL from the
//    other groups — so the common case is node-local memory traffic and
//    the tail case is no idle cores. Claim/steal tallies land in the
//    "phasespace.shard.{claimed,stolen}" counters.
//
//  * each worker streams its shard through a thread-local
//    BatchCodeStepper (the dispatched SIMD tier; plans, slices and
//    fallback buffers are per-thread state) into a thread-local staging
//    buffer, then put_range()s the finished shard into the shared
//    SuccessorStore — flat, packed (n-bit succinct), or disk (spilled
//    extents with FNV digests), chosen per build. A RAM build given a
//    disk_dir WRITES THROUGH: each shard also goes to a DiskStore as
//    the same digested extent, so the build is resumable while the
//    graph still derives from RAM.
//
// The result is deterministic: shard -> range is a fixed function of
// (bits, shard_states), every shard is computed by exactly one worker
// with the same engine, and put_range targets disjoint ranges — so the
// table is bit-identical for ANY worker count, group layout, or steal
// interleaving (pinned by sharded_build_test and the
// store-backend-agree oracle).
//
// Budget/truncation contract: the store's footprint is charged up front
// and each shard's states when it is claimed, so a state budget admits
// floor(budget / shard_states) whole shards whatever the worker count;
// cancellation and the deadline stop mid-shard (polled per 1024-block).
// A tripped control stops claiming and the build reports counts only
// (shards complete out of order: no contiguous prefix). A spilling build
// (kDisk or write-through) that truncates still finalizes its manifest,
// so a follow-up build with resume=true skips every digest-valid shard
// already on disk; a write-through resume decodes those shards into the
// RAM store from the same read that checks their digests.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/automaton.hpp"
#include "phasespace/functional_graph.hpp"
#include "phasespace/successor_store.hpp"
#include "runtime/budget.hpp"
#include "runtime/supervisor.hpp"

namespace tca::phasespace {

/// One worker group: the CPUs of one NUMA node (or the whole machine
/// when the topology is flat / unprobeable).
struct WorkerGroup {
  std::uint32_t node = 0;          ///< NUMA node id (0 on fallback)
  std::vector<unsigned> cpus;      ///< CPUs owned by the node
};

/// Machine topology as the sharder sees it.
struct NumaTopology {
  std::vector<WorkerGroup> groups;  ///< >= 1, sorted by node id
  bool from_sysfs = false;          ///< false => single-group fallback
  [[nodiscard]] unsigned total_cpus() const noexcept {
    unsigned n = 0;
    for (const WorkerGroup& g : groups) {
      n += static_cast<unsigned>(g.cpus.size());
    }
    return n;
  }
};

/// Probes /sys/devices/system/node/node*/cpulist. Any read/parse
/// failure, or a machine with one node, degrades to a single group of
/// hardware_concurrency() CPUs — never throws.
[[nodiscard]] NumaTopology probe_numa_topology();

struct ShardedBuildOptions {
  /// Storage backend the build writes into.
  StoreKind store = StoreKind::kPacked;
  /// Worker threads (0 = one per probed CPU). Clamped to [1, shards];
  /// the calling thread is worker 0.
  unsigned workers = 0;
  /// States per shard. Rounded UP to a multiple of kPutAlign (512) so
  /// shards never share a packed word or disk byte; the final shard is
  /// the ragged remainder. Small values are for tests.
  StateCode shard_states = StateCode{1} << 16;
  /// Directory of the digested extents. Required for kDisk, where the
  /// extents are the store. For kFlat / kPacked a non-empty directory
  /// makes the build write through: every shard is put into the RAM
  /// store and also spilled there, which makes the build resumable.
  /// Either way shard_states is rounded up to kPutAlign.
  std::string disk_dir;
  /// With disk_dir: revalidate extents already on disk (digest check
  /// against the manifest) and skip rebuilding shards they cover.
  bool resume = false;
  /// With disk_dir: publish a resume manifest after every this many newly
  /// spilled states (DiskStore::publish_every); 0 = only when the build
  /// ends.
  StateCode publish_every_states = 0;
  /// Best-effort pthread affinity of each worker to its group's CPUs.
  /// Off by default: pinning helps throughput on multi-node hosts but
  /// is wrong for shared CI runners.
  bool pin_threads = false;
  /// Engine rung the per-worker steppers run at (the degradation
  /// ladder's knob; kWideSimd = dispatched best tier).
  runtime::EngineRung rung = runtime::EngineRung::kWideSimd;
};

/// Build-level tallies (also published as counters).
struct ShardStats {
  std::uint64_t shards_total = 0;
  std::uint64_t shards_claimed = 0;   ///< claimed from the worker's group
  std::uint64_t shards_stolen = 0;    ///< claimed from a foreign group
  std::uint64_t resumed_states = 0;   ///< resume: states not rebuilt
  std::uint64_t stored_states = 0;    ///< in whole shards: what resume skips
  std::uint64_t manifests = 0;        ///< resume manifests published
  std::uint32_t worker_groups = 0;
  std::uint32_t workers = 0;          ///< after clamping to the shards
};

/// Outcome of a sharded build: the usual FunctionalGraphBuild contract
/// (graph engaged iff complete; truncation reports counts only) plus the
/// store itself (engaged iff complete — the streaming-census surface —
/// or a truncated kDisk build's partial store) and the shard tallies.
struct ShardedBuild {
  FunctionalGraphBuild build;
  std::shared_ptr<SuccessorStore> store;
  ShardStats stats;

  [[nodiscard]] bool complete() const noexcept { return build.complete(); }
};

/// Sharded synchronous phase space: succ[s] = F(s) for all 2^n states,
/// bit-identical to FunctionalGraph::synchronous on every backend.
[[nodiscard]] ShardedBuild build_synchronous_sharded(
    const core::Automaton& a, const ShardedBuildOptions& options,
    runtime::RunControl& control);

/// Sharded sweep (SCA) phase space: one full sweep of `order` per code,
/// bit-identical to FunctionalGraph::sweep.
[[nodiscard]] ShardedBuild build_sweep_sharded(
    const core::Automaton& a, std::vector<core::NodeId> order,
    const ShardedBuildOptions& options, runtime::RunControl& control);

/// Supervised wrapper (docs/robustness.md): runs a sharded build under a
/// runtime::Supervisor, walking the engine-degradation ladder on
/// pressure exactly like supervised_synchronous does for the serial
/// builder. An empty `sweep_order` builds the synchronous phase space, a
/// non-empty one the sweep of that order (sweep steppers run the
/// dispatched tier at every rung). Builds with a disk_dir set resume=true
/// on retry attempts so a failed attempt's completed shards are not
/// recomputed.
struct SupervisedShardedBuild {
  ShardedBuild build;  ///< the last attempt that returned
  runtime::SupervisorReport report;
};
[[nodiscard]] SupervisedShardedBuild supervised_sharded(
    const core::Automaton& a, std::vector<core::NodeId> sweep_order,
    ShardedBuildOptions options,
    const runtime::SupervisorOptions& supervisor);

}  // namespace tca::phasespace
