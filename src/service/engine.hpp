#pragma once
// The tcad compute core (docs/service.md).
//
// Executes one validated ServiceQuery and returns a typed outcome. Every
// explicit build, synchronous or sweep, runs on the sharded builder
// (phasespace/sharded_build.hpp). Three execution paths, picked per
// query:
//
//  * TRANSFER MATRIX — synchronous-ring preimage counts go through
//    phasespace::RingPreimageSolver: O(n) matrix products, no state
//    enumeration, answered inline (no admission slot needed).
//  * SMALL-N DIRECT — explicit builds with n <= small_n_bits get one
//    attempt, no retry, straight into the configured store: the build is
//    cheap enough that retry/resume machinery would cost more than
//    recomputing.
//  * LARGE-N SUPERVISED — everything else gets retries and the engine-
//    degradation ladder. Both run under phasespace::supervised_sharded
//    with a per-request RunBudget and CancelToken. With a ckpt_dir the
//    build is RESUMABLE: it writes through, putting each shard into the
//    configured store and spilling it as one digested extent under
//    ckpt_dir/store/<digest>, publishing a manifest every
//    ckpt_every_states states, and the next identical request rebuilds
//    only the shards no valid extent covers (docs/service.md). Results
//    derive straight from the configured store; the admission slot is
//    released before the extent directory is removed. (The synchronous
//    GoE census persists nothing: a retry restarts its scan.)
//
// Admission control: at most max_concurrent_builds explicit builds run
// at once; excess requests queue on a condition variable (FIFO-ish) and
// their wait is recorded in the service.admission.wait_us histogram.
//
// Counters: service.engine.{builds,small_n,supervised,truncated,failed},
// service.resume.saved (resume manifests published) and
// service.resume.resumed (requests that reused extents).

#include <cstdint>
#include <string>

#include "core/annotations.hpp"
#include "phasespace/successor_store.hpp"
#include "runtime/budget.hpp"
#include "runtime/supervisor.hpp"
#include "service/query.hpp"

namespace tca::service {

struct EngineOptions {
  /// Directory for resumable builds' disk extents; empty disables
  /// resumability.
  std::string ckpt_dir;
  /// Publish a resume manifest every this many newly built states
  /// (large-n supervised builds only).
  std::uint64_t ckpt_every_states = 1u << 18;
  /// Builds with n <= this many bits take the unsupervised direct path.
  std::uint32_t small_n_bits = 16;
  /// Explicit builds admitted concurrently; further requests queue.
  std::uint32_t max_concurrent_builds = 2;
  /// Retry/degradation policy for supervised builds. The per-request
  /// budget is layered on top as the attempt budget.
  runtime::SupervisorOptions supervisor;
  /// Successor-storage backend completed explicit graphs are held in
  /// while results are derived (docs/service.md "storage backends"):
  /// kFlat keeps the raw 8-byte table, kPacked stores n bits per
  /// successor (~8x smaller resident set per admitted build at n=26),
  /// kDisk spills the table under ckpt_dir and streams results back with
  /// bounded RAM. All backends produce bit-identical results (pinned by
  /// the store-backend-agree oracle).
  phasespace::StoreKind store = phasespace::StoreKind::kFlat;
};

/// Per-request resource limits, parsed from the request's "budget" object.
struct RequestBudget {
  std::uint64_t max_states = runtime::RunBudget::kUnlimited;
  std::uint64_t wall_ms = 0;  ///< 0 = no wall limit

  /// `options` with this budget as the attempt budget and deadline, and
  /// `token` as the cancellation token.
  [[nodiscard]] runtime::SupervisorOptions supervise(
      runtime::SupervisorOptions options, runtime::CancelToken token) const;
};

/// How one execution ended.
struct QueryOutcome {
  enum class Status : std::uint8_t { kOk = 0, kTruncated, kFailed };

  Status status = Status::kFailed;
  QueryResult result;  ///< valid iff status == kOk
  runtime::StopReason stop_reason = runtime::StopReason::kNone;
  /// Truncated: states persisted in whole shards, which the next
  /// identical request skips (0 when nothing was persisted).
  std::uint64_t states_done = 0;
  std::uint64_t states_total = 0;
  bool resumable = false;  ///< truncated with states_done persisted
  bool resumed = false;    ///< persisted extents seeded this build
  bool degraded = false;  ///< the supervisor walked the engine ladder
  ErrorCode error_code = ErrorCode::kUnknown;
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return status == Status::kOk; }
};

class QueryEngine {
 public:
  explicit QueryEngine(EngineOptions options);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Executes `query` (already validated) under the request budget.
  /// `token` cancels cooperatively (server shutdown, client gone). Never
  /// throws for compute-path failures — they land in the outcome.
  [[nodiscard]] QueryOutcome execute(const ServiceQuery& query,
                                     const RequestBudget& budget,
                                     runtime::CancelToken token);

  /// Total explicit-graph builds started (small-n + supervised attempts
  /// are counted once per execute, not per retry). Test hook for the
  /// coalescing assertion "N identical concurrent requests -> 1 build".
  [[nodiscard]] std::uint64_t builds_started() const;

 private:
  class AdmissionSlot;

  QueryOutcome run_preimage_transfer_matrix(const ServiceQuery& query) const;
  QueryOutcome run_explicit(const ServiceQuery& query,
                            const RequestBudget& budget,
                            runtime::CancelToken token);
  QueryOutcome run_goe_supervised(const ServiceQuery& query,
                                  const RequestBudget& budget,
                                  runtime::CancelToken token);

  const EngineOptions options_;

  mutable Mutex mu_;
  CondVar cv_;
  std::uint32_t active_builds_ TCA_GUARDED_BY(mu_) = 0;
  std::uint64_t builds_started_ TCA_GUARDED_BY(mu_) = 0;
};

}  // namespace tca::service
