#pragma once
// Generational checkpoint store (docs/robustness.md).
//
// A CheckpointStore replaces single-file checkpoints with keep-last-K
// rotation built on the same checksummed framing (checkpoint.hpp):
//
//   <path>          the newest generation (the "head" — tools and scripts
//                   that watch for a checkpoint file keep working)
//   <path>.g<seq>   older generations, higher seq == newer
//
// save() copies the current head into the next .g<seq> slot, renames the
// new head over it atomically (so a head exists at every instant, even
// across a kill), then prunes healthy generations beyond keep_generations.
// load_latest() walks head-then-generations newest-first and returns the
// first checksum-valid checkpoint; anything that fails validation is
// QUARANTINED — renamed to <file>.quarantined[.n], never deleted — so a
// corrupt generation is preserved for forensics and never consulted again.
// A missing/unreadable file is skipped without quarantine (it may simply
// not exist yet).
//
// Counters: ckpt_store.{saves,rotations,pruned,quarantined,recoveries};
// each quarantine also emits a "ckpt_store.quarantined" warn event
// (docs/observability.md).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/checkpoint.hpp"

namespace tca::runtime {

struct CheckpointStoreOptions {
  /// Total generations retained, head included. Clamped to >= 1.
  std::uint32_t keep_generations = 3;
};

class CheckpointStore {
 public:
  explicit CheckpointStore(std::string head_path,
                           CheckpointStoreOptions options = {});

  /// Copies the existing head (if any) into a generation slot, atomically
  /// replaces the head with `checkpoint`, prunes old healthy generations
  /// beyond keep_generations. Throws CheckpointError(kIo) if the
  /// filesystem refuses; the previous head then survives as the head.
  void save(const Checkpoint& checkpoint);

  /// A successful recovery: which file satisfied the checksum, whether it
  /// was an older generation, and how many newer files were quarantined
  /// on the way down.
  struct Recovery {
    Checkpoint checkpoint;
    std::string path;
    bool from_generation = false;  ///< head was absent or quarantined
    std::uint32_t quarantined = 0;
  };

  /// Newest checksum-valid generation, or nullopt when nothing on disk
  /// validates. Never throws; corrupt files are quarantined as a side
  /// effect.
  [[nodiscard]] std::optional<Recovery> load_latest() noexcept;

  [[nodiscard]] const std::string& head_path() const noexcept {
    return head_;
  }

  /// All store files newest-first (head first when present), quarantined
  /// files excluded. For tests and tooling.
  [[nodiscard]] std::vector<std::string> generations() const;

 private:
  std::string head_;
  CheckpointStoreOptions options_;
};

}  // namespace tca::runtime
