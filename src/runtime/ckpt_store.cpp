#include "runtime/ckpt_store.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/error.hpp"

namespace tca::runtime {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kGenInfix = ".g";
constexpr std::string_view kQuarantineSuffix = ".quarantined";

struct Generation {
  std::uint64_t seq = 0;
  std::string path;
};

/// All `<head>.g<seq>` siblings of `head`, newest (highest seq) first.
/// Quarantined files never match: their names end in ".quarantined[.n]".
std::vector<Generation> list_generations(const std::string& head) {
  std::vector<Generation> out;
  const fs::path head_path(head);
  fs::path dir = head_path.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = head_path.filename().string() +
                             std::string(kGenInfix);
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string tail = name.substr(prefix.size());
    if (tail.empty() ||
        tail.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.push_back({std::strtoull(tail.c_str(), nullptr, 10),
                   (dir / name).string()});
  }
  std::sort(out.begin(), out.end(),
            [](const Generation& a, const Generation& b) {
              return a.seq > b.seq;
            });
  return out;
}

/// Renames a failed-validation file out of the candidate set, preserving
/// it for forensics. Never deletes; never throws.
void quarantine(const std::string& path, ErrorCode code) noexcept {
  static obs::Counter& quarantined =
      obs::counter("ckpt_store.quarantined");
  std::string target = path + std::string(kQuarantineSuffix);
  std::error_code ec;
  for (std::uint32_t n = 1; fs::exists(target, ec); ++n) {
    target = path + std::string(kQuarantineSuffix) + "." +
             std::to_string(n);
  }
  fs::rename(path, target, ec);
  if (ec) return;  // the file vanished or the fs refused; nothing to do
  quarantined.add();
  obs::log_event(obs::LogLevel::kWarn, "ckpt_store.quarantined",
                 {{"path", path},
                  {"quarantined_as", target},
                  {"code", error_code_name(code)}});
}

}  // namespace

CheckpointStore::CheckpointStore(std::string head_path,
                                 CheckpointStoreOptions options)
    : head_(std::move(head_path)), options_(options) {
  options_.keep_generations = std::max<std::uint32_t>(
      options_.keep_generations, 1);
}

void CheckpointStore::save(const Checkpoint& checkpoint) {
  TCA_SPAN("ckpt_store_save");
  static obs::Counter& saves = obs::counter("ckpt_store.saves");
  static obs::Counter& rotations = obs::counter("ckpt_store.rotations");
  static obs::Counter& pruned = obs::counter("ckpt_store.pruned");

  std::vector<Generation> gens = list_generations(head_);
  std::error_code ec;
  if (fs::exists(head_, ec)) {
    const std::uint64_t next = gens.empty() ? 1 : gens.front().seq + 1;
    const std::string slot =
        head_ + std::string(kGenInfix) + std::to_string(next);
    // Copy, not rename: the head keeps its name until save_checkpoint
    // renames the new one over it, so a head exists at every instant. The
    // copy lands in the slot by rename, so a slot is always whole and its
    // own file (a hard link would share the head's bytes until then).
    const std::string tmp = slot + ".tmp";
    fs::copy_file(head_, tmp, fs::copy_options::overwrite_existing, ec);
    if (!ec) fs::rename(tmp, slot, ec);
    if (ec) {
      throw CheckpointError(
          "checkpoint store '" + head_ + "': rotation to '" + slot +
              "' failed: " + ec.message(),
          ErrorCode::kIo);
    }
    gens.insert(gens.begin(), {next, slot});
    rotations.add();
  }

  save_checkpoint(head_, checkpoint);
  saves.add();

  // Head + the newest (keep - 1) generations stay; the rest are healthy
  // rotations past the retention window and are the ONLY files the store
  // ever deletes (quarantined files are out of scope by construction).
  const std::size_t keep = options_.keep_generations - 1;
  for (std::size_t i = keep; i < gens.size(); ++i) {
    fs::remove(gens[i].path, ec);
    if (!ec) pruned.add();
  }
}

std::optional<CheckpointStore::Recovery>
CheckpointStore::load_latest() noexcept {
  static obs::Counter& recoveries = obs::counter("ckpt_store.recoveries");
  try {
    TCA_SPAN("ckpt_store_load");
    std::vector<std::string> candidates;
    std::error_code ec;
    if (fs::exists(head_, ec)) candidates.push_back(head_);
    for (const Generation& gen : list_generations(head_)) {
      candidates.push_back(gen.path);
    }
    std::uint32_t quarantined = 0;
    for (const std::string& path : candidates) {
      try {
        Recovery recovery;
        recovery.checkpoint = load_checkpoint(path);
        recovery.path = path;
        recovery.from_generation = path != head_;
        recovery.quarantined = quarantined;
        if (recovery.from_generation || quarantined > 0) recoveries.add();
        return recovery;
      } catch (const CheckpointError& e) {
        if (e.code() == ErrorCode::kIo) continue;  // unreadable: skip only
        quarantine(path, e.code());
        ++quarantined;
      } catch (const std::exception&) {
        continue;
      }
    }
    return std::nullopt;
  } catch (...) {
    return std::nullopt;
  }
}

std::vector<std::string> CheckpointStore::generations() const {
  std::vector<std::string> out;
  std::error_code ec;
  if (fs::exists(head_, ec)) out.push_back(head_);
  for (const Generation& gen : list_generations(head_)) {
    out.push_back(gen.path);
  }
  return out;
}

}  // namespace tca::runtime
