#include "phasespace/successor_store.hpp"

// tca-lint: relaxed-ok(packed boundary words are merged with relaxed CAS:
// writers own disjoint bit ranges, the pool/thread join barrier is the
// only publication edge readers rely on, and the CAS loop itself only
// needs atomicity, not ordering — see docs/memory_model.md)

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <utility>

#include "core/contracts.hpp"
#include "core/fnv.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "runtime/ckpt_store.hpp"
#include "runtime/error.hpp"
#include "runtime/fault.hpp"

namespace tca::phasespace {
namespace {

/// Max entries one for_each_range / read-back block decodes at a time.
constexpr std::size_t kStreamBlock = 4096;

[[nodiscard]] std::uint64_t micros_since(
    std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

[[nodiscard]] std::uint64_t mask_for(std::uint32_t bits) {
  if (bits == 0 || bits > 63) {
    throw tca::InvalidArgumentError(
        "SuccessorStore: entry width must be in [1, 63] bits, got " +
        std::to_string(bits));
  }
  return (std::uint64_t{1} << bits) - 1;
}

[[nodiscard]] StateCode entries_or_full(std::uint32_t bits,
                                        StateCode entries) {
  return entries == 0 ? (StateCode{1} << bits) : entries;
}

void check_put_range(StateCode first, std::size_t count, StateCode entries,
                     const char* who) {
  if (first > entries || count > entries - first) {
    throw tca::StateError(std::string(who) + ": put_range [" +
                              std::to_string(first) + ", " +
                              std::to_string(first + count) +
                              ") exceeds capacity " + std::to_string(entries),
                          tca::ErrorCode::kOutOfRange);
  }
}

/// w in the stream's byte order (an involution: it also decodes).
[[nodiscard]] inline std::uint64_t to_le64(std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

/// Packs count n-bit values into words from bit offset 0 (stream bit k is
/// bit k&63 of little-endian word k>>6 — the layout PackedStore uses, so
/// the two backends share one format). Returns the extent digest, taken
/// as the words are emitted: one core::fnv1a64_word step per word, the
/// last partial word zero-padded (extent_digest recomputes it).
std::uint64_t pack_entries(const StateCode* src, std::size_t count,
                           std::uint32_t n, std::uint64_t mask,
                           std::uint64_t* dst) {
  std::uint64_t h = core::kFnvOffsetBasis64;
  std::uint64_t acc = 0;
  std::uint32_t accbits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t v = src[i] & mask;
    acc |= v << accbits;
    accbits += n;
    if (accbits >= 64) {
      h = core::fnv1a64_word(h, acc);
      *dst++ = to_le64(acc);
      accbits -= 64;
      acc = accbits != 0 ? v >> (n - accbits) : 0;
    }
  }
  if (accbits > 0) {
    h = core::fnv1a64_word(h, acc);
    *dst = to_le64(acc);
  }
  return h;
}

/// The digest pack_entries returned, recomputed from `count` stream words
/// read back (the bytes past the extent zeroed).
[[nodiscard]] std::uint64_t extent_digest(const std::uint64_t* words,
                                          std::size_t count) {
  std::uint64_t h = core::kFnvOffsetBasis64;
  for (std::size_t i = 0; i < count; ++i) {
    h = core::fnv1a64_word(h, to_le64(words[i]));
  }
  return h;
}

/// The little-endian 64-bit word at p (the stream's byte order on every
/// host), as one unaligned load.
[[nodiscard]] inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// Unpacks count n-bit values from a byte stream, the first starting at
/// bit offset `bit0` (< 8) within src. src must extend 8 bytes past the
/// last byte actually touched by a value's low bit (callers over-read
/// from a buffer sized for that; n <= 63 and bit0 <= 7 keep every value
/// within one unaligned 64-bit window when n + 7 <= 64, i.e. n <= 57).
void unpack_entries(const std::uint8_t* src, std::size_t count,
                    std::uint32_t n, std::uint64_t mask, StateCode* dst,
                    std::uint32_t bit0) {
  std::uint64_t bit = bit0;
  for (std::size_t i = 0; i < count; ++i, bit += n) {
    const std::size_t byte = static_cast<std::size_t>(bit >> 3);
    const auto sh = static_cast<std::uint32_t>(bit & 7);
    dst[i] = (load_le64(src + byte) >> sh) & mask;
  }
}

/// Merges `value` into *word keeping the bits outside own_mask: a plain
/// store when the word is fully owned, a CAS loop when a concurrent
/// writer may own the complement (ranges straddling a word boundary).
TCA_HOT_PATH inline void merge_word(std::uint64_t* word, std::uint64_t value,
                                    std::uint64_t own_mask) {
  std::atomic_ref<std::uint64_t> ref(*word);
  if (own_mask == ~std::uint64_t{0}) {
    ref.store(value, std::memory_order_relaxed);
    return;
  }
  std::uint64_t old = ref.load(std::memory_order_relaxed);
  const std::uint64_t ours = value & own_mask;
  while (!ref.compare_exchange_weak(old, (old & ~own_mask) | ours,
                                    std::memory_order_relaxed,
                                    std::memory_order_relaxed)) {
  }
}

}  // namespace

const char* store_kind_name(StoreKind kind) noexcept {
  switch (kind) {
    case StoreKind::kFlat: return "flat";
    case StoreKind::kPacked: return "packed";
    case StoreKind::kDisk: return "disk";
  }
  return "flat";
}

void advise_huge_pages(const void* data, std::size_t bytes) noexcept {
#ifdef MADV_HUGEPAGE
  constexpr std::uintptr_t kHuge = std::uintptr_t{1} << 21;
  const auto at = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t begin = (at + kHuge - 1) & ~(kHuge - 1);
  const std::uintptr_t end = (at + bytes) & ~(kHuge - 1);
  if (begin < end) {
    ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_HUGEPAGE);
  }
#else
  static_cast<void>(data);
  static_cast<void>(bytes);
#endif
}

void SuccessorStore::for_each_range(
    const std::function<void(StateCode, std::size_t, const StateCode*)>& fn)
    const {
  // The flat backend streams zero-copy; the others decode per block.
  if (const FlatTable* flat = flat_table()) {
    for (StateCode s = 0; s < entries_; s += kStreamBlock) {
      const auto count = static_cast<std::size_t>(
          std::min<StateCode>(kStreamBlock, entries_ - s));
      fn(s, count, flat->data() + s);
    }
    return;
  }
  std::vector<StateCode> block(
      std::min<StateCode>(kStreamBlock, std::max<StateCode>(entries_, 1)));
  for (StateCode s = 0; s < entries_; s += kStreamBlock) {
    const auto count = static_cast<std::size_t>(
        std::min<StateCode>(kStreamBlock, entries_ - s));
    read_range(s, count, block.data());
    fn(s, count, block.data());
  }
}

// --- FlatStore ----------------------------------------------------------

FlatStore::FlatStore(std::uint32_t bits)
    : SuccessorStore(bits, StateCode{1} << bits) {
  runtime::fault::check_alloc(entries_ * sizeof(StateCode));
  table_.reserve(entries_);
  advise_huge_pages(table_.data(), entries_ * sizeof(StateCode));
  table_.resize(entries_);
}

FlatStore::FlatStore(std::uint32_t bits, FlatTable table)
    : SuccessorStore(bits, StateCode{1} << bits), table_(std::move(table)) {
  if (table_.size() != entries_) {
    throw tca::InvalidArgumentError(
        "FlatStore: table has " + std::to_string(table_.size()) +
            " entries, expected 2^" + std::to_string(bits),
        tca::ErrorCode::kSizeMismatch);
  }
}

TCA_HOT_PATH void FlatStore::put_range(StateCode first, std::size_t count,
                                       const StateCode* src) {
  check_put_range(first, count, entries_, "FlatStore");
  std::memcpy(table_.data() + first, src, count * sizeof(StateCode));
}

void FlatStore::read_range(StateCode first, std::size_t count,
                           StateCode* dst) const {
  std::memcpy(dst, table_.data() + first, count * sizeof(StateCode));
}

// --- PackedStore --------------------------------------------------------

PackedStore::PackedStore(std::uint32_t bits, StateCode entries)
    : SuccessorStore(bits, entries_or_full(bits, entries)),
      value_mask_(mask_for(bits)) {
  const std::uint64_t payload_bits =
      static_cast<std::uint64_t>(entries_) * bits;
  // +1 guard word so the two-word read in get() never runs off the end.
  words_count_ = ((payload_bits + 63) >> 6) + 1;
  runtime::fault::check_alloc(words_count_ * sizeof(std::uint64_t));
  // Default-initialized on purpose: a complete build writes every payload
  // bit, and skipping the up-front memset is measurable at 2^24+ entries.
  words_.reset(new std::uint64_t[words_count_]);
  words_[words_count_ - 1] = 0;  // the guard word IS read before writes
  static obs::Counter& packed_bits = obs::counter("store.packed_bits");
  packed_bits.add(payload_bits);
}

TCA_HOT_PATH void PackedStore::put_range(StateCode first, std::size_t count,
                                         const StateCode* src) {
  check_put_range(first, count, entries_, "PackedStore");
  if (count == 0) return;
  const std::uint32_t n = bits_;
  const std::uint64_t bit = first * n;
  auto w = static_cast<std::size_t>(bit >> 6);
  auto shift = static_cast<std::uint32_t>(bit & 63);
  // own: bits of the current word this range is allowed to write. The
  // first word keeps its low `shift` bits (a neighbor's), every word
  // after that is fully owned until the tail.
  std::uint64_t own = shift != 0
                          ? ~((std::uint64_t{1} << shift) - 1)
                          : ~std::uint64_t{0};
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t v = src[i] & value_mask_;
    acc |= v << shift;
    shift += n;
    if (shift >= 64) {
      merge_word(&words_[w], acc, own);
      ++w;
      shift -= 64;
      acc = shift != 0 ? v >> (n - shift) : 0;
      own = ~std::uint64_t{0};
    }
  }
  if (shift != 0) {
    // Tail word: own everything below `shift` that the head didn't
    // already exclude (when the whole range fits inside one word, `own`
    // still carries the head exclusion).
    merge_word(&words_[w], acc, own & ((std::uint64_t{1} << shift) - 1));
  }
}

void PackedStore::read_range(StateCode first, std::size_t count,
                             StateCode* dst) const {
  for (std::size_t i = 0; i < count; ++i) dst[i] = get(first + i);
}

// --- DiskStore ----------------------------------------------------------

struct DiskStore::Ledger {
  std::mutex mu;
  std::vector<Extent> extents;
  std::uint64_t spilled_bytes = 0;
  StateCode publish_every = 0;
  StateCode unpublished = 0;  // entries put since the last snapshot
  bool finalized = false;
  std::mutex publish_mu;  // one manifest write at a time; taken before mu
  std::uint64_t publications = 0;  // guarded by publish_mu
  std::mutex map_mu;  // one-shot lazy mmap
};

namespace {

/// Packed byte extent of entries [first, first + count) at width n.
/// Alignment (first % kPutAlign == 0) makes the start byte-exact.
[[nodiscard]] std::uint64_t extent_byte_offset(StateCode first,
                                               std::uint32_t n) {
  return first * n / 8;
}

[[nodiscard]] std::uint64_t extent_byte_count(StateCode first,
                                              StateCode count,
                                              std::uint32_t n) {
  const std::uint64_t first_bit = first * static_cast<std::uint64_t>(n);
  const std::uint64_t end_bit = (first + count) * static_cast<std::uint64_t>(n);
  return ((end_bit + 7) / 8) - (first_bit / 8);
}

void pwrite_all(int fd, const std::uint8_t* buf, std::uint64_t count,
                std::uint64_t offset, const char* what) {
  while (count > 0) {
    const ssize_t n = ::pwrite(fd, buf, count, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw tca::CheckpointError(
          std::string("DiskStore: ") + what + " failed: " +
              std::strerror(errno),
          tca::ErrorCode::kIo);
    }
    buf += n;
    count -= static_cast<std::uint64_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

[[nodiscard]] bool pread_all(int fd, std::uint8_t* buf, std::uint64_t count,
                             std::uint64_t offset) {
  while (count > 0) {
    const ssize_t n = ::pread(fd, buf, count, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {  // short file: treat the hole as zeros
      std::memset(buf, 0, count);
      return true;
    }
    buf += n;
    count -= static_cast<std::uint64_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// v2: extent digests are word-wise (core::fnv1a64_word over the packed
/// words). A v1 manifest (byte-wise FNV-1a) fails the header check and
/// its extents are rebuilt, never trusted.
constexpr const char* kManifestMagic = "tca-succ-store v2";

}  // namespace

DiskStore::DiskStore(std::uint32_t bits, std::string dir, StateCode entries)
    : SuccessorStore(bits, entries_or_full(bits, entries)),
      dir_(std::move(dir)),
      value_mask_(mask_for(bits)),
      ledger_(new Ledger) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw tca::CheckpointError(
        "DiskStore: cannot create directory " + dir_ + ": " + ec.message(),
        tca::ErrorCode::kIo);
  }
  data_path_ = (fs::path(dir_) / "succ.dat").string();
  // O_CREAT without O_TRUNC: an existing data file is what resume() reads.
  fd_ = ::open(data_path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw tca::CheckpointError(
        "DiskStore: cannot open " + data_path_ + ": " + std::strerror(errno),
        tca::ErrorCode::kIo);
  }
  // Extend (never shrink) to full size so unwritten holes read as zeros
  // and the mmap window is fixed. Sparse, so no up-front disk cost.
  struct stat st {};
  if (::fstat(fd_, &st) == 0 &&
      static_cast<std::uint64_t>(st.st_size) < data_bytes()) {
    if (::ftruncate(fd_, static_cast<off_t>(data_bytes())) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      throw tca::CheckpointError(
          "DiskStore: cannot size " + data_path_ + ": " + std::strerror(err),
          tca::ErrorCode::kIo);
    }
  }
}

DiskStore::~DiskStore() {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), map_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t DiskStore::data_bytes() const noexcept {
  // +8 guard bytes so the unaligned 64-bit window of get()/unpack never
  // runs off the mapping.
  return (static_cast<std::uint64_t>(entries_) * bits_ + 7) / 8 + 8;
}

void DiskStore::map_for_reads() const {
  std::lock_guard<std::mutex> lock(ledger_->map_mu);
  if (map_ != nullptr) return;
  void* p = ::mmap(nullptr, data_bytes(), PROT_READ, MAP_SHARED, fd_, 0);
  if (p == MAP_FAILED) {
    throw tca::CheckpointError(
        "DiskStore: mmap of " + data_path_ + " failed: " +
            std::strerror(errno),
        tca::ErrorCode::kIo);
  }
  map_bytes_ = data_bytes();
  map_ = static_cast<const std::uint8_t*>(p);
}

StateCode DiskStore::get(StateCode s) const {
  if (map_ == nullptr) map_for_reads();
  const std::uint64_t bit = s * bits_;
  const auto byte = static_cast<std::size_t>(bit >> 3);
  const auto sh = static_cast<std::uint32_t>(bit & 7);
  return (load_le64(map_ + byte) >> sh) & value_mask_;
}

void DiskStore::put_range(StateCode first, std::size_t count,
                          const StateCode* src) {
  check_put_range(first, count, entries_, "DiskStore");
  if (count == 0) return;
  if (first % kPutAlign != 0 ||
      (count % kPutAlign != 0 && first + count != entries_)) {
    throw tca::StateError(
        "DiskStore: put_range [" + std::to_string(first) + ", " +
            std::to_string(first + count) + ") is not kPutAlign(512)-aligned"
            " — concurrent extents must own disjoint whole bytes",
        tca::ErrorCode::kInvalidState);
  }
  {
    std::lock_guard<std::mutex> lock(ledger_->mu);
    if (ledger_->finalized) {
      throw tca::StateError("DiskStore: put_range after finalize()",
                            tca::ErrorCode::kInvalidState);
    }
  }
  static obs::Histogram& spill_us =
      obs::histogram("store.spill_us", obs::default_latency_bounds_us());
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t bytes = extent_byte_count(first, count, bits_);
  // Every word is written by pack_entries: no up-front fill.
  const std::unique_ptr<std::uint64_t[]> packed(
      new std::uint64_t[static_cast<std::size_t>((bytes + 7) / 8)]);
  const std::uint64_t digest =
      pack_entries(src, count, bits_, value_mask_, packed.get());
  pwrite_all(fd_, reinterpret_cast<const std::uint8_t*>(packed.get()), bytes,
             extent_byte_offset(first, bits_), "extent pwrite");
  spill_us.record(micros_since(t0));
  bool publish_due = false;
  {
    std::lock_guard<std::mutex> lock(ledger_->mu);
    ledger_->extents.push_back(Extent{first, count, digest});
    ledger_->spilled_bytes += bytes;
    ledger_->unpublished += count;
    publish_due = ledger_->publish_every != 0 &&
                  ledger_->unpublished >= ledger_->publish_every;
  }
  static obs::Counter& spill = obs::counter("store.spill_bytes");
  spill.add(bytes);
  if (publish_due) {
    // Never wait for a publish in progress (a builder would stall on its
    // fsync): the first put_range after it ends publishes these extents.
    std::unique_lock<std::mutex> serial(ledger_->publish_mu,
                                        std::try_to_lock);
    if (serial.owns_lock()) write_manifest();
  }
}

void DiskStore::read_range(StateCode first, std::size_t count,
                           StateCode* dst) const {
  if (count == 0) return;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t first_bit = first * static_cast<std::uint64_t>(bits_);
  const std::uint64_t byte0 = first_bit / 8;
  // +8 guard for the unaligned 64-bit decode window.
  const std::uint64_t bytes = extent_byte_count(first, count, bits_) + 8;
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(bytes), 0);
  if (!pread_all(fd_, buf.data(), bytes, byte0)) {
    throw tca::CheckpointError(
        "DiskStore: pread of " + data_path_ + " failed: " +
            std::strerror(errno),
        tca::ErrorCode::kIo);
  }
  unpack_entries(buf.data(), count, bits_, value_mask_, dst,
                 static_cast<std::uint32_t>(first_bit & 7));
  static obs::Counter& readback_us = obs::counter("store.readback_us");
  readback_us.add(micros_since(t0));
}

void DiskStore::finalize() {
  {
    std::lock_guard<std::mutex> lock(ledger_->mu);
    ledger_->finalized = true;
  }
  publish();
}

void DiskStore::publish_every(StateCode entries) {
  std::lock_guard<std::mutex> lock(ledger_->mu);
  ledger_->publish_every = entries;
}

std::uint64_t DiskStore::publications() const {
  std::lock_guard<std::mutex> lock(ledger_->publish_mu);
  return ledger_->publications;
}

void DiskStore::publish() {
  std::lock_guard<std::mutex> serial(ledger_->publish_mu);
  write_manifest();
}

void DiskStore::write_manifest() {
  // Runs under publish_mu, so manifests land in snapshot order. Every
  // extent in the snapshot was pwritten before it entered the ledger, so
  // the fsync below makes all of them durable before the manifest names
  // them.
  static obs::Histogram& publish_us =
      obs::histogram("store.publish_us", obs::default_latency_bounds_us());
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Extent> extents;
  {
    std::lock_guard<std::mutex> lock(ledger_->mu);
    extents = ledger_->extents;
    ledger_->unpublished = 0;
  }
  if (::fsync(fd_) != 0) {
    throw tca::CheckpointError(
        "DiskStore: fsync of " + data_path_ + " failed: " +
            std::strerror(errno),
        tca::ErrorCode::kIo);
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.first < b.first; });
  std::string payload = std::string(kManifestMagic) + "\nbits=" +
                        std::to_string(bits_) + "\nentries=" +
                        std::to_string(entries_) + "\n";
  for (const Extent& e : extents) {
    payload += "extent=" + std::to_string(e.first) + "," +
               std::to_string(e.count) + "," + std::to_string(e.digest) +
               "\n";
  }
  runtime::CheckpointStore manifest(
      (std::filesystem::path(dir_) / "manifest.ckpt").string());
  runtime::Checkpoint ckpt;
  ckpt.payload = std::move(payload);
  manifest.save(ckpt);
  ++ledger_->publications;
  publish_us.record(micros_since(t0));
}

std::vector<DiskStore::Extent> DiskStore::resume(SuccessorStore* into) {
  static obs::Counter& kept_ctr = obs::counter("store.resume.kept");
  static obs::Counter& dropped_ctr = obs::counter("store.resume.dropped");
  runtime::CheckpointStore manifest(
      (std::filesystem::path(dir_) / "manifest.ckpt").string());
  const auto recovery = manifest.load_latest();
  if (!recovery) return {};

  // Parse: magic line, bits=, entries=, then extent= lines.
  std::vector<Extent> listed;
  const std::string& payload = recovery->checkpoint.payload;
  std::size_t pos = 0;
  int line_no = 0;
  bool header_ok = true;
  while (pos < payload.size() && header_ok) {
    std::size_t nl = payload.find('\n', pos);
    if (nl == std::string::npos) nl = payload.size();
    const std::string_view line(payload.data() + pos, nl - pos);
    ++line_no;
    if (line_no == 1) {
      header_ok = line == kManifestMagic;
    } else if (line_no == 2) {
      header_ok = line == "bits=" + std::to_string(bits_);
    } else if (line_no == 3) {
      header_ok = line == "entries=" + std::to_string(entries_);
    } else if (line.rfind("extent=", 0) == 0) {
      Extent e;
      const std::string_view body = line.substr(7);
      const std::size_t c1 = body.find(',');
      const std::size_t c2 =
          c1 == std::string_view::npos ? c1 : body.find(',', c1 + 1);
      if (c2 == std::string_view::npos) {
        header_ok = false;
        break;
      }
      const auto parse = [](std::string_view s, std::uint64_t& out) {
        out = 0;
        if (s.empty()) return false;
        for (const char c : s) {
          if (c < '0' || c > '9') return false;
          out = out * 10 + static_cast<std::uint64_t>(c - '0');
        }
        return true;
      };
      if (!parse(body.substr(0, c1), e.first) ||
          !parse(body.substr(c1 + 1, c2 - c1 - 1), e.count) ||
          !parse(body.substr(c2 + 1), e.digest) || e.count == 0 ||
          e.first > entries_ || e.count > entries_ - e.first) {
        header_ok = false;
        break;
      }
      listed.push_back(e);
    } else if (!line.empty()) {
      header_ok = false;
    }
    pos = nl + 1;
  }
  if (!header_ok) {
    obs::log_event(obs::LogLevel::kWarn, "store.resume.rejected",
                   {{"dir", dir_}, {"reason", "manifest mismatch"}});
    return {};
  }

  // Revalidate every listed extent against the data file; a torn or
  // corrupted spill fails its digest and is dropped (the caller rebuilds
  // that range). A kept extent is decoded into `into` from the same read.
  std::vector<Extent> kept;
  std::uint64_t dropped = 0;
  std::vector<std::uint64_t> words;
  std::vector<StateCode> block(into != nullptr ? kStreamBlock : 0);
  for (const Extent& e : listed) {
    const std::uint64_t bytes = extent_byte_count(e.first, e.count, bits_);
    // Zeroed past the extent: the digest's padding, and the +8 bytes the
    // unaligned decode window reads beyond the last entry.
    words.assign(static_cast<std::size_t>(bytes / 8 + 2), 0);
    auto* const raw = reinterpret_cast<std::uint8_t*>(words.data());
    if (!pread_all(fd_, raw, bytes, extent_byte_offset(e.first, bits_)) ||
        extent_digest(words.data(), static_cast<std::size_t>(
                                        (bytes + 7) / 8)) != e.digest) {
      ++dropped;
      continue;
    }
    kept.push_back(e);
    if (into == nullptr) continue;
    const std::uint64_t bit0 = (e.first * bits_) & 7;
    for (StateCode j = 0; j < e.count; j += kStreamBlock) {
      const auto n = static_cast<std::size_t>(
          std::min<StateCode>(kStreamBlock, e.count - j));
      const std::uint64_t bit = bit0 + j * bits_;
      unpack_entries(raw + bit / 8, n, bits_, value_mask_, block.data(),
                     static_cast<std::uint32_t>(bit & 7));
      into->put_range(e.first + j, n, block.data());
    }
  }
  std::sort(kept.begin(), kept.end(),
            [](const Extent& a, const Extent& b) { return a.first < b.first; });
  {
    std::lock_guard<std::mutex> lock(ledger_->mu);
    ledger_->extents = kept;
  }
  kept_ctr.add(kept.size());
  dropped_ctr.add(dropped);
  if (dropped != 0) {
    obs::log_event(obs::LogLevel::kWarn, "store.resume.dropped",
                   {{"dir", dir_},
                    {"kept", static_cast<std::uint64_t>(kept.size())},
                    {"dropped", dropped}});
  }
  return kept;
}

bool DiskStore::complete() const {
  std::vector<Extent> extents;
  {
    std::lock_guard<std::mutex> lock(ledger_->mu);
    extents = ledger_->extents;
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.first < b.first; });
  StateCode covered = 0;
  for (const Extent& e : extents) {
    if (e.first != covered) return false;
    covered += e.count;
  }
  return covered == entries_;
}

std::uint64_t DiskStore::spilled_bytes() const noexcept {
  std::lock_guard<std::mutex> lock(ledger_->mu);
  return ledger_->spilled_bytes;
}

std::uint64_t DiskStore::resident_bytes() const noexcept {
  // The mmap window is an upper bound (pages fault in on demand); the
  // pread streaming path pins nothing here.
  return map_ != nullptr ? map_bytes_ : 0;
}

// --- factory ------------------------------------------------------------

std::shared_ptr<SuccessorStore> make_store(StoreKind kind, std::uint32_t bits,
                                           const std::string& disk_dir) {
  tca::require_explicit_bits(bits, max_explicit_bits(kind), "make_store");
  switch (kind) {
    case StoreKind::kFlat:
      return std::make_shared<FlatStore>(bits);
    case StoreKind::kPacked:
      return std::make_shared<PackedStore>(bits);
    case StoreKind::kDisk:
      if (disk_dir.empty()) {
        throw tca::InvalidArgumentError(
            "make_store: StoreKind::kDisk requires a disk_dir");
      }
      return std::make_shared<DiskStore>(bits, disk_dir);
  }
  throw tca::InvalidArgumentError("make_store: unknown StoreKind");
}

}  // namespace tca::phasespace
