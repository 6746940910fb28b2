// SuccessorStore backends (docs/performance.md "successor storage
// hierarchy"): n-bit packed round-trips at the width boundaries, the
// shared packed byte format on disk, digest-gated resume, and the
// factory/validation surface. Shard-level parallel-write exactness lives
// in sharded_build_test.cpp; cross-backend agreement on real phase
// spaces is the store-backend-agree PBT oracle.

#include "phasespace/successor_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "core/fnv.hpp"
#include "runtime/ckpt_store.hpp"
#include "runtime/error.hpp"
#include "temp_dir.hpp"

namespace tca::phasespace {
namespace {

namespace fs = std::filesystem;

/// Deterministic n-bit value pattern exercising 0, the all-ones mask,
/// and mixed bit patterns at every position.
std::vector<StateCode> boundary_pattern(std::uint32_t bits,
                                        std::size_t count) {
  const StateCode mask =
      bits >= 64 ? ~StateCode{0} : (StateCode{1} << bits) - 1;
  std::vector<StateCode> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    switch (i % 4) {
      case 0: v[i] = 0; break;
      case 1: v[i] = mask; break;  // 2^n - 1: every payload bit set
      case 2: v[i] = (0x9E3779B97F4A7C15ull * (i + 1)) & mask; break;
      default: v[i] = StateCode{1} << (i % bits); break;
    }
  }
  return v;
}

// --- packed: n-bit boundary round-trips -------------------------------

TEST(PackedStore, RoundTripsBoundaryWidths) {
  // n=1 (minimum, 64 entries/word), n=26 (the flat cap), n=27 (past it —
  // only reachable through the packed backend). Capacity is kept small:
  // the bit-packing logic is identical at any entry count.
  for (const std::uint32_t bits : {1u, 26u, 27u}) {
    SCOPED_TRACE("bits=" + std::to_string(bits));
    constexpr std::size_t kEntries = 1031;  // prime: every word phase hit
    PackedStore store(bits, kEntries);
    EXPECT_EQ(store.kind(), StoreKind::kPacked);
    EXPECT_EQ(store.bits(), bits);
    EXPECT_EQ(store.num_entries(), kEntries);
    EXPECT_EQ(store.packed_bits(), std::uint64_t{kEntries} * bits);

    const std::vector<StateCode> want = boundary_pattern(bits, kEntries);
    store.put_range(0, kEntries, want.data());

    // Random access...
    for (std::size_t i = 0; i < kEntries; ++i) {
      ASSERT_EQ(store.get(i), want[i]) << "entry " << i;
    }
    // ...bulk decode (including an unaligned interior window)...
    std::vector<StateCode> got(kEntries, ~StateCode{0});
    store.read_range(0, kEntries, got.data());
    EXPECT_EQ(got, want);
    std::vector<StateCode> window(63, ~StateCode{0});
    store.read_range(517, 63, window.data());
    for (std::size_t i = 0; i < 63; ++i) {
      ASSERT_EQ(window[i], want[517 + i]) << "window entry " << i;
    }
    // ...and the streaming surface all censuses use.
    std::size_t streamed = 0;
    store.for_each_range(
        [&](StateCode first, std::size_t count, const StateCode* block) {
          for (std::size_t j = 0; j < count; ++j) {
            ASSERT_EQ(block[j], want[first + j]);
          }
          streamed += count;
        });
    EXPECT_EQ(streamed, kEntries);
  }
}

TEST(PackedStore, ExtremeValuesAtFirstAndLastEntry) {
  for (const std::uint32_t bits : {1u, 26u, 27u}) {
    SCOPED_TRACE("bits=" + std::to_string(bits));
    const StateCode mask = (StateCode{1} << bits) - 1;
    PackedStore store(bits, 257);
    std::vector<StateCode> v(257, 0);
    v.front() = mask;  // 2^n - 1 in the first slot
    v.back() = mask;   // and in the last (guard-word adjacency)
    store.put_range(0, v.size(), v.data());
    EXPECT_EQ(store.get(0), mask);
    EXPECT_EQ(store.get(256), mask);
    for (std::size_t i = 1; i < 256; ++i) ASSERT_EQ(store.get(i), 0u);
  }
}

TEST(PackedStore, DisjointUnalignedPutsMergeExactly) {
  // Split one table into ranges whose boundaries straddle packed words
  // (27 bits/entry: every boundary except multiples of 64 splits a
  // word). The CAS merge must preserve both sides.
  constexpr std::uint32_t kBits = 27;
  constexpr std::size_t kEntries = 513;
  const std::vector<StateCode> want = boundary_pattern(kBits, kEntries);
  PackedStore store(kBits, kEntries);
  std::size_t at = 0;
  for (const std::size_t piece : {1ul, 63ul, 64ul, 65ul, 320ul}) {
    store.put_range(at, piece, want.data() + at);
    at += piece;
  }
  ASSERT_EQ(at, kEntries);
  for (std::size_t i = 0; i < kEntries; ++i) {
    ASSERT_EQ(store.get(i), want[i]) << "entry " << i;
  }
}

TEST(PackedStore, RejectsOutOfRangeWrites) {
  PackedStore store(8, 100);
  std::vector<StateCode> v(8, 0);
  EXPECT_THROW(store.put_range(96, 8, v.data()), tca::StateError);
}

// --- flat --------------------------------------------------------------

TEST(FlatStore, WrapsExternallyBuiltTable) {
  FlatTable table{3, 2, 1, 0};
  FlatStore store(2, std::move(table));
  EXPECT_EQ(store.kind(), StoreKind::kFlat);
  EXPECT_EQ(store.num_entries(), 4u);
  EXPECT_EQ(store.get(0), 3u);
  EXPECT_EQ(store.get(3), 0u);
  ASSERT_NE(store.flat_table(), nullptr);
  EXPECT_EQ(store.flat_table()->size(), 4u);
  // for_each_range on a flat store is zero-copy over the vector.
  store.for_each_range(
      [&](StateCode first, std::size_t count, const StateCode* block) {
        EXPECT_EQ(first, 0u);
        EXPECT_EQ(count, 4u);
        EXPECT_EQ(block, store.flat_table()->data());
      });
}

// --- disk --------------------------------------------------------------

TEST(DiskStore, SpillsAlignedExtentsAndReadsThemBack) {
  tests::TempDir dir("store_basic");
  constexpr std::uint32_t kBits = 13;
  constexpr std::size_t kEntries = 3 * kPutAlign + 100;  // ragged tail
  const std::vector<StateCode> want = boundary_pattern(kBits, kEntries);

  DiskStore store(kBits, dir.path().string(), kEntries);
  for (std::size_t at = 0; at < kEntries; at += kPutAlign) {
    const std::size_t n = std::min<std::size_t>(kPutAlign, kEntries - at);
    store.put_range(at, n, want.data() + at);
  }
  EXPECT_TRUE(store.complete());
  EXPECT_GT(store.spilled_bytes(), 0u);
  store.finalize();

  std::vector<StateCode> got(kEntries, ~StateCode{0});
  store.read_range(0, kEntries, got.data());
  EXPECT_EQ(got, want);
  EXPECT_EQ(store.get(0), want[0]);
  EXPECT_EQ(store.get(kEntries - 1), want[kEntries - 1]);
}

TEST(DiskStore, RejectsUnalignedAndPostFinalizeWrites) {
  tests::TempDir dir("store_align");
  DiskStore store(10, dir.path().string(), 2 * kPutAlign);
  std::vector<StateCode> v(kPutAlign, 0);
  // Misaligned first entry.
  EXPECT_THROW(store.put_range(7, kPutAlign, v.data()), tca::StateError);
  // Interior range with a ragged count (only the FINAL range may be).
  EXPECT_THROW(store.put_range(0, 100, v.data()), tca::StateError);
  store.put_range(0, kPutAlign, v.data());
  store.put_range(kPutAlign, kPutAlign, v.data());
  store.finalize();
  EXPECT_THROW(store.put_range(0, kPutAlign, v.data()), tca::StateError);
}

TEST(DiskStore, ResumeKeepsDigestValidExtentsOnly) {
  tests::TempDir dir("store_resume");
  constexpr std::uint32_t kBits = 11;
  constexpr std::size_t kEntries = 4 * kPutAlign;
  const std::vector<StateCode> want = boundary_pattern(kBits, kEntries);
  {
    DiskStore store(kBits, dir.path().string(), kEntries);
    // Simulated crash mid-build: only 3 of 4 extents spilled, then
    // finalize (the sharded builder finalizes truncated disk builds for
    // exactly this resume path).
    for (std::size_t at = 0; at < 3 * kPutAlign; at += kPutAlign) {
      store.put_range(at, kPutAlign, want.data() + at);
    }
    store.finalize();
    EXPECT_FALSE(store.complete());
  }
  // Corrupt one byte inside the SECOND extent's packed bytes (a torn
  // pwrite / bit rot survivor).
  {
    const fs::path data = dir.path() / "succ.dat";
    std::fstream f(data, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    const std::uint64_t byte =
        (std::uint64_t{kPutAlign} * kBits) / 8 + 5;  // inside extent 2
    f.seekg(static_cast<std::streamoff>(byte));
    char c = 0;
    f.read(&c, 1);
    f.seekp(static_cast<std::streamoff>(byte));
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
  }
  DiskStore reopened(kBits, dir.path().string(), kEntries);
  const std::vector<DiskStore::Extent> kept = reopened.resume();
  // Extents 1 and 3 revalidate; the corrupted extent 2 is dropped.
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].first, 0u);
  EXPECT_EQ(kept[1].first, 2 * kPutAlign);
  EXPECT_FALSE(reopened.complete());
  // Rebuilding exactly the dropped + missing ranges completes the store
  // with the original contents.
  reopened.put_range(kPutAlign, kPutAlign, want.data() + kPutAlign);
  reopened.put_range(3 * kPutAlign, kPutAlign, want.data() + 3 * kPutAlign);
  EXPECT_TRUE(reopened.complete());
  reopened.finalize();
  std::vector<StateCode> got(kEntries);
  reopened.read_range(0, kEntries, got.data());
  EXPECT_EQ(got, want);
}

// With a publish cadence, put_range itself publishes manifests, so a
// store dropped without finalize() (a killed build) still resumes every
// extent the last manifest named.
TEST(DiskStore, CadencePublishSurvivesAMissingFinalize) {
  tests::TempDir dir("store_cadence");
  constexpr std::uint32_t kBits = 10;
  constexpr std::size_t kEntries = 4 * kPutAlign;
  const std::vector<StateCode> want = boundary_pattern(kBits, kEntries);
  {
    DiskStore store(kBits, dir.path().string(), kEntries);
    store.publish_every(2 * kPutAlign);
    for (std::size_t at = 0; at < 3 * kPutAlign; at += kPutAlign) {
      store.put_range(at, kPutAlign, want.data() + at);
    }
    EXPECT_EQ(store.publications(), 1u);  // after the second extent only
  }
  DiskStore reopened(kBits, dir.path().string(), kEntries);
  const std::vector<DiskStore::Extent> kept = reopened.resume();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].first, 0u);
  EXPECT_EQ(kept[1].first, kPutAlign);
}

TEST(DiskStore, ResumeSurvivesTruncatedDataFile) {
  tests::TempDir dir("store_truncated");
  constexpr std::uint32_t kBits = 9;
  constexpr std::size_t kEntries = 2 * kPutAlign;
  const std::vector<StateCode> want = boundary_pattern(kBits, kEntries);
  {
    DiskStore store(kBits, dir.path().string(), kEntries);
    store.put_range(0, kPutAlign, want.data());
    store.put_range(kPutAlign, kPutAlign, want.data() + kPutAlign);
    store.finalize();
  }
  // SIGKILL-style torn state: the data file lost its tail but the
  // manifest still names both extents.
  fs::resize_file(dir.path() / "succ.dat",
                  (std::uint64_t{kPutAlign} * kBits) / 8 + 10);
  DiskStore reopened(kBits, dir.path().string(), kEntries);
  const auto kept = reopened.resume();
  // The torn second extent reads back short (zero-filled) and fails its
  // digest; only the intact first extent survives.
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].first, 0u);
  EXPECT_EQ(kept[0].count, kPutAlign);
}

TEST(DiskStore, ResumeOnEmptyDirectoryIsEmpty) {
  tests::TempDir dir("store_empty");
  DiskStore store(8, dir.path().string(), kPutAlign);
  EXPECT_TRUE(store.resume().empty());
  EXPECT_FALSE(store.complete());
}

/// Spills `want` as kPutAlign-entry extents (the last one ragged) and
/// publishes them.
void spill_all(DiskStore& store, const std::vector<StateCode>& want) {
  for (std::size_t at = 0; at < want.size(); at += kPutAlign) {
    const std::size_t n = std::min<std::size_t>(kPutAlign, want.size() - at);
    store.put_range(at, n, want.data() + at);
  }
  store.finalize();
}

// A write-through build resumes by decoding the kept extents into its RAM
// store from the bytes the digest check read; a dropped extent is left
// for the caller to rebuild.
TEST(DiskStore, ResumeDecodesKeptExtentsIntoARamStore) {
  tests::TempDir dir("store_resume_into");
  constexpr std::uint32_t kBits = 13;
  constexpr std::size_t kEntries = 3 * kPutAlign + 100;  // ragged tail
  const std::vector<StateCode> want = boundary_pattern(kBits, kEntries);
  {
    DiskStore store(kBits, dir.path().string(), kEntries);
    spill_all(store, want);
  }
  {  // poison the second extent
    std::fstream f(dir.path() / "succ.dat",
                   std::ios::in | std::ios::out | std::ios::binary);
    const auto at = static_cast<std::streamoff>(kPutAlign * kBits / 8 + 3);
    f.seekg(at);
    const char c = static_cast<char>(f.get());
    f.seekp(at);
    f.put(static_cast<char>(c ^ 0x10));
  }
  PackedStore packed(kBits, kEntries);
  const std::vector<StateCode> sentinel(kPutAlign, 7);
  packed.put_range(kPutAlign, kPutAlign, sentinel.data());
  DiskStore reopened(kBits, dir.path().string(), kEntries);
  const std::vector<DiskStore::Extent> kept = reopened.resume(&packed);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[1].first, 2 * kPutAlign);
  for (std::size_t s = 0; s < kEntries; ++s) {
    const bool dropped = s >= kPutAlign && s < 2 * kPutAlign;
    ASSERT_EQ(packed.get(s), dropped ? 7 : want[s]) << "state " << s;
  }
}

// Every bit of every spilled extent is covered by that extent's digest
// and by no other: flipping any one bit drops exactly its extent.
TEST(DiskStore, FlippingAnySingleBitDropsExactlyThatExtent) {
  tests::TempDir dir("store_bitflip");
  constexpr std::uint32_t kBits = 5;
  constexpr std::size_t kEntries = 2 * kPutAlign + 37;  // ragged tail
  const std::vector<StateCode> want = boundary_pattern(kBits, kEntries);
  {
    DiskStore store(kBits, dir.path().string(), kEntries);
    spill_all(store, want);
  }
  const std::uint64_t bytes = (std::uint64_t{kEntries} * kBits + 7) / 8;
  const std::uint64_t extent_bytes = kPutAlign * kBits / 8;
  DiskStore reopened(kBits, dir.path().string(), kEntries);
  ASSERT_EQ(reopened.resume().size(), 3u);
  std::fstream f(dir.path() / "succ.dat",
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  for (std::uint64_t byte = 0; byte < bytes; ++byte) {
    f.seekg(static_cast<std::streamoff>(byte));
    const char orig = static_cast<char>(f.get());
    for (int bit = 0; bit < 8; ++bit) {
      f.seekp(static_cast<std::streamoff>(byte));
      f.put(static_cast<char>(orig ^ (1 << bit))).flush();
      const std::vector<DiskStore::Extent> kept = reopened.resume();
      ASSERT_EQ(kept.size(), 2u) << "byte " << byte << " bit " << bit;
      const StateCode poisoned = byte / extent_bytes * kPutAlign;
      for (const DiskStore::Extent& e : kept) {
        ASSERT_NE(e.first, poisoned) << "byte " << byte << " bit " << bit;
      }
    }
    f.seekp(static_cast<std::streamoff>(byte));
    f.put(orig).flush();
  }
  EXPECT_EQ(reopened.resume().size(), 3u);
}

// Manifests of the byte-wise digest format (v1) are rejected whole, even
// when every digest they list matches the bytes on disk; the caller then
// rebuilds the store, and its v2 manifest resumes in full.
TEST(DiskStore, VersionOneManifestIsRejectedAndTheStoreRebuilt) {
  tests::TempDir dir("store_v1");
  constexpr std::uint32_t kBits = 11;
  constexpr std::size_t kEntries = 2 * kPutAlign;
  const std::vector<StateCode> want = boundary_pattern(kBits, kEntries);
  {
    DiskStore store(kBits, dir.path().string(), kEntries);
    spill_all(store, want);
  }
  std::string data;
  {
    std::ifstream in(dir.path() / "succ.dat", std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::size_t extent_bytes = kPutAlign * kBits / 8;
  std::string v1 = "tca-succ-store v1\nbits=" + std::to_string(kBits) +
                   "\nentries=" + std::to_string(kEntries) + "\n";
  for (std::size_t e = 0; e < 2; ++e) {
    v1 += "extent=" + std::to_string(e * kPutAlign) + "," +
          std::to_string(kPutAlign) + "," +
          std::to_string(core::fnv1a64(std::string_view(data).substr(
              e * extent_bytes, extent_bytes))) +
          "\n";
  }
  runtime::Checkpoint ckpt;
  ckpt.payload = v1;
  runtime::CheckpointStore((dir.path() / "manifest.ckpt").string()).save(ckpt);

  {
    DiskStore reopened(kBits, dir.path().string(), kEntries);
    EXPECT_TRUE(reopened.resume().empty());
    EXPECT_FALSE(reopened.complete());
    spill_all(reopened, want);  // the rebuild
  }
  DiskStore rebuilt(kBits, dir.path().string(), kEntries);
  EXPECT_EQ(rebuilt.resume().size(), 2u);
  EXPECT_TRUE(rebuilt.complete());
  std::vector<StateCode> got(kEntries);
  rebuilt.read_range(0, kEntries, got.data());
  EXPECT_EQ(got, want);
}

// --- factory / caps ----------------------------------------------------

TEST(MakeStore, EnforcesPerBackendCaps) {
  EXPECT_THROW((void)make_store(StoreKind::kFlat, 27),
               tca::InvalidArgumentError);
  EXPECT_THROW((void)make_store(StoreKind::kPacked, 30),
               tca::InvalidArgumentError);
  EXPECT_THROW((void)make_store(StoreKind::kDisk, 33, "/tmp/x"),
               tca::InvalidArgumentError);
  EXPECT_THROW((void)make_store(StoreKind::kDisk, 20),
               tca::InvalidArgumentError);  // no directory
  EXPECT_EQ(max_explicit_bits(StoreKind::kFlat), 26u);
  EXPECT_EQ(max_explicit_bits(StoreKind::kPacked), 29u);
  EXPECT_EQ(max_explicit_bits(StoreKind::kDisk), 32u);
}

TEST(MakeStore, BuildsEachBackend) {
  tests::TempDir dir("store_factory");
  const auto flat = make_store(StoreKind::kFlat, 4);
  EXPECT_EQ(flat->kind(), StoreKind::kFlat);
  EXPECT_EQ(flat->num_entries(), 16u);
  const auto packed = make_store(StoreKind::kPacked, 4);
  EXPECT_EQ(packed->kind(), StoreKind::kPacked);
  const auto disk = make_store(StoreKind::kDisk, 4, dir.path().string());
  EXPECT_EQ(disk->kind(), StoreKind::kDisk);
  EXPECT_EQ(std::string(store_kind_name(StoreKind::kFlat)), "flat");
  EXPECT_EQ(std::string(store_kind_name(StoreKind::kPacked)), "packed");
  EXPECT_EQ(std::string(store_kind_name(StoreKind::kDisk)), "disk");
}

}  // namespace
}  // namespace tca::phasespace
