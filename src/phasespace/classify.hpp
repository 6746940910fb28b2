#pragma once
// Classification of deterministic phase spaces (DESIGN.md S4).
//
// Implements the paper's Definition 3 taxonomy over an explicit
// FunctionalGraph: every state is a fixed point (FP), a proper cycle
// configuration (CC, period >= 2), or a transient configuration (TC).
// Additionally computes what the discussion around Fig. 1 and the Section 4
// "rare cycles" remark need: in-degrees, Gardens of Eden (unreachable
// states, in-degree 0), per-attractor basin sizes, and maximum transient
// ("tail") lengths.

#include <cstdint>
#include <map>
#include <vector>

#include "phasespace/functional_graph.hpp"

namespace tca::phasespace {

/// Definition 3 state kinds.
enum class StateKind : std::uint8_t {
  kFixedPoint,  ///< period-1 cycle: F(x) = x
  kCycle,       ///< on a cycle of period >= 2
  kTransient,   ///< never revisited once left
};

/// One attractor (terminal cycle) of the functional graph.
struct Attractor {
  std::uint64_t period = 0;      ///< 1 = fixed point
  StateCode representative = 0;  ///< smallest state code on the cycle
  std::uint64_t basin_size = 0;  ///< states draining here, cycle included
};

/// Full classification of a deterministic phase space.
struct Classification {
  std::vector<StateKind> kind;           ///< per state
  std::vector<std::uint32_t> attractor;  ///< per state: index into attractors
  std::vector<Attractor> attractors;     ///< sorted by representative
  std::uint64_t num_fixed_points = 0;
  std::uint64_t num_cycle_states = 0;  ///< states on proper cycles (p >= 2)
  std::uint64_t num_transient_states = 0;
  std::uint64_t num_gardens_of_eden = 0;  ///< in-degree-0 states
  std::uint64_t max_transient = 0;  ///< longest tail into any attractor
  /// cycle length -> number of distinct cycles of that length
  /// (period 1 entries are fixed points).
  std::map<std::uint64_t, std::uint64_t> cycle_length_histogram;

  /// True if the phase space has any proper cycle (period >= 2) — the
  /// property separating parallel from sequential threshold CA.
  [[nodiscard]] bool has_proper_cycle() const {
    return num_cycle_states > 0;
  }
  /// Largest period over all attractors (0 if no states).
  [[nodiscard]] std::uint64_t max_period() const {
    return cycle_length_histogram.empty()
               ? 0
               : cycle_length_histogram.rbegin()->first;
  }
};

/// Largest state width classify() accepts. Per-state ids, counts and
/// queue entries are u32, and at n = 32 they overflow: the identity
/// map has 2^32 attractors and a constant map an in-degree of 2^32. So
/// classification stops one bit short of the disk backend's n = 32.
inline constexpr std::uint32_t kMaxClassifyBits = 31;

/// Classifies every state of the functional graph in O(num_states) time.
/// Works on every storage backend: the in-degree pass streams the store,
/// and the peel and relabel passes read the successor (flat index, packed
/// decode or disk mmap) of states taken in order from a queue. Memory:
/// 9 B/state, of which 5 B/state are the `kind` and `attractor` outputs
/// and 4 B/state a u32 peel queue, freed on return (the in-degree counts
/// live in `attractor` until it is filled; max_transient is the number
/// of peel layers, so no depth is stored). Runs on the
/// calling thread. Throws tca::DomainTooLargeError above kMaxClassifyBits.
[[nodiscard]] Classification classify(const FunctionalGraph& fg);

/// In-degree of each state (preimage counts under F), from one sequential
/// streamed pass over the graph's store (any backend).
[[nodiscard]] std::vector<std::uint32_t> in_degrees(const FunctionalGraph& fg);

}  // namespace tca::phasespace
