// Unit tests for the SDS layer (src/sds/sds.hpp).

#include <gtest/gtest.h>

#include "core/schedule.hpp"
#include "core/sequential.hpp"
#include "graph/builders.hpp"
#include "phasespace/classify.hpp"
#include "sds/sds.hpp"

namespace tca::sds {
namespace {

using core::Boundary;
using core::Memory;

Automaton majority_ring(std::size_t n) {
  return Automaton::line(n, 1, Boundary::kRing, rules::majority(),
                         Memory::kWith);
}

Automaton parity_ring(std::size_t n) {
  return Automaton::line(n, 1, Boundary::kRing, rules::parity(),
                         Memory::kWith);
}

TEST(Sds, ValidatesPermutation) {
  const auto a = majority_ring(4);
  EXPECT_THROW(Sds(a, {0, 1, 2}), std::invalid_argument);      // wrong size
  EXPECT_THROW(Sds(a, {0, 1, 2, 2}), std::invalid_argument);   // duplicate
  EXPECT_THROW(Sds(a, {0, 1, 2, 4}), std::invalid_argument);   // range
  EXPECT_NO_THROW(Sds(a, {3, 1, 0, 2}));
}

TEST(Sds, SweepMatchesSequentialEngine) {
  const auto a = majority_ring(8);
  const Sds sds(a, core::reversed_order(8));
  // 01010101 as a code: bits 1,3,5,7 set = 0xAA.
  const auto result = sds.sweep(0xAA);
  auto c = core::Configuration::from_bits(0xAA, 8);
  core::apply_sequence(a, c, core::reversed_order(8));
  EXPECT_EQ(result, c.to_bits());
}

TEST(Sds, PhaseSpaceOfMajoritySweepIsCycleFree) {
  const auto a = majority_ring(9);
  const Sds sds(a, core::identity_order(9));
  const auto cls = phasespace::classify(sds.phase_space());
  EXPECT_FALSE(cls.has_proper_cycle());
}

TEST(Invertibility, MajoritySweepIsNotInvertible) {
  const auto a = majority_ring(6);
  EXPECT_FALSE(is_invertible(Sds(a, core::identity_order(6))));
}

TEST(Invertibility, SingleNodeIdentityLikeSystemIsInvertible) {
  // A 1-of-1 rule on an edgeless graph: each node copies itself — the
  // sweep map is the identity, trivially a bijection.
  const graph::Graph g(3, std::vector<graph::Edge>{});
  const auto a = Automaton::from_graph(g, rules::Rule{rules::KOfNRule{1}},
                                       Memory::kWith);
  EXPECT_TRUE(is_invertible(Sds(a, core::identity_order(3))));
}

TEST(GardensOfEden, MajoritySweepHasGoEStates) {
  // [3]: sequential threshold systems generically have Gardens of Eden.
  const auto a = majority_ring(8);
  const auto goe = gardens_of_eden(Sds(a, core::identity_order(8)));
  EXPECT_GT(goe.count, 0u);
  EXPECT_LE(goe.examples.size(), 16u);
  // Examples really have no preimage: verify one against the whole space.
  const auto fg = Sds(a, core::identity_order(8)).phase_space();
  for (StateCode s = 0; s < fg.num_states(); ++s) {
    EXPECT_NE(fg.succ(s), goe.examples.front());
  }
}

TEST(GardensOfEden, MatchesZeroInDegrees) {
  // The reached-states bitmap agrees with the u32 in-degree count: same
  // total, same first `limit` examples in ascending order.
  for (const std::size_t n : {3u, 5u, 8u, 10u}) {
    const Sds sds(majority_ring(n), core::reversed_order(n));
    const auto indeg = phasespace::in_degrees(sds.phase_space());
    std::uint64_t zeros = 0;
    std::vector<StateCode> first;
    for (StateCode s = 0; s < indeg.size(); ++s) {
      if (indeg[s] != 0) continue;
      ++zeros;
      if (first.size() < 4) first.push_back(s);
    }
    const auto goe = gardens_of_eden(sds, 4);
    EXPECT_EQ(goe.count, zeros) << n;
    EXPECT_EQ(goe.examples, first) << n;
  }
}

TEST(GardensOfEden, InvertibleSystemHasNone) {
  const graph::Graph g(3, std::vector<graph::Edge>{});
  const auto a = Automaton::from_graph(g, rules::Rule{rules::KOfNRule{1}},
                                       Memory::kWith);
  EXPECT_EQ(gardens_of_eden(Sds(a, core::identity_order(3))).count, 0u);
}

TEST(FunctionalEquivalence, SameOrderIsEquivalent) {
  const auto a = majority_ring(6);
  EXPECT_TRUE(functionally_equivalent(a, core::identity_order(6),
                                      core::identity_order(6)));
}

TEST(FunctionalEquivalence, NonAdjacentSwapIsEquivalent) {
  // Nodes 0 and 2 are not adjacent on the 6-ring: swapping them in the
  // order cannot change the sweep map.
  const auto a = majority_ring(6);
  const std::vector<NodeId> o1{0, 2, 1, 3, 4, 5};
  const std::vector<NodeId> o2{2, 0, 1, 3, 4, 5};
  EXPECT_TRUE(functionally_equivalent(a, o1, o2));
}

TEST(FunctionalEquivalence, AdjacentSwapChangesParitySweep) {
  // For parity rules, swapping ADJACENT nodes in the order genuinely
  // changes the map.
  const auto a = parity_ring(5);
  const std::vector<NodeId> o1{0, 1, 2, 3, 4};
  const std::vector<NodeId> o2{1, 0, 2, 3, 4};
  EXPECT_FALSE(functionally_equivalent(a, o1, o2));
}

TEST(Sds, ParitySweepIsInvertible) {
  // Each parity update x_v <- x_v XOR (sum of neighbors) is an involution
  // in x_v given the neighbors, so every sweep factor is a bijection and
  // the composed sweep map is too.
  const auto a = parity_ring(5);
  EXPECT_TRUE(is_invertible(Sds(a, core::identity_order(5))));
  EXPECT_EQ(gardens_of_eden(Sds(a, core::identity_order(5))).count, 0u);
}

}  // namespace
}  // namespace tca::sds
