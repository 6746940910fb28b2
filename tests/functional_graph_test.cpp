// Unit tests for deterministic phase spaces (src/phasespace) — including
// the parallel side of the paper's Fig. 1.

#include <gtest/gtest.h>

#include "core/automaton.hpp"
#include "core/schedule.hpp"
#include "core/synchronous.hpp"
#include "core/thread_pool.hpp"
#include "graph/builders.hpp"
#include "phasespace/classify.hpp"
#include "phasespace/functional_graph.hpp"
#include "runtime/error.hpp"
#include "temp_dir.hpp"

namespace tca::phasespace {
namespace {

using core::Automaton;
using core::Boundary;
using core::Memory;

Automaton two_node_xor() {
  return Automaton::from_graph(graph::complete(2), rules::parity(),
                               Memory::kWith);
}

Automaton majority_ring(std::size_t n) {
  return Automaton::line(n, 1, Boundary::kRing, rules::majority(),
                         Memory::kWith);
}

TEST(FunctionalGraph, TwoNodeXorSuccessorTable) {
  const auto fg = FunctionalGraph::synchronous(two_node_xor());
  ASSERT_EQ(fg.num_states(), 4u);
  // Encoding: bit 0 = node 0. States: 00=0, 10=1, 01=2, 11=3.
  EXPECT_EQ(fg.succ(0b00), 0b00u);
  EXPECT_EQ(fg.succ(0b01), 0b11u);
  EXPECT_EQ(fg.succ(0b10), 0b11u);
  EXPECT_EQ(fg.succ(0b11), 0b00u);
}

TEST(FunctionalGraph, RejectsTooManyCells) {
  const auto a = majority_ring(30);
  EXPECT_THROW(FunctionalGraph::synchronous(a), std::invalid_argument);
}

TEST(Classify, Fig1aParallelXor) {
  // Fig. 1(a): 00 is the unique fixed point (a sink / stable attractor);
  // every other state is transient; no proper cycles.
  const auto cls = classify(FunctionalGraph::synchronous(two_node_xor()));
  EXPECT_EQ(cls.num_fixed_points, 1u);
  EXPECT_EQ(cls.kind[0b00], StateKind::kFixedPoint);
  EXPECT_EQ(cls.num_cycle_states, 0u);
  EXPECT_EQ(cls.num_transient_states, 3u);
  EXPECT_FALSE(cls.has_proper_cycle());
  // "after at most two parallel steps" the sink is reached:
  EXPECT_EQ(cls.max_transient, 2u);
  ASSERT_EQ(cls.attractors.size(), 1u);
  EXPECT_EQ(cls.attractors[0].basin_size, 4u);
}

TEST(Classify, XorRingOfFourHasProperCyclesInParallel) {
  // Paper, Section 3.1: "if one considers XOR CA on four nodes with
  // circular boundary conditions, these XOR CA do have nontrivial cycles
  // in the parallel case as well."
  const auto a = Automaton::line(4, 1, Boundary::kRing, rules::parity(),
                                 Memory::kWith);
  const auto cls = classify(FunctionalGraph::synchronous(a));
  EXPECT_TRUE(cls.has_proper_cycle());
}

TEST(Classify, MajorityRingParallelHasExactlyTwoCycleStates) {
  // Lemma 1(i) + the rarity remark: the two alternating states form the
  // unique proper cycle on an even ring (n >= 4, radius 1).
  for (const std::size_t n : {4u, 6u, 8u, 10u, 12u}) {
    const auto cls = classify(FunctionalGraph::synchronous(majority_ring(n)));
    EXPECT_TRUE(cls.has_proper_cycle()) << n;
    EXPECT_EQ(cls.num_cycle_states, 2u) << n;
    EXPECT_EQ(cls.max_period(), 2u) << n;
  }
}

TEST(Classify, MajorityOddRingIsCycleFreeInParallel) {
  // Odd rings admit no alternating configuration; with radius 1 the
  // parallel majority CA has only fixed points.
  for (const std::size_t n : {5u, 7u, 9u, 11u}) {
    const auto cls = classify(FunctionalGraph::synchronous(majority_ring(n)));
    EXPECT_FALSE(cls.has_proper_cycle()) << n;
  }
}

TEST(Classify, CyclePeriodRecordedPerState) {
  const auto a = Automaton::line(4, 1, Boundary::kRing, rules::parity(),
                                 Memory::kWith);
  const auto fg = FunctionalGraph::synchronous(a);
  const auto cls = classify(fg);
  for (StateCode s = 0; s < fg.num_states(); ++s) {
    if (cls.kind[s] == StateKind::kCycle) {
      const auto& attractor = cls.attractors[cls.attractor[s]];
      EXPECT_GE(attractor.period, 2u);
      // Following succ period times returns to s.
      StateCode t = s;
      for (std::uint64_t i = 0; i < attractor.period; ++i) t = fg.succ(t);
      EXPECT_EQ(t, s);
    }
  }
}

TEST(Classify, BasinSizesSumToStateCount) {
  const auto fg = FunctionalGraph::synchronous(majority_ring(10));
  const auto cls = classify(fg);
  std::uint64_t total = 0;
  for (const auto& a : cls.attractors) total += a.basin_size;
  EXPECT_EQ(total, fg.num_states());
}

FunctionalGraph from_map(std::uint32_t bits,
                         StateCode (*map)(StateCode, StateCode)) {
  const StateCode count = StateCode{1} << bits;
  FlatTable succ(count);
  for (StateCode s = 0; s < count; ++s) succ[s] = map(s, count);
  return FunctionalGraph::from_table(bits, std::move(succ));
}

TEST(ClassifyExtremes, OneCell) {
  // The three maps on one bit: identity, swap, constant 0.
  const auto identity = classify(from_map(1, [](StateCode s, StateCode) {
    return s;
  }));
  EXPECT_EQ(identity.num_fixed_points, 2u);
  EXPECT_EQ(identity.attractor, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(identity.num_gardens_of_eden, 0u);

  const auto swap = classify(from_map(1, [](StateCode s, StateCode) {
    return s ^ 1;
  }));
  ASSERT_EQ(swap.attractors.size(), 1u);
  EXPECT_EQ(swap.attractors[0].period, 2u);
  EXPECT_EQ(swap.num_cycle_states, 2u);
  EXPECT_EQ(swap.kind[1], StateKind::kCycle);

  const auto constant = classify(from_map(1, [](StateCode, StateCode) {
    return StateCode{0};
  }));
  EXPECT_EQ(constant.kind[0], StateKind::kFixedPoint);
  EXPECT_EQ(constant.kind[1], StateKind::kTransient);
  EXPECT_EQ(constant.attractor, (std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(constant.num_gardens_of_eden, 1u);
  EXPECT_EQ(constant.max_transient, 1u);
  EXPECT_EQ(constant.attractors[0].basin_size, 2u);
}

TEST(ClassifyExtremes, IdentityMapNamesEachStateItsOwnAttractor) {
  // Every state is a fixed point; 2^n attractors and attractor id = state.
  const auto cls = classify(from_map(12, [](StateCode s, StateCode) {
    return s;
  }));
  ASSERT_EQ(cls.attractors.size(), 4096u);
  EXPECT_EQ(cls.num_fixed_points, 4096u);
  EXPECT_EQ(cls.num_transient_states, 0u);
  EXPECT_EQ(cls.num_gardens_of_eden, 0u);
  EXPECT_EQ(cls.max_transient, 0u);
  for (StateCode s = 0; s < 4096; ++s) {
    ASSERT_EQ(cls.attractor[s], s);
    ASSERT_EQ(cls.attractors[s].representative, s);
    ASSERT_EQ(cls.attractors[s].basin_size, 1u);
  }
}

TEST(ClassifyExtremes, OneRotationThroughEveryState) {
  // s -> s + 1 mod 2^n: a single cycle of period 2^n.
  const auto cls = classify(from_map(12, [](StateCode s, StateCode count) {
    return (s + 1) % count;
  }));
  ASSERT_EQ(cls.attractors.size(), 1u);
  EXPECT_EQ(cls.attractors[0].period, 4096u);
  EXPECT_EQ(cls.attractors[0].representative, 0u);
  EXPECT_EQ(cls.attractors[0].basin_size, 4096u);
  EXPECT_EQ(cls.num_cycle_states, 4096u);
  EXPECT_EQ(cls.max_period(), 4096u);
  EXPECT_EQ(cls.num_gardens_of_eden, 0u);
  EXPECT_EQ(cls.cycle_length_histogram.at(4096), 1u);
}

TEST(ClassifyExtremes, OneTailThroughEveryStateIntoAFixedPoint) {
  // s -> s - 1, 0 -> 0: depth(s) = s, so the tail is 2^n - 1 long and the
  // top state is the only Garden of Eden.
  const auto cls = classify(from_map(12, [](StateCode s, StateCode) {
    return s == 0 ? StateCode{0} : s - 1;
  }));
  ASSERT_EQ(cls.attractors.size(), 1u);
  EXPECT_EQ(cls.max_transient, 4095u);
  EXPECT_EQ(cls.num_transient_states, 4095u);
  EXPECT_EQ(cls.num_gardens_of_eden, 1u);
  EXPECT_EQ(cls.attractors[0].basin_size, 4096u);
  EXPECT_EQ(cls.kind[0], StateKind::kFixedPoint);
}

TEST(ClassifyExtremes, RejectsThirtyTwoCells) {
  // At n = 32 u32 ids overflow (the identity map has 2^32 attractors).
  // The disk store is sparse, so this allocates nothing.
  const tests::TempDir dir("classify-n32");
  const FunctionalGraph fg = FunctionalGraph::from_store(
      std::make_shared<DiskStore>(32, dir.str()));
  EXPECT_THROW(static_cast<void>(classify(fg)), tca::DomainTooLargeError);
}

TEST(InDegrees, SumEqualsStateCount) {
  const auto fg = FunctionalGraph::synchronous(majority_ring(8));
  const auto indeg = in_degrees(fg);
  std::uint64_t total = 0;
  for (auto d : indeg) total += d;
  EXPECT_EQ(total, fg.num_states());
}

TEST(InDegrees, GardensOfEdenDetected) {
  // For two-node XOR: preimages are {00,11}->00 {01,10}->11; states 01 and
  // 10 have no preimage (Gardens of Eden).
  const auto fg = FunctionalGraph::synchronous(two_node_xor());
  const auto indeg = in_degrees(fg);
  EXPECT_EQ(indeg[0b00], 2u);
  EXPECT_EQ(indeg[0b11], 2u);
  EXPECT_EQ(indeg[0b01], 0u);
  EXPECT_EQ(indeg[0b10], 0u);
  const auto cls = classify(fg);
  EXPECT_EQ(cls.num_gardens_of_eden, 2u);
}

TEST(SweepPhaseSpace, MajoritySweepHasOnlyFixedPointAttractors) {
  // Theorem 1 in functional-graph form: a fixed sweep order is one
  // deterministic map; its phase space must be cycle-free.
  const auto a = majority_ring(10);
  for (const auto& order : {core::identity_order(10), core::reversed_order(10)}) {
    const auto cls = classify(FunctionalGraph::sweep(a, order));
    EXPECT_FALSE(cls.has_proper_cycle());
    EXPECT_EQ(cls.max_period(), 1u);
  }
}

TEST(SweepPhaseSpace, SweepFixedPointsEqualParallelFixedPoints) {
  const auto a = majority_ring(8);
  const auto parallel = classify(FunctionalGraph::synchronous(a));
  const auto sweep = classify(FunctionalGraph::sweep(a, core::identity_order(8)));
  EXPECT_EQ(parallel.num_fixed_points, sweep.num_fixed_points);
}

TEST(ParallelBuild, MatchesSerialBuild) {
  core::ThreadPool pool(4);
  for (const std::size_t n : {4u, 10u, 14u}) {
    const auto a = majority_ring(n);
    const auto serial = FunctionalGraph::synchronous(a);
    const auto parallel = FunctionalGraph::synchronous_parallel(a, pool);
    ASSERT_EQ(parallel.num_states(), serial.num_states()) << n;
    for (StateCode s = 0; s < serial.num_states(); ++s) {
      ASSERT_EQ(parallel.succ(s), serial.succ(s)) << "n=" << n << " s=" << s;
    }
  }
}

TEST(ParallelBuild, WorksWithParityAndSingleThread) {
  core::ThreadPool pool(1);
  const auto a = Automaton::line(9, 1, Boundary::kRing, rules::parity(),
                                 Memory::kWith);
  const auto serial = FunctionalGraph::synchronous(a);
  const auto parallel = FunctionalGraph::synchronous_parallel(a, pool);
  for (StateCode s = 0; s < serial.num_states(); ++s) {
    ASSERT_EQ(parallel.succ(s), serial.succ(s)) << s;
  }
}

TEST(CodeStep, AdapterMatchesConfigurationEngine) {
  const auto a = majority_ring(12);
  const auto step = synchronous_code_step(a);
  for (StateCode s = 0; s < 4096; s += 97) {
    const auto c = core::Configuration::from_bits(s, 12);
    EXPECT_EQ(step(s), core::step_synchronous(a, c).to_bits());
  }
}

}  // namespace
}  // namespace tca::phasespace
