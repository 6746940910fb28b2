#include "sds/sds.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/sequential.hpp"
#include "phasespace/preimage.hpp"
#include "runtime/error.hpp"

namespace tca::sds {

Sds::Sds(Automaton a, std::vector<NodeId> order)
    : a_(std::move(a)), order_(std::move(order)) {
  if (order_.size() != a_.size()) {
    throw tca::InvalidArgumentError("Sds: order size != node count");
  }
  std::vector<bool> seen(a_.size(), false);
  for (NodeId v : order_) {
    if (v >= a_.size() || seen[v]) {
      throw tca::InvalidArgumentError("Sds: order is not a permutation");
    }
    seen[v] = true;
  }
}

StateCode Sds::sweep(StateCode s) const {
  auto c = core::Configuration::from_bits(s, a_.size());
  core::apply_sequence(a_, c, order_);
  return c.to_bits();
}

FunctionalGraph Sds::phase_space() const {
  return FunctionalGraph::sweep(a_, order_);
}

bool functionally_equivalent(const Automaton& a,
                             std::span<const NodeId> order1,
                             std::span<const NodeId> order2) {
  const Sds s1(a, {order1.begin(), order1.end()});
  const Sds s2(a, {order2.begin(), order2.end()});
  const StateCode count = StateCode{1} << a.size();
  for (StateCode s = 0; s < count; ++s) {
    if (s1.sweep(s) != s2.sweep(s)) return false;
  }
  return true;
}

bool is_invertible(const Sds& sds) {
  const auto fg = sds.phase_space();
  std::vector<std::uint8_t> hit(fg.num_states(), 0);
  for (StateCode s = 0; s < fg.num_states(); ++s) {
    if (hit[fg.succ(s)]) return false;
    hit[fg.succ(s)] = 1;
  }
  return true;
}

GardenOfEden gardens_of_eden(const Sds& sds, std::size_t limit) {
  // A state is a Garden of Eden iff no successor lands on it.
  const auto fg = sds.phase_space();
  const StateCode count = fg.num_states();
  std::vector<std::uint64_t> reached((count + 63) >> 6, 0);
  runtime::RunControl unlimited;
  static_cast<void>(phasespace::mark_reached(fg.store(), reached, unlimited));
  GardenOfEden out;
  for (StateCode s = 0; s < count; ++s) {
    if (((reached[s >> 6] >> (s & 63)) & 1) == 0) {
      ++out.count;
      if (out.examples.size() < limit) out.examples.push_back(s);
    }
  }
  return out;
}

}  // namespace tca::sds
