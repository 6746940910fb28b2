#include "phasespace/classify.hpp"

#include <algorithm>

namespace tca::phasespace {

std::vector<std::uint32_t> in_degrees(const FunctionalGraph& fg) {
  // Streamed, not random access: one sequential pass works identically on
  // the flat, packed and disk backends (the disk backend serves it with
  // bounded pread blocks, no mmap growth).
  std::vector<std::uint32_t> indeg(fg.num_states(), 0);
  fg.store().for_each_range(
      [&indeg](StateCode, std::size_t count, const StateCode* block) {
        for (std::size_t j = 0; j < count; ++j) ++indeg[block[j]];
      });
  return indeg;
}

Classification classify(const FunctionalGraph& fg) {
  const StateCode count = fg.num_states();
  Classification out;
  out.kind.assign(count, StateKind::kTransient);
  out.attractor.assign(count, 0);

  // Pass 1: find all cycles. Standard functional-graph coloring: walk from
  // every unresolved state marking the path with a per-walk tag; if the walk
  // hits its own tag, the segment from the first hit onward is a cycle.
  constexpr std::uint32_t kUnset = 0xFFFFFFFFu;
  std::vector<std::uint32_t> walk_tag(count, kUnset);
  std::vector<std::uint32_t> walk_pos(count, 0);
  std::vector<std::uint8_t> resolved(count, 0);
  std::vector<StateCode> path;

  for (StateCode start = 0; start < count; ++start) {
    if (resolved[start]) continue;
    path.clear();
    StateCode s = start;
    const auto tag = static_cast<std::uint32_t>(start & 0xFFFFFFFFu);
    while (!resolved[s] && walk_tag[s] != tag) {
      walk_tag[s] = tag;
      walk_pos[s] = static_cast<std::uint32_t>(path.size());
      path.push_back(s);
      s = fg.succ(s);
    }
    if (!resolved[s]) {
      // Found a brand-new cycle starting at path[walk_pos[s]].
      const std::uint32_t first = walk_pos[s];
      const auto period = static_cast<std::uint64_t>(path.size() - first);
      StateCode rep = path[first];
      for (std::size_t i = first; i < path.size(); ++i) {
        rep = std::min(rep, path[i]);
      }
      const auto attractor_id =
          static_cast<std::uint32_t>(out.attractors.size());
      out.attractors.push_back(Attractor{period, rep, 0});
      for (std::size_t i = first; i < path.size(); ++i) {
        out.kind[path[i]] =
            period == 1 ? StateKind::kFixedPoint : StateKind::kCycle;
        out.attractor[path[i]] = attractor_id;
        resolved[path[i]] = 1;
      }
      path.resize(first);  // the prefix is transient, resolved below
    }
    // Everything left on `path` is transient and drains wherever `s` drains.
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      out.attractor[*it] = out.attractor[fg.succ(*it)];
      out.kind[*it] = StateKind::kTransient;
      resolved[*it] = 1;
    }
  }

  // Sort attractors by representative for stable output, remapping ids.
  std::vector<std::uint32_t> perm(out.attractors.size());
  for (std::uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [&](std::uint32_t a, std::uint32_t b) {
    return out.attractors[a].representative <
           out.attractors[b].representative;
  });
  std::vector<std::uint32_t> inverse(perm.size());
  for (std::uint32_t i = 0; i < perm.size(); ++i) inverse[perm[i]] = i;
  std::vector<Attractor> sorted;
  sorted.reserve(out.attractors.size());
  for (std::uint32_t i : perm) sorted.push_back(out.attractors[i]);
  out.attractors = std::move(sorted);
  for (StateCode s = 0; s < count; ++s) {
    out.attractor[s] = inverse[out.attractor[s]];
  }

  // Pass 2: statistics. Transient depth via memoized chase.
  std::vector<std::uint64_t> depth(count, 0);
  std::vector<std::uint8_t> depth_done(count, 0);
  for (StateCode s = 0; s < count; ++s) {
    if (out.kind[s] != StateKind::kTransient) depth_done[s] = 1;
  }
  for (StateCode s = 0; s < count; ++s) {
    if (depth_done[s]) continue;
    path.clear();
    StateCode t = s;
    while (!depth_done[t]) {
      path.push_back(t);
      t = fg.succ(t);
    }
    std::uint64_t d = depth[t];
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      depth[*it] = ++d;
      depth_done[*it] = 1;
    }
  }

  for (StateCode s = 0; s < count; ++s) {
    ++out.attractors[out.attractor[s]].basin_size;
    switch (out.kind[s]) {
      case StateKind::kFixedPoint:
        ++out.num_fixed_points;
        break;
      case StateKind::kCycle:
        ++out.num_cycle_states;
        break;
      case StateKind::kTransient:
        ++out.num_transient_states;
        out.max_transient = std::max(out.max_transient, depth[s]);
        break;
    }
  }
  for (const Attractor& a : out.attractors) {
    ++out.cycle_length_histogram[a.period];
  }

  const auto indeg = in_degrees(fg);
  for (StateCode s = 0; s < count; ++s) {
    if (indeg[s] == 0) ++out.num_gardens_of_eden;
  }
  return out;
}

}  // namespace tca::phasespace
