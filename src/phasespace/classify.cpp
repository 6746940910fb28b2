#include "phasespace/classify.hpp"

// Classification in peel order (docs/performance.md "Classification").
// Every pass takes its addresses from a sequential array — the store, the
// in-degree array or the peel queue — never from the previous load, so
// the random reads of one iteration overlap those of the next:
//
//   1. in-degree count, one streamed pass over the store;
//   2. Kahn peel: seed a queue with every Garden of Eden, pop in order,
//      push a successor when its last predecessor is popped. Survivors
//      (count > 0) are exactly the cycle states. The FIFO pops layer by
//      layer, a state's layer being its longest path from a Garden of
//      Eden, so the number of layers is the longest transient
//      (max_transient) and the peel counts them;
//   3. walk only the survivors, in ascending state order, so each cycle
//      is met first at its smallest state and attractor ids come out
//      sorted by representative; a basin starts as its cycle;
//   4. sweep the queue backwards, so every successor is labelled before
//      its predecessor: attractor = attractor[succ], and that basin
//      grows by one.
//
// The in-degree counts live in the `attractor` output until pass 3
// overwrites them, so the one side array is the peel queue.
// Every pass is serial: on a 4-vCPU host, splitting the count by target
// range or by radix bucket measured slower than one pass, and threading
// the leaf scan and the relabel measured no faster than one worker.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/error.hpp"

namespace tca::phasespace {
namespace {

/// How many queue entries ahead the peel and the relabel prefetch.
constexpr StateCode kPrefetch = 16;

/// `v` := `count` copies of `value`, its pages advised huge before the
/// fill touches them.
template <class T>
void fill_huge(std::vector<T>& v, StateCode count, T value) {
  v.reserve(static_cast<std::size_t>(count));
  advise_huge_pages(v.data(), static_cast<std::size_t>(count) * sizeof(T));
  v.assign(static_cast<std::size_t>(count), value);
}

/// An uninitialized u32 array of `count` entries, advised huge.
std::unique_ptr<std::uint32_t[]> alloc_huge(StateCode count) {
  std::unique_ptr<std::uint32_t[]> p(
      new std::uint32_t[static_cast<std::size_t>(count)]);
  advise_huge_pages(p.get(),
                    static_cast<std::size_t>(count) * sizeof(std::uint32_t));
  return p;
}

/// Adds every state's in-degree to cnt (zeroed by the caller), in one
/// streamed pass over the store.
void count_in_degrees(const SuccessorStore& store, std::uint32_t* cnt) {
  if (const FlatTable* flat = store.flat_table()) {
    for (const StateCode t : *flat) ++cnt[t];
    return;
  }
  store.for_each_range([cnt](StateCode, std::size_t n, const StateCode* b) {
    for (std::size_t j = 0; j < n; ++j) ++cnt[b[j]];
  });
}

/// Successor access for the queue-driven passes: an indexed load (with a
/// real prefetch) on the flat backend, a devirtualized decode on the
/// packed one, a store read otherwise.
struct FlatSucc {
  const StateCode* table;
  StateCode operator()(StateCode s) const { return table[s]; }
  void prefetch(StateCode s) const { __builtin_prefetch(table + s); }
};
struct PackedSucc {
  const PackedStore* store;
  StateCode operator()(StateCode s) const { return store->get(s); }
  void prefetch(StateCode s) const { store->prefetch(s); }
};
struct StoreSucc {
  const SuccessorStore* store;
  StateCode operator()(StateCode s) const { return store->get(s); }
  void prefetch(StateCode) const {}
};

struct Peel {
  StateCode transients = 0;  ///< final queue length
  std::uint32_t layers = 0;  ///< 0 when there is no transient
};

/// Kahn peel from the `tail` Gardens of Eden already in q: pop in order,
/// push a successor when its last predecessor is popped. A layer ends
/// where the queue ended when its first state was popped.
template <class Succ>
Peel peel(const Succ& succ, std::uint32_t* cnt, std::uint32_t* q,
          StateCode tail) {
  std::uint32_t layers = 0;
  for (StateCode head = 0, layer_end = 0; head < tail; ++head) {
    if (head == layer_end) {
      ++layers;
      layer_end = tail;
    }
    if (head + kPrefetch < tail) succ.prefetch(q[head + kPrefetch]);
    const StateCode t = succ(q[head]);
    if (--cnt[t] == 0) q[tail++] = static_cast<std::uint32_t>(t);
  }
  return {tail, layers};
}

template <class Succ>
Classification classify_impl(const FunctionalGraph& fg, const Succ& succ) {
  const StateCode count = fg.num_states();
  Classification out;

  // 1. In-degrees, counted into the attractor column.
  fill_huge(out.attractor, count, std::uint32_t{0});
  std::uint32_t* const cnt = out.attractor.data();
  count_in_degrees(fg.store(), cnt);

  // The leaf scan seeds the queue with the Gardens of Eden, ascending.
  const std::unique_ptr<std::uint32_t[]> queue = alloc_huge(count);
  std::uint32_t* slot = queue.get();
  for (StateCode s = 0; s < count; ++s) {
    *slot = static_cast<std::uint32_t>(s);
    slot += cnt[s] == 0 ? 1 : 0;
  }
  out.num_gardens_of_eden = static_cast<StateCode>(slot - queue.get());

  // 2. The peel. What it leaves with a nonzero count lies on a cycle.
  const Peel peeled = peel(succ, cnt, queue.get(), out.num_gardens_of_eden);
  out.num_transient_states = peeled.transients;
  out.max_transient = peeled.layers;

  // 3. Cycles, met at their representative. `kind` marks the labelled
  // ones: their count has become an attractor id, which may be nonzero.
  fill_huge(out.kind, count, StateKind::kTransient);
  for (StateCode s = 0; s < count; ++s) {
    if (cnt[s] == 0 || out.kind[s] != StateKind::kTransient) continue;
    const auto id = static_cast<std::uint32_t>(out.attractors.size());
    const StateKind kind =
        succ(s) == s ? StateKind::kFixedPoint : StateKind::kCycle;
    std::uint64_t period = 0;
    StateCode x = s;
    do {
      out.kind[x] = kind;
      out.attractor[x] = id;
      ++period;
      x = succ(x);
    } while (x != s);
    out.attractors.push_back(Attractor{period, s, period});
    ++out.cycle_length_histogram[period];
    if (period == 1) {
      ++out.num_fixed_points;
    } else {
      out.num_cycle_states += period;
    }
  }

  // 4. Transients, back to front through the queue, so every successor
  // is labelled before its predecessor.
  const std::uint32_t* const q = queue.get();
  std::uint32_t* const attractor = out.attractor.data();
  Attractor* const attractors = out.attractors.data();
  for (StateCode i = out.num_transient_states; i > 0; --i) {
    if (i > kPrefetch) succ.prefetch(q[i - 1 - kPrefetch]);
    const StateCode s = q[i - 1];
    const std::uint32_t id = attractor[succ(s)];
    attractor[s] = id;
    ++attractors[id].basin_size;
  }
  return out;
}

}  // namespace

std::vector<std::uint32_t> in_degrees(const FunctionalGraph& fg) {
  std::vector<std::uint32_t> indeg(fg.num_states(), 0);
  count_in_degrees(fg.store(), indeg.data());
  return indeg;
}

Classification classify(const FunctionalGraph& fg) {
  TCA_SPAN("classify");
  tca::require_explicit_bits(fg.bits(), kMaxClassifyBits, "classify");
  static obs::Histogram& classify_us = obs::histogram(
      "phasespace.classify_us", obs::default_latency_bounds_us());
  const auto t0 = std::chrono::steady_clock::now();
  const SuccessorStore& store = fg.store();
  Classification out;
  if (const FlatTable* flat = store.flat_table()) {
    out = classify_impl(fg, FlatSucc{flat->data()});
  } else if (store.kind() == StoreKind::kPacked) {
    out = classify_impl(fg,
                        PackedSucc{static_cast<const PackedStore*>(&store)});
  } else {
    out = classify_impl(fg, StoreSucc{&store});
  }
  classify_us.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  return out;
}

}  // namespace tca::phasespace
