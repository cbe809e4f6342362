// Stable LSD radix sort by a 64-bit unsigned key.
//
// One helper serves every per-item order of the replan path: the LPT
// durations of lpt_makespan(), the start and end orders of matchmake(),
// and the longest-first LPT segments of the CP search. Keys are reduced
// by their minimum, and a byte is skipped when every key shares it, so a
// set of times spanning a few hours costs three or four passes whatever
// their absolute values. Small inputs take the same passes: an
// insertion sort below 33 items was cheaper per call but moved no
// end-to-end metric (docs/perf.md, "Matchmaking as one sweep").
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"

namespace mrcp {

/// An index carried with its sort key, so a pass moves both at once
/// instead of looking the key up again.
struct KeyedIndex {
  std::uint64_t key = 0;
  std::uint32_t index = 0;
};

/// Order-preserving map of a signed 64-bit value onto the unsigned keys
/// radix_sort() orders by.
constexpr std::uint64_t radix_key(std::int64_t value) {
  return static_cast<std::uint64_t>(value) ^ (std::uint64_t{1} << 63);
}

/// Sorts `items` ascending by `key(item)`, a std::uint64_t, keeping equal
/// keys in their input order. `scratch` grows to the item count when it
/// is smaller and is left with unspecified contents; hold it across calls
/// to sort without allocating or clearing it again.
template <typename T, typename Key>
void radix_sort(std::span<T> items, std::vector<T>& scratch, Key key) {
  const std::size_t n = items.size();
  if (n < 2) return;
  MRCP_CHECK(n <= std::numeric_limits<std::uint32_t>::max());

  std::uint64_t lo = key(items[0]);
  std::uint64_t hi = lo;
  for (const T& item : items) {
    const std::uint64_t k = key(item);
    if (k < lo) lo = k;
    if (k > hi) hi = k;
  }
  const int bytes = static_cast<int>(std::bit_width(hi - lo) + 7) / 8;
  if (bytes == 0) return;

  // Every byte's histogram in one pass over the keys.
  std::uint32_t count[8][256];
  for (int b = 0; b < bytes; ++b) {
    for (std::uint32_t& c : count[b]) c = 0;
  }
  for (const T& item : items) {
    const std::uint64_t k = key(item) - lo;
    for (int b = 0; b < bytes; ++b) ++count[b][(k >> (8 * b)) & 0xFF];
  }

  if (scratch.size() < n) scratch.resize(n);
  T* from = items.data();
  T* to = scratch.data();
  for (int b = 0; b < bytes; ++b) {
    std::uint32_t* start = count[b];
    const int shift = 8 * b;
    const auto digit = [&](const T& item) {
      return static_cast<std::size_t>(((key(item) - lo) >> shift) & 0xFF);
    };
    if (start[digit(from[0])] == n) continue;  // a byte every key shares
    std::uint32_t next = 0;
    for (int d = 0; d < 256; ++d) next += std::exchange(start[d], next);
    for (std::size_t i = 0; i < n; ++i) {
      to[start[digit(from[i])]++] = std::move(from[i]);
    }
    std::swap(from, to);
  }
  if (from != items.data()) {
    for (std::size_t i = 0; i < n; ++i) items[i] = std::move(from[i]);
  }
}

/// radix_sort() of index-key pairs by their keys.
inline void radix_sort(std::span<KeyedIndex> items,
                       std::vector<KeyedIndex>& scratch) {
  radix_sort(items, scratch, [](const KeyedIndex& k) { return k.key; });
}

}  // namespace mrcp
