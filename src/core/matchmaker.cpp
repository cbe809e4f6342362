#include "core/matchmaker.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>

#include "common/check.h"
#include "common/radix_sort.h"

namespace mrcp {

namespace {

constexpr const char* kNoFreeSlot =
    "matchmake: no free slot — combined schedule violates total capacity";

/// Sorts the slots pushed onto `stack` from `from` on by descending slot
/// number, so the lowest ends on top. The pushes usually arrive in that
/// order already, which makes the insertion sort one pass.
void order_group(std::vector<std::uint32_t>& stack, std::size_t from) {
  const auto first = stack.begin() + static_cast<std::ptrdiff_t>(from);
  for (auto it = first; it != stack.end(); ++it) {
    const std::uint32_t slot = *it;
    auto hole = it;
    for (; hole != first && *(hole - 1) < slot; --hole) *hole = *(hole - 1);
    *hole = slot;
  }
}

}  // namespace

std::vector<ResourceId> matchmake(const Cluster& cluster,
                                  const std::vector<MatchItem>& items,
                                  std::vector<KeyedIndex>& scratch) {
  const std::size_t n = items.size();
  MRCP_CHECK(n <= std::numeric_limits<std::uint32_t>::max());

  // Slots numbered in cluster order, map slots first; each phase's stack
  // starts with all of its slots, the lowest on top.
  std::vector<ResourceId> slot_resource;
  std::vector<std::uint32_t> free_slots[2];
  for (const TaskType type : {TaskType::kMap, TaskType::kReduce}) {
    const auto first = static_cast<std::uint32_t>(slot_resource.size());
    for (const Resource& r : cluster.resources()) {
      slot_resource.insert(slot_resource.end(),
                           static_cast<std::size_t>(r.capacity(type)), r.id);
    }
    std::vector<std::uint32_t>& stack = free_slots[static_cast<int>(type)];
    for (auto slot = static_cast<std::uint32_t>(slot_resource.size());
         slot-- > first;) {
      stack.push_back(slot);
    }
  }

  // (end, index) by one radix pass over index order, then (start, pinned
  // first, end, index) by a stable pass over that: the order of a stable
  // sort on (start, pinned first, end).
  std::vector<KeyedIndex> by_end;
  by_end.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const MatchItem& item = items[i];
    MRCP_CHECK(item.end > item.start);
    // Every slot starts free at time 0: nothing fits before it.
    MRCP_CHECK_MSG(item.start >= Time{0}, kNoFreeSlot);
    by_end.push_back(KeyedIndex{radix_key(item.end.count()),
                                static_cast<std::uint32_t>(i)});
  }
  radix_sort(std::span<KeyedIndex>(by_end), scratch);
  std::vector<KeyedIndex> by_start;
  by_start.reserve(n);
  for (const KeyedIndex& e : by_end) {
    const MatchItem& item = items[e.index];
    by_start.push_back(KeyedIndex{
        (static_cast<std::uint64_t>(item.start.count()) << 1) |
            (item.pinned ? 0U : 1U),
        e.index});
  }
  radix_sort(std::span<KeyedIndex>(by_start), scratch);

  std::vector<std::uint32_t> slot_of(n);
  std::vector<ResourceId> assigned(n, kNoResource);
  std::size_t released = 0;
  for (const KeyedIndex& next : by_start) {
    const MatchItem& item = items[next.index];
    // Free the slot of every matchmade item ending by this start, in end
    // order; each group of equal ends goes on in descending slot order.
    // Every such item started before this one, so it is matchmade.
    const std::uint64_t start = radix_key(item.start.count());
    while (released < n && by_end[released].key <= start) {
      const std::size_t group = released;
      const std::uint64_t end = by_end[released].key;
      while (released < n && by_end[released].key == end) ++released;
      const std::size_t from[2] = {free_slots[0].size(), free_slots[1].size()};
      for (std::size_t k = released; k-- > group;) {
        const std::uint32_t i = by_end[k].index;
        free_slots[static_cast<int>(items[i].type)].push_back(slot_of[i]);
      }
      order_group(free_slots[0], from[0]);
      order_group(free_slots[1], from[1]);
    }

    // The top is the free slot whose last item ends latest, the lowest
    // among equal ends; a running item takes the topmost of its resource.
    std::vector<std::uint32_t>& stack = free_slots[static_cast<int>(item.type)];
    auto taken = stack.rbegin();
    if (item.pinned) {
      taken = std::find_if(stack.rbegin(), stack.rend(), [&](std::uint32_t s) {
        return slot_resource[s] == item.pinned_resource;
      });
    }
    MRCP_CHECK_MSG(taken != stack.rend(), kNoFreeSlot);
    const std::uint32_t slot = *taken;
    stack.erase(std::next(taken).base());
    slot_of[next.index] = slot;
    assigned[next.index] = slot_resource[slot];
  }
  return assigned;
}

Cluster compute_regrouping(int total_map_slots, int total_reduce_slots, int nm,
                           int nr) {
  MRCP_CHECK(nm >= 1);
  MRCP_CHECK(nr >= 0);
  MRCP_CHECK(total_map_slots >= nm);
  const int num_resources = std::max(nm, nr);

  // Map slots spread evenly over all resources; remainder goes to the
  // last resources ("smaller counts first", as in the paper's reduce
  // example).
  std::vector<int> map_caps(static_cast<std::size_t>(num_resources), 0);
  {
    const int base = total_map_slots / num_resources;
    const int extra = total_map_slots % num_resources;
    for (int i = 0; i < num_resources; ++i) {
      map_caps[static_cast<std::size_t>(i)] =
          base + (i >= num_resources - extra ? 1 : 0);
    }
  }
  std::vector<int> reduce_caps(static_cast<std::size_t>(num_resources), 0);
  if (nr > 0) {
    MRCP_CHECK(total_reduce_slots >= nr || total_reduce_slots == 0);
    const int base = total_reduce_slots / nr;
    const int extra = total_reduce_slots % nr;
    for (int i = 0; i < nr; ++i) {
      reduce_caps[static_cast<std::size_t>(i)] = base + (i >= nr - extra ? 1 : 0);
    }
  }

  Cluster out;
  for (int i = 0; i < num_resources; ++i) {
    out.add_resource(map_caps[static_cast<std::size_t>(i)],
                     reduce_caps[static_cast<std::size_t>(i)]);
  }
  return out;
}

}  // namespace mrcp
