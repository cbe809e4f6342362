// The scan matchmaker that the one-sweep matchmake() replaced, kept
// verbatim (bar the function name, the `inline`s, the namespace and the
// signature's line break) as the oracle of the differential tests in
// matchmaker_test.cpp: an index stable_sort of the items on (start,
// pinned first, end), then a scan of every slot of the item's phase for
// the free slot whose last interval ends latest, the first such slot in
// cluster order on ties.
#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "core/matchmaker.h"

namespace mrcp::reference {

struct Slot {
  ResourceId resource;
  Time last_end;
};

inline std::vector<Slot> make_slots(const Cluster& cluster, TaskType type) {
  std::vector<Slot> slots;
  for (const Resource& r : cluster.resources()) {
    const int cap = r.capacity(type);
    for (int s = 0; s < cap; ++s) slots.push_back(Slot{r.id, Time{0}});
  }
  return slots;
}

inline std::vector<ResourceId> scan_matchmake(
    const Cluster& cluster, const std::vector<MatchItem>& items) {
  std::vector<Slot> map_slots = make_slots(cluster, TaskType::kMap);
  std::vector<Slot> reduce_slots = make_slots(cluster, TaskType::kReduce);

  // Process in start order; pinned before new at equal start so running
  // tasks claim their resource's slots first.
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (items[a].start != items[b].start) return items[a].start < items[b].start;
    if (items[a].pinned != items[b].pinned) return items[a].pinned;
    return items[a].end < items[b].end;
  });

  std::vector<ResourceId> assigned(items.size(), kNoResource);
  for (std::size_t idx : order) {
    const MatchItem& item = items[idx];
    MRCP_CHECK(item.end > item.start);
    std::vector<Slot>& slots =
        item.type == TaskType::kMap ? map_slots : reduce_slots;

    Slot* best = nullptr;
    for (Slot& slot : slots) {
      if (slot.last_end > item.start) continue;  // busy at item start
      if (item.pinned && slot.resource != item.pinned_resource) continue;
      // Min-gap: prefer the slot whose previous interval ends latest.
      if (best == nullptr || slot.last_end > best->last_end) best = &slot;
    }
    MRCP_CHECK_MSG(best != nullptr,
                   "matchmake: no free slot — combined schedule violates "
                   "total capacity");
    best->last_end = item.end;
    assigned[idx] = best->resource;
  }
  return assigned;
}

}  // namespace mrcp::reference
