// Matchmaking for the §V.D separation optimization.
//
// After the CP solve on the single combined resource fixes every task's
// start time, the matchmaker maps each task onto a concrete resource
// slot. Following the paper:
//   * tasks are processed in start-time order;
//   * each task goes to the slot that "leaves the smallest remaining gap"
//     — the slot whose last busy interval ends latest while still at or
//     before the task's start (ties to the lowest slot);
//   * map tasks use map slots, reduce tasks use reduce slots;
//   * tasks that have already started are pre-placed on their actual
//     resource (their slot within it is re-derived, which is sound
//     because slots of one resource are interchangeable).
//
// The rule runs as one sweep with no comparison sort and no slot scan.
// Two stable radix passes order the tasks by end, then by (start, pinned
// first); the end order also drives the sweep's releases. Each phase
// keeps a LIFO stack of free slots. Before a task starting at s, the slot
// of every matchmade task ending at or before s goes back on its stack,
// equal ends as a group in descending slot order. The stack is then
// sorted by the end of each slot's last task, bottom to top, with the
// lowest slot on top among equal ends, so its top is exactly the
// smallest-gap choice. A new task pops the top; a running task takes the
// topmost slot of its resource out of the middle (docs/perf.md,
// "Matchmaking as one sweep").
//
// Because the combined-resource cumulative constraint bounds the number
// of concurrent tasks by the total slot count, the greedy start-ordered
// assignment always finds a free slot (interval-graph colouring); the
// matchmaker checks this invariant.
//
// The paper's intermediate "unit capacity resources" and the step-2
// regrouping of unit resources into a user-specified number of resources
// (n_m / n_r) are exposed as compute_regrouping(), reproduced exactly as
// the §V.D example describes.
#pragma once

#include <vector>

#include "common/radix_sort.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

namespace mrcp {

/// One scheduled interval to be matchmade.
struct MatchItem {
  TaskType type = TaskType::kMap;
  Time start;
  Time end;
  bool pinned = false;               ///< already running on `pinned_resource`
  ResourceId pinned_resource = kNoResource;
};

/// Assign each item a resource. Returns resources indexed like `items`.
/// Aborts (MRCP_CHECK) if the items violate the total-capacity invariant,
/// which would indicate an invalid combined-resource schedule. `scratch`
/// is the radix sorts' buffer: a caller that matchmakes repeatedly (the
/// RM, once per combined replan) keeps it so that it is allocated and
/// cleared only when it grows.
std::vector<ResourceId> matchmake(const Cluster& cluster,
                                  const std::vector<MatchItem>& items,
                                  std::vector<KeyedIndex>& scratch);

/// §V.D step 2: distribute `total_map_slots` map slots over max(nm, nr)
/// resources (evenly) and `total_reduce_slots` reduce slots over the
/// first nr of them (as evenly as possible, smaller counts first).
/// Example from the paper: 100 map + 100 reduce slots, nm=50, nr=30 →
/// 50 resources with 2 map slots; the first 20 of the 30 reduce-carrying
/// resources get 3 reduce slots and the remaining 10 get 4.
Cluster compute_regrouping(int total_map_slots, int total_reduce_slots, int nm,
                           int nr);

}  // namespace mrcp
