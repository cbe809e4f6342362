// Deterministic EDF list scheduler over the CP model — the resource
// manager's degraded-mode fallback (docs/degraded_mode.md).
//
// When the CP solve's hard watchdog expires before any descent completes,
// the resource manager still owes the simulator a complete plan. This
// scheduler produces one greedily: tasks are placed one at a time in EDF
// job order (maps before reduces, then index order — the same preference
// the CP portfolio's EDF/FIFO member uses), each on the (earliest start,
// lowest index) resource its flat-timeline Profile admits. It respects
// pinned/running assignments, map->reduce barriers, user precedence
// edges, per-phase cumulative capacities, and network-link capacities —
// i.e. it emits schedules that satisfy every Model constraint, just
// without any optimization of the late-job count.
//
// Runtime is one earliest_feasible query per (task, resource) pair — no
// search, no backtracking, no wall-clock dependence — so the result is a
// pure function of the model and the scheduler can never time out.
#pragma once

#include "cp/model.h"
#include "cp/solution.h"

namespace mrcp {

/// Greedy EDF-ordered list schedule for `model`. For a model that passes
/// Model::validate() and has no anti-affinity group the result is always
/// valid (a complete, constraint-satisfying schedule, evaluated like any
/// CP solution). Returns an invalid solution when some non-pinned task
/// fits no resource at all — a model validate() would have rejected — or
/// when the greedy pass, which never backtracks, leaves an anti-affinity
/// group member without a distinct host.
cp::Solution fallback_schedule(const cp::Model& model);

}  // namespace mrcp
