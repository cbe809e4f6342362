// Deterministic EDF list scheduler over the CP model — the resource
// manager's degraded-mode fallback (docs/degraded_mode.md).
//
// When the CP solve's hard watchdog expires before any descent completes,
// the resource manager still owes the simulator a complete plan. This
// scheduler is one first descent of the CP search (cp::SetTimesSearch)
// with no watchdog: tasks are fixed one at a time in EDF job order, maps
// before reduces, then index order (the CP portfolio's EDF/FIFO member),
// each on the resource where it would complete earliest, ties in the
// order the task lists its resources. No postponed starts are tried and
// no late count prunes a branch; the descent backtracks only out of a
// dead end, such as an anti-affinity group member left without a
// distinct host. It respects every Model constraint: pinned/running
// assignments, map->reduce barriers, user precedence edges, per-phase
// cumulative capacities, network-link capacities and anti-affinity.
//
// The result is a pure function of the model: no wall clock is read.
#pragma once

#include "cp/model.h"
#include "cp/solution.h"

namespace mrcp {

/// EDF-ordered first descent of the CP search over `model`. For a model
/// that passes Model::validate() and admits a schedule the result is a
/// valid (complete, constraint-satisfying, evaluated) solution. Returns
/// an invalid solution when no schedule exists, e.g. when some non-pinned
/// task fits no resource at all — a model validate() would have rejected.
cp::Solution fallback_schedule(const cp::Model& model);

}  // namespace mrcp
