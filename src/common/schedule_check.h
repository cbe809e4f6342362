// One interval-list checker for every schedule the system produces.
//
// A published Plan (validate_plan), a CP Solution (cp::validate_solution)
// and an executed trace (sim::validate_execution) each adapt their own
// records into ScheduleRows and keep only their layer's checks: pinning,
// started-task exemptions, exactly-once execution, killed attempts,
// downtime. The constraints they share are checked here, once:
//
//   * map, reduce and link capacity per resource (paper Table 1
//     constraints 5/6 plus the §VII link dimension), swept over one
//     vector sorted by (resource, dimension, time);
//   * anti-affinity: rows sharing a group sit on distinct resources;
//   * the map→reduce barrier (constraint 3);
//   * workflow precedence edges.
//
// The checker never touches cp::Profile, so it stays an independent
// witness against the solver's timetables; cp::audit::
// brute_force_check_solution is a second, quadratic witness that shares
// no code with either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace mrcp {

enum class SlotDim : std::uint8_t { kMap = 0, kReduce = 1 };

/// Ordering constraints a row takes part in (bit set). A row with
/// neither bit only holds capacity — a killed attempt.
enum ScheduleOrder : std::uint8_t {
  /// In its job's map→reduce barrier: a map's end bounds the job's
  /// reduces; a reduce must start at or after that bound.
  kBarrier = 1U << 0,
  /// Must start at or after the end of each workflow predecessor.
  kPrecedence = 1U << 1,
};

struct ScheduleRow {
  std::int64_t job = -1;  ///< >= 0; scopes the barrier, names the row
  int task = -1;          ///< names the row in errors
  int resource = -1;      ///< index into the capacity table
  SlotDim dim = SlotDim::kMap;
  Time start;
  Time end;
  int demand = 0;      ///< slots held in `dim` over [start, end)
  int net_demand = 0;  ///< link units held over [start, end)
  /// Rows sharing a group >= 0 must sit on pairwise-distinct resources
  /// (model-global ids: layers with job-local groups fold the job in).
  std::int64_t affinity_group = -1;
  std::uint8_t order = kBarrier | kPrecedence;  ///< ScheduleOrder bits
};

struct ResourceCapacity {
  int map = 0;
  int reduce = 0;
  int net = 0;
};

/// rows[after] may start only once rows[before] has ended; checked when
/// rows[after] carries kPrecedence.
struct RowEdge {
  std::size_t before = 0;
  std::size_t after = 0;
};

/// Check `rows` against the shared constraints; `capacity` is indexed by
/// every row's (in-range) resource. Once any resource has link capacity,
/// net demand is swept on every resource, so a zero-capacity one rejects
/// it. Deltas at one instant are summed before the compare, so
/// back-to-back intervals are legal. Returns "" or a located description
/// of the first violation found.
std::string check_schedule(const std::vector<ScheduleRow>& rows,
                           const std::vector<ResourceCapacity>& capacity,
                           const std::vector<RowEdge>& edges);

}  // namespace mrcp
