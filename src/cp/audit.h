// Self-verification layer for the CP engine.
//
// The engine's answers drive every result curve in the reproduction, so
// a silent propagation bug would corrupt the paper's headline comparison
// without failing a single test. This header provides two things:
//
//  1. Always-compiled audit *functions* (namespace mrcp::cp::audit): an
//     O(n^2) ReferenceProfile oracle for the timetable `cumulative`
//     propagation, checks that `Profile::earliest_feasible` answers are
//     monotone / idempotent / minimal, and a brute-force feasibility
//     oracle for final Solutions. These are plain functions
//     returning an error string (empty = ok), so gtest suites exercise
//     them in every build configuration.
//
//  2. Compiled-in engine *hooks* behind the MRCP_AUDIT macro (CMake
//     option of the same name). When the option is OFF the hook macros
//     expand to nothing — zero code, zero data, zero branches — and the
//     engine is bit-identical to a build without this header. When ON,
//     SetTimesSearch cross-checks every propagation answer against the
//     reference oracle (on models under a size threshold), solve()
//     audits the portfolio fold and the final solution, and any violation
//     aborts with a diagnostic via MRCP_CHECK machinery.
//
// See docs/correctness.md for the full audit catalogue.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cp/model.h"
#include "cp/profile.h"
#include "cp/solution.h"

namespace mrcp::cp::audit {

/// Quadratic reference implementation of the timetable cumulative
/// constraint. Stores the raw interval set and answers every query by
/// scanning all of it — too slow for search, trivially correct, and
/// sharing no code with Profile (so a bug must be made twice to escape).
class ReferenceProfile {
 public:
  explicit ReferenceProfile(int capacity) : capacity_(capacity) {}

  int capacity() const { return capacity_; }
  std::size_t num_intervals() const { return intervals_.size(); }

  void add(Time start, Time duration, int demand);
  /// Removes one interval previously added with exactly these arguments.
  void remove(Time start, Time duration, int demand);

  /// Sum of demands of intervals overlapping time t.
  int usage_at(Time t) const;

  /// True iff [start, start+duration) never exceeds capacity with
  /// `demand` added.
  bool fits(Time start, Time duration, int demand) const;

  /// Earliest t >= est at which the interval fits, by trying est and
  /// every interval end point — the only candidate starts at which the
  /// usage step function can drop.
  Time earliest_feasible(Time est, Time duration, int demand) const;

  /// Sorted, deduplicated start/end points of every stored interval.
  std::vector<Time> change_points() const;

 private:
  struct Interval {
    Time start;
    Time duration;
    int demand;
  };
  int capacity_;
  std::vector<Interval> intervals_;
};

/// Cross-checks a fast Profile against the reference holding the same
/// interval set: usage must agree at every change point (and just before
/// it), and earliest_feasible must agree for the given queries.
std::string check_profile_against_reference(const Profile& fast,
                                            const ReferenceProfile& ref);

/// Audits one earliest_feasible answer `got` for query (est, duration,
/// demand) against the profile itself:
///   * monotone   — got >= est (propagation only narrows domains);
///   * feasible   — the interval actually fits at got;
///   * idempotent — re-running the query from got returns got
///                  (a second propagation pass is a no-op);
///   * minimal    — no start in [est, got) fits (checked at est and at
///                  every profile change point, which is complete: if any
///                  start fits, the change point at or before it does too).
std::string check_earliest_feasible_answer(const Profile& profile, Time est,
                                           Time duration, int demand, Time got);

/// Brute-force feasibility oracle for a complete Solution: re-derives
/// every constraint of Table 1 from scratch by pairwise interval
/// comparison (no sweep, no sharing with validate_solution). Intended
/// for small models; cost is O(num_tasks^2 * num_tasks). Empty = feasible.
std::string brute_force_check_solution(const Model& model, const Solution& sol);

/// Exhaustive minimum late-job count over all active schedules of the
/// model: every candidate-respecting resource assignment crossed with
/// every precedence-feasible task permutation, each scheduled by serial
/// SGS (earliest feasible start in permutation order). For the paper's
/// regular objective an optimal schedule is active, so this is the true
/// optimum. Cost is exponential — callers must keep models tiny (<= ~7
/// free tasks). Returns -1 if `max_schedules` was exceeded, otherwise
/// the optimal number of late jobs.
int exhaustive_min_late(const Model& model,
                        std::int64_t max_schedules = 2'000'000);

/// Threshold used by the compiled-in hooks: models at or below this many
/// tasks get the expensive cross-checks on every propagation fixpoint.
inline constexpr std::size_t kAuditModelSizeLimit = 48;

}  // namespace mrcp::cp::audit

// ---------------------------------------------------------------------------
// Engine hook macros. MRCP_AUDIT is defined (via the CMake option) for
// audit builds; otherwise every hook compiles away entirely.
// ---------------------------------------------------------------------------
#ifdef MRCP_AUDIT
#define MRCP_AUDIT_ENABLED 1
/// Execute the statement(s) only in audit builds.
#define MRCP_AUDIT_ONLY(...) __VA_ARGS__
/// Evaluate `expr` (an audit function returning std::string) and abort
/// with its message when non-empty.
#define MRCP_AUDIT_CHECK(expr)                                          \
  do {                                                                  \
    const std::string mrcp_audit_err_ = (expr);                         \
    MRCP_CHECK_MSG(mrcp_audit_err_.empty(), mrcp_audit_err_.c_str());   \
  } while (0)
#else
#define MRCP_AUDIT_ENABLED 0
#define MRCP_AUDIT_ONLY(...)
#define MRCP_AUDIT_CHECK(expr) ((void)0)
#endif
