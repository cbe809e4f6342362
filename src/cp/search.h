// Set-times branch-and-bound search.
//
// The search fixes one task per decision level, in a static order derived
// from a job ranking (the paper's "job ordering strategies", §VI.B: job
// id, EDF, least laxity first). For the chosen task it branches on the
// alternative (candidate resource) and on postponed start times; within a
// branch the start is the earliest time the resource's timetable admits
// (set-times). Alternatives are tried in order of completion on that
// resource (start + speed-scaled duration), ties in the order the task
// lists its resources; postponed starts go on the first-ranked one.
// Lateness indicators N_j are propagated eagerly: as soon as a fixed task
// ends after its job's deadline the job is late, and a branch is pruned
// when the number of certainly-late jobs reaches the incumbent objective
// (branch-and-bound on sum N_j). Jobs whose static completion lower bound
// already exceeds their deadline are counted late from the root.
//
// The first descent (taking the first branch everywhere) is an EDF/LLF
// list schedule (with EDF ranks, FIFO order and no postponed starts it
// is the degraded-mode fallback, core/fallback_scheduler), so the search
// is anytime: it always returns a feasible schedule, improved for as
// long as the fail/time budget lasts. The one exception is the optional
// hard watchdog (SearchLimits::hard_deadline), which may abort even the
// first descent — callers that set it must be prepared for an invalid
// result (SearchStats::aborted).
//
// Root state is factored into SearchRoot: everything that depends only on
// the Model (pinned-task replay into the timetables, the static lateness
// lower bounds, each job's decision segment, the precedence DAG with the
// implicit map→reduce barrier) is computed once and shared by any number
// of SetTimesSearch instances. A search is re-targeted at a new (job
// ranking, intra-job order) with reset(), which costs only the
// decision-order rebuild — a concatenation of per-job segments — and
// run() ends by copying the root state back instead of undoing its
// decisions one by one. The portfolio and LNS phases of solve() rely on
// this to run one search for every member and neighbourhood instead of
// reconstructing per member (docs/perf.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/stopwatch.h"
#include "cp/audit.h"
#include "cp/model.h"
#include "cp/profile.h"
#include "cp/solution.h"

namespace mrcp::cp {

struct SearchLimits {
  std::int64_t max_fails = 2000;      ///< prune-events before giving up
  double time_limit_s = 1.0;          ///< wall-clock cap for this search
  int postpone_tries = 2;             ///< extra delayed-start branches per level
  bool stop_after_first_solution = false;
  /// Late-count cutoff from outside this search (the best count solve()
  /// already holds; max() = none). A branch whose certain-late count
  /// strictly exceeds it is pruned, so a search that ties the cutoff runs
  /// as it would without one, and a cut branch could only have led to a
  /// solution that loses every tie-break. A first-solution search aborts
  /// (returns no solution) instead of rerouting past the cut. See
  /// docs/cp_engine.md.
  int late_cutoff = std::numeric_limits<int>::max();
  /// Optional hard watchdog. The soft budget above never interrupts a
  /// search that has no solution yet (anytime guarantee: the first
  /// descent always completes), but an expired hard deadline aborts the
  /// search even mid-descent, possibly leaving the caller without a
  /// solution (SearchStats::aborted). The degraded-mode pipeline
  /// (docs/degraded_mode.md) recovers via the EDF fallback scheduler;
  /// nullptr (the default) preserves the always-return-a-schedule
  /// behaviour exactly.
  const Deadline* hard_deadline = nullptr;
};

struct SearchStats {
  std::int64_t decisions = 0;
  std::int64_t fails = 0;
  std::int64_t solutions = 0;
  /// The whole tree was explored. The tree is one job order with a
  /// bounded number of postponed starts, so this is no optimality proof.
  bool exhausted = false;
  bool aborted = false;  ///< hard deadline expired before completion
};

/// Immutable per-model root state shared by every SetTimesSearch over the
/// same Model: the timetable profiles with all pinned tasks replayed, the
/// pre-computed pinned placements and per-job fixed end/lateness state,
/// the list of free (non-pinned) tasks, and the precedence DAG (user
/// edges plus the implicit map→reduce barrier) used by the priority-topo
/// decision-order rebuild. Building one costs what a full search
/// construction used to; every search created from it (and every reset())
/// then pays only for what a new job ranking actually changes.
///
/// Thread-safety: const after construction; any number of searches on any
/// threads may share one root.
class SearchRoot {
 public:
  explicit SearchRoot(const Model& model);

  const Model& model() const { return *model_; }

  /// Jobs late in every leaf below the root (completion lower bound past
  /// the deadline): a lower bound on any solution's num_late, which
  /// solve() uses to stop the portfolio once a member reaches it.
  int late_count() const { return late_count_; }

 private:
  friend class SetTimesSearch;

  const Model* model_;
  bool links_constrained_ = false;
  std::vector<Profile> profiles_;      ///< [resource * 2 + phase], pinned replayed
  std::vector<Profile> net_profiles_;  ///< [resource], pinned replayed
#if MRCP_AUDIT_ENABLED
  std::vector<audit::ReferenceProfile> audit_profiles_;
  std::vector<audit::ReferenceProfile> audit_net_profiles_;
  bool audit_small_ = false;
#endif
  std::vector<TaskPlacement> placements_;  ///< pinned tasks placed, rest unset
  std::vector<Time> fixed_map_end_;
  std::vector<Time> fixed_completion_;
  std::vector<std::uint8_t> job_late_;  ///< statically-late jobs
  int late_count_ = 0;
  /// Per-job decision segments (CSR): job j's free (non-pinned) tasks are
  /// segment_tasks_[segment_begin_[j], segment_begin_[j + 1]) — its maps
  /// in index order, then from segment_split_[j] its reduces in index
  /// order. reset() concatenates them in rank order.
  std::vector<std::size_t> segment_begin_;  ///< num_jobs + 1 offsets
  std::vector<std::size_t> segment_split_;  ///< per job: first reduce
  std::vector<CpTaskIndex> segment_tasks_;
  /// Precedence DAG over free tasks (user edges + map→reduce barrier);
  /// populated only when the model has user precedences — without them
  /// the preference order already respects the barrier.
  std::vector<std::vector<CpTaskIndex>> succs_;
  std::vector<int> indeg_;
  /// Anti-affinity occupancy [group * num_resources + resource]: how many
  /// tasks of each group sit on each resource (pinned tasks replayed).
  /// Empty when the model has no affinity groups.
  std::vector<int> group_use_;
};

class SetTimesSearch {
 public:
  /// Create a search over a shared root. The search holds a reference to
  /// `root` (which must outlive it) and starts un-targeted: call reset()
  /// with a job ranking before run().
  explicit SetTimesSearch(const SearchRoot& root);

  /// Convenience constructor owning a private root; equivalent to
  /// SearchRoot(model) + SetTimesSearch(root) + reset(ranks, lpt).
  ///
  /// `job_rank[j]` gives job j's scheduling priority (lower = fixed
  /// earlier). Must be a permutation of 0..num_jobs-1.
  ///
  /// `lpt_within_job[j]` selects the intra-job decision order: when set,
  /// job j's tasks are fixed longest-first (LPT — reproduces the job's
  /// minimum-makespan list schedule, so a job alone on the cluster always
  /// achieves exactly its TE); when clear, tasks are fixed in index order
  /// (FIFO — staggers task endings, which leaves earlier slot holes for
  /// later-arriving urgent jobs). Empty means FIFO for every job.
  SetTimesSearch(const Model& model, std::vector<int> job_rank,
                 std::vector<std::uint8_t> lpt_within_job = {});

  /// Re-target the search at a new (job ranking, intra-job order). Only
  /// the decision order is recomputed, by concatenating the root's
  /// per-job segments in rank order (LPT segments are sorted on first use
  /// and cached in this search) — the timetables, placements and
  /// lateness state are already back at the root state because run()
  /// always restores it (verified against the root in MRCP_AUDIT
  /// builds). A `job_rank` that is not a permutation of 0..num_jobs-1 is
  /// a fatal error naming the offending job. Scratch buffers (choice
  /// lists, topo heaps) keep their capacity across resets, so a reused
  /// search allocates nothing in steady state. Same `lpt_within_job`
  /// semantics as the constructor.
  void reset(const std::vector<int>& job_rank,
             const std::vector<std::uint8_t>& lpt_within_job = {});

  /// Run the search. If `incumbent` is a valid solution it seeds the
  /// branch-and-bound upper bound (the paper's warm start across MRCP-RM
  /// invocations). Returns the best solution found (always valid for a
  /// structurally valid model). The search object is reusable afterwards:
  /// on exit its mutable state is copied back from the root.
  Solution run(const SearchLimits& limits, const Solution* incumbent,
               SearchStats* stats);

 private:
  struct Choice {
    CpResourceIndex resource;
    /// Timeline position of `start` in the slot profile, handed from the
    /// query to the edit that places this choice and to the one that
    /// undoes it (the profile is then back in the state the query saw).
    Profile::Position slot_at;
    Time start;
    Time end;  ///< start + duration_on(task, resource): the ranking key
  };
  struct Level {
    /// The task's resource alternatives in the order it lists them, then
    /// the postponed branches. Alternatives are ranked lazily by end:
    /// only the first and those already tried are in rank order (see
    /// select_next).
    std::vector<Choice> choices;
    std::size_t alternatives = 0;  ///< choices[0, alternatives) are resources
    std::size_t next_choice = 0;
    int postpone_budget = 0;
    bool applied = false;
    // Undo data for the applied choice:
    Choice applied_choice{kAnyResource, Profile::kNoPosition, kNoTime,
                          kNoTime};
    Time prev_fixed_map_end;
    Time prev_fixed_completion;
    bool prev_late = false;
  };

  /// Delegation target for the owning (convenience) constructor.
  explicit SetTimesSearch(std::unique_ptr<SearchRoot> owned_root);

  Profile& profile(CpResourceIndex r, Phase phase);
#if MRCP_AUDIT_ENABLED
  /// Audit one slot-profile earliest_feasible answer: monotone,
  /// idempotent, minimal, and equal to the O(n^2) reference oracle.
  void audit_slot_query(CpResourceIndex r, Phase phase, Time est,
                        Time duration, int demand, Time got);
  /// Same for a network-profile query.
  void audit_net_query(CpResourceIndex r, Time est, Time duration,
                       int net_demand, Time got);
  /// Cross-check the fast profiles touched by placing/removing `t` on
  /// resource `r` against their shadow reference oracles.
  void audit_cross_check(CpResourceIndex r, const CpTask& t);
  /// Verify the mutable state equals the root state (called by reset():
  /// run() must have restored it).
  void audit_at_root() const;
#endif
  /// Earliest start >= est feasible on BOTH the phase-slot profile and
  /// (when the resource constrains links and the task uses them) the
  /// network profile — computed as a fixpoint of the two queries.
  /// `duration` is the task's effective duration ON resource `r`
  /// (assignment-dependent on heterogeneous clusters). `slot_at`
  /// receives the slot-profile position of the answer.
  Time earliest_feasible_on(CpResourceIndex r, const CpTask& t, Time est,
                            Time duration, Profile::Position* slot_at);
  bool net_constrained(CpResourceIndex r, const CpTask& t) const;
  /// Anti-affinity occupancy of (group, resource); groups only.
  int& group_use(int group, CpResourceIndex r) {
    return group_use_[static_cast<std::size_t>(group) *
                          model_.num_resources() +
                      static_cast<std::size_t>(r)];
  }
  void build_choices(CpTaskIndex task, Level& level);
  /// Move the earliest-ending alternative in choices[i, alternatives) to
  /// slot i, keeping the rest in order: repeated from i = 0 this visits
  /// the alternatives exactly as a stable sort by end would.
  static void select_next(Level& level, std::size_t i);
  void apply(CpTaskIndex task, Level& level, const Choice& choice);
  /// Undo the level's applied choice (B&B backtracking).
  void undo(CpTaskIndex task, Level& level);
  /// Copy every piece of mutable state back from the root (end of run()).
  void restore_root();
  /// This search's LPT segments: same layout as the root's
  /// segment_tasks_, with `job`'s segment sorted longest first within
  /// each phase on first use. Jobs never run LPT are never sorted.
  const std::vector<CpTaskIndex>& lpt_segments(CpJobIndex job);

  /// Owning storage for the convenience constructor; unused when sharing.
  std::unique_ptr<SearchRoot> owned_root_;
  const SearchRoot& root_;
  const Model& model_;
  bool links_constrained_ = false;  ///< cached Model::links_constrained()
  bool targeted_ = false;                ///< reset() has run
  std::vector<CpJobIndex> job_at_rank_;  ///< inverse of the job ranking
  std::vector<CpTaskIndex> order_;       ///< free tasks, decision order
  std::vector<CpTaskIndex> lpt_tasks_;   ///< see lpt_segments()
  std::vector<std::uint8_t> lpt_ready_;  ///< per job: LPT segment sorted

  std::vector<Profile> profiles_;      ///< [resource * 2 + phase]
  std::vector<Profile> net_profiles_;  ///< [resource], link usage
#if MRCP_AUDIT_ENABLED
  /// Shadow oracles mirroring every profile mutation; cross-checked
  /// against the fast profiles after each apply/undo and every
  /// earliest-feasible query (audit builds only, small models only).
  std::vector<audit::ReferenceProfile> audit_profiles_;
  std::vector<audit::ReferenceProfile> audit_net_profiles_;
  bool audit_small_ = false;
#endif
  std::vector<TaskPlacement> placements_;
  std::vector<Time> fixed_map_end_;     ///< per job: max end of fixed maps
  std::vector<Time> fixed_completion_;  ///< per job: max end of all fixed tasks
  std::vector<std::uint8_t> job_late_;
  int late_count_ = 0;
  std::vector<int> group_use_;  ///< anti-affinity occupancy, see SearchRoot

  /// Scratch reused across run()s and reset()s (capacity persists, so a
  /// cached search stops reallocating choice vectors on deep backtracks
  /// and topo buffers on reorder — the free-list the hot path needs).
  std::vector<Level> levels_;
  std::vector<int> topo_position_;
  std::vector<int> topo_indeg_;
  std::vector<CpTaskIndex> topo_heap_;
  std::vector<CpTaskIndex> topo_out_;
};

/// Compute job ranks for the standard orderings.
enum class JobOrdering {
  kJobId,        ///< by external job id (paper strategy 1)
  kEdf,          ///< earliest deadline first (paper strategy 2)
  kLeastLaxity,  ///< least laxity first (paper strategy 3)
  kFcfs          ///< by earliest start time (extension)
};

const char* job_ordering_name(JobOrdering ordering);

std::vector<int> make_job_ranks(const Model& model, JobOrdering ordering);

}  // namespace mrcp::cp
