#include "mapreduce/job.h"

#include <algorithm>
#include <span>
#include <sstream>

#include "common/check.h"
#include "common/radix_sort.h"

namespace mrcp {

const char* task_type_name(TaskType type) {
  return type == TaskType::kMap ? "map" : "reduce";
}

const Task& Job::task(std::size_t flat_index) const {
  MRCP_CHECK(flat_index < num_tasks());
  if (flat_index < map_tasks.size()) return map_tasks[flat_index];
  return reduce_tasks[flat_index - map_tasks.size()];
}

namespace {
Time sum_time(const std::vector<Task>& tasks) {
  Time total{};
  for (const Task& t : tasks) total += t.exec_time;
  return total;
}
Time max_time(const std::vector<Task>& tasks) {
  Time best{};
  for (const Task& t : tasks) best = std::max(best, t.exec_time);
  return best;
}
}  // namespace

Time Job::total_map_time() const { return sum_time(map_tasks); }
Time Job::total_reduce_time() const { return sum_time(reduce_tasks); }
Time Job::max_map_time() const { return max_time(map_tasks); }
Time Job::max_reduce_time() const { return max_time(reduce_tasks); }

namespace {

/// lpt_makespan on a `durations` vector it may reorder, with `buffer` as
/// scratch.
Time lpt_makespan(std::vector<Time>& durations, int machines,
                  std::vector<Time>& buffer) {
  MRCP_CHECK(machines >= 1);
  if (durations.empty()) return Time{0};
  const auto m = static_cast<std::size_t>(machines);
  // A machine per task: LPT gives every task its own machine.
  if (durations.size() <= m) {
    return *std::max_element(durations.begin(), durations.end());
  }
  radix_sort(std::span<Time>(durations), buffer,
             [](Time d) { return radix_key(d.count()); });
  // The m longest tasks open the m machines; their finish times in
  // ascending order already form a min-heap. Every later task, longest
  // first, goes to the machine that finishes first: add it to the root
  // and sift the root down. Which of several equal minima takes it does
  // not change the multiset of finish times.
  const std::size_t rest = durations.size() - m;
  buffer.assign(durations.begin() + static_cast<std::ptrdiff_t>(rest),
                durations.end());
  for (std::size_t i = rest; i-- > 0;) {
    const Time end = buffer[0] + durations[i];
    std::size_t hole = 0;
    for (std::size_t child = 1; child < m; child = 2 * hole + 1) {
      if (child + 1 < m && buffer[child + 1] < buffer[child]) ++child;
      if (!(buffer[child] < end)) break;
      buffer[hole] = buffer[child];
      hole = child;
    }
    buffer[hole] = end;
  }
  return *std::max_element(buffer.begin(), buffer.end());
}

}  // namespace

Time lpt_makespan(std::vector<Time> durations, int machines) {
  std::vector<Time> buffer;
  return lpt_makespan(durations, machines, buffer);
}

Time Job::min_execution_time(int map_slots, int reduce_slots) const {
  std::vector<Time> durations;
  std::vector<Time> buffer;
  durations.reserve(std::max(map_tasks.size(), reduce_tasks.size()));
  for (const Task& t : map_tasks) durations.push_back(t.exec_time);
  Time te = lpt_makespan(durations, map_slots, buffer);
  if (!reduce_tasks.empty()) {
    durations.clear();
    for (const Task& t : reduce_tasks) durations.push_back(t.exec_time);
    te += lpt_makespan(durations, reduce_slots, buffer);
  }
  return te;
}

std::string Job::to_string() const {
  std::ostringstream os;
  os << "Job{id=" << id << ", v=" << arrival_time << ", s=" << earliest_start
     << ", d=" << deadline << ", maps=" << map_tasks.size()
     << ", reduces=" << reduce_tasks.size() << ", work=" << total_work() << "}";
  return os.str();
}

std::string validate_job(const Job& job) {
  if (job.id < 0) return "job id is negative";
  if (job.arrival_time < Time{0}) return "arrival time is negative";
  if (job.earliest_start < job.arrival_time)
    return "earliest start precedes arrival";
  if (job.deadline <= job.earliest_start) return "deadline at or before s_j";
  if (job.num_tasks() == 0) return "job has no tasks";
  // The phase name is prefixed only on the failure path.
  auto placement_error = [](const Task& t) -> const char* {
    std::vector<ResourceId> c = t.candidates;
    std::sort(c.begin(), c.end());
    if (!c.empty() && c.front() < 0) {
      return " task with negative candidate resource";
    }
    if (std::adjacent_find(c.begin(), c.end()) != c.end()) {
      return " task with duplicate candidate resource";
    }
    std::vector<int> r = t.racks;
    std::sort(r.begin(), r.end());
    if (!r.empty() && r.front() < 0) return " task with negative rack id";
    if (std::adjacent_find(r.begin(), r.end()) != r.end()) {
      return " task with duplicate rack id";
    }
    if (t.affinity_group < -1) return " task with affinity group below -1";
    return nullptr;
  };
  for (const Task& t : job.map_tasks) {
    if (t.type != TaskType::kMap) return "map list contains non-map task";
    if (t.exec_time <= Time{0}) return "map task with non-positive exec time";
    if (t.res_req < 1) return "map task with res_req < 1";
    if (t.net_demand < 0) return "map task with negative net demand";
    if (const char* err = placement_error(t)) return std::string("map") + err;
  }
  for (const Task& t : job.reduce_tasks) {
    if (t.type != TaskType::kReduce) return "reduce list contains non-reduce task";
    if (t.exec_time <= Time{0}) return "reduce task with non-positive exec time";
    if (t.res_req < 1) return "reduce task with res_req < 1";
    if (t.net_demand < 0) return "reduce task with negative net demand";
    if (const char* err = placement_error(t)) {
      return std::string("reduce") + err;
    }
  }

  // User precedences: indices in range, no self-loops, and the combined
  // graph (user edges plus the implicit all-maps-before-all-reduces
  // barrier) must be acyclic. The barrier is modelled as a virtual node
  // so the check stays O(tasks + edges) even for huge jobs.
  if (!job.precedences.empty()) {
    const int n = static_cast<int>(job.num_tasks());
    const int k_m = static_cast<int>(job.num_map_tasks());
    const int barrier = n;  // virtual node: maps -> barrier -> reduces
    std::vector<std::vector<int>> adj(static_cast<std::size_t>(n) + 1);
    std::vector<int> indeg(static_cast<std::size_t>(n) + 1, 0);
    auto add_edge = [&](int u, int v) {
      adj[static_cast<std::size_t>(u)].push_back(v);
      ++indeg[static_cast<std::size_t>(v)];
    };
    for (const auto& [before, after] : job.precedences) {
      if (before < 0 || before >= n || after < 0 || after >= n) {
        return "precedence index out of range";
      }
      if (before == after) return "precedence self-loop";
      add_edge(before, after);
    }
    for (int m = 0; m < k_m; ++m) add_edge(m, barrier);
    for (int r = k_m; r < n; ++r) add_edge(barrier, r);
    // Kahn's algorithm.
    std::vector<int> queue;
    for (int v = 0; v <= n; ++v) {
      if (indeg[static_cast<std::size_t>(v)] == 0) queue.push_back(v);
    }
    std::size_t processed = 0;
    while (processed < queue.size()) {
      const int u = queue[processed++];
      for (int v : adj[static_cast<std::size_t>(u)]) {
        if (--indeg[static_cast<std::size_t>(v)] == 0) queue.push_back(v);
      }
    }
    if (processed != static_cast<std::size_t>(n) + 1) {
      return "precedence graph has a cycle";
    }
  }
  return "";
}

}  // namespace mrcp
