#include "core/model_builder.h"

#include <algorithm>
#include <map>

#include "common/check.h"

namespace mrcp {

namespace {

cp::Phase to_phase(TaskType type) {
  return type == TaskType::kMap ? cp::Phase::kMap : cp::Phase::kReduce;
}

/// Compiles the task's placement constraints — candidate hosts, rack
/// locality, resources burned by completed anti-affinity siblings — into
/// the CP alternative. Started tasks are pinned and skip this entirely.
void compile_allowed(cp::Model& model, cp::CpTaskIndex ct, const LiveTask& lt,
                     const Cluster& cluster) {
  if (lt.candidates.empty() && lt.racks.empty() &&
      lt.anti_affinity_exclude.empty()) {
    return;
  }
  auto rack_ok = [&](ResourceId r) {
    if (lt.racks.empty()) return true;
    const int rack = cluster.resource(r).rack;
    return std::find(lt.racks.begin(), lt.racks.end(), rack) != lt.racks.end();
  };
  auto excluded = [&](ResourceId r) {
    return std::find(lt.anti_affinity_exclude.begin(),
                     lt.anti_affinity_exclude.end(),
                     r) != lt.anti_affinity_exclude.end();
  };
  std::vector<cp::CpResourceIndex> allowed;
  auto try_add = [&](ResourceId r) {
    if (rack_ok(r) && !excluded(r)) {
      allowed.push_back(static_cast<cp::CpResourceIndex>(r));
    }
  };
  if (lt.candidates.empty()) {
    for (ResourceId r = 0; r < static_cast<ResourceId>(cluster.size()); ++r) {
      try_add(r);
    }
  } else {
    for (ResourceId r : lt.candidates) try_add(r);
  }
  MRCP_CHECK_MSG(!allowed.empty(),
                 "live task has no eligible resource — the RM must park such "
                 "tasks before building a model");
  if (allowed.size() == static_cast<std::size_t>(cluster.size())) return;
  model.restrict_candidates(ct, std::move(allowed));
}

void add_jobs_and_tasks(BuiltModel& built, std::span<const LiveJob> jobs,
                        bool combined, const Cluster* cluster) {
  std::size_t num_tasks = 0;
  for (const LiveJob& lj : jobs) num_tasks += lj.tasks.size();
  built.model.reserve(jobs.size(), num_tasks);
  built.job_refs.reserve(jobs.size());
  built.task_refs.reserve(num_tasks);
  // (job, job-local group) -> member CP tasks; groups with >= 2 live
  // members get dense model-global ids below. Pinned members are included
  // so the search replays the resource they already occupy.
  std::map<std::pair<JobId, int>, std::vector<cp::CpTaskIndex>> groups;
  // Flat task index -> CP task index of the current job, for wiring its
  // precedences; -1 = not in the model. Built only for jobs with edges.
  std::vector<cp::CpTaskIndex> by_flat_index;
  for (const LiveJob& lj : jobs) {
    MRCP_CHECK(!lj.tasks.empty());
    const cp::CpJobIndex cj = built.model.add_job(
        lj.effective_earliest_start, lj.deadline, lj.id);
    built.job_refs.push_back(lj.id);
    const auto first_task = static_cast<cp::CpTaskIndex>(built.model.num_tasks());
    for (const LiveTask& lt : lj.tasks) {
      const cp::CpTaskIndex ct =
          built.model.add_task(cj, to_phase(lt.type), lt.exec_time, lt.res_req,
                               lt.task_index, lt.net_demand);
      built.task_refs.emplace_back(lj.id, lt.task_index);
      if (!combined) {
        if (!lt.started) compile_allowed(built.model, ct, lt, *cluster);
        if (lt.affinity_group >= 0) {
          groups[{lj.id, lt.affinity_group}].push_back(ct);
        }
      }
      if (lt.started) {
        MRCP_CHECK(lt.resource != kNoResource && lt.start != kNoTime);
        // In combined mode every task lives on CP resource 0; the true
        // resource is re-attached by the matchmaker afterwards.
        const cp::CpResourceIndex pin_res =
            combined ? 0 : static_cast<cp::CpResourceIndex>(lt.resource);
        built.model.pin_task(ct, pin_res, lt.start);
      }
    }
    if (lj.precedences.empty()) continue;
    int max_flat = 0;
    for (const LiveTask& lt : lj.tasks) {
      MRCP_CHECK(lt.task_index >= 0);
      max_flat = std::max(max_flat, lt.task_index);
    }
    by_flat_index.assign(static_cast<std::size_t>(max_flat) + 1, -1);
    for (std::size_t k = 0; k < lj.tasks.size(); ++k) {
      by_flat_index[static_cast<std::size_t>(lj.tasks[k].task_index)] =
          first_task + static_cast<cp::CpTaskIndex>(k);
    }
    auto lookup = [&](int flat) -> cp::CpTaskIndex {
      return flat >= 0 && flat <= max_flat
                 ? by_flat_index[static_cast<std::size_t>(flat)]
                 : -1;
    };
    for (const auto& [before, after] : lj.precedences) {
      const cp::CpTaskIndex b = lookup(before);
      const cp::CpTaskIndex a = lookup(after);
      MRCP_CHECK_MSG(b >= 0 && a >= 0,
                     "precedence references a task absent from the model");
      built.model.add_precedence(b, a);
    }
  }
  // Dense model-global group ids, in deterministic (job id, group) order.
  int next_group = 0;
  for (const auto& [key, members] : groups) {
    if (members.size() < 2) continue;  // singletons: exclusions suffice
    for (cp::CpTaskIndex t : members) {
      built.model.set_affinity_group(t, next_group);
    }
    ++next_group;
  }
}

}  // namespace

BuiltModel build_direct_model(const Cluster& cluster,
                              std::span<const LiveJob> jobs) {
  BuiltModel built;
  built.combined = false;
  for (const Resource& r : cluster.resources()) {
    built.model.add_resource(r.map_capacity, r.reduce_capacity, r.net_capacity,
                             r.speed_permille);
  }
  add_jobs_and_tasks(built, jobs, /*combined=*/false, &cluster);
  return built;
}

BuiltModel build_combined_model(const Cluster& cluster,
                                std::span<const LiveJob> jobs) {
  BuiltModel built;
  built.combined = true;
  const int uniform_speed = cluster.uniform_speed_permille();
  MRCP_CHECK_MSG(uniform_speed > 0,
                 "combined mode requires a uniform-speed cluster — use the "
                 "direct model");
  built.model.add_resource(cluster.total_map_slots(),
                           cluster.total_reduce_slots(), 0, uniform_speed);
  const bool links_constrained = cluster.links_constrained();
  for (const LiveJob& lj : jobs) {
    for (const LiveTask& lt : lj.tasks) {
      MRCP_CHECK_MSG(lt.res_req == 1,
                     "combined mode requires unit task demands (q_t = 1)");
      MRCP_CHECK_MSG(lt.net_demand == 0 || !links_constrained,
                     "combined mode cannot carry per-resource link "
                     "constraints — use the direct model");
      MRCP_CHECK_MSG(lt.candidates.empty() && lt.racks.empty() &&
                         lt.affinity_group < 0 &&
                         lt.anti_affinity_exclude.empty(),
                     "combined mode cannot carry placement constraints — "
                     "use the direct model");
    }
  }
  add_jobs_and_tasks(built, jobs, /*combined=*/true, nullptr);
  return built;
}

}  // namespace mrcp
