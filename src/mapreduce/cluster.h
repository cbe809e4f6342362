// Cluster / resource model (paper §III.A).
//
// Each resource r has a map-task capacity c_r^mp (number of map slots)
// and a reduce-task capacity c_r^rd (number of reduce slots): the number
// of tasks of each phase it can run in parallel.
#pragma once

#include <string>
#include <vector>

#include "common/schedule_check.h"
#include "common/types.h"
#include "mapreduce/job.h"

namespace mrcp {

struct Resource {
  ResourceId id = kNoResource;
  int map_capacity = 0;     ///< c_r^mp
  int reduce_capacity = 0;  ///< c_r^rd
  /// Network-link capacity shared by all tasks on this resource (§VII
  /// "communication links" extension). 0 = unconstrained.
  int net_capacity = 0;
  /// Machine speed in permille of the baseline: a task with base duration
  /// e runs for scale_duration(e, speed_permille) ticks here. 1000 keeps
  /// the homogeneous model bit-identical.
  int speed_permille = kBaseSpeedPermille;
  /// Rack the machine lives in. Used by rack-locality task constraints and
  /// rack-correlated fault injection. Rack 0 is the default single rack.
  int rack = 0;

  int capacity(TaskType type) const {
    return type == TaskType::kMap ? map_capacity : reduce_capacity;
  }

  /// Effective running time of a task with the given base duration.
  Time scaled_duration(Time base) const {
    return scale_duration(base, speed_permille);
  }

  /// True when `task`'s candidate and rack sets both admit this machine.
  bool admits(const Task& task) const;
};

class Cluster {
 public:
  Cluster() = default;

  /// Homogeneous cluster: `m` resources, each with the given capacities.
  /// net_capacity 0 means links are unconstrained.
  static Cluster homogeneous(int m, int map_capacity, int reduce_capacity,
                             int net_capacity = 0);

  void add_resource(int map_capacity, int reduce_capacity,
                    int net_capacity = 0);

  /// Heterogeneous variant: speed in permille of the baseline (must be
  /// positive) plus the rack the machine lives in (must be non-negative).
  void add_resource_hetero(int map_capacity, int reduce_capacity,
                           int net_capacity, int speed_permille, int rack);

  /// Overwrite a resource's slot capacities, keeping its link capacity.
  /// Unlike add_resource this permits zero slots — the fault layer uses
  /// it to take a failed resource out of service (and to restore it).
  void set_resource_capacity(ResourceId id, int map_capacity,
                             int reduce_capacity);

  int size() const { return static_cast<int>(resources_.size()); }
  const Resource& resource(ResourceId id) const;
  const std::vector<Resource>& resources() const { return resources_; }

  int total_map_slots() const { return total_map_slots_; }
  int total_reduce_slots() const { return total_reduce_slots_; }
  int total_slots(TaskType type) const {
    return type == TaskType::kMap ? total_map_slots_ : total_reduce_slots_;
  }

  /// The §V.D "single combined resource": one resource holding the summed
  /// capacity of the whole cluster. Only meaningful for uniform-speed
  /// clusters (see uniform_speed_permille); the combined resource carries
  /// that common speed.
  Resource combined_resource() const;

  /// The common speed if every resource runs at the same speed_permille,
  /// or -1 for a mixed-speed cluster.
  int uniform_speed_permille() const;

  /// Distinct rack ids present in the cluster, sorted ascending.
  std::vector<int> rack_ids() const;

  /// True if some rack id equals `rack`.
  bool has_rack(int rack) const;

  /// True when any resource has link capacity: net demand is then
  /// constrained on every resource, and a zero-capacity one has none.
  bool links_constrained() const;

  /// Per-resource (map, reduce, net) capacities, indexed by resource id:
  /// the capacity table of check_schedule.
  std::vector<ResourceCapacity> capacity_table() const;

  std::string to_string() const;

 private:
  std::vector<Resource> resources_;
  int total_map_slots_ = 0;
  int total_reduce_slots_ = 0;
};

/// The check_schedule row of task `task_index` of `job` run on
/// `resource` over [start, end), held to the barrier and to its workflow
/// predecessors.
ScheduleRow schedule_row(const Job& job, int task_index, ResourceId resource,
                         Time start, Time end);

}  // namespace mrcp
