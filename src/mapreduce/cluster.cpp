#include "mapreduce/cluster.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace mrcp {

bool Resource::admits(const Task& task) const {
  return (task.candidates.empty() ||
          std::find(task.candidates.begin(), task.candidates.end(), id) !=
              task.candidates.end()) &&
         (task.racks.empty() ||
          std::find(task.racks.begin(), task.racks.end(), rack) !=
              task.racks.end());
}

ScheduleRow schedule_row(const Job& job, int task_index, ResourceId resource,
                         Time start, Time end) {
  const Task& task = job.task(static_cast<std::size_t>(task_index));
  return {.job = job.id,
          .task = task_index,
          .resource = resource,
          .dim = task.type == TaskType::kMap ? SlotDim::kMap : SlotDim::kReduce,
          .start = start,
          .end = end,
          .demand = task.res_req,
          .net_demand = task.net_demand,
          .affinity_group = task.affinity_group < 0
                                ? -1
                                : (std::int64_t{job.id} << 32) +
                                      task.affinity_group};
}

Cluster Cluster::homogeneous(int m, int map_capacity, int reduce_capacity,
                             int net_capacity) {
  MRCP_CHECK(m >= 1);
  Cluster c;
  for (int i = 0; i < m; ++i) {
    c.add_resource(map_capacity, reduce_capacity, net_capacity);
  }
  return c;
}

void Cluster::add_resource(int map_capacity, int reduce_capacity,
                           int net_capacity) {
  add_resource_hetero(map_capacity, reduce_capacity, net_capacity,
                      kBaseSpeedPermille, 0);
}

void Cluster::add_resource_hetero(int map_capacity, int reduce_capacity,
                                  int net_capacity, int speed_permille,
                                  int rack) {
  MRCP_CHECK(map_capacity >= 0 && reduce_capacity >= 0 && net_capacity >= 0);
  MRCP_CHECK_MSG(map_capacity + reduce_capacity > 0, "resource with no slots");
  MRCP_CHECK_MSG(speed_permille > 0, "resource speed must be positive");
  MRCP_CHECK_MSG(rack >= 0, "resource rack must be non-negative");
  Resource r;
  r.id = static_cast<ResourceId>(resources_.size());
  r.map_capacity = map_capacity;
  r.reduce_capacity = reduce_capacity;
  r.net_capacity = net_capacity;
  r.speed_permille = speed_permille;
  r.rack = rack;
  resources_.push_back(r);
  total_map_slots_ += map_capacity;
  total_reduce_slots_ += reduce_capacity;
}

void Cluster::set_resource_capacity(ResourceId id, int map_capacity,
                                    int reduce_capacity) {
  MRCP_CHECK(id >= 0 && id < size());
  MRCP_CHECK(map_capacity >= 0 && reduce_capacity >= 0);
  Resource& r = resources_[static_cast<std::size_t>(id)];
  total_map_slots_ += map_capacity - r.map_capacity;
  total_reduce_slots_ += reduce_capacity - r.reduce_capacity;
  r.map_capacity = map_capacity;
  r.reduce_capacity = reduce_capacity;
}

bool Cluster::links_constrained() const {
  return std::any_of(resources_.begin(), resources_.end(),
                     [](const Resource& r) { return r.net_capacity > 0; });
}

std::vector<ResourceCapacity> Cluster::capacity_table() const {
  std::vector<ResourceCapacity> table;
  table.reserve(resources_.size());
  for (const Resource& r : resources_) {
    table.push_back({r.map_capacity, r.reduce_capacity, r.net_capacity});
  }
  return table;
}

const Resource& Cluster::resource(ResourceId id) const {
  MRCP_CHECK(id >= 0 && id < size());
  return resources_[static_cast<std::size_t>(id)];
}

Resource Cluster::combined_resource() const {
  Resource r;
  r.id = 0;
  r.map_capacity = total_map_slots_;
  r.reduce_capacity = total_reduce_slots_;
  const int speed = uniform_speed_permille();
  if (speed > 0) r.speed_permille = speed;
  return r;
}

int Cluster::uniform_speed_permille() const {
  if (resources_.empty()) return kBaseSpeedPermille;
  const int speed = resources_.front().speed_permille;
  for (const Resource& r : resources_) {
    if (r.speed_permille != speed) return -1;
  }
  return speed;
}

std::vector<int> Cluster::rack_ids() const {
  std::vector<int> racks;
  racks.reserve(resources_.size());
  for (const Resource& r : resources_) racks.push_back(r.rack);
  std::sort(racks.begin(), racks.end());
  racks.erase(std::unique(racks.begin(), racks.end()), racks.end());
  return racks;
}

bool Cluster::has_rack(int rack) const {
  for (const Resource& r : resources_) {
    if (r.rack == rack) return true;
  }
  return false;
}

std::string Cluster::to_string() const {
  std::ostringstream os;
  os << "Cluster{m=" << size() << ", map_slots=" << total_map_slots_
     << ", reduce_slots=" << total_reduce_slots_ << "}";
  return os.str();
}

}  // namespace mrcp
