#include "sim/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/io/codec.h"

namespace mrcp::sim {

namespace {
constexpr std::size_t kNoOpenInterval = static_cast<std::size_t>(-1);
}  // namespace

std::string FaultConfig::validate() const {
  // Each check is written as !(ok) so that NaN, which fails every
  // comparison, is rejected too; an infinite mean would give a zero
  // exponential rate.
  const auto finite_at_least = [](double v, double min) {
    return std::isfinite(v) && v >= min;
  };
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  if (!finite_at_least(mtbf_s, 0.0)) return "mtbf_s must be finite and >= 0";
  if (failures_enabled() && !positive(mttr_s)) {
    return "mttr_s must be finite and > 0 when failures are enabled";
  }
  if (!(straggler_prob >= 0.0 && straggler_prob <= 1.0)) {
    return "straggler_prob must be in [0, 1]";
  }
  if (straggler_prob > 0.0 && !finite_at_least(straggler_factor, 1.0)) {
    return "straggler_factor must be finite and >= 1";
  }
  if (max_concurrent_down < -1) return "max_concurrent_down must be >= -1";
  if (!finite_at_least(rack_mtbf_s, 0.0)) {
    return "rack_mtbf_s must be finite and >= 0";
  }
  if (rack_failures_enabled() && !positive(rack_mttr_s)) {
    return "rack_mttr_s must be finite and > 0 when rack bursts are enabled";
  }
  return "";
}

FaultInjector::FaultInjector(int num_resources, const FaultConfig& config,
                             std::vector<int> racks)
    : config_(config) {
  MRCP_CHECK(num_resources >= 1);
  const std::string err = config_.validate();
  MRCP_CHECK_MSG(err.empty(), err.c_str());
  cap_ = config_.max_concurrent_down >= 0
             ? std::min(config_.max_concurrent_down, num_resources)
             : num_resources - 1;
  const auto n = static_cast<std::size_t>(num_resources);
  streams_.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    streams_.emplace_back(config_.seed, static_cast<std::uint64_t>(r));
  }
  pending_.resize(n);
  down_.assign(n, 0);
  open_.assign(n, kNoOpenInterval);
  if (racks.empty()) racks.assign(n, 0);
  MRCP_CHECK_MSG(racks.size() == n, "one rack id per resource required");
  rack_of_ = std::move(racks);
  rack_ids_ = rack_of_;
  std::sort(rack_ids_.begin(), rack_ids_.end());
  rack_ids_.erase(std::unique(rack_ids_.begin(), rack_ids_.end()),
                  rack_ids_.end());
  // Rack streams live in the stream-id space above the resources, so a
  // rack clock never collides with a machine clock for any cluster size.
  rack_streams_.reserve(rack_ids_.size());
  for (std::size_t k = 0; k < rack_ids_.size(); ++k) {
    rack_streams_.emplace_back(config_.seed,
                               static_cast<std::uint64_t>(n + k));
  }
  rack_pending_.resize(rack_ids_.size());
}

Time FaultInjector::draw_ticks(ResourceId r, double mean_s) {
  const double s = streams_[static_cast<std::size_t>(r)].exponential(1.0 / mean_s);
  return std::max(Time{1}, seconds_to_ticks(s));
}

void FaultInjector::schedule_failure(des::Simulation& des, ResourceId r) {
  const Time delay = draw_ticks(r, config_.mtbf_s);
  pending_[static_cast<std::size_t>(r)] =
      des.schedule_after(delay, [this, &des, r] { on_failure(des, r); });
}

void FaultInjector::start(des::Simulation& des, TransitionFn on_down,
                          TransitionFn on_up) {
  const bool any =
      config_.failures_enabled() || config_.rack_failures_enabled();
  if (!any || cap_ == 0) return;
  MRCP_CHECK(on_down != nullptr && on_up != nullptr);
  on_down_ = std::move(on_down);
  on_up_ = std::move(on_up);
  if (config_.failures_enabled()) {
    for (std::size_t r = 0; r < streams_.size(); ++r) {
      schedule_failure(des, static_cast<ResourceId>(r));
    }
  }
  if (config_.rack_failures_enabled()) {
    for (std::size_t k = 0; k < rack_ids_.size(); ++k) {
      schedule_rack_failure(des, k);
    }
  }
}

void FaultInjector::stop(des::Simulation& des) {
  for (des::EventHandle& h : pending_) {
    if (h.pending()) des.cancel(h);
  }
  for (des::EventHandle& h : rack_pending_) {
    if (h.pending()) des.cancel(h);
  }
}

void FaultInjector::fail_resource(des::Simulation& des, ResourceId r, Time now,
                                  double repair_mean_s) {
  const auto ri = static_cast<std::size_t>(r);
  down_[ri] = 1;
  ++down_count_;
  ++failures_;
  open_[ri] = downtime_.size();
  downtime_.push_back(DownInterval{r, now, kNoTime});
  const Time repair_delay = draw_ticks(r, repair_mean_s);
  pending_[ri] =
      des.schedule_after(repair_delay, [this, &des, r] { on_repair(des, r); });
  on_down_(r, now);
}

void FaultInjector::on_failure(des::Simulation& des, ResourceId r) {
  if (down_count_ >= cap_) {
    // The concurrency cap holds this failure back; the resource survives
    // until its next exponential draw. The draw sequence — and therefore
    // the whole trace — still depends only on the injector's own state.
    ++suppressed_;
    schedule_failure(des, r);
    return;
  }
  fail_resource(des, r, des.now(), config_.mttr_s);
}

void FaultInjector::schedule_rack_failure(des::Simulation& des,
                                          std::size_t rack_index) {
  const double s =
      rack_streams_[rack_index].exponential(1.0 / config_.rack_mtbf_s);
  const Time delay = std::max(Time{1}, seconds_to_ticks(s));
  rack_pending_[rack_index] = des.schedule_after(
      delay, [this, &des, rack_index] { on_rack_failure(des, rack_index); });
}

void FaultInjector::on_rack_failure(des::Simulation& des,
                                    std::size_t rack_index) {
  const Time now = des.now();
  const int rack = rack_ids_[rack_index];
  ++rack_bursts_;
  for (std::size_t ri = 0; ri < down_.size(); ++ri) {
    if (rack_of_[ri] != rack || down_[ri] != 0) continue;
    if (down_count_ >= cap_) {
      // The cap spares this member; unlike an individual failure there is
      // no per-member retry — the rack's next burst may catch it.
      ++suppressed_;
      continue;
    }
    const auto r = static_cast<ResourceId>(ri);
    // The member's own next-failure clock is obsolete — it is going down
    // right now; its post-repair chain restarts the clock.
    if (pending_[ri].pending()) des.cancel(pending_[ri]);
    fail_resource(des, r, now, config_.rack_mttr_s);
  }
  schedule_rack_failure(des, rack_index);
}

void FaultInjector::on_repair(des::Simulation& des, ResourceId r) {
  const Time now = des.now();
  const auto ri = static_cast<std::size_t>(r);
  MRCP_CHECK(down_[ri] != 0);
  down_[ri] = 0;
  --down_count_;
  ++repairs_;
  MRCP_CHECK(open_[ri] != kNoOpenInterval);
  downtime_[open_[ri]].end = now;
  open_[ri] = kNoOpenInterval;
  // With rack bursts only (mtbf_s == 0) a repaired machine has no
  // individual failure clock to restart.
  if (config_.failures_enabled()) schedule_failure(des, r);
  on_up_(r, now);
}

namespace {
// v2: rack-burst clocks (rack ids, streams, pending bursts, counter).
constexpr std::uint8_t kInjectorStateVersion = 2;
constexpr std::uint64_t kNoOpenEncoded =
    std::numeric_limits<std::uint64_t>::max();
}  // namespace

std::string FaultInjector::encode_state() const {
  io::Encoder enc;
  enc.u8(kInjectorStateVersion);
  enc.u32(static_cast<std::uint32_t>(streams_.size()));
  for (std::size_t r = 0; r < streams_.size(); ++r) {
    enc.bytes(streams_[r].save_state());
    enc.boolean(down_[r] != 0);
    enc.u64(open_[r] == kNoOpenInterval ? kNoOpenEncoded
                                        : static_cast<std::uint64_t>(open_[r]));
    const bool has_pending = pending_[r].pending();
    enc.boolean(has_pending);
    enc.ticks(has_pending ? pending_[r].time() : kTimeZero);
    enc.u64(has_pending ? pending_[r].seq() : 0);
  }
  enc.u32(static_cast<std::uint32_t>(downtime_.size()));
  for (const DownInterval& interval : downtime_) {
    enc.i64(interval.resource);
    enc.ticks(interval.start);
    enc.ticks(interval.end);
  }
  enc.i64(down_count_);
  enc.u64(failures_);
  enc.u64(repairs_);
  enc.u64(suppressed_);
  enc.u32(static_cast<std::uint32_t>(rack_ids_.size()));
  for (std::size_t k = 0; k < rack_ids_.size(); ++k) {
    enc.i64(rack_ids_[k]);
    enc.bytes(rack_streams_[k].save_state());
    const bool has_pending = rack_pending_[k].pending();
    enc.boolean(has_pending);
    enc.ticks(has_pending ? rack_pending_[k].time() : kTimeZero);
    enc.u64(has_pending ? rack_pending_[k].seq() : 0);
  }
  enc.u64(rack_bursts_);
  return enc.take();
}

bool FaultInjector::restore_state(std::string_view state, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  io::Decoder dec(state);
  const std::uint8_t version = dec.u8();
  if (dec.ok() && version != kInjectorStateVersion) {
    return fail("unsupported injector state version " +
                std::to_string(version));
  }
  const std::uint32_t n = dec.u32();
  if (dec.ok() && n != static_cast<std::uint32_t>(streams_.size())) {
    return fail("snapshot injector has " + std::to_string(n) +
                " resources, this one has " + std::to_string(streams_.size()));
  }
  std::vector<std::string> rng_states(streams_.size());
  std::vector<std::uint8_t> down(streams_.size(), 0);
  std::vector<std::size_t> open(streams_.size(), kNoOpenInterval);
  std::vector<PendingTransition> pending;
  for (std::size_t r = 0; r < streams_.size() && dec.ok(); ++r) {
    rng_states[r] = dec.bytes();
    down[r] = dec.boolean() ? 1 : 0;
    const std::uint64_t open_index = dec.u64();
    open[r] = open_index == kNoOpenEncoded
                  ? kNoOpenInterval
                  : static_cast<std::size_t>(open_index);
    const bool has_pending = dec.boolean();
    const Time time = dec.ticks();
    const std::uint64_t seq = dec.u64();
    if (has_pending) {
      // A down resource's pending event is its repair; an up resource's
      // is its next failure.
      pending.push_back(PendingTransition{static_cast<ResourceId>(r), time,
                                          seq, down[r] != 0});
    }
  }
  std::vector<DownInterval> downtime;
  const std::uint32_t num_intervals = dec.u32();
  for (std::uint32_t i = 0; i < num_intervals && dec.ok(); ++i) {
    DownInterval interval;
    interval.resource = static_cast<ResourceId>(dec.i64());
    interval.start = dec.ticks();
    interval.end = dec.ticks();
    downtime.push_back(interval);
  }
  const std::int64_t down_count = dec.i64();
  const std::uint64_t failures = dec.u64();
  const std::uint64_t repairs = dec.u64();
  const std::uint64_t suppressed = dec.u64();
  const std::uint32_t num_racks = dec.u32();
  if (dec.ok() && num_racks != static_cast<std::uint32_t>(rack_ids_.size())) {
    return fail("snapshot injector has " + std::to_string(num_racks) +
                " racks, this one has " + std::to_string(rack_ids_.size()));
  }
  std::vector<std::string> rack_rng_states(rack_ids_.size());
  for (std::size_t k = 0; k < rack_ids_.size() && dec.ok(); ++k) {
    const std::int64_t rack_id = dec.i64();
    if (dec.ok() && rack_id != rack_ids_[k]) {
      return fail("snapshot rack id " + std::to_string(rack_id) +
                  " does not match this injector's rack " +
                  std::to_string(rack_ids_[k]));
    }
    rack_rng_states[k] = dec.bytes();
    const bool has_pending = dec.boolean();
    const Time time = dec.ticks();
    const std::uint64_t seq = dec.u64();
    if (has_pending) {
      PendingTransition t;
      t.time = time;
      t.seq = seq;
      t.rack = rack_ids_[k];
      pending.push_back(t);
    }
  }
  const std::uint64_t rack_bursts = dec.u64();
  if (!dec.ok()) return fail("corrupt injector state: " + dec.error());
  if (!dec.done()) {
    return fail("trailing bytes after injector state at byte " +
                std::to_string(dec.offset()));
  }
  for (std::size_t r = 0; r < streams_.size(); ++r) {
    if (!streams_[r].load_state(rng_states[r])) {
      return fail("malformed RNG state for resource " + std::to_string(r));
    }
  }
  for (std::size_t k = 0; k < rack_streams_.size(); ++k) {
    if (!rack_streams_[k].load_state(rack_rng_states[k])) {
      return fail("malformed RNG state for rack " +
                  std::to_string(rack_ids_[k]));
    }
  }
  down_ = std::move(down);
  open_ = std::move(open);
  downtime_ = std::move(downtime);
  down_count_ = static_cast<int>(down_count);
  failures_ = failures;
  repairs_ = repairs;
  suppressed_ = suppressed;
  rack_bursts_ = rack_bursts;
  pending_.assign(streams_.size(), des::EventHandle{});
  rack_pending_.assign(rack_ids_.size(), des::EventHandle{});
  std::sort(pending.begin(), pending.end(),
            [](const PendingTransition& a, const PendingTransition& b) {
              return a.seq < b.seq;
            });
  restored_pending_ = std::move(pending);
  return true;
}

void FaultInjector::resume(TransitionFn on_down, TransitionFn on_up) {
  if ((!config_.failures_enabled() && !config_.rack_failures_enabled()) ||
      cap_ == 0) {
    return;
  }
  MRCP_CHECK(on_down != nullptr && on_up != nullptr);
  on_down_ = std::move(on_down);
  on_up_ = std::move(on_up);
}

void FaultInjector::schedule_transition(des::Simulation& des,
                                        const PendingTransition& t) {
  if (t.rack >= 0) {
    const auto it = std::lower_bound(rack_ids_.begin(), rack_ids_.end(),
                                     t.rack);
    MRCP_CHECK(it != rack_ids_.end() && *it == t.rack);
    const auto k = static_cast<std::size_t>(it - rack_ids_.begin());
    MRCP_CHECK(!rack_pending_[k].pending());
    rack_pending_[k] =
        des.schedule_at(t.time, [this, &des, k] { on_rack_failure(des, k); });
    return;
  }
  const auto ri = static_cast<std::size_t>(t.resource);
  MRCP_CHECK(ri < pending_.size() && !pending_[ri].pending());
  if (t.repair) {
    pending_[ri] = des.schedule_at(
        t.time, [this, &des, r = t.resource] { on_repair(des, r); });
  } else {
    pending_[ri] = des.schedule_at(
        t.time, [this, &des, r = t.resource] { on_failure(des, r); });
  }
}

std::vector<int> cluster_racks(const Cluster& cluster) {
  std::vector<int> racks;
  racks.reserve(cluster.resources().size());
  for (const Resource& r : cluster.resources()) racks.push_back(r.rack);
  return racks;
}

bool is_straggler(const FaultConfig& config, JobId job, int task_index) {
  if (config.straggler_prob <= 0.0) return false;
  std::uint64_t h = splitmix64(
      static_cast<std::uint64_t>(job) * std::uint64_t{0x9E3779B97F4A7C15} +
      static_cast<std::uint64_t>(task_index) + std::uint64_t{1});
  h = splitmix64(h ^ config.seed);
  // 53-bit mantissa -> uniform double in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < config.straggler_prob;
}

std::size_t apply_stragglers(Workload& workload, const FaultConfig& config) {
  if (!config.stragglers_enabled()) return 0;
  std::size_t count = 0;
  for (Job& job : workload.jobs) {
    for (std::size_t ti = 0; ti < job.num_tasks(); ++ti) {
      if (!is_straggler(config, job.id, static_cast<int>(ti))) continue;
      Task& task = ti < job.map_tasks.size()
                       ? job.map_tasks[ti]
                       : job.reduce_tasks[ti - job.map_tasks.size()];
      const double slowed =
          static_cast<double>(task.exec_time.count()) * config.straggler_factor;
      task.exec_time = std::max<Time>(
          task.exec_time, Time{std::llround(slowed)});
      ++count;
    }
  }
  return count;
}

}  // namespace mrcp::sim
