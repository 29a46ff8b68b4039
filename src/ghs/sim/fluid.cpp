#include "ghs/sim/fluid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ghs/util/error.hpp"
#include "ghs/util/log.hpp"

namespace ghs::sim {

namespace {

/// A flow counts as drained once fewer than this many bytes remain; real
/// flows in this repository are kilobytes and up, so the epsilon only
/// absorbs picosecond rounding.
constexpr double kDrainEpsilonBytes = 0.5;

}  // namespace

FlowPath::FlowPath(std::initializer_list<ResourceId> hops) {
  for (ResourceId r : hops) push_back(r);
}

void FlowPath::push_back(ResourceId r) {
  GHS_REQUIRE(size_ < kMaxHops,
              "flow path longer than " << kMaxHops << " resources");
  hops_[size_++] = r;
}

ResourceId FluidNetwork::add_resource(std::string name, Bandwidth capacity) {
  GHS_REQUIRE(capacity.bytes_per_second > 0.0,
              "resource '" << name << "' needs positive capacity");
  Resource& resource = resources_.emplace_back();
  resource.name = std::move(name);
  resource.capacity = capacity.bytes_per_second;
  return static_cast<ResourceId>(resources_.size() - 1);
}

void FluidNetwork::set_capacity(ResourceId id, Bandwidth capacity) {
  GHS_REQUIRE(id < resources_.size(), "resource id " << id);
  GHS_REQUIRE(capacity.bytes_per_second > 0.0, "capacity must be positive");
  sync_to_now();
  resources_[id].capacity = capacity.bytes_per_second;
  recompute_rates();
  schedule_next_completion();
}

Bandwidth FluidNetwork::capacity(ResourceId id) const {
  GHS_REQUIRE(id < resources_.size(), "resource id " << id);
  return Bandwidth{resources_[id].capacity};
}

const std::string& FluidNetwork::resource_name(ResourceId id) const {
  GHS_REQUIRE(id < resources_.size(), "resource id " << id);
  return resources_[id].name;
}

const ResourceStats& FluidNetwork::resource_stats(ResourceId id) const {
  GHS_REQUIRE(id < resources_.size(), "resource id " << id);
  return resources_[id].stats;
}

FlowId FluidNetwork::start_flow(FlowSpec spec) {
  GHS_REQUIRE(spec.bytes > 0.0, "flow '" << spec.label << "' has no bytes");
  GHS_REQUIRE(!spec.resources.empty(),
              "flow '" << spec.label << "' traverses no resources");
  const auto* hops = spec.resources.begin();
  for (std::size_t i = 0; i < spec.resources.size(); ++i) {
    GHS_REQUIRE(hops[i] < resources_.size(),
                "flow '" << spec.label << "' uses bad resource id "
                         << hops[i]);
    GHS_REQUIRE(std::find(hops, hops + i, hops[i]) == hops + i,
                "flow '" << spec.label << "' repeats resource " << hops[i]);
  }
  sync_to_now();
  const FlowId id = next_flow_id_++;
  Flow& flow = flows_.emplace_back();
  flow.id = id;
  flow.remaining = spec.bytes;
  flow.spec = std::move(spec);
  if (!settling_) {
    recompute_rates();
    schedule_next_completion();
  }
  return id;
}

const FluidNetwork::Flow* FluidNetwork::lookup(FlowId id) const {
  const auto it = std::lower_bound(
      flows_.begin(), flows_.end(), id,
      [](const Flow& flow, FlowId key) { return flow.id < key; });
  return it != flows_.end() && it->id == id ? &*it : nullptr;
}

bool FluidNetwork::active(FlowId id) const { return lookup(id) != nullptr; }

double FluidNetwork::current_rate(FlowId id) const {
  const Flow* flow = lookup(id);
  GHS_REQUIRE(flow != nullptr, "flow " << id << " is not active");
  return flow->rate;
}

double FluidNetwork::remaining_bytes(FlowId id) const {
  const Flow* flow = lookup(id);
  GHS_REQUIRE(flow != nullptr, "flow " << id << " is not active");
  return flow->remaining;
}

void FluidNetwork::sync_to_now() {
  const SimTime now = sim_.now();
  GHS_CHECK(now >= last_update_, "fluid clock moved backwards");
  if (now == last_update_) return;
  const double dt_s = to_seconds(now - last_update_);
  const double dt_ps = static_cast<double>(now - last_update_);
  // Only resources a moving flow drives are visited: any other resource
  // would add min(1, 0 / capacity) * dt_ps = +0 to its busy time.
  synced_.clear();
  for (Flow& flow : flows_) {
    if (flow.rate <= 0.0) continue;
    const double moved = std::min(flow.remaining, flow.rate * dt_s);
    flow.remaining -= moved;
    for (ResourceId r : flow.spec.resources) {
      Resource& resource = resources_[r];
      resource.stats.bytes_served += moved;
      if (resource.rate == 0.0) synced_.push_back(r);
      resource.rate += flow.rate;
    }
  }
  for (ResourceId r : synced_) {
    Resource& resource = resources_[r];
    const double util = std::min(1.0, resource.rate / resource.capacity);
    resource.stats.busy_time_ps += util * dt_ps;
    resource.rate = 0.0;
  }
  last_update_ = now;
}

void FluidNetwork::recompute_rates() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (flows_.size() == 1) {
    // The general pass below would divide each capacity by a count of 1
    // and freeze the flow in its first round: the same operations.
    Flow& flow = flows_.front();
    double limit = flow.spec.rate_cap > 0.0 ? flow.spec.rate_cap : kInf;
    for (ResourceId r : flow.spec.resources) {
      limit = std::min(limit, std::max(0.0, resources_[r].capacity));
    }
    GHS_CHECK(std::isfinite(limit), "all flows uncapped over zero resources");
    flow.rate = limit;
    return;
  }
  // Counts return to 0 as flows freeze; clearing the previous call's
  // entries only matters after a failed check left some behind.
  for (ResourceId r : touched_) resources_[r].count = 0;
  touched_.clear();
  unfrozen_.clear();
  for (Flow& flow : flows_) {
    unfrozen_.push_back(&flow);
    for (ResourceId r : flow.spec.resources) {
      Resource& resource = resources_[r];
      if (resource.count++ == 0) {
        resource.residual = resource.capacity;
        touched_.push_back(r);
      }
    }
  }
  // Progressive filling: each round freezes every flow whose limiting
  // constraint equals the global minimum, guaranteeing termination.
  while (!unfrozen_.empty()) {
    double round_min = kInf;
    limits_.resize(unfrozen_.size());
    for (std::size_t i = 0; i < unfrozen_.size(); ++i) {
      const Flow& flow = *unfrozen_[i];
      double limit = flow.spec.rate_cap > 0.0 ? flow.spec.rate_cap : kInf;
      for (ResourceId r : flow.spec.resources) {
        const Resource& resource = resources_[r];
        GHS_CHECK(resource.count > 0, "resource count underflow");
        limit = std::min(limit, std::max(0.0, resource.residual) /
                                    static_cast<double>(resource.count));
      }
      limits_[i] = limit;
      round_min = std::min(round_min, limit);
    }
    GHS_CHECK(std::isfinite(round_min),
              "all flows uncapped over zero resources");
    const double freeze_below = round_min * (1.0 + 1e-12) + 1e-9;
    still_unfrozen_.clear();
    for (std::size_t i = 0; i < unfrozen_.size(); ++i) {
      Flow& flow = *unfrozen_[i];
      if (limits_[i] <= freeze_below) {
        flow.rate = limits_[i];
        for (ResourceId r : flow.spec.resources) {
          resources_[r].residual -= flow.rate;
          --resources_[r].count;
        }
      } else {
        still_unfrozen_.push_back(&flow);
      }
    }
    GHS_CHECK(still_unfrozen_.size() < unfrozen_.size(),
              "water-filling made no progress");
    unfrozen_.swap(still_unfrozen_);
  }
}

void FluidNetwork::schedule_next_completion() {
  if (flows_.empty()) return;
  double min_dt_s = std::numeric_limits<double>::infinity();
  for (const Flow& flow : flows_) {
    if (flow.rate <= 0.0) {
      GHS_CHECK(flow.remaining <= kDrainEpsilonBytes,
                "flow " << flow.id << " '" << flow.spec.label
                        << "' stalled at rate 0 with " << flow.remaining
                        << " bytes left");
      min_dt_s = 0.0;
      continue;
    }
    min_dt_s = std::min(min_dt_s, flow.remaining / flow.rate);
  }
  // Round up so the earliest-finishing flow is guaranteed drained when the
  // wake event fires.
  SimTime dt = from_seconds(min_dt_s);
  if (dt <= 0) dt = 1;
  const std::uint64_t gen = ++wake_generation_;
  sim_.schedule_after(dt, [this, gen] {
    if (gen != wake_generation_) return;  // superseded by a newer schedule
    settle();
  });
}

void FluidNetwork::settle() {
  sync_to_now();
  settling_ = true;
  // Moved out while invoked, so a throwing callback leaves no stale
  // entries for the next settle to run.
  std::vector<Event> callbacks = std::move(callbacks_);
  auto kept = flows_.begin();
  for (auto it = flows_.begin(); it != flows_.end(); ++it) {
    if (it->remaining <= kDrainEpsilonBytes) {
      if (it->spec.on_complete) {
        callbacks.push_back(std::move(it->spec.on_complete));
      }
    } else {
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
  }
  flows_.erase(kept, flows_.end());
  // Callbacks may start new flows; the settling_ flag defers their rate
  // recomputation to the single pass below.
  for (Event& cb : callbacks) cb();
  callbacks.clear();
  callbacks_ = std::move(callbacks);
  settling_ = false;
  recompute_rates();
  schedule_next_completion();
}

}  // namespace ghs::sim
