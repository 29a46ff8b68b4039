// Bit-exactness oracle for the fluid network.
//
// OracleFluidNetwork below is the std::map-backed FluidNetwork the flat
// flow table replaced, kept verbatim apart from its names. Both networks
// run the same seeded scenarios (staggered flows over shared resources,
// rate caps including 0, a capacity change mid-flight, and completion
// callbacks that start new flows) and every observable double must be
// identical: rates, remaining bytes, completion times and the resource
// statistics. Any reordering of a floating-point sum fails this test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ghs/sim/fluid.hpp"
#include "ghs/util/error.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::sim {
namespace {

// ---- Oracle: the previous FluidNetwork, renamed --------------------------

struct OracleFlowSpec {
  /// Total bytes the flow must move; must be > 0.
  double bytes = 0.0;
  /// Per-flow rate cap in bytes/s; 0 means uncapped (resource-limited only).
  double rate_cap = 0.0;
  /// Resources the flow traverses; each constrains the rate. Must not be
  /// empty and must not repeat a resource.
  std::vector<ResourceId> resources;
  /// Invoked (once) when the last byte is delivered.
  std::function<void()> on_complete;
  /// Debug label surfaced in logs and error messages.
  std::string label;
};

class OracleFluidNetwork {
 public:
  explicit OracleFluidNetwork(Simulator& sim) : sim_(sim) {}

  OracleFluidNetwork(const OracleFluidNetwork&) = delete;
  OracleFluidNetwork& operator=(const OracleFluidNetwork&) = delete;

  ResourceId add_resource(std::string name, Bandwidth capacity);

  /// Adjusts a resource's capacity (used by tests and ablations); takes
  /// effect from the current instant.
  void set_capacity(ResourceId id, Bandwidth capacity);

  Bandwidth capacity(ResourceId id) const;
  const std::string& resource_name(ResourceId id) const;
  const ResourceStats& resource_stats(ResourceId id) const;

  /// Starts a flow now; rates of all flows are re-fair-shared.
  FlowId start_flow(OracleFlowSpec spec);

  /// True if the flow is still in flight.
  bool active(FlowId id) const;

  /// Instantaneous rate of an active flow (bytes/s).
  double current_rate(FlowId id) const;

  /// Remaining bytes of an active flow.
  double remaining_bytes(FlowId id) const;

  std::size_t active_flows() const { return flows_.size(); }

 private:
  struct Resource {
    std::string name;
    double capacity = 0.0;  // bytes/s
    ResourceStats stats;
  };

  struct Flow {
    OracleFlowSpec spec;
    double remaining = 0.0;
    double rate = 0.0;
  };

  /// Advances all flows' progress from last_update_ to now.
  void sync_to_now();
  /// Recomputes max-min fair rates for all active flows.
  void recompute_rates();
  /// Completes flows that have drained, invoking callbacks (which may start
  /// new flows); then recomputes and schedules the next completion.
  void settle();
  void schedule_next_completion();

  Simulator& sim_;
  std::vector<Resource> resources_;
  // Ordered map so rate computation iterates flows deterministically.
  std::map<FlowId, Flow> flows_;
  FlowId next_flow_id_ = 1;
  SimTime last_update_ = 0;
  std::uint64_t wake_generation_ = 0;
  bool settling_ = false;
};

/// A flow counts as drained once fewer than this many bytes remain; real
/// flows in this repository are kilobytes and up, so the epsilon only
/// absorbs picosecond rounding.
constexpr double kDrainEpsilonBytes = 0.5;

ResourceId OracleFluidNetwork::add_resource(std::string name,
                                            Bandwidth capacity) {
  GHS_REQUIRE(capacity.bytes_per_second > 0.0,
              "resource '" << name << "' needs positive capacity");
  resources_.push_back(Resource{std::move(name), capacity.bytes_per_second,
                                ResourceStats{}});
  return static_cast<ResourceId>(resources_.size() - 1);
}

void OracleFluidNetwork::set_capacity(ResourceId id, Bandwidth capacity) {
  GHS_REQUIRE(id < resources_.size(), "resource id " << id);
  GHS_REQUIRE(capacity.bytes_per_second > 0.0, "capacity must be positive");
  sync_to_now();
  resources_[id].capacity = capacity.bytes_per_second;
  recompute_rates();
  schedule_next_completion();
}

Bandwidth OracleFluidNetwork::capacity(ResourceId id) const {
  GHS_REQUIRE(id < resources_.size(), "resource id " << id);
  return Bandwidth{resources_[id].capacity};
}

const std::string& OracleFluidNetwork::resource_name(ResourceId id) const {
  GHS_REQUIRE(id < resources_.size(), "resource id " << id);
  return resources_[id].name;
}

const ResourceStats& OracleFluidNetwork::resource_stats(ResourceId id) const {
  GHS_REQUIRE(id < resources_.size(), "resource id " << id);
  return resources_[id].stats;
}

FlowId OracleFluidNetwork::start_flow(OracleFlowSpec spec) {
  GHS_REQUIRE(spec.bytes > 0.0, "flow '" << spec.label << "' has no bytes");
  GHS_REQUIRE(!spec.resources.empty(),
              "flow '" << spec.label << "' traverses no resources");
  for (ResourceId r : spec.resources) {
    GHS_REQUIRE(r < resources_.size(),
                "flow '" << spec.label << "' uses bad resource id " << r);
  }
  sync_to_now();
  const FlowId id = next_flow_id_++;
  Flow flow;
  flow.remaining = spec.bytes;
  flow.spec = std::move(spec);
  flows_.emplace(id, std::move(flow));
  if (!settling_) {
    recompute_rates();
    schedule_next_completion();
  }
  return id;
}

bool OracleFluidNetwork::active(FlowId id) const {
  return flows_.count(id) > 0;
}

double OracleFluidNetwork::current_rate(FlowId id) const {
  const auto it = flows_.find(id);
  GHS_REQUIRE(it != flows_.end(), "flow " << id << " is not active");
  return it->second.rate;
}

double OracleFluidNetwork::remaining_bytes(FlowId id) const {
  const auto it = flows_.find(id);
  GHS_REQUIRE(it != flows_.end(), "flow " << id << " is not active");
  return it->second.remaining;
}

void OracleFluidNetwork::sync_to_now() {
  const SimTime now = sim_.now();
  GHS_CHECK(now >= last_update_, "fluid clock moved backwards");
  if (now == last_update_) return;
  const double dt_s = to_seconds(now - last_update_);
  const double dt_ps = static_cast<double>(now - last_update_);
  std::vector<double> resource_rate(resources_.size(), 0.0);
  for (auto& [id, flow] : flows_) {
    if (flow.rate <= 0.0) continue;
    const double moved = std::min(flow.remaining, flow.rate * dt_s);
    flow.remaining -= moved;
    for (ResourceId r : flow.spec.resources) {
      resources_[r].stats.bytes_served += moved;
      resource_rate[r] += flow.rate;
    }
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    const double util =
        std::min(1.0, resource_rate[r] / resources_[r].capacity);
    resources_[r].stats.busy_time_ps += util * dt_ps;
  }
  last_update_ = now;
}

void OracleFluidNetwork::recompute_rates() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> residual(resources_.size());
  std::vector<int> count(resources_.size(), 0);
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    residual[r] = resources_[r].capacity;
  }
  std::vector<Flow*> unfrozen;
  unfrozen.reserve(flows_.size());
  for (auto& [id, flow] : flows_) {
    unfrozen.push_back(&flow);
    for (ResourceId r : flow.spec.resources) ++count[r];
  }
  // Progressive filling: each round freezes every flow whose limiting
  // constraint equals the global minimum, guaranteeing termination.
  while (!unfrozen.empty()) {
    double round_min = kInf;
    std::vector<double> limits(unfrozen.size());
    for (std::size_t i = 0; i < unfrozen.size(); ++i) {
      const Flow& flow = *unfrozen[i];
      double limit = flow.spec.rate_cap > 0.0 ? flow.spec.rate_cap : kInf;
      for (ResourceId r : flow.spec.resources) {
        GHS_CHECK(count[r] > 0, "resource count underflow");
        limit = std::min(limit, std::max(0.0, residual[r]) /
                                    static_cast<double>(count[r]));
      }
      limits[i] = limit;
      round_min = std::min(round_min, limit);
    }
    GHS_CHECK(std::isfinite(round_min),
              "all flows uncapped over zero resources");
    const double freeze_below = round_min * (1.0 + 1e-12) + 1e-9;
    std::vector<Flow*> still_unfrozen;
    still_unfrozen.reserve(unfrozen.size());
    for (std::size_t i = 0; i < unfrozen.size(); ++i) {
      Flow& flow = *unfrozen[i];
      if (limits[i] <= freeze_below) {
        flow.rate = limits[i];
        for (ResourceId r : flow.spec.resources) {
          residual[r] -= flow.rate;
          --count[r];
        }
      } else {
        still_unfrozen.push_back(&flow);
      }
    }
    GHS_CHECK(still_unfrozen.size() < unfrozen.size(),
              "water-filling made no progress");
    unfrozen = std::move(still_unfrozen);
  }
}

void OracleFluidNetwork::schedule_next_completion() {
  if (flows_.empty()) return;
  double min_dt_s = std::numeric_limits<double>::infinity();
  for (const auto& [id, flow] : flows_) {
    if (flow.rate <= 0.0) {
      GHS_CHECK(flow.remaining <= kDrainEpsilonBytes,
                "flow '" << flow.spec.label << "' stalled at rate 0 with "
                         << flow.remaining << " bytes left");
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

void OracleFluidNetwork::settle() {
  sync_to_now();
  settling_ = true;
  std::vector<std::function<void()>> callbacks;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->second.remaining <= kDrainEpsilonBytes) {
      if (it->second.spec.on_complete) {
        callbacks.push_back(std::move(it->second.spec.on_complete));
      }
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  // Callbacks may start new flows; the settling_ flag defers their rate
  // recomputation to the single pass below.
  for (auto& cb : callbacks) cb();
  settling_ = false;
  recompute_rates();
  schedule_next_completion();
}

// ---- Scenarios ------------------------------------------------------------

struct PlannedFlow {
  SimTime start = 0;  // roots only; children start from a callback
  double bytes = 0.0;
  double rate_cap = 0.0;
  std::vector<ResourceId> path;
  int child = -1;  // flow started when this one completes
  bool is_child = false;
};

struct Scenario {
  std::vector<double> capacities;
  std::vector<PlannedFlow> flows;
  SimTime capacity_change_at = -1;
  ResourceId capacity_resource = 0;
  double new_capacity = 0.0;
  std::vector<SimTime> probes;
};

PlannedFlow random_flow(Rng& rng, int resources) {
  PlannedFlow flow;
  flow.start = rng.next_below(4) == 0
                   ? 0
                   : static_cast<SimTime>(rng.next_below(20'000)) *
                         kMicrosecond;
  switch (rng.next_below(4)) {
    case 0:  // tiny: drains within a few picoseconds of its start
      flow.bytes = 1.0 + static_cast<double>(rng.next_below(1000));
      break;
    case 1:  // round
      flow.bytes = 1e6 * static_cast<double>(1 + rng.next_below(1000));
      break;
    default:
      flow.bytes = 1e6 + 1e9 * rng.next_double();
      break;
  }
  switch (rng.next_below(3)) {
    case 0:
      flow.rate_cap = 0.0;  // uncapped
      break;
    case 1:
      flow.rate_cap = 1e9 * static_cast<double>(1 + rng.next_below(40));
      break;
    default:
      flow.rate_cap = 1e8 + 5e10 * rng.next_double();
      break;
  }
  const auto hops = 1 + rng.next_below(std::min<std::uint64_t>(
                            FlowPath::kMaxHops,
                            static_cast<std::uint64_t>(resources)));
  while (flow.path.size() < hops) {
    const auto r = static_cast<ResourceId>(
        rng.next_below(static_cast<std::uint64_t>(resources)));
    if (std::find(flow.path.begin(), flow.path.end(), r) ==
        flow.path.end()) {
      flow.path.push_back(r);
    }
  }
  return flow;
}

Scenario make_scenario(std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  const int resources = 1 + static_cast<int>(rng.next_below(6));
  for (int r = 0; r < resources; ++r) {
    s.capacities.push_back(rng.next_below(2) == 0
                               ? 50e9 * static_cast<double>(
                                            1 + rng.next_below(8))
                               : 1e9 + 4e11 * rng.next_double());
  }
  const int roots = 1 + static_cast<int>(rng.next_below(8));
  for (int f = 0; f < roots; ++f) {
    s.flows.push_back(random_flow(rng, resources));
  }
  // Completion callbacks that start new flows, chained up to two deep.
  const std::size_t planned = s.flows.size();
  for (std::size_t f = 0; f < planned; ++f) {
    std::size_t parent = f;
    for (int depth = 0; depth < 2 && rng.next_below(3) == 0; ++depth) {
      PlannedFlow child = random_flow(rng, resources);
      child.is_child = true;
      s.flows[parent].child = static_cast<int>(s.flows.size());
      parent = s.flows.size();
      s.flows.push_back(std::move(child));
    }
  }
  if (rng.next_below(2) == 0) {
    s.capacity_change_at =
        static_cast<SimTime>(rng.next_below(20'000)) * kMicrosecond;
    s.capacity_resource =
        static_cast<ResourceId>(rng.next_below(
            static_cast<std::uint64_t>(resources)));
    s.new_capacity = 1e9 + 4e11 * rng.next_double();
  }
  const int probes = 1 + static_cast<int>(rng.next_below(6));
  for (int p = 0; p < probes; ++p) {
    s.probes.push_back(static_cast<SimTime>(rng.next_below(40'000)) *
                       kMicrosecond);
  }
  return s;
}

/// Everything a scenario lets a caller observe, in observation order.
struct Observed {
  std::vector<double> values;  // probed rates and remaining bytes
  std::vector<std::size_t> active;
  std::vector<SimTime> completions;
  std::vector<double> bytes_served;
  std::vector<double> busy_time_ps;
  std::vector<double> capacities;
  std::vector<std::string> names;
  std::size_t events = 0;
  bool threw = false;

  bool operator==(const Observed& other) const {
    return values == other.values && active == other.active &&
           completions == other.completions &&
           bytes_served == other.bytes_served &&
           busy_time_ps == other.busy_time_ps &&
           capacities == other.capacities && names == other.names &&
           events == other.events &&
           threw == other.threw;
  }
};

template <typename Network, typename Spec>
class ScenarioRun {
 public:
  explicit ScenarioRun(const Scenario& s)
      : s_(s), ids_(s.flows.size(), 0) {
    observed_.completions.assign(s.flows.size(), -1);
  }

  Observed run() {
    for (std::size_t r = 0; r < s_.capacities.size(); ++r) {
      net_.add_resource("r" + std::to_string(r), Bandwidth{s_.capacities[r]});
    }
    for (SimTime at : s_.probes) {
      sim_.schedule_at(at, [this] { probe(); });
    }
    for (std::size_t f = 0; f < s_.flows.size(); ++f) {
      if (s_.flows[f].is_child) continue;
      sim_.schedule_at(s_.flows[f].start, [this, f] { start(f); });
    }
    if (s_.capacity_change_at >= 0) {
      sim_.schedule_at(s_.capacity_change_at, [this] {
        net_.set_capacity(s_.capacity_resource, Bandwidth{s_.new_capacity});
        probe();
      });
    }
    try {
      sim_.run();
    } catch (const Error&) {
      observed_.threw = true;
    }
    for (std::size_t r = 0; r < s_.capacities.size(); ++r) {
      const auto id = static_cast<ResourceId>(r);
      const auto& stats = net_.resource_stats(id);
      observed_.bytes_served.push_back(stats.bytes_served);
      observed_.busy_time_ps.push_back(stats.busy_time_ps);
      observed_.capacities.push_back(net_.capacity(id).bytes_per_second);
      observed_.names.push_back(net_.resource_name(id));
    }
    observed_.events = sim_.events_processed();
    return observed_;
  }

 private:
  void start(std::size_t f) {
    const PlannedFlow& plan = s_.flows[f];
    Spec spec;
    spec.bytes = plan.bytes;
    spec.rate_cap = plan.rate_cap;
    for (ResourceId r : plan.path) spec.resources.push_back(r);
    spec.on_complete = [this, f] {
      observed_.completions[f] = sim_.now();
      if (s_.flows[f].child >= 0) {
        start(static_cast<std::size_t>(s_.flows[f].child));
      }
    };
    ids_[f] = net_.start_flow(std::move(spec));
    probe();
  }

  void probe() {
    observed_.active.push_back(net_.active_flows());
    for (FlowId id : ids_) {
      if (id == 0 || !net_.active(id)) continue;
      observed_.values.push_back(net_.current_rate(id));
      observed_.values.push_back(net_.remaining_bytes(id));
    }
  }

  const Scenario& s_;
  Simulator sim_;
  Network net_{sim_};
  std::vector<FlowId> ids_;
  Observed observed_;
};

TEST(FluidOracleTest, FlatTableMatchesMapOracleBitForBit) {
  constexpr std::uint64_t kScenarios = 12'000;
  std::size_t single_flow = 0;
  std::size_t with_children = 0;
  for (std::uint64_t seed = 1; seed <= kScenarios; ++seed) {
    const Scenario s = make_scenario(seed);
    const Observed expected =
        ScenarioRun<OracleFluidNetwork, OracleFlowSpec>(s).run();
    const Observed actual = ScenarioRun<FluidNetwork, FlowSpec>(s).run();
    ASSERT_TRUE(actual == expected) << "scenario seed " << seed;
    if (s.flows.size() == 1) ++single_flow;
    if (std::any_of(s.flows.begin(), s.flows.end(),
                    [](const PlannedFlow& f) { return f.is_child; })) {
      ++with_children;
    }
  }
  // The scenario mix reaches the one-flow fast path and the callback path.
  EXPECT_GT(single_flow, 500u);
  EXPECT_GT(with_children, 5000u);
}

}  // namespace
}  // namespace ghs::sim
