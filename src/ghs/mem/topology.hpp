// Memory topology of the simulated Grace-Hopper module: two physical
// memories (HBM3 behind the Hopper GPU, LPDDR5X behind the Grace CPU)
// joined by the NVLink-C2C interconnect (one capacity resource per
// direction), plus a migration-engine resource that caps how fast the UM
// driver can move pages regardless of link headroom.
//
// Every data movement in the repository is expressed as a fluid flow over a
// *path* (a set of these resources); the paths for the common cases are
// provided here so device models cannot accidentally disagree about what a
// remote access traverses.
#pragma once

#include "ghs/sim/fluid.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/util/units.hpp"

namespace ghs::mem {

/// Physical memory a page or buffer lives in.
enum class RegionId { kHbm, kLpddr };

const char* region_name(RegionId region);

struct TopologyConfig {
  /// Peak HBM3 bandwidth; paper's testbed reports 4022.7 GB/s.
  Bandwidth hbm_bw = Bandwidth::from_gbps(4022.7);
  /// Peak LPDDR5X bandwidth of the 480 GB Grace socket (~512 GB/s class;
  /// ~500 achievable).
  Bandwidth lpddr_bw = Bandwidth::from_gbps(500.0);
  /// NVLink-C2C capacity per direction (450 GB/s each way).
  Bandwidth c2c_per_direction_bw = Bandwidth::from_gbps(450.0);
  /// Cap on the UM driver's page-migration machinery (fault handling,
  /// unmap/remap); migrations move slower than raw link copies.
  Bandwidth migration_engine_bw = Bandwidth::from_gbps(250.0);
};

class Topology {
 public:
  Topology(sim::Simulator& sim, const TopologyConfig& config);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  sim::FluidNetwork& network() { return network_; }
  const sim::FluidNetwork& network() const { return network_; }
  sim::Simulator& sim() { return sim_; }
  const TopologyConfig& config() const { return config_; }

  sim::ResourceId hbm() const { return hbm_; }
  sim::ResourceId lpddr() const { return lpddr_; }
  /// C2C lane carrying data toward the GPU (GPU reads of CPU memory,
  /// host-to-device copies, CPU-to-GPU page migration).
  sim::ResourceId c2c_to_gpu() const { return c2c_to_gpu_; }
  /// C2C lane carrying data toward the CPU.
  sim::ResourceId c2c_to_cpu() const { return c2c_to_cpu_; }
  sim::ResourceId migration_engine() const { return migration_engine_; }

  // The paths below are built once at construction; the references stay
  // valid for the topology's lifetime.

  /// Resources a GPU streaming read of memory in `where` traverses.
  const sim::FlowPath& gpu_read_path(RegionId where) const;

  /// Resources a CPU streaming read of memory in `where` traverses.
  const sim::FlowPath& cpu_read_path(RegionId where) const;

  /// Resources a UM page migration traverses (source memory, link lane,
  /// destination memory, and the migration engine).
  const sim::FlowPath& migration_path(RegionId from, RegionId to) const;

  /// Resources an explicit map(to:)/map(from:) bulk copy traverses.
  const sim::FlowPath& copy_path(RegionId from, RegionId to) const;

 private:
  TopologyConfig config_;
  sim::Simulator& sim_;
  sim::FluidNetwork network_;
  sim::ResourceId hbm_;
  sim::ResourceId lpddr_;
  sim::ResourceId c2c_to_gpu_;
  sim::ResourceId c2c_to_cpu_;
  sim::ResourceId migration_engine_;
  // Indexed by the RegionId read (gpu/cpu) or moved from (migration/copy).
  sim::FlowPath gpu_read_[2];
  sim::FlowPath cpu_read_[2];
  sim::FlowPath migration_[2];
  sim::FlowPath copy_[2];
};

}  // namespace ghs::mem
