#include "ghs/mem/topology.hpp"

#include "ghs/util/error.hpp"

namespace ghs::mem {

const char* region_name(RegionId region) {
  switch (region) {
    case RegionId::kHbm:
      return "HBM3";
    case RegionId::kLpddr:
      return "LPDDR5X";
  }
  return "?";
}

namespace {

std::size_t slot(RegionId region) { return static_cast<std::size_t>(region); }

}  // namespace

Topology::Topology(sim::Simulator& sim, const TopologyConfig& config)
    : config_(config),
      sim_(sim),
      network_(sim),
      hbm_(network_.add_resource("HBM3", config.hbm_bw)),
      lpddr_(network_.add_resource("LPDDR5X", config.lpddr_bw)),
      c2c_to_gpu_(
          network_.add_resource("C2C->GPU", config.c2c_per_direction_bw)),
      c2c_to_cpu_(
          network_.add_resource("C2C->CPU", config.c2c_per_direction_bw)),
      migration_engine_(network_.add_resource("UM-migration",
                                              config.migration_engine_bw)),
      gpu_read_{{hbm_}, {lpddr_, c2c_to_gpu_}},
      cpu_read_{{hbm_, c2c_to_cpu_}, {lpddr_}},
      migration_{{hbm_, c2c_to_cpu_, lpddr_, migration_engine_},
                 {lpddr_, c2c_to_gpu_, hbm_, migration_engine_}},
      copy_{{hbm_, c2c_to_cpu_, lpddr_}, {lpddr_, c2c_to_gpu_, hbm_}} {}

const sim::FlowPath& Topology::gpu_read_path(RegionId where) const {
  return gpu_read_[slot(where)];
}

const sim::FlowPath& Topology::cpu_read_path(RegionId where) const {
  return cpu_read_[slot(where)];
}

const sim::FlowPath& Topology::migration_path(RegionId from,
                                              RegionId to) const {
  GHS_REQUIRE(from != to, "migration within " << region_name(from));
  return migration_[slot(from)];
}

const sim::FlowPath& Topology::copy_path(RegionId from, RegionId to) const {
  GHS_REQUIRE(from != to, "copy within " << region_name(from));
  return copy_[slot(from)];
}

}  // namespace ghs::mem
