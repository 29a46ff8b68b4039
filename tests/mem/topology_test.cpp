#include "ghs/mem/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "ghs/util/error.hpp"

namespace ghs::mem {
namespace {

class TopologyTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  TopologyConfig config;
  Topology topo{sim, config};

  static bool contains(const sim::FlowPath& path, sim::ResourceId r) {
    return std::find(path.begin(), path.end(), r) != path.end();
  }
};

TEST_F(TopologyTest, DefaultCapacitiesMatchTestbed) {
  EXPECT_DOUBLE_EQ(topo.network().capacity(topo.hbm()).gbps(), 4022.7);
  EXPECT_DOUBLE_EQ(topo.network().capacity(topo.lpddr()).gbps(), 500.0);
  EXPECT_DOUBLE_EQ(topo.network().capacity(topo.c2c_to_gpu()).gbps(), 450.0);
  EXPECT_DOUBLE_EQ(topo.network().capacity(topo.c2c_to_cpu()).gbps(), 450.0);
}

TEST_F(TopologyTest, GpuLocalReadTouchesOnlyHbm) {
  const auto path = topo.gpu_read_path(RegionId::kHbm);
  EXPECT_EQ(path.size(), 1u);
  EXPECT_TRUE(contains(path, topo.hbm()));
}

TEST_F(TopologyTest, GpuRemoteReadCrossesLink) {
  const auto path = topo.gpu_read_path(RegionId::kLpddr);
  EXPECT_TRUE(contains(path, topo.lpddr()));
  EXPECT_TRUE(contains(path, topo.c2c_to_gpu()));
  EXPECT_FALSE(contains(path, topo.hbm()));
}

TEST_F(TopologyTest, CpuLocalReadTouchesOnlyLpddr) {
  const auto path = topo.cpu_read_path(RegionId::kLpddr);
  EXPECT_EQ(path.size(), 1u);
  EXPECT_TRUE(contains(path, topo.lpddr()));
}

TEST_F(TopologyTest, CpuRemoteReadCrossesLinkTowardCpu) {
  const auto path = topo.cpu_read_path(RegionId::kHbm);
  EXPECT_TRUE(contains(path, topo.hbm()));
  EXPECT_TRUE(contains(path, topo.c2c_to_cpu()));
  EXPECT_FALSE(contains(path, topo.c2c_to_gpu()));
}

TEST_F(TopologyTest, MigrationPathTouchesBothMemoriesAndEngine) {
  const auto up = topo.migration_path(RegionId::kLpddr, RegionId::kHbm);
  EXPECT_TRUE(contains(up, topo.lpddr()));
  EXPECT_TRUE(contains(up, topo.hbm()));
  EXPECT_TRUE(contains(up, topo.c2c_to_gpu()));
  EXPECT_TRUE(contains(up, topo.migration_engine()));

  const auto down = topo.migration_path(RegionId::kHbm, RegionId::kLpddr);
  EXPECT_TRUE(contains(down, topo.c2c_to_cpu()));
  EXPECT_TRUE(contains(down, topo.migration_engine()));
}

TEST_F(TopologyTest, MigrationWithinRegionRejected) {
  EXPECT_THROW(topo.migration_path(RegionId::kHbm, RegionId::kHbm), Error);
  EXPECT_THROW(topo.copy_path(RegionId::kLpddr, RegionId::kLpddr), Error);
}

TEST_F(TopologyTest, CopyPathSkipsMigrationEngine) {
  const auto path = topo.copy_path(RegionId::kLpddr, RegionId::kHbm);
  EXPECT_FALSE(contains(path, topo.migration_engine()));
  EXPECT_TRUE(contains(path, topo.c2c_to_gpu()));
}

TEST_F(TopologyTest, RegionNames) {
  EXPECT_STREQ(region_name(RegionId::kHbm), "HBM3");
  EXPECT_STREQ(region_name(RegionId::kLpddr), "LPDDR5X");
}

}  // namespace
}  // namespace ghs::mem
