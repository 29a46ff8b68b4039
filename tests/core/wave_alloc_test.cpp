// Heap-allocation regression test for the GPU wave hot path.
//
// This binary replaces the global operator new/delete with counting
// versions, then measures how many allocations one more repetition of a
// paper protocol costs. A baseline kernel runs thousands of occupancy
// waves, and each wave must cost arithmetic only: the per-kernel
// bookkeeping (launch closure, execution state, UM plan) is allowed, a
// per-wave allocation is not. The bound is one allocation per 100 waves.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "ghs/core/platform.hpp"
#include "ghs/core/reduce.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ghs::core {
namespace {

struct Cost {
  std::uint64_t allocations = 0;
  std::int64_t waves = 0;
  std::int64_t fault_migrations = 0;
};

/// Allocations and waves of `run` on a fresh platform, counted from just
/// before the protocol starts (platform construction excluded).
template <typename Run>
Cost measure(Run run) {
  Platform platform;
  const std::uint64_t before = g_allocations.load();
  run(platform);
  Cost cost;
  cost.allocations = g_allocations.load() - before;
  cost.waves = platform.gpu().stats().waves_executed;
  cost.fault_migrations = platform.um().stats().fault_migrations;
  return cost;
}

TEST(WaveAllocTest, CountingAllocatorSeesAllocations) {
  const std::uint64_t before = g_allocations.load();
  auto* p = new int(7);
  delete p;
  EXPECT_EQ(g_allocations.load() - before, 1u);
}

TEST(WaveAllocTest, ExplicitMapBaselineKernelAllocatesPerKernelOnly) {
  // C2's heuristic grid runs a few thousand waves per kernel; the extra
  // repetitions of the Listing 6 loop cost the difference.
  auto run = [](int iterations) {
    return measure([iterations](Platform& platform) {
      GpuBenchmark bench;
      bench.case_id = workload::CaseId::kC2;
      bench.iterations = iterations;
      run_gpu_benchmark(platform, bench);
    });
  };
  const Cost one = run(1);
  const Cost three = run(3);
  const std::int64_t waves = three.waves - one.waves;
  const std::uint64_t allocations = three.allocations - one.allocations;
  RecordProperty("allocations", std::to_string(allocations));
  RecordProperty("waves", std::to_string(waves));
  ASSERT_GE(waves, 2 * 3000);
  EXPECT_LT(allocations * 100, static_cast<std::uint64_t>(waves))
      << allocations << " allocations over " << waves << " waves";
}

TEST(WaveAllocTest, UmCoExecutionPointAllocatesPerKernelOnly) {
  // One Listing 8 point with a CPU share: the GPU's waves contend with a
  // CPU flow, and at A1 the first repetition fault-migrates pages into HBM.
  const Cost cost = measure([](Platform& platform) {
    HeteroBenchmark bench;
    bench.case_id = workload::CaseId::kC2;
    bench.site = AllocSite::kA1;
    bench.cpu_parts = {0.3};
    bench.iterations = 3;
    run_hetero_benchmark(platform, bench);
  });
  RecordProperty("allocations", std::to_string(cost.allocations));
  RecordProperty("waves", std::to_string(cost.waves));
  ASSERT_GE(cost.waves, 3000);
  ASSERT_GT(cost.fault_migrations, 0);
  EXPECT_LT(cost.allocations * 100, static_cast<std::uint64_t>(cost.waves))
      << cost.allocations << " allocations over " << cost.waves << " waves";
}

}  // namespace
}  // namespace ghs::core
