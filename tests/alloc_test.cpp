// Allocation contract: the steady-state epoch loop (step_into +
// decide_into, telemetry off) performs ZERO heap allocations once every
// scratch buffer has reached its working capacity. Verified with a
// counting global operator new.
//
// The counting operator new replaces the global one for this whole test
// binary; gtest and setup code allocate freely, so every assertion reads a
// *delta* of the counter around the region under test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "arch/chip_config.hpp"
#include "core/odrl_controller.hpp"
#include "power/batch_power.hpp"
#include "sim/controller_registry.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "workload/workload.hpp"

namespace {
std::atomic<std::size_t> g_new_calls{0};

/// Every replacement operator delete releases through here. Kept out of
/// line so the optimizer never sees std::free applied to a pointer that
/// came from operator new: the pairing is correct (the replacement new
/// allocates with malloc), but once inlined GCC's
/// -Wmismatched-new-delete cannot tell.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

// -- Counting global allocator -------------------------------------------
// Every replaceable form is provided so no allocation sneaks through a
// default aligned/array overload that bypasses the counter.

void* operator new(std::size_t n) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t align =
      std::max(static_cast<std::size_t>(al), sizeof(void*));
  if (posix_memalign(&p, align, n ? n : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

using namespace odrl;

namespace {

constexpr std::size_t kCores = 16;
constexpr std::size_t kWarmupEpochs = 64;
constexpr std::size_t kMeasuredEpochs = 128;

arch::ChipConfig chip() { return arch::ChipConfig::make(kCores, 0.6); }

workload::RecordedTrace shared_trace() {
  workload::GeneratedWorkload gen =
      workload::GeneratedWorkload::mixed_suite(kCores, 42);
  return gen.record(512);
}

sim::ManyCoreSystem make_system(const arch::ChipConfig& c) {
  sim::SimConfig sc;
  sc.seed = 7;
  static const workload::RecordedTrace trace = shared_trace();
  return sim::ManyCoreSystem(
      c, std::make_unique<workload::ReplayWorkload>(trace), sc);
}

// -- 1. Zero steady-state allocations ------------------------------------

class SteadyStateAllocs : public ::testing::TestWithParam<std::string> {};

TEST_P(SteadyStateAllocs, EpochLoopIsAllocationFree) {
  const std::string& name = GetParam();
  const arch::ChipConfig c = chip();
  sim::ManyCoreSystem sys = make_system(c);
  auto ctl = sim::make_controller(name, c);

  std::vector<std::size_t> levels = ctl->initial_levels(kCores);
  std::vector<std::size_t> next(kCores, 0);
  sim::EpochResult obs;

  // Warmup: every scratch buffer (SoA columns, predictor
  // tables, DP rows, realloc scratch, workload sample buffer) grows to its
  // steady capacity here.
  for (std::size_t e = 0; e < kWarmupEpochs; ++e) {
    sys.step_into(levels, obs);
    ctl->decide_into(obs, next);
    levels.swap(next);
  }

  const std::size_t before = g_new_calls.load(std::memory_order_relaxed);
  for (std::size_t e = 0; e < kMeasuredEpochs; ++e) {
    sys.step_into(levels, obs);
    ctl->decide_into(obs, next);
    levels.swap(next);
  }
  const std::size_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << name << " allocated in the steady-state loop";
}

INSTANTIATE_TEST_SUITE_P(AllControllers, SteadyStateAllocs,
                         ::testing::Values("OD-RL", "PID", "Greedy", "MaxBIPS",
                                           "Static"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

// The full closed loop (runner included) must also be allocation-free per
// epoch. run_closed_loop allocates during setup, so compare two otherwise
// identical runs that differ only in epoch count: the longer run must not
// allocate a single extra block.
TEST(SteadyStateAllocs, ClosedLoopEpochsAreAllocationFree) {
  const arch::ChipConfig c = chip();
  auto run_and_count = [&](std::size_t epochs) {
    sim::ManyCoreSystem sys = make_system(c);
    core::OdrlController ctl(c);
    sim::RunConfig rc;
    rc.warmup_epochs = 32;
    rc.epochs = epochs;
    rc.keep_traces = false;
    const std::size_t before = g_new_calls.load(std::memory_order_relaxed);
    (void)sim::run_closed_loop(sys, ctl, rc);
    return g_new_calls.load(std::memory_order_relaxed) - before;
  };
  const std::size_t short_run = run_and_count(64);
  const std::size_t long_run = run_and_count(192);
  EXPECT_EQ(long_run, short_run)
      << "extra epochs allocated (per-epoch leak in the closed loop)";
}

// Snapshot capture and controller hot-swap are event-epoch work: the run
// allocates at the capture epoch (Writer buffer) and at the swap epoch
// (registry construction), but the steady-state epochs around those
// events stay allocation-free. Two runs with identical event schedules
// differing only in tail length must allocate identically.
TEST(SteadyStateAllocs, SnapshotAndSwapKeepSteadyEpochsAllocationFree) {
  const arch::ChipConfig c = chip();
  auto run_and_count = [&](std::size_t epochs) {
    sim::ManyCoreSystem sys = make_system(c);
    core::OdrlController ctl(c);
    std::string blob;
    sim::RunConfig rc;
    rc.warmup_epochs = 32;
    rc.epochs = epochs;
    rc.keep_traces = false;
    rc.snapshot_epoch = 8;
    rc.snapshot_out = &blob;
    rc.swaps.push_back({16, "Greedy", {}, nullptr});
    const std::size_t before = g_new_calls.load(std::memory_order_relaxed);
    (void)sim::run_closed_loop(sys, ctl, rc);
    return g_new_calls.load(std::memory_order_relaxed) - before;
  };
  const std::size_t short_run = run_and_count(64);
  const std::size_t long_run = run_and_count(192);
  EXPECT_EQ(long_run, short_run)
      << "extra epochs allocated (snapshot/swap machinery leaks into the "
         "steady-state loop)";
}

// The batched power kernel is called inside the step_into hot loop; its
// steady-state evaluation must not allocate either (the exp-v cache and
// columns are built once at construction).
TEST(SteadyStateAllocs, BatchPowerCorePowerIntoIsAllocationFree) {
  const arch::ChipConfig c = chip();
  std::vector<arch::CoreParams> per_core(kCores, c.core());
  const power::BatchPowerModel batch(per_core, c.vf_table());
  std::vector<std::size_t> level(kCores, 3);
  std::vector<workload::PhaseSample> phases(
      kCores, {.base_cpi = 1.0, .mpki = 5.0, .activity = 0.6});
  std::vector<double> temp(kCores, 70.0);
  std::vector<double> out(kCores, 0.0);
  batch.core_power_into(0, kCores, level, phases, temp, out);  // warm

  const std::size_t before = g_new_calls.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 256; ++rep) {
    batch.core_power_into(0, kCores, level, phases, temp, out);
  }
  const std::size_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "core_power_into allocated in steady state";
}

}  // namespace
