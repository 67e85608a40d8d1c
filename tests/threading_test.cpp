// Tests for the bit-identical threading contract (the task runtime's own
// chunking/reduction contracts live in task_test.cpp): an N-thread run of the simulator + controllers must
// reproduce a 1-thread run exactly (same chunk layout, same reduction
// trees, per-core noise/exploration substreams).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "arch/chip_config.hpp"
#include "baselines/greedy_controller.hpp"
#include "core/odrl_controller.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "workload/workload.hpp"

namespace oa = odrl::arch;
namespace oc = odrl::core;
namespace ob = odrl::baselines;
namespace os = odrl::sim;
namespace ow = odrl::workload;

// ------------------------------------- closed-loop determinism contract

namespace {

os::SimConfig noisy_sim(std::size_t threads) {
  os::SimConfig cfg;
  cfg.sensor_noise_rel = 0.05;
  cfg.seed = 11;
  cfg.threads = threads;
  cfg.dram.peak_gbps = 150.0;  // exercise the sharded traffic fixed point
  return cfg;
}

/// One full closed-loop run at the given execution width, optionally with
/// a fault schedule + watchdog injected (the fault engine's serial
/// prologue and per-core sensor filters are part of the determinism
/// contract too).
template <typename MakeController>
os::RunResult run_at_width(std::size_t threads, MakeController make,
                           const os::FaultSchedule* faults = nullptr) {
  const std::size_t cores = 32;
  const oa::ChipConfig chip = oa::ChipConfig::make(cores, 0.6);
  os::ManyCoreSystem system(
      chip,
      std::make_unique<ow::GeneratedWorkload>(
          ow::GeneratedWorkload::mixed_suite(cores, 5)),
      noisy_sim(threads));
  auto controller = make(chip);
  controller->set_threads(threads);
  os::RunConfig cfg;
  cfg.warmup_epochs = 20;
  cfg.epochs = 150;
  cfg.budget_events = {{0, chip.tdp_w() * 0.9}, {60, chip.tdp_w() * 0.5}};
  cfg.faults = faults;
  cfg.watchdog.enabled = faults != nullptr;
  return os::run_closed_loop(system, *controller, cfg);
}

/// Everything except wall-clock timing must match bit-for-bit.
void expect_bit_identical(const os::RunResult& a, const os::RunResult& b) {
  EXPECT_EQ(a.fault_events_applied, b.fault_events_applied);
  EXPECT_EQ(a.watchdog_invalid_decisions, b.watchdog_invalid_decisions);
  EXPECT_EQ(a.watchdog_fallback_entries, b.watchdog_fallback_entries);
  EXPECT_EQ(a.watchdog_fallback_exits, b.watchdog_fallback_exits);
  EXPECT_EQ(a.watchdog_fallback_epochs, b.watchdog_fallback_epochs);
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.otb_energy_j, b.otb_energy_j);
  EXPECT_EQ(a.time_over_s, b.time_over_s);
  EXPECT_EQ(a.peak_overshoot_w, b.peak_overshoot_w);
  EXPECT_EQ(a.mean_power_w, b.mean_power_w);
  EXPECT_EQ(a.thermal_violation_epochs, b.thermal_violation_epochs);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t e = 0; e < a.trace.size(); ++e) {
    const os::EpochTrace& ta = a.trace[e];
    const os::EpochTrace& tb = b.trace[e];
    ASSERT_EQ(ta.epoch, tb.epoch) << "epoch " << e;
    ASSERT_EQ(ta.budget_w, tb.budget_w) << "epoch " << e;
    ASSERT_EQ(ta.chip_power_w, tb.chip_power_w) << "epoch " << e;
    ASSERT_EQ(ta.true_chip_power_w, tb.true_chip_power_w) << "epoch " << e;
    ASSERT_EQ(ta.total_ips, tb.total_ips) << "epoch " << e;
    ASSERT_EQ(ta.max_temp_c, tb.max_temp_c) << "epoch " << e;
    ASSERT_EQ(ta.thermal_violations, tb.thermal_violations) << "epoch " << e;
    // decide_s is wall-clock time: excluded, like decision_time_s above.
  }
}

}  // namespace

TEST(Determinism, OdrlRunIsBitIdenticalAcrossThreadCounts) {
  auto make = [](const oa::ChipConfig& chip) {
    return std::make_unique<oc::OdrlController>(chip);
  };
  const os::RunResult serial = run_at_width(1, make);
  expect_bit_identical(serial, run_at_width(2, make));
  expect_bit_identical(serial, run_at_width(8, make));
}

TEST(Determinism, BaselineRunIsBitIdenticalAcrossThreadCounts) {
  auto make = [](const oa::ChipConfig& chip) {
    return std::make_unique<ob::GreedyController>(chip);
  };
  const os::RunResult serial = run_at_width(1, make);
  expect_bit_identical(serial, run_at_width(2, make));
  expect_bit_identical(serial, run_at_width(8, make));
}

TEST(Determinism, FaultedRunIsBitIdenticalAcrossThreadCounts) {
  // A dense storm (sensor lies, actuation faults, hotplug, budget steps)
  // with the watchdog armed: every engine mutation must stay in the serial
  // prologue or per-core slots, so thread width cannot leak into results.
  os::StormConfig storm;
  storm.sensor_rate = 0.01;
  storm.actuation_rate = 0.005;
  storm.offline_rate = 0.002;
  storm.budget_rate = 0.01;
  const os::FaultSchedule faults =
      os::FaultSchedule::random_storm(32, 150, 77, storm);
  ASSERT_FALSE(faults.empty());
  auto make = [](const oa::ChipConfig& chip) {
    return std::make_unique<oc::OdrlController>(chip);
  };
  const os::RunResult serial = run_at_width(1, make, &faults);
  EXPECT_GT(serial.fault_events_applied, 0u);
  expect_bit_identical(serial, run_at_width(2, make, &faults));
  expect_bit_identical(serial, run_at_width(4, make, &faults));
}

TEST(Determinism, EmptyScheduleLeavesRunsBitIdenticalToNoEngine) {
  // Plumbing an engine with nothing scheduled must be a perfect identity:
  // the fault path's mere presence cannot perturb a healthy run.
  const os::FaultSchedule empty;
  auto make = [](const oa::ChipConfig& chip) {
    return std::make_unique<oc::OdrlController>(chip);
  };
  const os::RunResult bare = run_at_width(2, make);
  os::RunResult plumbed = run_at_width(2, make, &empty);
  EXPECT_EQ(plumbed.fault_events_applied, 0u);
  EXPECT_EQ(plumbed.watchdog_fallback_entries, 0u);
  expect_bit_identical(bare, plumbed);
}

TEST(Determinism, RunConfigThreadsKnobReachesSystemAndController) {
  const oa::ChipConfig chip = oa::ChipConfig::make(8, 0.6);
  os::ManyCoreSystem system(chip,
                            std::make_unique<ow::GeneratedWorkload>(
                                ow::GeneratedWorkload::mixed_suite(8, 3)));
  EXPECT_EQ(system.threads(), 1u);
  oc::OdrlController controller(chip);
  os::RunConfig cfg;
  cfg.epochs = 5;
  cfg.threads = 3;
  os::run_closed_loop(system, controller, cfg);
  EXPECT_EQ(system.threads(), 3u);
  EXPECT_EQ(controller.config().threads, 3u);
}
