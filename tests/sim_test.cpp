// Unit tests for the many-core system simulator and the closed-loop runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>

#include "arch/chip_config.hpp"
#include "sim/controller.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "workload/workload.hpp"

#include "loop_helpers.hpp"

namespace os = odrl::sim;
namespace oa = odrl::arch;
namespace ow = odrl::workload;

using odrl::test::step;

namespace {

std::unique_ptr<ow::Workload> steady_workload(std::size_t cores,
                                              std::uint64_t seed = 1) {
  return std::make_unique<ow::GeneratedWorkload>(
      ow::GeneratedWorkload::mixed_suite(cores, seed));
}

os::ManyCoreSystem make_system(std::size_t cores = 4,
                               os::SimConfig sim = {}) {
  return os::ManyCoreSystem(oa::ChipConfig::make(cores, 0.6),
                            steady_workload(cores), sim);
}

/// Fixed-level controller for driving the runner in tests.
class FixedController final : public os::Controller {
 public:
  explicit FixedController(std::size_t level) : level_(level) {}
  std::string name() const override { return "Fixed"; }
  std::vector<std::size_t> initial_levels(std::size_t n) override {
    return std::vector<std::size_t>(n, level_);
  }
  void decide_into(const os::EpochResult& obs,
                   std::span<std::size_t> out) override {
    last_budget_w = obs.budget_w;
    observed_budgets.push_back(obs.budget_w);
    ++decides;
    std::fill(out.begin(), out.end(), level_);
  }
  void on_budget_change(double b) override { budget_changes.push_back(b); }

  double last_budget_w = 0.0;
  std::size_t decides = 0;
  std::vector<double> budget_changes;
  std::vector<double> observed_budgets;  ///< one per decide, warmup included

 private:
  std::size_t level_;
};

}  // namespace

// ------------------------------------------------------- ManyCoreSystem

TEST(ManyCoreSystem, StepProducesConsistentObservation) {
  auto sys = make_system(4);
  const std::vector<std::size_t> levels(4, 3);
  const auto obs = step(sys, levels);
  ASSERT_EQ(obs.cores.size(), 4u);
  double sum_power = 0.0;
  double sum_ips = 0.0;
  for (const auto& core : obs.cores) {
    EXPECT_EQ(core.level, 3u);
    EXPECT_GT(core.ips, 0.0);
    EXPECT_GT(core.power_w, 0.0);
    EXPECT_GE(core.mem_stall_frac, 0.0);
    EXPECT_LT(core.mem_stall_frac, 1.0);
    EXPECT_GT(core.temp_c, 0.0);
    sum_power += core.power_w;
    sum_ips += core.ips;
  }
  // No sensor noise: measured == true.
  EXPECT_NEAR(obs.chip_power_w, sum_power, 1e-9);
  EXPECT_NEAR(obs.chip_power_w, obs.true_chip_power_w, 1e-9);
  EXPECT_NEAR(obs.total_ips, sum_ips, 1e-6);
  EXPECT_EQ(obs.epoch, 0u);
  EXPECT_DOUBLE_EQ(obs.budget_w, sys.config().tdp_w());
}

TEST(SerialChip, WideThreadRequestsAreRefused) {
  // A chip's epoch is serial; a wide request must fail loudly rather than
  // run serially behind the caller's back.
  os::SimConfig sim;
  sim.threads = 2;
  EXPECT_THROW(sim.validate(), std::invalid_argument);
  EXPECT_THROW((void)make_system(4, sim), std::invalid_argument);
  sim.threads = 0;
  EXPECT_THROW(sim.validate(), std::invalid_argument);

  os::RunConfig run;
  run.epochs = 5;
  run.threads = 2;
  EXPECT_THROW(run.validate(), std::invalid_argument);
  os::ManyCoreSystem system = make_system();
  FixedController controller(1);
  EXPECT_THROW((void)os::run_closed_loop(system, controller, run),
               std::invalid_argument);
  run.threads = 1;
  EXPECT_NO_THROW((void)os::run_closed_loop(system, controller, run));
}

TEST(ManyCoreSystem, EpochCounterAdvances) {
  auto sys = make_system(2);
  const std::vector<std::size_t> levels(2, 0);
  EXPECT_EQ(step(sys, levels).epoch, 0u);
  EXPECT_EQ(step(sys, levels).epoch, 1u);
  EXPECT_EQ(sys.epochs_run(), 2u);
}

TEST(ManyCoreSystem, HigherLevelsDrawMorePower) {
  auto lo = make_system(4);
  auto hi = make_system(4);
  const auto obs_lo = step(lo, std::vector<std::size_t>(4, 0));
  const auto obs_hi = step(hi, std::vector<std::size_t>(4, 7));
  EXPECT_GT(obs_hi.true_chip_power_w, obs_lo.true_chip_power_w);
  EXPECT_GT(obs_hi.total_ips, obs_lo.total_ips);
}

TEST(ManyCoreSystem, TemperatureRisesUnderLoad) {
  auto sys = make_system(4);
  const std::vector<std::size_t> levels(4, 7);
  double first_max = 0.0;
  for (int i = 0; i < 200; ++i) {
    const auto obs = step(sys, levels);
    if (i == 0) first_max = obs.max_temp_c;
  }
  EXPECT_GT(sys.thermal().max_temperature(), first_max);
}

TEST(ManyCoreSystem, SensorNoiseDistortsMeasurementsOnly) {
  os::SimConfig cfg;
  cfg.sensor_noise_rel = 0.1;
  cfg.seed = 3;
  auto sys = make_system(4, cfg);
  const std::vector<std::size_t> levels(4, 4);
  bool saw_difference = false;
  for (int i = 0; i < 20; ++i) {
    const auto obs = step(sys, levels);
    if (std::abs(obs.chip_power_w - obs.true_chip_power_w) > 1e-6) {
      saw_difference = true;
    }
  }
  EXPECT_TRUE(saw_difference);
}

TEST(ManyCoreSystem, NoiseSubstreamsIndependentOfCoreCount) {
  // Core i's sensor-noise stream is a pure function of (seed, i): adding
  // cores to the chip must not perturb the existing cores' noise draws.
  // The multiplicative noise factor power_w / true_power_w isolates the
  // stream from the (core-count-dependent) true values.
  os::SimConfig cfg;
  cfg.sensor_noise_rel = 0.1;
  cfg.seed = 9;
  auto small = make_system(4, cfg);
  auto large = make_system(8, cfg);
  const std::vector<std::size_t> small_levels(4, 4);
  const std::vector<std::size_t> large_levels(8, 4);
  for (int e = 0; e < 20; ++e) {
    const auto so = step(small, small_levels);
    const auto lo = step(large, large_levels);
    for (std::size_t i = 0; i < 4; ++i) {
      ASSERT_GT(so.cores[i].true_power_w, 0.0);
      const double small_factor =
          so.cores[i].power_w / so.cores[i].true_power_w;
      const double large_factor =
          lo.cores[i].power_w / lo.cores[i].true_power_w;
      // Identical draws; only value*(1+g)/value rounding separates them.
      EXPECT_NEAR(small_factor, large_factor, 1e-12)
          << "core " << i << " epoch " << e;
    }
  }
}

TEST(ManyCoreSystem, TruePowerPerCoreSumsToChipTruePower) {
  os::SimConfig cfg;
  cfg.sensor_noise_rel = 0.2;
  cfg.seed = 4;
  auto sys = make_system(4, cfg);
  const auto obs = step(sys, std::vector<std::size_t>(4, 5));
  double sum_true = 0.0;
  for (const auto& core : obs.cores) {
    EXPECT_NE(core.power_w, core.true_power_w);  // noise applied
    sum_true += core.true_power_w;
  }
  EXPECT_NEAR(sum_true, obs.true_chip_power_w, 1e-9);
}

TEST(ManyCoreSystem, DeterministicForSameSeed) {
  auto a = make_system(4);
  auto b = make_system(4);
  const std::vector<std::size_t> levels(4, 5);
  for (int i = 0; i < 100; ++i) {
    const auto oa_ = step(a, levels);
    const auto ob_ = step(b, levels);
    EXPECT_DOUBLE_EQ(oa_.true_chip_power_w, ob_.true_chip_power_w);
    EXPECT_DOUBLE_EQ(oa_.total_ips, ob_.total_ips);
  }
}

TEST(ManyCoreSystem, ValidatesInputs) {
  auto sys = make_system(4);
  EXPECT_THROW(step(sys, std::vector<std::size_t>(3, 0)),
               std::invalid_argument);
  EXPECT_THROW(step(sys, std::vector<std::size_t>(4, 8)),
               std::invalid_argument);
  EXPECT_THROW(sys.set_budget_w(0.0), std::invalid_argument);
  EXPECT_THROW(os::ManyCoreSystem(oa::ChipConfig::make(4, 0.6),
                                  steady_workload(5)),
               std::invalid_argument);
  EXPECT_THROW(os::ManyCoreSystem(oa::ChipConfig::make(4, 0.6), nullptr),
               std::invalid_argument);
}

TEST(SimConfig, Validation) {
  os::SimConfig cfg;
  cfg.epoch_s = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.sensor_noise_rel = 0.6;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  EXPECT_NO_THROW(cfg.validate());
}

// --------------------------------------------------------------- Runner

TEST(Runner, AccumulatesTotalsAndTraces) {
  auto sys = make_system(4);
  FixedController ctl(4);
  os::RunConfig cfg;
  cfg.epochs = 100;
  const auto result = os::run_closed_loop(sys, ctl, cfg);

  EXPECT_EQ(result.epochs, 100u);
  EXPECT_EQ(result.controller_name, "Fixed");
  EXPECT_GT(result.total_instructions, 0.0);
  EXPECT_GT(result.total_energy_j, 0.0);
  EXPECT_GT(result.mean_power_w, 0.0);
  EXPECT_EQ(result.decisions, 100u);
  EXPECT_EQ(result.trace.size(), 100u);
  EXPECT_EQ(result.chip_power_trace().size(), 100u);
  EXPECT_EQ(result.budget_trace().size(), 100u);
  EXPECT_EQ(result.ips_trace().size(), 100u);
  EXPECT_NEAR(result.elapsed_s(), 0.1, 1e-12);
  // Energy == integral of the power trace.
  double integral = 0.0;
  for (double p : result.chip_power_trace()) integral += p * result.epoch_s;
  EXPECT_NEAR(result.total_energy_j, integral, 1e-9);
}

TEST(Runner, DerivedMetricsConsistent) {
  auto sys = make_system(4);
  FixedController ctl(4);
  os::RunConfig cfg;
  cfg.epochs = 50;
  const auto r = os::run_closed_loop(sys, ctl, cfg);
  EXPECT_NEAR(r.bips(), r.total_instructions / r.elapsed_s() / 1e9, 1e-9);
  EXPECT_NEAR(r.bips_per_watt(), r.bips() / r.mean_power_w, 1e-12);
  EXPECT_NEAR(r.bips3_per_watt(),
              r.bips() * r.bips() * r.bips() / r.mean_power_w, 1e-9);
  EXPECT_GT(r.mean_decision_us(), 0.0);
}

TEST(Runner, KeepTracesOffSavesMemory) {
  auto sys = make_system(2);
  FixedController ctl(2);
  os::RunConfig cfg;
  cfg.epochs = 10;
  cfg.keep_traces = false;
  const auto r = os::run_closed_loop(sys, ctl, cfg);
  EXPECT_TRUE(r.trace.empty());
  EXPECT_TRUE(r.chip_power_trace().empty());
  EXPECT_GT(r.total_instructions, 0.0);
}

TEST(Runner, BudgetEventsAppliedAndNotified) {
  auto sys = make_system(4);
  const double tdp = sys.config().tdp_w();
  FixedController ctl(4);
  os::RunConfig cfg;
  cfg.epochs = 20;
  cfg.budget_events = {{5, tdp * 0.5}, {10, tdp * 0.8}};
  const auto r = os::run_closed_loop(sys, ctl, cfg);

  ASSERT_EQ(ctl.budget_changes.size(), 2u);
  EXPECT_DOUBLE_EQ(ctl.budget_changes[0], tdp * 0.5);
  EXPECT_DOUBLE_EQ(ctl.budget_changes[1], tdp * 0.8);
  EXPECT_DOUBLE_EQ(r.trace[0].budget_w, tdp);
  EXPECT_DOUBLE_EQ(r.trace[5].budget_w, tdp * 0.5);
  EXPECT_DOUBLE_EQ(r.trace[10].budget_w, tdp * 0.8);
  EXPECT_DOUBLE_EQ(r.trace[19].budget_w, tdp * 0.8);
}

TEST(Runner, EpochZeroBudgetEventAppliesBeforeWarmup) {
  // An event at epoch 0 is the budget in force when measurement starts;
  // warmup must run (and learn) under it, not under the default TDP.
  auto sys = make_system(4);
  const double tdp = sys.config().tdp_w();
  FixedController ctl(4);
  os::RunConfig cfg;
  cfg.epochs = 10;
  cfg.warmup_epochs = 5;
  cfg.budget_events = {{0, tdp * 0.5}};
  const auto r = os::run_closed_loop(sys, ctl, cfg);

  // Notified exactly once, before any epoch ran.
  ASSERT_EQ(ctl.budget_changes.size(), 1u);
  EXPECT_DOUBLE_EQ(ctl.budget_changes[0], tdp * 0.5);
  // The very first (warmup) observation already carries the event budget.
  ASSERT_EQ(ctl.observed_budgets.size(), 15u);
  EXPECT_DOUBLE_EQ(ctl.observed_budgets.front(), tdp * 0.5);
  // And the measured region starts at it too.
  EXPECT_DOUBLE_EQ(r.trace.front().budget_w, tdp * 0.5);
  EXPECT_DOUBLE_EQ(r.trace.back().budget_w, tdp * 0.5);
}

TEST(Runner, OvershootAccountingAgainstMovedBudget) {
  auto sys = make_system(4);
  FixedController ctl(4);  // draws well under the default 60% TDP
  os::RunConfig cfg;
  cfg.epochs = 40;
  // Drop the budget to a level the fixed controller must violate.
  cfg.budget_events = {{20, 1.0}};
  const auto r = os::run_closed_loop(sys, ctl, cfg);
  EXPECT_GT(r.otb_energy_j, 0.0);
  EXPECT_GT(r.time_over_s, 0.0);
  EXPECT_GT(r.peak_overshoot_w, 0.0);
  EXPECT_NEAR(r.overshoot_time_fraction(), 0.5, 0.05);
}

TEST(Runner, WarmupIsNotMeasured) {
  auto a = make_system(4, {});
  auto b = make_system(4, {});
  FixedController ca(4);
  FixedController cb(4);
  os::RunConfig with_warmup;
  with_warmup.epochs = 50;
  with_warmup.warmup_epochs = 50;
  os::RunConfig no_warmup;
  no_warmup.epochs = 50;
  const auto rw = os::run_closed_loop(a, ca, with_warmup);
  const auto rn = os::run_closed_loop(b, cb, no_warmup);
  EXPECT_EQ(rw.epochs, 50u);
  EXPECT_EQ(rw.decisions, 50u);         // warmup decides are not counted
  EXPECT_EQ(a.epochs_run(), 100u);      // but the system did run them
  EXPECT_EQ(b.epochs_run(), 50u);
  (void)rn;
}

TEST(Runner, ValidatesConfig) {
  os::RunConfig cfg;
  cfg.epochs = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.budget_events = {{5, 10.0}, {3, 10.0}};  // unsorted
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.budget_events = {{5, 0.0}};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// ------------------------------------------------- DVFS actuation cost

TEST(SwitchCost, LevelChangeStallsAndDissipates) {
  os::SimConfig cfg;
  cfg.switch_penalty_s = 2e-4;  // 20% of a 1 ms epoch
  cfg.switch_energy_j = 1e-3;
  auto costed = make_system(2, cfg);
  auto ideal = make_system(2, os::SimConfig{});

  // Epoch 0 establishes the previous levels.
  const std::vector<std::size_t> lo(2, 2);
  const std::vector<std::size_t> hi(2, 3);
  step(costed, lo);
  step(ideal, lo);
  // Epoch 1: both switch to level 3; only `costed` pays.
  const auto obs_costed = step(costed, hi);
  const auto obs_ideal = step(ideal, hi);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(obs_costed.cores[i].instructions,
                0.8 * obs_ideal.cores[i].instructions, 1e-6);
  }
  EXPECT_NEAR(obs_costed.true_chip_power_w,
              obs_ideal.true_chip_power_w + 2.0, 1e-9);

  // Epoch 2: no change -> no switch cost. A sub-milliwatt residual remains
  // because the switch energy of epoch 1 warmed the die and leakage is
  // temperature-dependent.
  const auto obs3c = step(costed, hi);
  const auto obs3i = step(ideal, hi);
  EXPECT_NEAR(obs3c.true_chip_power_w, obs3i.true_chip_power_w, 1e-2);
}

TEST(SwitchCost, FirstEpochIsNeverCharged) {
  os::SimConfig cfg;
  cfg.switch_penalty_s = 5e-4;
  cfg.switch_energy_j = 1e-3;
  auto costed = make_system(2, cfg);
  auto ideal = make_system(2, os::SimConfig{});
  const std::vector<std::size_t> levels(2, 5);
  EXPECT_NEAR(step(costed, levels).true_chip_power_w,
              step(ideal, levels).true_chip_power_w, 1e-9);
}

TEST(SwitchCost, ConfigValidation) {
  os::SimConfig cfg;
  cfg.switch_penalty_s = cfg.epoch_s;  // would stall the whole epoch
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.switch_energy_j = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Runner, ThermalViolationsSurface) {
  // A tiny chip with an absurdly low junction limit must report violations.
  oa::ThermalParams thermal;
  thermal.max_junction_c = 46.0;
  thermal.ambient_c = 45.0;
  oa::ChipConfig chip(4, oa::VfTable::default_table(), 100.0, {}, thermal);
  os::ManyCoreSystem sys(chip, steady_workload(4));
  FixedController ctl(7);
  os::RunConfig cfg;
  cfg.epochs = 100;
  const auto r = os::run_closed_loop(sys, ctl, cfg);
  EXPECT_GT(r.thermal_violation_epochs, 0u);
}
