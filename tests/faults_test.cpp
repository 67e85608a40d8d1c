// Fault-injection engine tests: schedule builder/serialization, the
// FaultEngine's per-kind semantics, the system-level wiring (sensor lies
// vs physical truth, hotplug power gating, budget steps), and the runner's
// graceful-degradation watchdog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "arch/chip_config.hpp"
#include "baselines/static_uniform.hpp"
#include "core/odrl_controller.hpp"
#include "sim/faults.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "workload/workload.hpp"

#include "loop_helpers.hpp"

namespace oa = odrl::arch;
namespace ob = odrl::baselines;
namespace oc = odrl::core;
namespace os = odrl::sim;
namespace ow = odrl::workload;
using odrl::test::step;

namespace {

constexpr std::size_t kCores = 8;

oa::ChipConfig chip() { return oa::ChipConfig::make(kCores, 0.6); }

os::ManyCoreSystem make_system(const oa::ChipConfig& c,
                               double noise_rel = 0.0) {
  os::SimConfig sc;
  sc.sensor_noise_rel = noise_rel;
  sc.seed = 17;
  return os::ManyCoreSystem(
      c,
      std::make_unique<ow::GeneratedWorkload>(
          ow::GeneratedWorkload::mixed_suite(c.n_cores(), 9)),
      sc);
}

}  // namespace

// ------------------------------------------------------- FaultSchedule

TEST(FaultSchedule, BuilderKeepsEventsSorted) {
  os::FaultSchedule s;
  s.core_offline(30, 2, 5)
      .sensor_stuck_zero(10, 4, 3)
      .budget_step(10, 20, 0.8)
      .sensor_saturate(10, 1, 4, 5.0);
  ASSERT_EQ(s.size(), 4u);
  const auto& ev = s.events();
  EXPECT_EQ(ev[0].epoch, 10u);
  EXPECT_EQ(ev[0].core, 1u);  // epoch ties break by core index
  EXPECT_EQ(ev[1].core, 4u);
  EXPECT_EQ(ev[2].core, os::kChipWide);  // chip-wide sorts last at its epoch
  EXPECT_EQ(ev[3].epoch, 30u);
  s.validate(kCores);
}

TEST(FaultSchedule, ValidateRejectsMalformedEvents) {
  {
    os::FaultSchedule s;
    s.add({5, os::FaultKind::kSensorStuckZero, 0, /*duration=*/0, 0.0});
    EXPECT_THROW(s.validate(kCores), std::invalid_argument);
  }
  {
    os::FaultSchedule s;
    s.sensor_stuck_zero(5, kCores, 3);  // core out of range
    EXPECT_THROW(s.validate(kCores), std::invalid_argument);
  }
  {
    os::FaultSchedule s;
    s.add({5, os::FaultKind::kBudgetStep, 3, 10, 0.8});  // not chip-wide
    EXPECT_THROW(s.validate(kCores), std::invalid_argument);
  }
  {
    os::FaultSchedule s;
    s.sensor_saturate(5, 0, 3, 0.0);  // scale must be positive
    EXPECT_THROW(s.validate(kCores), std::invalid_argument);
  }
  {
    os::FaultSchedule s;
    s.add({5, os::FaultKind::kActuationDelay, 0, 10, 2.5});  // non-integral
    EXPECT_THROW(s.validate(kCores), std::invalid_argument);
  }
}

TEST(FaultSchedule, SaveLoadRoundTripsExactly) {
  os::FaultSchedule s;
  s.sensor_stuck_zero(3, 0, 7)
      .sensor_stuck_last(9, 1, 2)
      .sensor_saturate(12, 2, 4, 7.25)
      .actuation_delay(15, 3, 6, 2)
      .actuation_drop(20, 4, 5)
      .budget_step(25, 10, 0.675)
      .core_offline(30, 5, 8);
  std::stringstream io;
  os::save_fault_schedule(s, io);
  const os::FaultSchedule back = os::load_fault_schedule(io);
  ASSERT_EQ(back.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const os::FaultEvent& a = s.events()[i];
    const os::FaultEvent& b = back.events()[i];
    EXPECT_EQ(a.epoch, b.epoch) << i;
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.core, b.core) << i;
    EXPECT_EQ(a.duration, b.duration) << i;
    EXPECT_EQ(a.magnitude, b.magnitude) << i;  // bit-exact via to_chars
  }
  back.validate(kCores);
}

TEST(FaultSchedule, LoadRejectsMalformedText) {
  auto load = [](const std::string& text) {
    std::stringstream in(text);
    return os::load_fault_schedule(in);
  };
  EXPECT_THROW(load(""), std::runtime_error);  // no magic
  EXPECT_THROW(load("# wrong magic\n"), std::runtime_error);
  EXPECT_THROW(load("# odrl-faults v1\nwrong,header\n"), std::runtime_error);
  const std::string head = "# odrl-faults v1\nepoch,kind,core,duration,magnitude\n";
  EXPECT_THROW(load(head + "5,sensor_stuck_zero,0,3\n"),
               std::runtime_error);  // wrong arity
  EXPECT_THROW(load(head + "5,alpha_strike,0,3,0\n"),
               std::runtime_error);  // unknown kind
  EXPECT_THROW(load(head + "5,sensor_stuck_zero,0,0,0\n"),
               std::runtime_error);  // zero duration
  EXPECT_THROW(load(head + "5,sensor_stuck_zero,*,3,0\n"),
               std::runtime_error);  // per-core kind, chip-wide core
  EXPECT_THROW(load(head + "5,budget_step,*,3,nope\n"),
               std::runtime_error);  // bad magnitude
  EXPECT_THROW(load(head + "5,budget_step,*,3,-1\n"),
               std::runtime_error);  // non-positive magnitude
  // Comments and blank lines are fine.
  const os::FaultSchedule ok =
      load(head + "\n# a comment\n5,core_offline,2,3,0\n");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok.events()[0].kind, os::FaultKind::kCoreOffline);
}

TEST(FaultSchedule, RandomStormIsDeterministicAndValid) {
  const os::FaultSchedule a = os::FaultSchedule::random_storm(16, 500, 42);
  const os::FaultSchedule b = os::FaultSchedule::random_storm(16, 500, 42);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);  // default rates make a non-empty 500-epoch storm
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].epoch, b.events()[i].epoch);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].core, b.events()[i].core);
    EXPECT_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
  }
  a.validate(16);
  const os::FaultSchedule other = os::FaultSchedule::random_storm(16, 500, 43);
  auto text = [](const os::FaultSchedule& s) {
    std::stringstream out;
    os::save_fault_schedule(s, out);
    return out.str();
  };
  EXPECT_NE(text(a), text(other));  // different seed, different storm
}

TEST(FaultSchedule, StormSubstreamsArePerCorePure) {
  // Core i's fault stream is a pure function of (seed, i): growing the
  // chip must not change what happens to the cores that already existed.
  const os::FaultSchedule small = os::FaultSchedule::random_storm(8, 400, 7);
  const os::FaultSchedule big = os::FaultSchedule::random_storm(16, 400, 7);
  auto core_events = [](const os::FaultSchedule& s, std::size_t max_core) {
    std::vector<os::FaultEvent> out;
    for (const os::FaultEvent& e : s.events()) {
      if (e.core != os::kChipWide && e.core < max_core) out.push_back(e);
    }
    return out;
  };
  const auto a = core_events(small, 8);
  const auto b = core_events(big, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].epoch, b[i].epoch) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].core, b[i].core) << i;
    EXPECT_EQ(a[i].magnitude, b[i].magnitude) << i;
  }
}

// --------------------------------------------------------- FaultEngine

TEST(FaultEngine, SensorStuckZeroWindowsTheReadings) {
  os::FaultSchedule s;
  s.sensor_stuck_zero(2, 1, 3);  // active engine epochs [2, 5)
  os::FaultEngine engine(s, 4);
  for (std::size_t e = 0; e < 8; ++e) {
    engine.begin_epoch();
    const double ips = engine.filter_ips(1, 100.0 + static_cast<double>(e));
    const double w = engine.filter_power(1, 5.0);
    const double other = engine.filter_power(0, 3.0);
    EXPECT_EQ(other, 3.0);  // untargeted core always passes through
    if (e >= 2 && e < 5) {
      EXPECT_EQ(ips, 0.0) << e;
      EXPECT_EQ(w, 0.0) << e;
      EXPECT_TRUE(engine.any_active());
      EXPECT_TRUE(engine.any_sensor_fault());
    } else {
      EXPECT_EQ(ips, 100.0 + static_cast<double>(e)) << e;
      EXPECT_EQ(w, 5.0) << e;
      EXPECT_FALSE(engine.any_active());
    }
  }
  EXPECT_EQ(engine.counts().sensor, 1u);
  EXPECT_EQ(engine.counts().total(), 1u);
}

TEST(FaultEngine, SensorStuckLastFreezesTheLastHealthyReading) {
  os::FaultSchedule s;
  s.sensor_stuck_last(3, 0, 2);
  os::FaultEngine engine(s, 1);
  double last_healthy = 0.0;
  for (std::size_t e = 0; e < 7; ++e) {
    engine.begin_epoch();
    const double fed = 10.0 * static_cast<double>(e + 1);
    const double got = engine.filter_power(0, fed);
    if (e >= 3 && e < 5) {
      EXPECT_EQ(got, last_healthy) << e;  // frozen at epoch 2's reading
    } else {
      EXPECT_EQ(got, fed) << e;
      last_healthy = fed;
    }
  }
}

TEST(FaultEngine, SensorSaturateScalesReadings) {
  os::FaultSchedule s;
  s.sensor_saturate(0, 0, 2, 10.0);
  os::FaultEngine engine(s, 1);
  engine.begin_epoch();
  EXPECT_EQ(engine.filter_ips(0, 2.0), 20.0);
  EXPECT_EQ(engine.filter_power(0, 1.5), 15.0);
  engine.begin_epoch();
  EXPECT_EQ(engine.filter_power(0, 1.5), 15.0);
  engine.begin_epoch();  // expired
  EXPECT_EQ(engine.filter_power(0, 1.5), 1.5);
}

TEST(FaultEngine, ActuationDelayLagsTheRequestStream) {
  os::FaultSchedule s;
  s.actuation_delay(3, 0, 4, 2);  // active [3, 7), lag 2 epochs
  os::FaultEngine engine(s, 1);
  std::vector<std::size_t> req(1), app(1);
  std::vector<std::size_t> applied;
  for (std::size_t e = 0; e < 9; ++e) {
    engine.begin_epoch();
    req[0] = e;  // request level == epoch index, easy to trace
    engine.apply_actuation(req, app);
    applied.push_back(app[0]);
  }
  // Healthy epochs apply the request; delayed epochs apply the request
  // from 2 epochs earlier.
  const std::vector<std::size_t> want = {0, 1, 2, 1, 2, 3, 4, 7, 8};
  EXPECT_EQ(applied, want);
  EXPECT_EQ(engine.counts().actuation, 1u);
}

TEST(FaultEngine, ActuationDropHoldsTheLastAppliedLevel) {
  os::FaultSchedule s;
  s.actuation_drop(2, 0, 3);  // active [2, 5)
  os::FaultEngine engine(s, 2);
  std::vector<std::size_t> req(2), app(2);
  std::vector<std::size_t> applied;
  for (std::size_t e = 0; e < 7; ++e) {
    engine.begin_epoch();
    req[0] = e;
    req[1] = 7;  // control core: always applied verbatim
    engine.apply_actuation(req, app);
    applied.push_back(app[0]);
    EXPECT_EQ(app[1], 7u);
  }
  // Epoch 1's level (1) holds through the drop window [2, 5).
  const std::vector<std::size_t> want = {0, 1, 1, 1, 1, 5, 6};
  EXPECT_EQ(applied, want);
}

TEST(FaultEngine, FirstEpochDropPassesThrough) {
  // A drop with no previously applied level has nothing to hold: the
  // request goes through rather than some invented level.
  os::FaultSchedule s;
  s.actuation_drop(0, 0, 2);
  os::FaultEngine engine(s, 1);
  std::vector<std::size_t> req{4}, app{0};
  engine.begin_epoch();
  engine.apply_actuation(req, app);
  EXPECT_EQ(app[0], 4u);
  req[0] = 6;
  engine.begin_epoch();
  engine.apply_actuation(req, app);
  EXPECT_EQ(app[0], 4u);  // now there is a last applied level to hold
}

TEST(FaultEngine, BudgetStepsFoldAndExpire) {
  os::FaultSchedule s;
  s.budget_step(1, 4, 0.8).budget_step(3, 4, 0.5);
  os::FaultEngine engine(s, 2);
  std::vector<double> factors;
  for (std::size_t e = 0; e < 8; ++e) {
    engine.begin_epoch();
    factors.push_back(engine.budget_factor());
  }
  const std::vector<double> want = {1.0, 0.8, 0.8, 0.4, 0.4, 0.5, 0.5, 1.0};
  ASSERT_EQ(factors.size(), want.size());
  for (std::size_t e = 0; e < want.size(); ++e) {
    EXPECT_DOUBLE_EQ(factors[e], want[e]) << e;
  }
  EXPECT_EQ(engine.counts().budget, 2u);
}

TEST(FaultEngine, OfflineMaskTracksHotplugWindows) {
  os::FaultSchedule s;
  s.core_offline(2, 1, 3);
  os::FaultEngine engine(s, 3);
  for (std::size_t e = 0; e < 7; ++e) {
    engine.begin_epoch();
    EXPECT_FALSE(engine.core_offline(0));
    EXPECT_FALSE(engine.core_offline(2));
    EXPECT_EQ(engine.core_offline(1), e >= 2 && e < 5) << e;
  }
  EXPECT_EQ(engine.counts().hotplug, 1u);
}

TEST(FaultEngine, RejectsScheduleForWrongChip) {
  os::FaultSchedule s;
  s.sensor_stuck_zero(0, 7, 2);
  EXPECT_NO_THROW(os::FaultEngine(s, 8));
  EXPECT_THROW(os::FaultEngine(s, 4), std::invalid_argument);
}

TEST(SafeUniformLevel, MatchesWorstCaseProvisioning) {
  const oa::ChipConfig c = chip();
  const double hot = c.thermal().max_junction_c;
  auto worst = [&](std::size_t l) {
    const oa::VfPoint& vf = c.vf_table()[l];
    return c.core().total_power_w(vf.voltage_v, vf.freq_ghz, 1.0, hot) *
           static_cast<double>(c.n_cores());
  };
  // Tiny budget: only the floor is "safe" (by convention).
  EXPECT_EQ(os::safe_uniform_level(c, 1e-3), 0u);
  // Unbounded budget: the top level fits.
  EXPECT_EQ(os::safe_uniform_level(c, 1e9), c.vf_table().size() - 1);
  // Chosen level fits; the next one (if any) must not.
  for (double budget : {worst(2) * 1.01, worst(4) * 1.01, c.tdp_w()}) {
    const std::size_t l = os::safe_uniform_level(c, budget);
    EXPECT_LE(worst(l), budget);
    if (l + 1 < c.vf_table().size()) {
      EXPECT_GT(worst(l + 1), budget);
    }
  }
  // The Static baseline provisions with the identical rule.
  ob::StaticUniformController static_ctl(c);
  EXPECT_EQ(static_ctl.chosen_level(), os::safe_uniform_level(c, c.tdp_w()));
}

// ------------------------------------------------ system-level wiring

TEST(FaultSystem, SensorFaultLiesToTheControllerNotTheEvaluation) {
  const oa::ChipConfig c = chip();
  os::ManyCoreSystem sys = make_system(c);
  os::FaultSchedule s;
  s.sensor_stuck_zero(0, 2, 100);
  os::FaultEngine engine(s, kCores);
  sys.set_fault_engine(&engine);
  std::vector<std::size_t> levels(kCores, 3);
  for (int e = 0; e < 5; ++e) {
    const os::EpochResult obs = step(sys, levels);
    EXPECT_EQ(obs.cores.power_w()[2], 0.0);  // the sensor lies...
    EXPECT_EQ(obs.cores.ips()[2], 0.0);
    EXPECT_GT(obs.cores.true_power_w()[2], 0.0);  // ...the truth does not
    EXPECT_GT(obs.true_chip_power_w, 0.0);
    EXPECT_EQ(obs.cores.online()[2], 1);  // faulted, but not offline
  }
  sys.set_fault_engine(nullptr);
}

TEST(FaultSystem, OfflineCoreIsPowerGated) {
  const oa::ChipConfig c = chip();
  os::ManyCoreSystem sys = make_system(c);
  os::FaultSchedule s;
  s.core_offline(1, 5, 2);  // core 5 out for engine epochs [1, 3)
  os::FaultEngine engine(s, kCores);
  sys.set_fault_engine(&engine);
  std::vector<std::size_t> levels(kCores, 4);
  for (int e = 0; e < 5; ++e) {
    const os::EpochResult obs = step(sys, levels);
    const bool off = e >= 1 && e < 3;
    EXPECT_EQ(obs.cores.online()[5], off ? 0 : 1) << e;
    if (off) {
      EXPECT_EQ(obs.cores.true_power_w()[5], 0.0) << e;
      EXPECT_EQ(obs.cores.power_w()[5], 0.0) << e;
      EXPECT_EQ(obs.cores.instructions()[5], 0.0) << e;
      EXPECT_EQ(obs.cores.ips()[5], 0.0) << e;
    } else {
      EXPECT_GT(obs.cores.true_power_w()[5], 0.0) << e;
      EXPECT_GT(obs.cores.instructions()[5], 0.0) << e;
    }
    EXPECT_GT(obs.cores.true_power_w()[4], 0.0) << e;  // neighbors unaffected
  }
  sys.set_fault_engine(nullptr);
}

TEST(FaultSystem, BudgetStepScalesTheObservedBudget) {
  const oa::ChipConfig c = chip();
  os::ManyCoreSystem sys = make_system(c);
  const double base = sys.budget_w();
  os::FaultSchedule s;
  s.budget_step(1, 2, 0.75);
  os::FaultEngine engine(s, kCores);
  sys.set_fault_engine(&engine);
  std::vector<std::size_t> levels(kCores, 2);
  for (int e = 0; e < 5; ++e) {
    const os::EpochResult obs = step(sys, levels);
    const double want = (e >= 1 && e < 3) ? base * 0.75 : base;
    EXPECT_DOUBLE_EQ(obs.budget_w, want) << e;
  }
  sys.set_fault_engine(nullptr);
}

TEST(FaultSystem, RejectsEngineForWrongChip) {
  os::ManyCoreSystem sys = make_system(chip());
  os::FaultSchedule s;
  s.sensor_stuck_zero(0, 0, 1);
  os::FaultEngine engine(s, kCores + 1);
  EXPECT_THROW(sys.set_fault_engine(&engine), std::invalid_argument);
}

// ----------------------------------------------- runner fault plumbing

namespace {

os::RunResult run_odrl(const os::FaultSchedule* faults,
                       os::WatchdogConfig wd = {}, double noise = 0.02) {
  const oa::ChipConfig c = chip();
  os::ManyCoreSystem sys = make_system(c, noise);
  oc::OdrlController ctl(c);
  os::RunConfig cfg;
  cfg.warmup_epochs = 10;
  cfg.epochs = 120;
  cfg.faults = faults;
  cfg.watchdog = wd;
  return os::run_closed_loop(sys, ctl, cfg);
}

void expect_same_run(const os::RunResult& a, const os::RunResult& b) {
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.mean_power_w, b.mean_power_w);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t e = 0; e < a.trace.size(); ++e) {
    ASSERT_EQ(a.trace[e].chip_power_w, b.trace[e].chip_power_w) << e;
    ASSERT_EQ(a.trace[e].total_ips, b.trace[e].total_ips) << e;
  }
}

}  // namespace

TEST(FaultRunner, NullAndEmptySchedulesAreIdentityOperations) {
  const os::RunResult bare = run_odrl(nullptr);
  const os::FaultSchedule empty;
  const os::RunResult with_empty = run_odrl(&empty);
  expect_same_run(bare, with_empty);
  EXPECT_EQ(with_empty.fault_events_applied, 0u);

  // An engine whose events all lie beyond the horizon is attached and
  // consulted every epoch -- and must still not perturb a single bit.
  os::FaultSchedule far_future;
  far_future.sensor_stuck_zero(1000000, 0, 5);
  const os::RunResult with_idle_engine = run_odrl(&far_future);
  expect_same_run(bare, with_idle_engine);
  EXPECT_EQ(with_idle_engine.fault_events_applied, 0u);
}

namespace {

/// A noisy, DRAM-contended 32-core OD-RL run under two budget events,
/// with the watchdog armed whenever a fault schedule is plumbed in.
os::RunResult run_contended(const os::FaultSchedule* faults) {
  const std::size_t cores = 32;
  const oa::ChipConfig c = oa::ChipConfig::make(cores, 0.6);
  os::SimConfig sc;
  sc.sensor_noise_rel = 0.05;
  sc.seed = 11;
  sc.dram.peak_gbps = 150.0;
  auto workload = std::make_unique<ow::GeneratedWorkload>(
      ow::GeneratedWorkload::mixed_suite(cores, 5));
  os::ManyCoreSystem system(c, std::move(workload), sc);
  oc::OdrlController controller(c);
  os::RunConfig cfg;
  cfg.warmup_epochs = 20;
  cfg.epochs = 150;
  cfg.budget_events = {{0, c.tdp_w() * 0.9}, {60, c.tdp_w() * 0.5}};
  cfg.faults = faults;
  cfg.watchdog.enabled = faults != nullptr;
  return os::run_closed_loop(system, controller, cfg);
}

}  // namespace

TEST(Determinism, EmptyScheduleLeavesRunsBitIdenticalToNoEngine) {
  // Plumbing an engine with nothing scheduled must be a perfect identity:
  // the fault path's mere presence cannot perturb a healthy run.
  const os::FaultSchedule empty;
  const os::RunResult bare = run_contended(nullptr);
  const os::RunResult plumbed = run_contended(&empty);
  EXPECT_EQ(plumbed.fault_events_applied, 0u);
  EXPECT_EQ(plumbed.watchdog_fallback_entries, 0u);
  EXPECT_EQ(bare.otb_energy_j, plumbed.otb_energy_j);
  EXPECT_EQ(bare.time_over_s, plumbed.time_over_s);
  EXPECT_EQ(bare.peak_overshoot_w, plumbed.peak_overshoot_w);
  EXPECT_EQ(bare.thermal_violation_epochs, plumbed.thermal_violation_epochs);
  expect_same_run(bare, plumbed);
  for (std::size_t e = 0; e < bare.trace.size(); ++e) {
    ASSERT_EQ(bare.trace[e].budget_w, plumbed.trace[e].budget_w) << e;
    ASSERT_EQ(bare.trace[e].true_chip_power_w,
              plumbed.trace[e].true_chip_power_w)
        << e;
    ASSERT_EQ(bare.trace[e].max_temp_c, plumbed.trace[e].max_temp_c) << e;
  }
}

TEST(FaultRunner, EnabledWatchdogIsIdleOnHealthyRuns) {
  os::WatchdogConfig wd;
  wd.enabled = true;
  const os::RunResult guarded = run_odrl(nullptr, wd);
  const os::RunResult bare = run_odrl(nullptr);
  expect_same_run(bare, guarded);  // observes, never intervenes
  EXPECT_EQ(guarded.watchdog_invalid_decisions, 0u);
  EXPECT_EQ(guarded.watchdog_fallback_entries, 0u);
  EXPECT_EQ(guarded.watchdog_fallback_epochs, 0u);
}

TEST(FaultRunner, FaultsAreCountedInTheResult) {
  os::FaultSchedule s;
  s.sensor_stuck_zero(5, 0, 10)
      .actuation_drop(20, 1, 10)
      .budget_step(40, 10, 0.9)
      .core_offline(60, 2, 10);
  const os::RunResult r = run_odrl(&s);
  EXPECT_EQ(r.fault_events_applied, 4u);
}

namespace {

/// A controller that deliberately emits out-of-range levels on a cadence:
/// the watchdog must sanitize them (instead of the checked build aborting)
/// and hold the offender at the safe level.
class RogueController final : public os::Controller {
 public:
  explicit RogueController(std::size_t period) : period_(period) {}
  std::string name() const override { return "Rogue"; }
  std::vector<std::size_t> initial_levels(std::size_t n_cores) override {
    return std::vector<std::size_t>(n_cores, 1);
  }
  void decide_into(const os::EpochResult& obs,
                   std::span<std::size_t> out) override {
    ++calls_;
    std::fill(out.begin(), out.end(), std::size_t{1});
    if (calls_ % period_ == 0) out[0] = 1000000;  // way out of range
    (void)obs;
  }

 private:
  std::size_t period_;
  std::size_t calls_ = 0;
};

}  // namespace

TEST(FaultRunner, WatchdogSanitizesInvalidDecisions) {
  const oa::ChipConfig c = chip();
  os::ManyCoreSystem sys = make_system(c);
  RogueController rogue(/*period=*/40);
  os::WatchdogConfig wd;
  wd.enabled = true;
  wd.hold_epochs = 10;
  os::RunConfig cfg;
  cfg.epochs = 100;
  cfg.watchdog = wd;
  // Without the watchdog a checked build would abort on the bad level;
  // with it the run must complete and account for every intervention.
  const os::RunResult r = os::run_closed_loop(sys, rogue, cfg);
  EXPECT_EQ(r.epochs, 100u);
  EXPECT_EQ(r.watchdog_invalid_decisions, 2u);  // epochs 40 and 80
  EXPECT_EQ(r.watchdog_fallback_entries, 2u);
  EXPECT_EQ(r.watchdog_fallback_exits, 2u);
  EXPECT_EQ(r.watchdog_fallback_epochs, 20u);  // two 10-epoch holds
}

TEST(FaultRunner, WatchdogTripsChipWideUnderSustainedViolations) {
  // A max-level controller under a deep budget-step fault: measured chip
  // power exceeds the (shrunken) budget for epochs on end, so the chip-wide
  // trip must fire and drag every core to the safe level -- which by
  // construction fits the faulted budget.
  const oa::ChipConfig c = chip();
  os::ManyCoreSystem sys = make_system(c);

  class MaxLevel final : public os::Controller {
   public:
    explicit MaxLevel(std::size_t top) : top_(top) {}
    std::string name() const override { return "MaxLevel"; }
    std::vector<std::size_t> initial_levels(std::size_t n_cores) override {
      return std::vector<std::size_t>(n_cores, top_);
    }
    void decide_into(const os::EpochResult&,
                     std::span<std::size_t> out) override {
      std::fill(out.begin(), out.end(), top_);
    }

   private:
    std::size_t top_;
  };
  MaxLevel ctl(c.vf_table().size() - 1);

  os::FaultSchedule s;
  s.budget_step(10, 80, 0.5);  // halve the budget for epochs [10, 90)
  os::WatchdogConfig wd;
  wd.enabled = true;
  wd.violation_epochs = 3;
  wd.hold_epochs = 30;
  os::RunConfig cfg;
  cfg.epochs = 100;
  cfg.faults = &s;
  cfg.watchdog = wd;
  const os::RunResult r = os::run_closed_loop(sys, ctl, cfg);
  EXPECT_GE(r.watchdog_fallback_entries, kCores);  // the trip is chip-wide
  EXPECT_GT(r.watchdog_fallback_epochs, 0u);

  // Once the whole chip is in fallback, worst-case provisioning holds the
  // faulted budget. (The trip takes violation_epochs to confirm plus one
  // epoch to take effect; check the tail of the hold window.)
  const double faulted_budget = sys.budget_w() * 0.5;
  const std::size_t first_safe = 10 + wd.violation_epochs + 2;
  for (std::size_t e = first_safe; e < first_safe + 20; ++e) {
    EXPECT_LE(r.trace[e].true_chip_power_w, faulted_budget * (1.0 + 1e-6))
        << "epoch " << e;
  }
}
