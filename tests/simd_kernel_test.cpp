// Bit-identity of the epoch kernels against their references (DESIGN.md
// "Vectorized kernels"): the batch power model against the per-core
// PowerModel, and the one vectorized kernel -- the thermal Euler step --
// against its scalar path. Every test asserts EXACT (bitwise, EXPECT_EQ on
// doubles) agreement -- the same contract the golden digests and the
// threading tests pin end to end.
//
// When the build carries no native SIMD (ODRL_SIMD=OFF), the force-scalar
// toggle is a no-op and both sides run the same code; the comparisons
// still hold trivially, so the suite is safe to run in every
// configuration.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "arch/chip_config.hpp"
#include "arch/mesh.hpp"
#include "arch/vf_table.hpp"
#include "core/odrl_controller.hpp"
#include "power/batch_power.hpp"
#include "power/power_model.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "thermal/thermal_model.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"
#include "workload/workload.hpp"

namespace oa = odrl::arch;
namespace oc = odrl::core;
namespace opw = odrl::power;
namespace os = odrl::sim;
namespace ot = odrl::thermal;
namespace ou = odrl::util;
namespace ow = odrl::workload;

namespace {

/// RAII toggle for the util::set_simd_force_scalar test hook; restores the
/// previous setting even when an assertion throws mid-test.
class ForceScalarGuard {
 public:
  explicit ForceScalarGuard(bool force) : prev_(ou::simd_force_scalar()) {
    ou::set_simd_force_scalar(force);
  }
  ~ForceScalarGuard() { ou::set_simd_force_scalar(prev_); }
  ForceScalarGuard(const ForceScalarGuard&) = delete;
  ForceScalarGuard& operator=(const ForceScalarGuard&) = delete;

 private:
  bool prev_;
};

/// Deterministic per-core parameter variation (no two cores identical, so
/// a lane mixup cannot cancel out).
std::vector<oa::CoreParams> varied_params(std::size_t n) {
  std::vector<oa::CoreParams> per_core(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i % 17) / 16.0;
    per_core[i].c_eff_nf = 1.6 + 0.6 * t;
    per_core[i].leak_scale_w = 0.7 + 0.4 * t;
    per_core[i].leak_t_coeff = 0.015 + 0.01 * t;
    per_core[i].uncore_w = 0.2 + 0.1 * t;
  }
  return per_core;
}

/// Activity pattern mixing interior values with the exact boundaries and
/// the tolerance-clamped just-outside values core_power_at accepts.
/// Checked builds reject ANY excursion (the ODRL_CHECK precedes the
/// tolerance clamp by contract), so the just-outside cases degrade to the
/// exact boundaries when contracts are compiled in.
double activity_at(std::size_t i) {
  const double hi = ou::checks_enabled() ? 1.0 : 1.0 + 0.5e-6;
  const double lo = ou::checks_enabled() ? 0.0 : -0.5e-6;
  switch (i % 6) {
    case 0: return 0.0;
    case 1: return 1.0;
    case 2: return hi;  // inside kActivityTol: clamps to 1.0
    case 3: return lo;  // inside kActivityTol: clamps to 0.0
    case 4: return 0.37 + 0.01 * static_cast<double>(i % 29);
    default: return 0.85;
  }
}

}  // namespace

// ------------------------------------------------------------ batch power

TEST(SimdBatchPower, MatchesScalarPowerModelBitwise) {
  const oa::VfTable table = oa::VfTable::default_table();
  // Odd sizes force remainder tails; 67 > one cache line of lanes.
  for (std::size_t n : {1u, 7u, 13u, 67u}) {
    const std::vector<oa::CoreParams> per_core = varied_params(n);
    const opw::BatchPowerModel batch(per_core, table);
    std::vector<std::size_t> level(n);
    std::vector<ow::PhaseSample> phases(n);
    std::vector<double> temp(n);
    for (std::size_t i = 0; i < n; ++i) {
      level[i] = i % table.size();
      phases[i] = {.base_cpi = 1.0, .mpki = 5.0, .activity = activity_at(i)};
      temp[i] = 45.0 + static_cast<double>(i % 50);
    }

    std::vector<double> out(n, -1.0);
    batch.core_power_into(0, n, level, phases, temp, out);
    // Reference: the scalar PowerModel, one core at a time.
    for (std::size_t i = 0; i < n; ++i) {
      const opw::PowerModel m(per_core[i]);
      const double ref =
          m.core_power_at(table[level[i]], phases[i].activity, temp[i])
              .total_w();
      EXPECT_EQ(out[i], ref) << "core " << i << " n " << n;
    }
  }
}

TEST(SimdBatchPower, ShardedRangesTouchOnlyTheirSlots) {
  const oa::VfTable table = oa::VfTable::default_table();
  const std::size_t n = 19;
  const std::vector<oa::CoreParams> per_core = varied_params(n);
  const opw::BatchPowerModel batch(per_core, table);
  std::vector<std::size_t> level(n, 2);
  std::vector<ow::PhaseSample> phases(
      n, {.base_cpi = 1.0, .mpki = 5.0, .activity = 0.6});
  std::vector<double> temp(n, 70.0);

  std::vector<double> whole(n);
  batch.core_power_into(0, n, level, phases, temp, whole);

  std::vector<double> sharded(n, -7.0);
  batch.core_power_into(0, 5, level, phases, temp, sharded);
  batch.core_power_into(5, 11, level, phases, temp, sharded);
  batch.core_power_into(11, n, level, phases, temp, sharded);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(sharded[i], whole[i]) << i;

  // A partial fill must leave the out-of-range slots untouched.
  std::vector<double> partial(n, -7.0);
  batch.core_power_into(5, 11, level, phases, temp, partial);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < 5 || i >= 11) {
      EXPECT_EQ(partial[i], -7.0) << i;
    }
  }
}

TEST(SimdBatchPower, ActivityBeyondToleranceThrowsInBothVariants) {
  const oa::VfTable table = oa::VfTable::default_table();
  const std::size_t n = 4;
  const opw::BatchPowerModel batch(varied_params(n), table);
  std::vector<std::size_t> level(n, 1);
  std::vector<double> temp(n, 60.0);
  std::vector<double> out(n);
  std::vector<ow::PhaseSample> phases(
      n, {.base_cpi = 1.0, .mpki = 5.0, .activity = 0.5});
  phases[2].activity = 1.1;  // far outside kActivityTol
  // Checked builds fail the hard contract; release builds throw past the
  // tolerance clamp.
  if (ou::checks_enabled()) {
    EXPECT_THROW(batch.core_power_into(0, n, level, phases, temp, out),
                 ou::ContractViolation);
  } else {
    EXPECT_THROW(batch.core_power_into(0, n, level, phases, temp, out),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------------- thermal

TEST(SimdThermal, EulerStepMatchesScalarBitwise) {
  for (auto [w, h] : {std::pair<std::size_t, std::size_t>{3, 3},
                      {5, 7},
                      {8, 8}}) {
    ot::ThermalModel vec_model(oa::Mesh(w, h), oa::ThermalParams{});
    ot::ThermalModel sca_model(oa::Mesh(w, h), oa::ThermalParams{});
    const std::size_t n = vec_model.size();
    std::vector<double> power(n);
    for (std::size_t step = 0; step < 50; ++step) {
      for (std::size_t i = 0; i < n; ++i) {
        power[i] = 2.0 + std::sin(static_cast<double>(i + step)) * 1.5;
      }
      vec_model.step(power, 1e-3);
      {
        ForceScalarGuard guard(true);
        sca_model.step(power, 1e-3);
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(vec_model.temperature(i), sca_model.temperature(i))
            << w << "x" << h << " tile " << i << " step " << step;
      }
    }
  }
}

TEST(SimdThermal, SubstepCapThrowsOnAbsurdTimestep) {
  const ot::ThermalModel m(oa::Mesh(2, 2), oa::ThermalParams{});
  const std::vector<double> power(m.size(), 1.0);
  const double too_long =
      m.dt_stable_s() *
      static_cast<double>(ot::ThermalModel::kMaxSubsteps) * 4.0;
  ot::ThermalModel mut = m;
  EXPECT_THROW(mut.step(power, too_long), std::invalid_argument);
  // Just inside the cap must not throw (one coarse but bounded step).
  ot::ThermalModel ok = m;
  EXPECT_NO_THROW(ok.step(power, m.dt_stable_s() * 8.0));
}

TEST(SimdThermal, SteadyStateResultReportsConvergence) {
  const ot::ThermalModel m(oa::Mesh(3, 3), oa::ThermalParams{});
  std::vector<double> power(m.size(), 0.0);
  power[4] = 8.0;
  const ot::SteadyStateResult r = m.steady_state_result(power);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_LT(r.iterations, 10000u);
  // The convenience wrapper must return the same temperatures.
  const std::vector<double> plain = m.steady_state(power);
  ASSERT_EQ(plain.size(), r.temps_c.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], r.temps_c[i]) << i;
  }
}

// ----------------------------------------------- closed loop, end to end

namespace {

os::RunResult closed_loop_run(std::size_t threads) {
  const std::size_t cores = 32;
  const oa::ChipConfig chip = oa::ChipConfig::make(cores, 0.6);
  os::SimConfig sim;
  sim.sensor_noise_rel = 0.05;
  sim.seed = 23;
  sim.threads = threads;
  os::ManyCoreSystem system(
      chip,
      std::make_unique<ow::GeneratedWorkload>(
          ow::GeneratedWorkload::mixed_suite(cores, 5)),
      sim);
  oc::OdrlController controller(chip);
  controller.set_threads(threads);
  os::RunConfig cfg;
  cfg.warmup_epochs = 10;
  cfg.epochs = 80;
  cfg.budget_events = {{0, chip.tdp_w() * 0.9}, {40, chip.tdp_w() * 0.55}};
  return os::run_closed_loop(system, controller, cfg);
}

void expect_same_trace(const os::RunResult& a, const os::RunResult& b) {
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.peak_overshoot_w, b.peak_overshoot_w);
  EXPECT_EQ(a.mean_power_w, b.mean_power_w);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t e = 0; e < a.trace.size(); ++e) {
    ASSERT_EQ(a.trace[e].chip_power_w, b.trace[e].chip_power_w) << e;
    ASSERT_EQ(a.trace[e].total_ips, b.trace[e].total_ips) << e;
    ASSERT_EQ(a.trace[e].max_temp_c, b.trace[e].max_temp_c) << e;
  }
}

}  // namespace

TEST(SimdClosedLoop, ScalarAndVectorRunsAreBitIdenticalAcrossThreads) {
  // The load-bearing end-to-end claim: flipping SIMD on/off changes not a
  // single bit of a full OD-RL closed-loop run, at any thread count, and
  // all six runs agree with each other.
  std::vector<os::RunResult> runs;
  for (std::size_t threads : {1u, 2u, 4u}) {
    runs.push_back(closed_loop_run(threads));
    ForceScalarGuard guard(true);
    runs.push_back(closed_loop_run(threads));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_same_trace(runs[0], runs[i]);
  }
}
