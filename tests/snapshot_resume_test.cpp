// The snapshot API's headline guarantee: a run captured at its midpoint
// and resumed on freshly constructed objects continues *bit-identically*
// to the run that never stopped -- with and without a fault storm -- plus
// the live hot-swap semantics built on the same machinery (swap
// scheduling, registry construction, snapshot seeding, swap records in
// RunResult and telemetry).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/chip_config.hpp"
#include "sim/controller_registry.hpp"
#include "sim/faults.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/memory_sink.hpp"
#include "telemetry/recorder.hpp"
#include "workload/workload.hpp"

namespace oa = odrl::arch;
namespace os = odrl::sim;
namespace osn = odrl::snapshot;
namespace ot = odrl::telemetry;
namespace ow = odrl::workload;

namespace {

constexpr std::size_t kCores = 8;
constexpr std::size_t kEpochs = 120;
constexpr std::size_t kMidpoint = 60;

oa::ChipConfig chip() { return oa::ChipConfig::make(kCores, 0.6); }

os::ManyCoreSystem make_system(const oa::ChipConfig& c) {
  os::SimConfig sc;
  sc.sensor_noise_rel = 0.02;
  sc.seed = 23;
  return os::ManyCoreSystem(
      c,
      std::make_unique<ow::GeneratedWorkload>(
          ow::GeneratedWorkload::mixed_suite(kCores, 13)),
      sc);
}

os::RunConfig base_config(const oa::ChipConfig& c) {
  os::RunConfig cfg;
  cfg.warmup_epochs = 10;
  cfg.epochs = kEpochs;
  cfg.budget_events = {{0, c.tdp_w() * 0.9}, {80, c.tdp_w() * 0.6}};
  return cfg;
}

os::FaultSchedule storm_schedule() {
  os::StormConfig knobs;
  knobs.sensor_rate = 0.01;
  knobs.actuation_rate = 0.005;
  knobs.offline_rate = 0.002;
  knobs.budget_rate = 0.01;
  return os::FaultSchedule::random_storm(kCores, kEpochs, 99, knobs);
}

// Bit-exact equality of two epoch records (doubles compared as bits via
// ==; the determinism contract promises identical bits, not just close).
void expect_records_equal(const os::EpochTrace& a, const os::EpochTrace& b,
                          std::size_t i) {
  EXPECT_EQ(a.epoch, b.epoch) << "record " << i;
  EXPECT_EQ(a.budget_w, b.budget_w) << "record " << i;
  EXPECT_EQ(a.chip_power_w, b.chip_power_w) << "record " << i;
  EXPECT_EQ(a.true_chip_power_w, b.true_chip_power_w) << "record " << i;
  EXPECT_EQ(a.total_ips, b.total_ips) << "record " << i;
  EXPECT_EQ(a.max_temp_c, b.max_temp_c) << "record " << i;
  EXPECT_EQ(a.thermal_violations, b.thermal_violations) << "record " << i;
}

class ResumeBitIdentity : public ::testing::TestWithParam<bool> {};

}  // namespace

TEST_P(ResumeBitIdentity, TailMatchesUninterruptedRun) {
  const bool faults = GetParam();
  const oa::ChipConfig c = chip();
  const os::FaultSchedule storm = faults ? storm_schedule()
                                         : os::FaultSchedule{};

  // Uninterrupted reference run, capturing a snapshot at the midpoint.
  std::string blob;
  os::RunConfig cfg = base_config(c);
  if (faults) {
    cfg.faults = &storm;
    cfg.watchdog.enabled = true;
  }
  cfg.snapshot_epoch = kMidpoint;
  cfg.snapshot_out = &blob;
  os::ManyCoreSystem ref_sys = make_system(c);
  auto ref_ctl = os::make_controller("OD-RL", c);
  const os::RunResult ref = os::run_closed_loop(ref_sys, *ref_ctl, cfg);
  ASSERT_FALSE(blob.empty());
  ASSERT_EQ(ref.trace.size(), kEpochs);

  // Resume on freshly constructed objects.
  os::RunConfig rcfg = base_config(c);
  if (faults) {
    rcfg.faults = &storm;
    rcfg.watchdog.enabled = true;
  }
  rcfg.resume_snapshot = &blob;
  os::ManyCoreSystem res_sys = make_system(c);
  auto res_ctl = os::make_controller("OD-RL", c);
  const os::RunResult res = os::run_closed_loop(res_sys, *res_ctl, rcfg);

  EXPECT_EQ(res.start_epoch, kMidpoint);
  ASSERT_EQ(res.trace.size(), kEpochs - kMidpoint);
  for (std::size_t i = 0; i < res.trace.size(); ++i) {
    expect_records_equal(res.trace[i], ref.trace[kMidpoint + i], i);
  }
}

INSTANTIATE_TEST_SUITE_P(Faults, ResumeBitIdentity, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "storm" : "clean";
                         });

TEST(SnapshotResume, CaptureIsObservationallyInert) {
  // A run that captures a snapshot must produce the same bits as one that
  // does not -- capture reads state, it never perturbs it.
  const oa::ChipConfig c = chip();
  os::RunConfig plain = base_config(c);
  os::ManyCoreSystem sys_a = make_system(c);
  auto ctl_a = os::make_controller("OD-RL", c);
  const os::RunResult a = os::run_closed_loop(sys_a, *ctl_a, plain);

  std::string blob;
  os::RunConfig capturing = base_config(c);
  capturing.snapshot_epoch = kMidpoint;
  capturing.snapshot_out = &blob;
  os::ManyCoreSystem sys_b = make_system(c);
  auto ctl_b = os::make_controller("OD-RL", c);
  const os::RunResult b = os::run_closed_loop(sys_b, *ctl_b, capturing);

  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    expect_records_equal(a.trace[i], b.trace[i], i);
  }
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
}

// -- Hot-swap -------------------------------------------------------------

TEST(HotSwap, OdrlGreedyOdrlIsDeterministicAndRecorded) {
  const oa::ChipConfig c = chip();
  auto run_once = [&](std::vector<os::SwapTrace>* swaps_out,
                      std::shared_ptr<ot::MemorySink> sink) {
    os::RunConfig cfg = base_config(c);
    cfg.swaps.push_back({40, "Greedy", {}, nullptr});
    cfg.swaps.push_back({80, "OD-RL", {}, nullptr});
    ot::Recorder rec;
    if (sink) {
      rec.add_sink(sink);
      cfg.recorder = &rec;
    }
    os::ManyCoreSystem sys = make_system(c);
    auto ctl = os::make_controller("OD-RL", c);
    os::RunResult r = os::run_closed_loop(sys, *ctl, cfg);
    if (swaps_out) *swaps_out = r.swaps;
    return r;
  };

  std::vector<os::SwapTrace> swaps;
  auto sink = std::make_shared<ot::MemorySink>();
  const os::RunResult a = run_once(&swaps, sink);
  const os::RunResult b = run_once(nullptr, nullptr);

  // Deterministic: two identical swap runs (telemetry on vs off) agree
  // bit-for-bit.
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    expect_records_equal(a.trace[i], b.trace[i], i);
  }

  // Both swaps recorded, in order, with the handoff names.
  ASSERT_EQ(swaps.size(), 2u);
  EXPECT_EQ(swaps[0].from, "OD-RL");
  EXPECT_EQ(swaps[0].to, "Greedy");
  EXPECT_EQ(swaps[1].from, "Greedy");
  EXPECT_EQ(swaps[1].to, "OD-RL");
  EXPECT_LT(swaps[0].epoch, swaps[1].epoch);

  // The telemetry stream carries the same records.
  ASSERT_EQ(sink->controller_swaps().size(), 2u);
  EXPECT_EQ(sink->controller_swaps()[0].to, "Greedy");
  EXPECT_EQ(sink->controller_swaps()[1].to, "OD-RL");

  // The swap actually changed behavior: a swap-free OD-RL run differs
  // somewhere in the swapped region (Greedy decides differently).
  os::RunConfig plain = base_config(c);
  os::ManyCoreSystem sys = make_system(c);
  auto ctl = os::make_controller("OD-RL", c);
  const os::RunResult no_swap = os::run_closed_loop(sys, *ctl, plain);
  bool diverged = false;
  for (std::size_t i = 40; i < a.trace.size() && !diverged; ++i) {
    diverged = a.trace[i].true_chip_power_w !=
               no_swap.trace[i].true_chip_power_w;
  }
  EXPECT_TRUE(diverged) << "hot-swap to Greedy had no observable effect";
}

TEST(HotSwap, SwapAcceptsControllerOverrides) {
  const oa::ChipConfig c = chip();
  os::RunConfig cfg = base_config(c);
  os::ControllerOverrides ov;
  ov.set("kp", "0.5");
  cfg.swaps.push_back({50, "PID", ov, nullptr});
  os::ManyCoreSystem sys = make_system(c);
  auto ctl = os::make_controller("Greedy", c);
  const os::RunResult r = os::run_closed_loop(sys, *ctl, cfg);
  ASSERT_EQ(r.swaps.size(), 1u);
  EXPECT_EQ(r.swaps[0].to, "PID");

  // The same overrides object is reusable across runs (consumption
  // tracking must not leak between make() calls).
  os::ManyCoreSystem sys2 = make_system(c);
  auto ctl2 = os::make_controller("Greedy", c);
  const os::RunResult r2 = os::run_closed_loop(sys2, *ctl2, cfg);
  EXPECT_EQ(r2.swaps.size(), 1u);
}

TEST(HotSwap, SwapReportMatchesTraceRecomputation) {
  // The A/B report's segment aggregates must equal what the trace says:
  // swap i splits the measured region at its epoch, overshoot is judged
  // as max(0, true power - observed budget), and the accumulation order
  // is the epoch order, so the doubles match bit for bit.
  const oa::ChipConfig c = chip();
  os::RunConfig cfg = base_config(c);
  cfg.swaps.push_back({40, "Greedy", {}, nullptr});
  cfg.swaps.push_back({80, "OD-RL", {}, nullptr});
  os::ManyCoreSystem sys = make_system(c);
  auto ctl = os::make_controller("OD-RL", c);
  const os::RunResult r = os::run_closed_loop(sys, *ctl, cfg);

  ASSERT_EQ(r.swaps.size(), 2u);
  ASSERT_EQ(r.swap_report.size(), 2u);
  ASSERT_EQ(r.trace.size(), kEpochs);

  // Segment boundaries in measured-epoch space: [0,40), [40,80), [80,120).
  const std::size_t bounds[] = {0, 40, 80, kEpochs};
  double mean_overshoot[3];
  double violation_frac[3];
  for (std::size_t s = 0; s < 3; ++s) {
    double sum = 0.0;
    std::size_t violations = 0;
    for (std::size_t e = bounds[s]; e < bounds[s + 1]; ++e) {
      const auto& rec = r.trace[e];
      if (rec.true_chip_power_w > rec.budget_w) {
        sum += rec.true_chip_power_w - rec.budget_w;
        ++violations;
      }
    }
    const auto n = static_cast<double>(bounds[s + 1] - bounds[s]);
    mean_overshoot[s] = sum / n;
    violation_frac[s] = static_cast<double>(violations) / n;
  }

  for (std::size_t i = 0; i < 2; ++i) {
    const os::SwapImpact& impact = r.swap_report[i];
    EXPECT_EQ(impact.epoch, r.swaps[i].epoch);
    EXPECT_EQ(impact.from, r.swaps[i].from);
    EXPECT_EQ(impact.to, r.swaps[i].to);
    EXPECT_EQ(impact.epochs_before, bounds[i + 1] - bounds[i]);
    EXPECT_EQ(impact.epochs_after, bounds[i + 2] - bounds[i + 1]);
    EXPECT_DOUBLE_EQ(impact.mean_overshoot_w_before, mean_overshoot[i]);
    EXPECT_DOUBLE_EQ(impact.mean_overshoot_w_after, mean_overshoot[i + 1]);
    EXPECT_DOUBLE_EQ(impact.violation_frac_before, violation_frac[i]);
    EXPECT_DOUBLE_EQ(impact.violation_frac_after, violation_frac[i + 1]);
    EXPECT_DOUBLE_EQ(
        impact.delta_mean_overshoot_w(),
        impact.mean_overshoot_w_after - impact.mean_overshoot_w_before);
    EXPECT_DOUBLE_EQ(
        impact.delta_violation_frac(),
        impact.violation_frac_after - impact.violation_frac_before);
  }

  // The report survives keep_traces = false: it is built from in-run
  // accumulators, not from the trace.
  os::RunConfig no_trace = cfg;
  no_trace.keep_traces = false;
  os::ManyCoreSystem sys2 = make_system(c);
  auto ctl2 = os::make_controller("OD-RL", c);
  const os::RunResult r2 = os::run_closed_loop(sys2, *ctl2, no_trace);
  ASSERT_EQ(r2.swap_report.size(), 2u);
  EXPECT_TRUE(r2.trace.empty());
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(r2.swap_report[i].mean_overshoot_w_after,
                     r.swap_report[i].mean_overshoot_w_after);
    EXPECT_DOUBLE_EQ(r2.swap_report[i].violation_frac_after,
                     r.swap_report[i].violation_frac_after);
  }
}

TEST(HotSwap, ResumeAcrossSwapBoundaryRebuildsTheActiveController) {
  // Capture *after* the swap fired: the resumed run must rebuild the
  // swapped-in controller (Greedy), not the original (OD-RL), and still
  // continue bit-identically.
  const oa::ChipConfig c = chip();
  std::string blob;
  os::RunConfig cfg = base_config(c);
  cfg.swaps.push_back({40, "Greedy", {}, nullptr});
  cfg.snapshot_epoch = kMidpoint;  // 60 > 40: swap already fired
  cfg.snapshot_out = &blob;
  os::ManyCoreSystem ref_sys = make_system(c);
  auto ref_ctl = os::make_controller("OD-RL", c);
  const os::RunResult ref = os::run_closed_loop(ref_sys, *ref_ctl, cfg);

  os::RunConfig rcfg = base_config(c);
  rcfg.swaps.push_back({40, "Greedy", {}, nullptr});
  rcfg.resume_snapshot = &blob;
  os::ManyCoreSystem res_sys = make_system(c);
  auto res_ctl = os::make_controller("OD-RL", c);
  const os::RunResult res = os::run_closed_loop(res_sys, *res_ctl, rcfg);

  EXPECT_EQ(res.controller_name, "Greedy");
  EXPECT_TRUE(res.swaps.empty()) << "swap must not fire a second time";
  ASSERT_EQ(res.trace.size(), kEpochs - kMidpoint);
  for (std::size_t i = 0; i < res.trace.size(); ++i) {
    expect_records_equal(res.trace[i], ref.trace[kMidpoint + i], i);
  }
}

TEST(HotSwap, SeededSwapWarmStartsFromSnapshot) {
  const oa::ChipConfig c = chip();

  // Train an OD-RL controller and capture its state mid-run.
  std::string blob;
  os::RunConfig train = base_config(c);
  train.snapshot_epoch = kMidpoint;
  train.snapshot_out = &blob;
  os::ManyCoreSystem train_sys = make_system(c);
  auto train_ctl = os::make_controller("OD-RL", c);
  (void)os::run_closed_loop(train_sys, *train_ctl, train);

  // Swap Greedy -> OD-RL, warm-starting the incoming OD-RL from the blob.
  auto run_swap = [&](const std::string* seed) {
    os::RunConfig cfg = base_config(c);
    cfg.swaps.push_back({kMidpoint, "OD-RL", {}, seed});
    os::ManyCoreSystem sys = make_system(c);
    auto ctl = os::make_controller("Greedy", c);
    return os::run_closed_loop(sys, *ctl, cfg);
  };
  const os::RunResult seeded = run_swap(&blob);
  const os::RunResult cold = run_swap(nullptr);
  ASSERT_EQ(seeded.swaps.size(), 1u);

  // The warm start is real: the seeded tail diverges from the cold one.
  bool diverged = false;
  for (std::size_t i = kMidpoint; i < seeded.trace.size() && !diverged;
       ++i) {
    diverged = seeded.trace[i].true_chip_power_w !=
               cold.trace[i].true_chip_power_w;
  }
  EXPECT_TRUE(diverged) << "snapshot seeding had no observable effect";
}

TEST(HotSwap, SeedNameMismatchThrowsBadValue) {
  const oa::ChipConfig c = chip();
  std::string blob;
  os::RunConfig train = base_config(c);
  train.snapshot_epoch = 5;
  train.snapshot_out = &blob;
  os::ManyCoreSystem train_sys = make_system(c);
  auto train_ctl = os::make_controller("OD-RL", c);
  (void)os::run_closed_loop(train_sys, *train_ctl, train);

  os::RunConfig cfg = base_config(c);
  cfg.swaps.push_back({10, "PID", {}, &blob});  // blob holds OD-RL state
  os::ManyCoreSystem sys = make_system(c);
  auto ctl = os::make_controller("Greedy", c);
  try {
    (void)os::run_closed_loop(sys, *ctl, cfg);
    FAIL() << "seeded a PID from an OD-RL snapshot";
  } catch (const osn::SnapshotError& e) {
    EXPECT_EQ(e.status(), osn::SnapshotStatus::kBadValue);
  }
}

// -- Resume error paths ---------------------------------------------------

namespace {
std::string capture_blob(bool with_faults, const os::FaultSchedule* storm) {
  const oa::ChipConfig c = chip();
  std::string blob;
  os::RunConfig cfg = base_config(c);
  if (with_faults) {
    cfg.faults = storm;
    cfg.watchdog.enabled = true;
  }
  cfg.snapshot_epoch = kMidpoint;
  cfg.snapshot_out = &blob;
  os::ManyCoreSystem sys = make_system(c);
  auto ctl = os::make_controller("OD-RL", c);
  (void)os::run_closed_loop(sys, *ctl, cfg);
  return blob;
}

osn::SnapshotStatus resume_status(const std::string& blob,
                                  const std::string& controller,
                                  std::size_t cores, std::size_t epochs,
                                  const os::FaultSchedule* faults = nullptr) {
  const oa::ChipConfig c = oa::ChipConfig::make(cores, 0.6);
  os::SimConfig sc;
  sc.sensor_noise_rel = 0.02;
  sc.seed = 23;
  os::ManyCoreSystem sys(
      c,
      std::make_unique<ow::GeneratedWorkload>(
          ow::GeneratedWorkload::mixed_suite(cores, 13)),
      sc);
  auto ctl = os::make_controller(controller, c);
  os::RunConfig cfg;
  cfg.epochs = epochs;
  // Same budget-event arity as the captured run, so the snapshot's event
  // cursor stays within this schedule and the intended check fires.
  cfg.budget_events = {{0, c.tdp_w() * 0.9}, {80, c.tdp_w() * 0.6}};
  cfg.resume_snapshot = &blob;
  cfg.faults = faults;
  try {
    (void)os::run_closed_loop(sys, *ctl, cfg);
    return osn::SnapshotStatus::kOk;
  } catch (const osn::SnapshotError& e) {
    return e.status();
  }
}
}  // namespace

TEST(ResumeErrors, StructuredRejection) {
  const std::string blob = capture_blob(false, nullptr);

  // Wrong core count: kDimensionMismatch (SYST/RUNR disagree with chip).
  EXPECT_EQ(resume_status(blob, "OD-RL", 16, kEpochs),
            osn::SnapshotStatus::kDimensionMismatch);

  // Captured epoch beyond the (shorter) run: kBadValue.
  EXPECT_EQ(resume_status(blob, "OD-RL", kCores, kMidpoint),
            osn::SnapshotStatus::kBadValue);

  // Controller mismatch: the CTRL section names OD-RL.
  EXPECT_EQ(resume_status(blob, "Greedy", kCores, kEpochs),
            osn::SnapshotStatus::kBadValue);

  // Fault section and schedule must agree.
  const os::FaultSchedule storm = storm_schedule();
  EXPECT_EQ(resume_status(blob, "OD-RL", kCores, kEpochs, &storm),
            osn::SnapshotStatus::kBadValue);

  // Frame corruption surfaces with its own statuses.
  std::string flipped = blob;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x01);
  const osn::SnapshotStatus st =
      resume_status(flipped, "OD-RL", kCores, kEpochs);
  EXPECT_TRUE(st == osn::SnapshotStatus::kChecksumMismatch ||
              st == osn::SnapshotStatus::kTruncated);

  EXPECT_EQ(resume_status("garbage", "OD-RL", kCores, kEpochs),
            osn::SnapshotStatus::kBadMagic);

  EXPECT_EQ(resume_status(blob.substr(0, blob.size() - 4), "OD-RL", kCores,
                          kEpochs),
            osn::SnapshotStatus::kTruncated);
}

TEST(ResumeErrors, FaultyRunResumesOnlyWithItsSchedule) {
  const os::FaultSchedule storm = storm_schedule();
  const std::string blob = capture_blob(true, &storm);
  // Dropping the schedule on resume must be rejected, not silently run
  // fault-free from latched fault state.
  EXPECT_EQ(resume_status(blob, "OD-RL", kCores, kEpochs, nullptr),
            osn::SnapshotStatus::kBadValue);
}
