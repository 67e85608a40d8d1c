// Golden-trace regression suite: every registered controller runs a seeded
// closed loop (8 and 16 cores, fault-free and under a fault storm with the
// watchdog armed) and the run's trace is reduced to a 64-bit digest that
// must match the committed table in golden_digests.inc.
//
// The digest folds float-rounded trace values: runs are bit-identical by
// the determinism contract, and the float rounding absorbs last-ulp
// double differences between compilers/libms so the goldens hold across
// the CI matrix.
//
// When a golden legitimately moves (model change, controller tuning),
// regenerate the table:
//
//   python3 tools/regen_goldens.py
//
// which rebuilds this test, reruns it with ODRL_GOLDEN_PRINT=1, and
// rewrites tests/golden_digests.inc from its output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "arch/chip_config.hpp"
#include "sim/controller_registry.hpp"
#include "sim/faults.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "workload/workload.hpp"

namespace oa = odrl::arch;
namespace os = odrl::sim;
namespace ow = odrl::workload;

namespace {

struct GoldenCase {
  const char* controller;
  std::size_t cores;
  bool faults;
  bool resume;  ///< digest of the snapshot-resumed tail, not the full run
  std::uint64_t digest;
};

#include "golden_digests.inc"

constexpr const char* kControllers[] = {"OD-RL", "PID", "Greedy", "MaxBIPS",
                                        "Static"};
constexpr std::size_t kSizes[] = {8, 16};

// -- FNV-1a over float-rounded values --

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fold_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fold(std::uint64_t& h, double value) {
  // Round through binary32: a last-ulp double wobble (different libm,
  // different contraction) lands in the same float except at measure-zero
  // rounding boundaries.
  const float f = static_cast<float>(value);
  fold_bytes(h, &f, sizeof(f));
}

void fold(std::uint64_t& h, std::uint64_t value) {
  fold_bytes(h, &value, sizeof(value));
}

std::uint64_t run_digest(const std::string& controller, std::size_t cores,
                         bool faults, bool resume) {
  const oa::ChipConfig chip = oa::ChipConfig::make(cores, 0.6);
  os::SimConfig sc;
  sc.sensor_noise_rel = 0.02;
  sc.seed = 23;
  auto make_system = [&] {
    return os::ManyCoreSystem(
        chip,
        std::make_unique<ow::GeneratedWorkload>(
            ow::GeneratedWorkload::mixed_suite(cores, 13)),
        sc);
  };
  auto make_config = [&] {
    os::RunConfig cfg;
    cfg.warmup_epochs = 20;
    cfg.epochs = 150;
    cfg.budget_events = {{0, chip.tdp_w() * 0.9}, {75, chip.tdp_w() * 0.6}};
    return cfg;
  };
  os::FaultSchedule storm;
  if (faults) {
    os::StormConfig knobs;
    knobs.sensor_rate = 0.01;  // denser than default: short run, real storm
    knobs.actuation_rate = 0.005;
    knobs.offline_rate = 0.002;
    knobs.budget_rate = 0.01;
    storm = os::FaultSchedule::random_storm(cores, 150, 99, knobs);
  }
  auto arm = [&](os::RunConfig& cfg) {
    if (faults) {
      cfg.faults = &storm;
      cfg.watchdog.enabled = true;
    }
  };

  os::RunResult r;
  if (!resume) {
    os::ManyCoreSystem system = make_system();
    auto ctl = os::make_controller(controller, chip);
    os::RunConfig cfg = make_config();
    arm(cfg);
    r = os::run_closed_loop(system, *ctl, cfg);
  } else {
    // Capture at the midpoint of a full run, then resume on fresh objects
    // and digest the resumed tail. The committed digest pins the resume
    // path itself: a serialization or restore regression moves it even if
    // the full-run digests hold.
    std::string blob;
    {
      os::ManyCoreSystem system = make_system();
      auto ctl = os::make_controller(controller, chip);
      os::RunConfig cfg = make_config();
      arm(cfg);
      cfg.snapshot_epoch = 70;
      cfg.snapshot_out = &blob;
      (void)os::run_closed_loop(system, *ctl, cfg);
    }
    os::ManyCoreSystem system = make_system();
    auto ctl = os::make_controller(controller, chip);
    os::RunConfig cfg = make_config();
    arm(cfg);
    cfg.resume_snapshot = &blob;
    r = os::run_closed_loop(system, *ctl, cfg);
  }

  std::uint64_t h = kFnvOffset;
  for (const os::EpochTrace& t : r.trace) {
    fold(h, t.budget_w);
    fold(h, t.chip_power_w);
    fold(h, t.true_chip_power_w);
    fold(h, t.total_ips);
    fold(h, t.max_temp_c);
    fold(h, static_cast<std::uint64_t>(t.thermal_violations));
  }
  fold(h, r.total_instructions);
  fold(h, r.total_energy_j);
  fold(h, r.otb_energy_j);
  fold(h, r.mean_power_w);
  fold(h, static_cast<std::uint64_t>(r.fault_events_applied));
  fold(h, static_cast<std::uint64_t>(r.watchdog_invalid_decisions));
  fold(h, static_cast<std::uint64_t>(r.watchdog_fallback_entries));
  fold(h, static_cast<std::uint64_t>(r.watchdog_fallback_epochs));
  return h;
}

bool print_mode() {
  const char* v = std::getenv("ODRL_GOLDEN_PRINT");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

const GoldenCase* find_case(const std::string& controller, std::size_t cores,
                            bool faults, bool resume) {
  for (const GoldenCase& c : kGoldenCases) {
    if (controller == c.controller && cores == c.cores &&
        faults == c.faults && resume == c.resume) {
      return &c;
    }
  }
  return nullptr;
}

struct GoldenParam {
  const char* controller;
  std::size_t cores;
  bool faults;
  bool resume;
};

// gtest lists the parameter after the test name, and CTest keeps that text
// in the test's name. The default printer shows a const char* by address,
// which moves on every relink and so renamed the test; print it by value.
void PrintTo(const GoldenParam& p, std::ostream* os) {
  *os << p.controller << '/' << p.cores << (p.faults ? "/storm" : "/clean")
      << (p.resume ? "/resume" : "/full");
}

std::vector<GoldenParam> golden_grid() {
  std::vector<GoldenParam> grid;
  for (const char* controller : kControllers) {
    for (std::size_t cores : kSizes) {
      for (bool faults : {false, true}) {
        for (bool resume : {false, true}) {
          grid.push_back({controller, cores, faults, resume});
        }
      }
    }
  }
  return grid;
}

class GoldenTrace : public ::testing::TestWithParam<GoldenParam> {};

}  // namespace

TEST_P(GoldenTrace, DigestMatchesCommittedTable) {
  const auto [controller, cores, faults, resume] = GetParam();
  const std::uint64_t digest = run_digest(controller, cores, faults, resume);
  if (print_mode()) {
    // Machine-readable line for tools/regen_goldens.py.
    std::printf("GOLDEN %s %zu %d %d 0x%016llx\n", controller, cores,
                faults ? 1 : 0, resume ? 1 : 0,
                static_cast<unsigned long long>(digest));
    GTEST_SKIP() << "ODRL_GOLDEN_PRINT set: emitting digests, not checking";
  }
  const GoldenCase* want = find_case(controller, cores, faults, resume);
  ASSERT_NE(want, nullptr)
      << "no committed golden for controller=" << controller
      << " cores=" << cores << " faults=" << faults << " resume=" << resume
      << " -- regenerate the table with: python3 tools/regen_goldens.py";
  EXPECT_EQ(digest, want->digest)
      << "golden trace drifted for controller=" << controller
      << " cores=" << cores << " faults=" << faults << " resume=" << resume
      << ": got 0x" << std::hex << digest << ", committed 0x" << want->digest
      << std::dec
      << ". If this change is intentional, regenerate the table with: "
         "python3 tools/regen_goldens.py";
}

INSTANTIATE_TEST_SUITE_P(AllControllers, GoldenTrace,
                         ::testing::ValuesIn(golden_grid()),
                         [](const auto& info) {
                           std::string name = info.param.controller;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           name += "_" + std::to_string(info.param.cores);
                           name += info.param.faults ? "_storm" : "_clean";
                           name += info.param.resume ? "_resume" : "_full";
                           return name;
                         });

TEST(GoldenTable, CoversExactlyTheParameterGrid) {
  if (print_mode()) GTEST_SKIP() << "regenerating, table may be stale";
  // A stale table (extra or missing rows) fails loudly here rather than
  // silently skipping coverage.
  const std::vector<GoldenParam> grid = golden_grid();
  for (const GoldenParam& p : grid) {
    EXPECT_NE(find_case(p.controller, p.cores, p.faults, p.resume), nullptr)
        << ::testing::PrintToString(p);
  }
  EXPECT_EQ(std::size(kGoldenCases), grid.size())
      << "golden_digests.inc rows do not match the test grid -- regenerate "
         "with: python3 tools/regen_goldens.py";
}
