// Multi-chip sharded simulation tests (sim/multichip.hpp): the
// worker-count bit-identity acceptance case (4 chips x 256 cores equal at
// workers 1/2/4, and equal to each chip run standalone), the committed
// fleet golden digests (multichip_digests.inc, regenerated by
// tools/regen_goldens.py), the MCHD/CHnn snapshot frame (capture is
// non-perturbing, resume continues bit-identically, re-snapshot at the
// captured epoch is byte-identical), and the validation surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/multichip.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/recorder.hpp"

namespace os = odrl::sim;
namespace osnap = odrl::snapshot;

namespace {

// -- FNV-1a over float-rounded values (same scheme as golden_test.cpp:
// binary32 rounding absorbs last-ulp libm wobble across the CI matrix) --

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
  const float f = static_cast<float>(value);
  fold_bytes(h, &f, sizeof(f));
}

void fold(std::uint64_t& h, std::uint64_t value) {
  fold_bytes(h, &value, sizeof(value));
}

std::uint64_t chip_digest(const os::RunResult& r) {
  std::uint64_t h = kFnvOffset;
  for (const os::EpochTrace& t : r.trace) {
    fold(h, t.budget_w);
    fold(h, t.chip_power_w);
    fold(h, t.true_chip_power_w);
    fold(h, t.total_ips);
    fold(h, t.max_temp_c);
  }
  fold(h, r.total_instructions);
  fold(h, r.total_energy_j);
  fold(h, r.mean_power_w);
  return h;
}

std::uint64_t fleet_digest(const os::MultiChipResult& r) {
  std::uint64_t h = kFnvOffset;
  for (const os::RunResult& chip : r.chips) {
    fold(h, chip_digest(chip));
  }
  fold(h, r.total_instructions);
  fold(h, r.total_energy_j);
  fold(h, r.mean_power_w);
  return h;
}

os::FleetConfig small_fleet(std::size_t chips, std::size_t cores,
                            const std::string& controller = "OD-RL") {
  os::FleetConfig fc;
  fc.chips = chips;
  fc.cores = cores;
  fc.controller = controller;
  fc.epochs = 120;
  fc.warmup_epochs = 10;
  fc.seed = 29;
  fc.sensor_noise_rel = 0.02;
  return fc;
}

struct MultiChipGoldenCase {
  const char* controller;
  std::size_t chips;
  std::size_t cores;
  bool resume;  ///< digest of the frame-resumed tail, not the full run
  std::uint64_t digest;
};

#include "multichip_digests.inc"

// gtest lists the parameter after the test name, and CTest keeps that text
// in the test's name. The default printer dumps the struct's bytes, the
// controller's address among them, which moves on every relink and so
// renamed the test; print the fields that identify the case instead.
void PrintTo(const MultiChipGoldenCase& c, std::ostream* os) {
  *os << c.controller << '/' << c.chips << 'x' << c.cores
      << (c.resume ? "/resume" : "/full");
}

bool print_mode() {
  const char* v = std::getenv("ODRL_GOLDEN_PRINT");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

}  // namespace

TEST(MultiChip, BitIdenticalAcrossWorkerCountsAt4x256) {
  // The acceptance case: a 4-chip x 256-core fleet produces the same bits
  // at workers 1, 2 and 4 -- and the same bits as each chip run entirely
  // alone (fleet scheduling is invisible to the simulation).
  os::FleetConfig fc = small_fleet(4, 256);
  fc.epochs = 30;
  fc.warmup_epochs = 5;

  std::vector<std::uint64_t> reference;  // per-chip digests at workers=1
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    os::Fleet fleet(fc);
    os::MultiChipConfig mc;
    mc.workers = workers;
    const os::MultiChipResult r = os::run_multichip(fleet.specs(), mc);
    ASSERT_EQ(r.chips.size(), 4u);
    if (reference.empty()) {
      for (const os::RunResult& chip : r.chips) {
        reference.push_back(chip_digest(chip));
      }
    } else {
      for (std::size_t i = 0; i < r.chips.size(); ++i) {
        EXPECT_EQ(chip_digest(r.chips[i]), reference[i])
            << "workers=" << workers << " chip=" << i;
      }
    }
  }

  // Standalone: same chips, no fleet, no shared runtime.
  os::Fleet fleet(fc);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const os::RunResult alone = os::run_closed_loop(
        fleet.system(i), fleet.controller(i), fleet.specs()[i].config);
    EXPECT_EQ(chip_digest(alone), reference[i]) << "standalone chip=" << i;
  }
}

TEST(MultiChip, ChipStreamsAreIndependentOfFleetSize) {
  // Chip i's seeds are a pure function of (root seed, i): growing the
  // fleet must not move the existing chips' runs.
  os::FleetConfig fc2 = small_fleet(2, 8);
  os::FleetConfig fc3 = small_fleet(3, 8);
  os::Fleet two(fc2);
  os::Fleet three(fc3);
  os::MultiChipConfig mc;
  mc.workers = 2;
  const os::MultiChipResult r2 = os::run_multichip(two.specs(), mc);
  const os::MultiChipResult r3 = os::run_multichip(three.specs(), mc);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(chip_digest(r2.chips[i]), chip_digest(r3.chips[i]))
        << "chip=" << i;
  }
}

TEST(MultiChip, SessionTagHelpersFollowSpecThenDefault) {
  os::ChipSpec spec;
  spec.tag = "edge-A";
  EXPECT_EQ(os::chip_session_tag(spec, 3), "edge-A");
  spec.tag.clear();
  EXPECT_EQ(os::chip_session_tag(spec, 3), "chip03");
  EXPECT_EQ(os::chip_session_tag(spec, 12), "chip12");
  EXPECT_EQ(os::sanitize_session_tag("edge-A_1.2"), "edge-A_1.2");
  EXPECT_EQ(os::sanitize_session_tag("rack 3/slot:7"), "rack_3_slot_7");
}

TEST(MultiChip, PerChipTelemetrySinksAreDistinctAndTagged) {
  // The fleet-telemetry contract: with telemetry_dir set, every chip gets
  // its own sink file named after its session tag, and the tag appears in
  // that chip's records -- so interleaved fleet output stays attributable.
  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string dir = testing::TempDir();

  os::FleetConfig fc = small_fleet(2, 8);
  fc.epochs = 20;
  fc.warmup_epochs = 2;
  os::Fleet fleet(fc);
  fleet.specs()[0].tag = "odrl-mc-A";  // chip 1 keeps Fleet's "chip1" tag
  os::MultiChipConfig mc;
  mc.workers = 2;
  mc.telemetry_dir = dir;
  (void)os::run_multichip(fleet.specs(), mc);

  const std::string csv_a = slurp(dir + "/odrl-mc-A.csv");
  const std::string csv_b = slurp(dir + "/chip1.csv");
  ASSERT_FALSE(csv_a.empty());
  ASSERT_FALSE(csv_b.empty());
  EXPECT_NE(csv_a, csv_b);
  EXPECT_NE(csv_a.find("tag=odrl-mc-A"), std::string::npos);
  EXPECT_NE(csv_b.find("tag=chip1"), std::string::npos);
  EXPECT_EQ(csv_a.find("tag=chip1"), std::string::npos);

  // Same fleet in JSONL: the tag rides in the run_begin record.
  os::Fleet jfleet(fc);
  jfleet.specs()[0].tag = "odrl-mc-A";
  os::MultiChipConfig jmc;
  jmc.workers = 2;
  jmc.telemetry_dir = dir;
  jmc.telemetry_format = os::MultiChipConfig::TelemetryFormat::kJsonl;
  (void)os::run_multichip(jfleet.specs(), jmc);
  const std::string jsonl_a = slurp(dir + "/odrl-mc-A.jsonl");
  const std::string jsonl_b = slurp(dir + "/chip1.jsonl");
  EXPECT_NE(jsonl_a.find("\"tag\":\"odrl-mc-A\""), std::string::npos);
  EXPECT_NE(jsonl_b.find("\"tag\":\"chip1\""), std::string::npos);

  // A chip that brings its own recorder keeps it: no file is created.
  os::Fleet rfleet(fc);
  odrl::telemetry::Recorder rec;
  rfleet.specs()[0].tag = "odrl-mc-own";
  rfleet.specs()[0].config.recorder = &rec;
  os::MultiChipConfig rmc;
  rmc.workers = 2;
  rmc.telemetry_dir = dir;
  (void)os::run_multichip(rfleet.specs(), rmc);
  EXPECT_TRUE(slurp(dir + "/odrl-mc-own.csv").empty());

  for (const char* name : {"odrl-mc-A.csv", "chip1.csv", "odrl-mc-A.jsonl",
                           "chip1.jsonl"}) {
    std::remove((dir + "/" + name).c_str());
  }
}

TEST(MultiChip, DuplicateSanitizedTagsRejectedWhenWritingSinks) {
  // "rack 1" and "rack_1" sanitize to the same filename stem; with
  // telemetry_dir set the second chip would silently clobber the first's
  // sink, so validation must refuse. Without telemetry_dir the tags are
  // only labels and duplicates are fine.
  os::Fleet fleet(small_fleet(2, 8));
  fleet.specs()[0].tag = "rack 1";
  fleet.specs()[1].tag = "rack_1";
  os::MultiChipConfig mc;
  mc.telemetry_dir = testing::TempDir();
  EXPECT_THROW((void)os::run_multichip(fleet.specs(), mc),
               std::invalid_argument);
  mc.telemetry_dir.clear();
  EXPECT_NO_THROW((void)os::run_multichip(fleet.specs(), mc));
}

TEST(MultiChip, AggregatesFoldInChipOrder) {
  os::Fleet fleet(small_fleet(3, 8));
  os::MultiChipConfig mc;
  mc.workers = 2;
  const os::MultiChipResult r = os::run_multichip(fleet.specs(), mc);

  double instructions = 0.0, energy = 0.0, power = 0.0;
  std::size_t epochs = 0;
  for (const os::RunResult& chip : r.chips) {
    instructions += chip.total_instructions;
    energy += chip.total_energy_j;
    power += chip.mean_power_w;
    epochs += chip.epochs;
  }
  // Exact equality: the fold is the same chip-ordered sum.
  EXPECT_EQ(r.total_instructions, instructions);
  EXPECT_EQ(r.total_energy_j, energy);
  EXPECT_EQ(r.mean_power_w, power / 3.0);
  EXPECT_EQ(r.total_epochs, epochs);
  EXPECT_GT(r.runtime_stats.tasks_executed, 0u);
  EXPECT_GT(r.bips(), 0.0);
}

TEST(MultiChip, SnapshotCaptureIsNonPerturbingAndResumeContinues) {
  const os::FleetConfig fc = small_fleet(2, 8);
  constexpr std::size_t kMid = 60;

  // Reference: uninterrupted run, no snapshot plumbing at all.
  os::Fleet ref_fleet(fc);
  os::MultiChipConfig plain;
  plain.workers = 2;
  const os::MultiChipResult ref = os::run_multichip(ref_fleet.specs(), plain);

  // Capturing run: same bits as the reference, plus a frame.
  std::string blob;
  os::Fleet cap_fleet(fc);
  os::MultiChipConfig capture;
  capture.workers = 2;
  capture.snapshot_epoch = kMid;
  capture.snapshot_out = &blob;
  const os::MultiChipResult cap = os::run_multichip(cap_fleet.specs(), capture);
  ASSERT_FALSE(blob.empty());
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(chip_digest(cap.chips[i]), chip_digest(ref.chips[i]))
        << "capture perturbed chip " << i;
  }

  // Resume on fresh chips: the tail must equal the reference suffix,
  // field for field, bit for bit.
  os::Fleet res_fleet(fc);
  os::MultiChipConfig resume;
  resume.workers = 2;
  resume.resume_snapshot = &blob;
  const os::MultiChipResult res = os::run_multichip(res_fleet.specs(), resume);
  for (std::size_t i = 0; i < 2; ++i) {
    const os::RunResult& full = ref.chips[i];
    const os::RunResult& tail = res.chips[i];
    ASSERT_EQ(tail.start_epoch, kMid);
    ASSERT_EQ(tail.trace.size(), full.trace.size() - kMid);
    for (std::size_t e = 0; e < tail.trace.size(); ++e) {
      ASSERT_EQ(tail.trace[e].true_chip_power_w,
                full.trace[kMid + e].true_chip_power_w)
          << "chip=" << i << " tail epoch=" << e;
      ASSERT_EQ(tail.trace[e].total_ips, full.trace[kMid + e].total_ips)
          << "chip=" << i << " tail epoch=" << e;
    }
  }
}

TEST(MultiChip, ResnapshotAtCapturedEpochIsByteIdentical) {
  // Differential property (also the fuzz harness's oracle): resuming a
  // frame and immediately re-capturing at the same epoch reproduces the
  // input frame byte for byte.
  const os::FleetConfig fc = small_fleet(2, 8);
  constexpr std::size_t kMid = 60;

  std::string blob;
  os::Fleet fleet(fc);
  os::MultiChipConfig capture;
  capture.workers = 2;
  capture.snapshot_epoch = kMid;
  capture.snapshot_out = &blob;
  (void)os::run_multichip(fleet.specs(), capture);

  std::string reblob;
  os::Fleet fresh(fc);
  os::MultiChipConfig roundtrip;
  roundtrip.workers = 2;
  roundtrip.resume_snapshot = &blob;
  roundtrip.snapshot_epoch = kMid;
  roundtrip.snapshot_out = &reblob;
  (void)os::run_multichip(fresh.specs(), roundtrip);

  ASSERT_EQ(reblob.size(), blob.size());
  EXPECT_TRUE(reblob == blob);
}

TEST(MultiChip, ResumeRejectsChipCountMismatch) {
  const os::FleetConfig fc = small_fleet(2, 8);
  std::string blob;
  os::Fleet fleet(fc);
  os::MultiChipConfig capture;
  capture.workers = 2;
  capture.snapshot_epoch = 10;
  capture.snapshot_out = &blob;
  (void)os::run_multichip(fleet.specs(), capture);

  os::Fleet wrong(small_fleet(3, 8));
  os::MultiChipConfig resume;
  resume.resume_snapshot = &blob;
  try {
    (void)os::run_multichip(wrong.specs(), resume);
    FAIL() << "chip-count mismatch accepted";
  } catch (const osnap::SnapshotError& e) {
    EXPECT_EQ(e.status(), osnap::SnapshotStatus::kDimensionMismatch);
  }
}

TEST(MultiChip, ValidationRejectsBadSpecs) {
  os::Fleet fleet(small_fleet(2, 8));
  {
    // Empty chip list.
    std::vector<os::ChipSpec> none;
    EXPECT_THROW((void)os::run_multichip(none, {}), std::invalid_argument);
  }
  {
    // A wide per-chip thread request is refused before any chip starts.
    os::Fleet f(small_fleet(2, 8));
    f.specs()[1].config.threads = 2;
    EXPECT_THROW((void)os::run_multichip(f.specs(), {}),
                 std::invalid_argument);
  }
  {
    // One recorder shared by two concurrent chips.
    odrl::telemetry::Recorder rec;
    os::Fleet f(small_fleet(2, 8));
    f.specs()[0].config.recorder = &rec;
    f.specs()[1].config.recorder = &rec;
    EXPECT_THROW((void)os::run_multichip(f.specs(), {}),
                 std::invalid_argument);
  }
  // One system or one controller shared by two chips: concurrent
  // whole-run tasks would step the same object. Refused even at width 1,
  // naming both chips.
  for (const bool share_system : {true, false}) {
    os::Fleet f(small_fleet(3, 8));
    if (share_system) {
      f.specs()[2].system = f.specs()[0].system;
    } else {
      f.specs()[2].controller = f.specs()[0].controller;
    }
    try {
      (void)os::run_multichip(f.specs(), {});
      ADD_FAILURE() << "shared " << (share_system ? "system" : "controller")
                    << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("chip 0"), std::string::npos) << what;
      EXPECT_NE(what.find("chip 2"), std::string::npos) << what;
    }
  }
  EXPECT_THROW((void)os::chip_section_tag(100), std::out_of_range);
  EXPECT_EQ(os::chip_section_tag(0), osnap::section_tag("CH00"));
  EXPECT_EQ(os::chip_section_tag(31), osnap::section_tag("CH31"));
}

namespace {

std::uint64_t golden_run(const MultiChipGoldenCase& c) {
  os::FleetConfig fc = small_fleet(c.chips, c.cores, c.controller);
  os::MultiChipConfig mc;
  mc.workers = 2;
  if (!c.resume) {
    os::Fleet fleet(fc);
    return fleet_digest(os::run_multichip(fleet.specs(), mc));
  }
  std::string blob;
  {
    os::Fleet fleet(fc);
    os::MultiChipConfig capture = mc;
    capture.snapshot_epoch = 60;
    capture.snapshot_out = &blob;
    (void)os::run_multichip(fleet.specs(), capture);
  }
  os::Fleet fleet(fc);
  os::MultiChipConfig resume = mc;
  resume.resume_snapshot = &blob;
  return fleet_digest(os::run_multichip(fleet.specs(), resume));
}

class MultiChipGolden
    : public ::testing::TestWithParam<MultiChipGoldenCase> {};

}  // namespace

TEST_P(MultiChipGolden, DigestMatchesCommittedTable) {
  const MultiChipGoldenCase& want = GetParam();
  const std::uint64_t digest = golden_run(want);
  if (print_mode()) {
    // Machine-readable line for tools/regen_goldens.py.
    std::printf("MCGOLDEN %s %zu %zu %d 0x%016llx\n", want.controller,
                want.chips, want.cores, want.resume ? 1 : 0,
                static_cast<unsigned long long>(digest));
    GTEST_SKIP() << "ODRL_GOLDEN_PRINT set: emitting digests, not checking";
  }
  EXPECT_EQ(digest, want.digest)
      << "fleet golden moved: controller=" << want.controller
      << " chips=" << want.chips << " cores=" << want.cores
      << " resume=" << want.resume
      << " -- if intentional, run python3 tools/regen_goldens.py";
}

INSTANTIATE_TEST_SUITE_P(Fleet, MultiChipGolden,
                         ::testing::ValuesIn(kMultiChipGoldenCases),
                         [](const auto& info) {
                           std::string name = info.param.controller;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           name += "_" + std::to_string(info.param.chips) +
                                   "x" + std::to_string(info.param.cores);
                           name += info.param.resume ? "_resume" : "_full";
                           return name;
                         });
