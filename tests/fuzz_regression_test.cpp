// Corpus-replay regression gate: every committed fuzz seed (and any crash
// reproducer later added to the corpus) runs through the shared fuzz
// harnesses in every normal build. The libFuzzer targets under tests/fuzz/
// explore; this test remembers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "arch/chip_config.hpp"
#include "fuzz/harness.hpp"
#include "service/client.hpp"
#include "workload/workload.hpp"

namespace fs = std::filesystem;

namespace {

fs::path corpus_root() { return fs::path(ODRL_FUZZ_CORPUS_DIR); }

std::vector<fs::path> corpus_files(const char* target) {
  std::vector<fs::path> out;
  const fs::path dir = corpus_root() / target;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

using Harness = void (*)(const std::uint8_t*, std::size_t);

void replay(const char* target, Harness harness) {
  const auto files = corpus_files(target);
  ASSERT_FALSE(files.empty()) << "empty corpus dir for " << target
                              << " under " << corpus_root();
  for (const fs::path& path : files) {
    SCOPED_TRACE("corpus file: " + path.string());
    const auto bytes = read_bytes(path);
    // The harness contract: documented rejections are swallowed inside;
    // anything escaping (logic_error from a broken round-trip, bad_alloc
    // from an obeyed hostile header, a crash) fails the test.
    ASSERT_NO_THROW(harness(bytes.data(), bytes.size()));
  }
}

}  // namespace

TEST(FuzzRegression, FaultScheduleCorpus) {
  replay("fault_schedule", &odrl::fuzz::fuzz_fault_schedule);
}

TEST(FuzzRegression, TraceIoCorpus) {
  replay("trace_io", &odrl::fuzz::fuzz_trace);
}

TEST(FuzzRegression, QtableIoCorpus) {
  replay("qtable_io", &odrl::fuzz::fuzz_qtable);
}

TEST(FuzzRegression, SnapshotCorpus) {
  replay("snapshot", &odrl::fuzz::fuzz_snapshot);
}

TEST(FuzzRegression, MultichipCorpus) {
  replay("multichip", &odrl::fuzz::fuzz_multichip);
}

TEST(FuzzRegression, ServiceCorpus) {
  replay("service", &odrl::fuzz::fuzz_service);
}

namespace {

// The multichip seeds are deterministic functions of the harness fleet
// (fuzz/harness.hpp multichip_fuzz_fleet) and the snapshot wire format,
// so they can be rebuilt from scratch and compared byte for byte.
std::string capture_fleet_frame(std::size_t epoch) {
  odrl::sim::Fleet fleet(odrl::fuzz::multichip_fuzz_fleet());
  std::string blob;
  odrl::sim::MultiChipConfig mc;
  mc.workers = 2;
  mc.snapshot_epoch = epoch;
  mc.snapshot_out = &blob;
  (void)odrl::sim::run_multichip(fleet.specs(), mc);
  return blob;
}

std::vector<std::pair<std::string, std::string>> expected_multichip_seeds() {
  namespace snap = odrl::snapshot;
  namespace sim = odrl::sim;
  const std::string valid = capture_fleet_frame(16);

  // Chip blobs of the valid frame, for building the derived seeds.
  std::vector<std::string> chip_blobs;
  {
    snap::Reader r(valid);
    r.open_section(sim::kSnapshotMultiChipTag);
    r.u64();
    r.u64();
    r.expect_section_end();
    for (std::size_t i = 0; i < 2; ++i) {
      r.open_section(sim::chip_section_tag(i));
      chip_blobs.push_back(r.str());
      r.expect_section_end();
    }
  }

  // Header epoch disagrees with the chips' captured epochs: parseable,
  // resumable, but outside the differential byte-compare.
  std::string epoch_mismatch;
  {
    snap::Writer w;
    w.begin_section(sim::kSnapshotMultiChipTag);
    w.u64(2);
    w.u64(12);
    w.end_section();
    for (std::size_t i = 0; i < 2; ++i) {
      w.begin_section(sim::chip_section_tag(i));
      w.str(chip_blobs[i]);
      w.end_section();
    }
    epoch_mismatch = std::move(w).finish();
  }

  // Three chips against a two-chip fleet: kDimensionMismatch rejection.
  std::string chip_count_mismatch;
  {
    snap::Writer w;
    w.begin_section(sim::kSnapshotMultiChipTag);
    w.u64(3);
    w.u64(16);
    w.end_section();
    for (std::size_t i = 0; i < 3; ++i) {
      w.begin_section(sim::chip_section_tag(i));
      w.str(chip_blobs[i % 2]);
      w.end_section();
    }
    chip_count_mismatch = std::move(w).finish();
  }

  // Header promises two chips but no CHnn sections follow.
  std::string headless;
  {
    snap::Writer w;
    w.begin_section(sim::kSnapshotMultiChipTag);
    w.u64(2);
    w.u64(16);
    w.end_section();
    headless = std::move(w).finish();
  }

  return {
      {"valid_midrun", valid},
      {"epoch_mismatch_header", epoch_mismatch},
      {"chip_count_mismatch", chip_count_mismatch},
      {"missing_chip_sections", headless},
      {"truncated", valid.substr(0, valid.size() / 2)},
      {"garbage", "not a snapshot frame at all\n"},
  };
}

}  // namespace

namespace {

/// Rebuilds one generated corpus directory (ODRL_WRITE_FUZZ_SEEDS=1) and
/// verifies every seed byte for byte against the committed files.
void check_generated_seeds(
    const char* target,
    const std::vector<std::pair<std::string, std::string>>& seeds) {
  const fs::path dir = corpus_root() / target;
  if (std::getenv("ODRL_WRITE_FUZZ_SEEDS") != nullptr) {
    fs::create_directories(dir);
    for (const auto& [name, bytes] : seeds) {
      std::ofstream out(dir / name, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      ASSERT_TRUE(out.good()) << "failed writing " << (dir / name);
    }
  }
  for (const auto& [name, bytes] : seeds) {
    SCOPED_TRACE(std::string("seed: ") + target + "/" + name);
    const auto on_disk = read_bytes(dir / name);
    ASSERT_EQ(std::string(on_disk.begin(), on_disk.end()), bytes)
        << "stale " << target << " fuzz seed -- regenerate with "
        << "ODRL_WRITE_FUZZ_SEEDS=1 ./fuzz_regression_test and commit";
  }
}

}  // namespace

// Guards the seeds against silently going stale: if the snapshot wire
// format or the harness fleet changes, the committed blobs would parse as
// mere rejections and the differential path would stop being exercised.
// This test rebuilds every seed from the current code and compares bytes.
// To regenerate after an intentional format change, run this binary with
// ODRL_WRITE_FUZZ_SEEDS=1 (it rewrites tests/fuzz/corpus/multichip/ in
// the source tree) and commit the result.
TEST(FuzzRegression, MultichipSeedsMatchCurrentFormat) {
  check_generated_seeds("multichip", expected_multichip_seeds());
}

namespace {

// The service seeds are deterministic functions of the wire format, the
// simulator, and the controllers: a session is actually opened and
// stepped so the corpus carries a *mid-run* session snapshot -- both as
// an OpenSession seed_blob (warm-start path) and as a bare payload (the
// snapshot-frame-that-is-not-a-message rejection path).
std::vector<std::pair<std::string, std::string>> expected_service_seeds() {
  namespace sv = odrl::service;

  sv::ServerConfig config;
  config.workers = 1;
  sv::Server server(config);
  sv::LoopbackClient client(server, "seed-builder");

  sv::TenantConfig tc;
  tc.controller = "OD-RL";
  tc.cores = 4;
  tc.seed = 17;
  tc.watchdog = true;
  sv::Tenant tenant(client, tc);
  for (int i = 0; i < 6; ++i) (void)tenant.step();
  const sv::SnapshotReply snap = client.snapshot(tenant.session_id());

  sv::HelloRequest hello;
  hello.head.type = sv::MsgType::kHello;
  hello.head.seq = 1;
  hello.client = "fuzz-seed";
  const std::string hello_payload = sv::encode_message(hello);

  sv::OpenSessionRequest open;
  open.head.type = sv::MsgType::kOpenSession;
  open.head.seq = 2;
  open.controller = "OD-RL";
  open.cores = 4;
  open.seed = 17;
  open.tag = "fuzz-tenant";
  open.watchdog = true;
  open.overrides = {{"alpha", "0.1"}};
  open.seed_blob = snap.blob;  // the mid-run warm-start door
  const std::string open_payload = sv::encode_message(open);

  // A real measured epoch so the OBSV columns carry live values, not
  // zeros the decoder's validators never look at twice.
  sv::StepEpochRequest step;
  step.head.type = sv::MsgType::kStepEpoch;
  step.head.seq = 3;
  step.head.session_id = tenant.session_id();
  step.epoch = 6;
  {
    odrl::sim::SimConfig sim;
    sim.seed = 17;
    odrl::sim::ManyCoreSystem system(
        odrl::arch::ChipConfig::make(4, 0.6),
        std::make_unique<odrl::workload::GeneratedWorkload>(
            odrl::workload::GeneratedWorkload::mixed_suite(4, 17)),
        sim);
    system.step_into(tenant.levels(), step.obs);
  }
  const std::string step_payload = sv::encode_message(step);

  sv::ErrorReply err;
  err.head.type = sv::MsgType::kErrorReply;
  err.head.seq = 4;
  err.status = sv::ServiceStatus::kUnknownSession;
  err.message = "seed";
  const std::string error_payload = sv::encode_message(err);

  return {
      {"hello", hello_payload},
      {"open_with_snapshot_blob", open_payload},
      {"step_measured_obs", step_payload},
      {"error_reply", error_payload},
      {"session_snapshot_bare", snap.blob},
      {"framed_stream",
       sv::encode_frame(hello_payload) + sv::encode_frame(open_payload)},
      {"truncated", open_payload.substr(0, open_payload.size() / 2)},
      {"garbage", "not a service frame at all\n"},
  };
}

}  // namespace

// Same staleness guard for the service wire corpus: the seeds embed a
// mid-run session snapshot, so a format or simulator change regenerates
// them via ODRL_WRITE_FUZZ_SEEDS=1 rather than silently degrading the
// corpus into rejection-only inputs.
TEST(FuzzRegression, ServiceSeedsMatchCurrentFormat) {
  check_generated_seeds("service", expected_service_seeds());
}

namespace {

/// One-section snapshot frame around a raw payload writer -- for seeds a
/// well-behaved saver would never produce.
template <typename WritePayload>
std::string section_frame(std::uint32_t tag, WritePayload write_payload) {
  odrl::snapshot::Writer w;
  w.begin_section(tag);
  write_payload(w);
  w.end_section();
  return std::move(w).finish();
}

/// `blob` with one bit of its first payload byte flipped: still framed,
/// but the trailer checksum no longer matches.
std::string flip_payload_bit(std::string blob) {
  // magic (8) + version (4) + section tag (4) + payload length (8).
  constexpr std::size_t kFirstPayloadByte = 24;
  blob[kFirstPayloadByte] = static_cast<char>(blob[kFirstPayloadByte] ^ 1);
  return blob;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// One seed per rejection class of the Q-table artifact, plus a retired
// text-format file that must be rejected on the magic.
std::vector<std::pair<std::string, std::string>> expected_qtable_seeds() {
  namespace orl = odrl::rl;
  orl::QTable table(3, 2, 0.5);
  table.set_q(0, 1, -1.25);
  table.set_q(2, 0, 3.0);
  table.set_visits(1, 1, 7);
  std::ostringstream out;
  orl::save_qtable(table, out);
  const std::string valid = out.str();
  return {
      {"valid_small", valid},
      {"truncated", valid.substr(0, valid.size() / 2)},
      // 2^13 x 2^14 cells: one past the kMaxQtableCells cap of 2^26.
      {"hostile_dims",
       section_frame(orl::kQtableSectionTag,
                     [](odrl::snapshot::Writer& w) {
                       w.u64(std::uint64_t{1} << 13);
                       w.u64(std::uint64_t{1} << 14);
                     })},
      {"nonfinite_q", section_frame(orl::kQtableSectionTag,
                                    [](odrl::snapshot::Writer& w) {
                                      w.u64(1);
                                      w.u64(2);
                                      w.f64(1.0);
                                      w.f64(kNaN);
                                      w.u32(1);
                                      w.u32(1);
                                    })},
      {"checksum_mismatch", flip_payload_bit(valid)},
      {"legacy_text", "# odrl-qtable v1\n1 2\nq 1.0 2.0\nv 1 1\n"},
  };
}

// Same rejection classes for the workload-trace artifact.
std::vector<std::pair<std::string, std::string>> expected_trace_seeds() {
  namespace ow = odrl::workload;
  ow::RecordedTrace trace(2, {"compute", "memory"});
  for (int e = 0; e < 3; ++e) {
    const double d = 0.125 * e;
    trace.append_epoch({{.base_cpi = 0.5 + d, .mpki = 0.25, .activity = 0.9},
                        {.base_cpi = 1.5, .mpki = 20.0 + d, .activity = 0.4}});
  }
  std::ostringstream out;
  ow::save_trace(trace, out);
  const std::string valid = out.str();
  return {
      {"valid_small", valid},
      {"truncated", valid.substr(0, valid.size() / 2)},
      // 2 cores x 2^26 epochs: twice the kMaxTraceCells cap.
      {"hostile_dims", section_frame(ow::kTraceSectionTag,
                                     [](odrl::snapshot::Writer& w) {
                                       w.u64(2);
                                       w.str("a");
                                       w.str("b");
                                       w.u64(std::uint64_t{1} << 26);
                                     })},
      {"nonfinite_sample", section_frame(ow::kTraceSectionTag,
                                         [](odrl::snapshot::Writer& w) {
                                           w.u64(1);
                                           w.str("a");
                                           w.u64(1);
                                           w.f64(1.0);
                                           w.f64(kNaN);
                                           w.f64(0.5);
                                         })},
      {"checksum_mismatch", flip_payload_bit(valid)},
      {"legacy_csv",
       "# odrl-trace v1\nlabels,a\nepoch,core,base_cpi,mpki,activity\n"
       "0,0,1.0,2.0,0.5\n"},
  };
}

/// The status `load` rejects `blob` with (kOk when it loads).
template <typename Load>
odrl::snapshot::SnapshotStatus load_status(Load load, const std::string& blob) {
  std::istringstream in(blob);
  try {
    (void)load(in);
  } catch (const odrl::snapshot::SnapshotError& e) {
    return e.status();
  }
  return odrl::snapshot::SnapshotStatus::kOk;
}

/// The rejection class each generated single-artifact seed stands for.
odrl::snapshot::SnapshotStatus expected_status(const std::string& seed) {
  using odrl::snapshot::SnapshotStatus;
  if (seed == "valid_small") return SnapshotStatus::kOk;
  if (seed == "truncated") return SnapshotStatus::kTruncated;
  if (seed == "hostile_dims") return SnapshotStatus::kBadValue;
  if (seed.starts_with("nonfinite")) return SnapshotStatus::kNonFinite;
  if (seed == "checksum_mismatch") return SnapshotStatus::kChecksumMismatch;
  return SnapshotStatus::kBadMagic;  // legacy_text / legacy_csv
}

}  // namespace

// Staleness guards for the single-artifact corpora: every seed is rebuilt
// from the current serializers and compared byte for byte, so a format
// change regenerates them (ODRL_WRITE_FUZZ_SEEDS=1) instead of silently
// turning the valid seeds into rejections. Each seed must also still hit
// the rejection class it is named for.
TEST(FuzzRegression, QtableIoSeedsMatchCurrentFormat) {
  const auto seeds = expected_qtable_seeds();
  check_generated_seeds("qtable_io", seeds);
  for (const auto& [name, bytes] : seeds) {
    EXPECT_EQ(load_status(&odrl::rl::load_qtable, bytes),
              expected_status(name))
        << name;
  }
}

TEST(FuzzRegression, TraceIoSeedsMatchCurrentFormat) {
  const auto seeds = expected_trace_seeds();
  check_generated_seeds("trace_io", seeds);
  for (const auto& [name, bytes] : seeds) {
    EXPECT_EQ(load_status(&odrl::workload::load_trace, bytes),
              expected_status(name))
        << name;
  }
}
