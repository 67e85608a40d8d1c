// Tests for Q-table / policy serialization and warm starting.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "arch/chip_config.hpp"
#include "core/odrl_controller.hpp"
#include "rl/qtable_io.hpp"
#include "snapshot/snapshot.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

#include "loop_helpers.hpp"

namespace orl = odrl::rl;
namespace osn = odrl::snapshot;
using odrl::test::decide;
using odrl::test::step;
namespace oa = odrl::arch;
namespace oc = odrl::core;
namespace os = odrl::sim;
namespace ow = odrl::workload;

TEST(QTableIo, RoundTripPreservesValuesAndVisits) {
  orl::QTable table(6, 3, 0.0);
  odrl::util::Rng rng(3);
  for (std::size_t s = 0; s < 6; ++s) {
    for (std::size_t a = 0; a < 3; ++a) {
      table.set_q(s, a, rng.gaussian(0.0, 2.0));
      table.set_visits(s, a, static_cast<std::uint32_t>(rng.below(100)));
    }
  }
  std::stringstream buffer;
  orl::save_qtable(table, buffer);
  const orl::QTable loaded = orl::load_qtable(buffer);
  ASSERT_EQ(loaded.n_states(), 6u);
  ASSERT_EQ(loaded.n_actions(), 3u);
  for (std::size_t s = 0; s < 6; ++s) {
    for (std::size_t a = 0; a < 3; ++a) {
      EXPECT_EQ(loaded.q(s, a), table.q(s, a));  // exact round trip
      EXPECT_EQ(loaded.visits(s, a), table.visits(s, a));
    }
  }
}

namespace {

/// Loads `blob` and returns the SnapshotError status it was rejected with
/// (kOk when it loaded).
osn::SnapshotStatus load_status(const std::string& blob) {
  std::stringstream in(blob);
  try {
    orl::load_qtable(in);
  } catch (const osn::SnapshotError& e) {
    return e.status();
  }
  return osn::SnapshotStatus::kOk;
}

/// A single-'QTAB'-section frame around a raw payload writer.
template <typename WritePayload>
std::string qtab_frame(WritePayload write_payload) {
  osn::Writer w;
  w.begin_section(orl::kQtableSectionTag);
  write_payload(w);
  w.end_section();
  return std::move(w).finish();
}

std::string saved_table() {
  orl::QTable table(3, 2, 0.25);
  table.set_q(2, 1, -1.5);
  std::stringstream out;
  orl::save_qtable(table, out);
  return out.str();
}

}  // namespace

TEST(QTableIo, RejectsMalformedInput) {
  // Anything that is not a snapshot frame -- garbage, an empty stream, or
  // a well-formed artifact of the retired text format -- fails on the
  // magic.
  for (const char* text :
       {"", "wrong magic\n", "# odrl-qtable v1\n1 2\nq 1.0 2.0\nv 1 1\n"}) {
    EXPECT_EQ(load_status(text), osn::SnapshotStatus::kBadMagic) << text;
  }
  // Framed but semantically hostile: zero or overflowing dimensions.
  EXPECT_EQ(load_status(qtab_frame([](osn::Writer& w) {
              w.u64(0);
              w.u64(3);
            })),
            osn::SnapshotStatus::kBadValue);
  EXPECT_EQ(load_status(qtab_frame([](osn::Writer& w) {
              w.u64(orl::kMaxQtableCells);
              w.u64(2);
            })),
            osn::SnapshotStatus::kBadValue);
}

TEST(QTableIo, RejectsTruncatedAndCorruptInput) {
  const std::string blob = saved_table();
  ASSERT_EQ(load_status(blob), osn::SnapshotStatus::kOk);
  // Truncations at every structural boundary: inside the version, inside
  // the section header, inside the payload, inside the trailer.
  for (const std::size_t cut :
       {std::size_t{10}, std::size_t{16}, std::size_t{40}, blob.size() - 1}) {
    EXPECT_EQ(load_status(blob.substr(0, cut)),
              osn::SnapshotStatus::kTruncated)
        << "cut at " << cut;
  }
  // One flipped payload bit fails the trailer checksum.
  std::string corrupt = blob;
  corrupt[40] = static_cast<char>(corrupt[40] ^ 0x01);
  EXPECT_EQ(load_status(corrupt), osn::SnapshotStatus::kChecksumMismatch);
}

TEST(QTableIo, RejectsNonFiniteQValues) {
  // A NaN/inf Q-value in a policy file would poison every TD bootstrap
  // that touches the row; loading must reject it at the door (the dynamic
  // counterpart is QTable::all_finite on the hot path).
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(load_status(qtab_frame([bad](osn::Writer& w) {
                w.u64(1);
                w.u64(2);
                w.f64(1.0);
                w.f64(bad);
                w.u32(1);
                w.u32(1);
              })),
              osn::SnapshotStatus::kNonFinite)
        << bad;
  }
}

TEST(QTableIo, SaveSurfacesStreamFailure) {
  // Regression: save_qtable must report a failed stream, not silently
  // produce a truncated policy file.
  orl::QTable table(2, 2, 1.0);
  std::stringstream out;
  out.setstate(std::ios::badbit);
  EXPECT_THROW(orl::save_qtable(table, out), std::runtime_error);
}

TEST(QTableIo, SaveFileSurfacesWriteFailure) {
  // /dev/full opens fine and fails on flush -- exactly the full-disk case
  // the explicit flush-and-check in save_qtable_file exists for.
  orl::QTable table(2, 2, 1.0);
  EXPECT_THROW(orl::save_qtable_file(table, "/dev/full"),
               std::runtime_error);
}

TEST(QTableIo, RoundTripsExtremeMagnitudes) {
  // f64 fields travel as raw bits, so the edges of the double range must
  // survive the round trip exactly.
  orl::QTable table(1, 4, 0.0);
  table.set_q(0, 0, 1.7976931348623157e308);   // DBL_MAX
  table.set_q(0, 1, 3.141592653589793e-100);   // tiny, full mantissa
  table.set_q(0, 2, -2.2250738585072014e-308); // -DBL_MIN
  table.set_q(0, 3, 0.1 + 0.2);                // classic non-representable
  std::stringstream buffer;
  orl::save_qtable(table, buffer);
  const orl::QTable loaded = orl::load_qtable(buffer);
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_EQ(loaded.q(0, a), table.q(0, a)) << "action " << a;
  }
}

TEST(QTableIo, FileRoundTrip) {
  orl::QTable table(2, 2, 0.5);
  table.set_q(1, 1, -3.25);
  const std::string path = testing::TempDir() + "/odrl_qtable_test.bin";
  orl::save_qtable_file(table, path);
  const orl::QTable loaded = orl::load_qtable_file(path);
  EXPECT_EQ(loaded.q(1, 1), -3.25);
  std::remove(path.c_str());
  EXPECT_THROW(orl::load_qtable_file("/nonexistent/q.txt"),
               std::runtime_error);
}

TEST(QTableIo, RestoreTableChecksDimensions) {
  orl::TdConfig cfg;
  orl::TdAgent agent(4, 3, cfg);
  EXPECT_THROW(agent.restore_table(orl::QTable(4, 2)), std::invalid_argument);
  EXPECT_THROW(agent.restore_table(orl::QTable(3, 3)), std::invalid_argument);
  orl::QTable good(4, 3, 1.5);
  agent.restore_table(std::move(good));
  EXPECT_DOUBLE_EQ(agent.table().q(0, 0), 1.5);
}

TEST(PolicyIo, SaveLoadRoundTripAcrossControllers) {
  const oa::ChipConfig chip = oa::ChipConfig::make(4, 0.6);
  os::ManyCoreSystem sys(chip, std::make_unique<ow::GeneratedWorkload>(
                                   ow::GeneratedWorkload::mixed_suite(4, 2)));
  oc::OdrlController trained(chip);
  auto levels = trained.initial_levels(4);
  for (int e = 0; e < 500; ++e) levels = decide(trained, step(sys, levels));

  std::stringstream buffer;
  trained.save_policy(buffer);

  oc::OdrlController fresh(chip);
  fresh.load_policy(buffer);
  for (std::size_t core = 0; core < 4; ++core) {
    const auto& a = trained.agent(core).table();
    const auto& b = fresh.agent(core).table();
    for (std::size_t s = 0; s < a.n_states(); ++s) {
      for (std::size_t act = 0; act < a.n_actions(); ++act) {
        EXPECT_EQ(a.q(s, act), b.q(s, act));
        EXPECT_EQ(a.visits(s, act), b.visits(s, act));
      }
    }
  }
}

TEST(PolicyIo, LoadRejectsWrongShape) {
  const oa::ChipConfig chip = oa::ChipConfig::make(4, 0.6);
  oc::OdrlController four(chip);
  std::stringstream buffer;
  four.save_policy(buffer);

  const oa::ChipConfig other_chip = oa::ChipConfig::make(8, 0.6);
  oc::OdrlController eight(other_chip);
  EXPECT_THROW(eight.load_policy(buffer), std::runtime_error);

  // Not a snapshot frame: junk and the retired text policy format alike.
  for (const char* text :
       {"junk", "# odrl-policy v1\n4\n# odrl-qtable v1\n1 1\nq 0\nv 0\n"}) {
    std::stringstream in(text);
    try {
      four.load_policy(in);
      FAIL() << "accepted: " << text;
    } catch (const osn::SnapshotError& e) {
      EXPECT_EQ(e.status(), osn::SnapshotStatus::kBadMagic) << text;
    }
  }
}

TEST(PolicyIo, WarmStartSkipsTheRamp) {
  // Train on a trace, save, warm-start a fresh controller on the same
  // trace: the warm start's *early* throughput must beat the cold start's.
  const oa::ChipConfig chip = oa::ChipConfig::make(8, 0.6);
  ow::GeneratedWorkload gen = ow::GeneratedWorkload::mixed_suite(8, 6);
  const ow::RecordedTrace trace = gen.record(4000);

  std::stringstream policy;
  {
    os::ManyCoreSystem sys(chip,
                           std::make_unique<ow::ReplayWorkload>(trace));
    oc::OdrlController ctl(chip);
    auto levels = ctl.initial_levels(8);
    for (int e = 0; e < 4000; ++e) levels = decide(ctl, step(sys, levels));
    ctl.save_policy(policy);
  }

  auto early_instructions = [&](bool warm) {
    os::ManyCoreSystem sys(chip,
                           std::make_unique<ow::ReplayWorkload>(trace));
    oc::OdrlController ctl(chip);
    if (warm) {
      policy.clear();
      policy.seekg(0);
      ctl.load_policy(policy);
    }
    auto levels = ctl.initial_levels(8);
    double instructions = 0.0;
    for (int e = 0; e < 600; ++e) {
      const auto obs = step(sys, levels);
      levels = decide(ctl, obs);
      for (const auto& core : obs.cores) instructions += core.instructions;
    }
    return instructions;
  };

  const double cold = early_instructions(false);
  const double warm = early_instructions(true);
  EXPECT_GT(warm, cold * 1.02);
}
