// Unit tests for the versioned snapshot substrate: Writer/Reader framing,
// the corruption matrix (every structural defect maps to its documented
// SnapshotStatus), and the state_io helpers built on top.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "snapshot/snapshot.hpp"
#include "snapshot/state_io.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace osn = odrl::snapshot;
namespace ou = odrl::util;

namespace {

constexpr std::uint32_t kTagA = osn::section_tag("AAAA");
constexpr std::uint32_t kTagB = osn::section_tag("BBBB");

std::string two_section_blob() {
  osn::Writer w;
  w.begin_section(kTagA);
  w.u64(42);
  w.f64(3.25);
  w.str("hello");
  w.end_section();
  w.begin_section(kTagB);
  w.u8(7);
  w.u32(0xdeadbeef);
  w.end_section();
  return std::move(w).finish();
}

osn::SnapshotStatus parse_status(const std::string& blob) {
  try {
    osn::Reader r(blob);
    return osn::SnapshotStatus::kOk;
  } catch (const osn::SnapshotError& e) {
    return e.status();
  }
}

}  // namespace

TEST(SnapshotWriter, RoundTripsEveryPrimitive) {
  const std::string blob = two_section_blob();
  osn::Reader r(blob);

  r.open_section(kTagA);
  EXPECT_EQ(r.u64(), 42u);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "hello");
  r.expect_section_end();

  r.open_section(kTagB);
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  r.expect_section_end();
}

TEST(SnapshotWriter, F64IsBitExact) {
  // Including values decimal text formats mangle: -0.0, denormals, the
  // extremes.
  const double values[] = {-0.0, 0.0, std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(), -1.0 / 3.0};
  osn::Writer w;
  w.begin_section(kTagA);
  for (double v : values) w.f64(v);
  const std::string blob = [&] {
    w.end_section();
    return std::move(w).finish();
  }();
  osn::Reader r(blob);
  r.open_section(kTagA);
  for (double v : values) {
    const double got = r.f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(SnapshotWriter, SectionsCanReopenInAnyOrder) {
  const std::string blob = two_section_blob();
  osn::Reader r(blob);
  r.open_section(kTagB);
  EXPECT_EQ(r.u8(), 7u);
  r.open_section(kTagA);
  EXPECT_EQ(r.u64(), 42u);
  r.open_section(kTagB);  // reopen rewinds to the section start
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_TRUE(r.has_section(kTagA));
  EXPECT_FALSE(r.has_section(osn::section_tag("NOPE")));
}

TEST(SnapshotWriter, MisuseThrowsLogicError) {
  osn::Writer w;
  EXPECT_THROW(w.u64(1), std::logic_error);  // write outside section
  w.begin_section(kTagA);
  EXPECT_THROW(w.begin_section(kTagB), std::logic_error);  // nesting
  w.end_section();
  EXPECT_THROW(w.begin_section(kTagA), std::logic_error);  // duplicate tag
  EXPECT_THROW(w.begin_section(0), std::logic_error);      // end marker tag
}

// -- Corruption matrix ----------------------------------------------------

TEST(SnapshotCorruption, BadMagic) {
  std::string blob = two_section_blob();
  blob[0] = 'X';
  EXPECT_EQ(parse_status(blob), osn::SnapshotStatus::kBadMagic);
  EXPECT_EQ(parse_status(""), osn::SnapshotStatus::kBadMagic);
  EXPECT_EQ(parse_status("ODRL"), osn::SnapshotStatus::kBadMagic);
}

TEST(SnapshotCorruption, BadVersion) {
  std::string blob = two_section_blob();
  blob[8] = static_cast<char>(0x7f);  // version LSB
  EXPECT_EQ(parse_status(blob), osn::SnapshotStatus::kBadVersion);
}

TEST(SnapshotCorruption, TruncationAtEveryBoundary) {
  const std::string blob = two_section_blob();
  // Chopping anywhere after the version and before the full trailer must
  // read as truncated or checksum-damaged -- never parse, never crash.
  for (std::size_t n = 12; n < blob.size(); ++n) {
    const osn::SnapshotStatus st = parse_status(blob.substr(0, n));
    EXPECT_TRUE(st == osn::SnapshotStatus::kTruncated ||
                st == osn::SnapshotStatus::kChecksumMismatch)
        << "prefix length " << n << " parsed with status "
        << static_cast<int>(st);
  }
}

TEST(SnapshotCorruption, ChecksumCatchesEveryByteFlip) {
  const std::string blob = two_section_blob();
  // Flip each payload/header byte (past magic+version, before trailer):
  // the checksum must catch all of them (a length-field flip may read as
  // truncation instead -- also a rejection).
  for (std::size_t i = 12; i < blob.size() - 12; ++i) {
    std::string bad = blob;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    const osn::SnapshotStatus st = parse_status(bad);
    EXPECT_NE(st, osn::SnapshotStatus::kOk) << "byte " << i;
  }
}

TEST(SnapshotCorruption, TrailingBytesRejected) {
  // Bytes after the sealed trailer make the frame structurally unsound.
  EXPECT_EQ(parse_status(two_section_blob() + "x"),
            osn::SnapshotStatus::kBadSection);
}

TEST(SnapshotCorruption, MissingSectionIsBadSection) {
  const std::string blob = two_section_blob();
  osn::Reader r(blob);
  try {
    r.open_section(osn::section_tag("NOPE"));
    FAIL() << "opened a section that does not exist";
  } catch (const osn::SnapshotError& e) {
    EXPECT_EQ(e.status(), osn::SnapshotStatus::kBadSection);
  }
}

TEST(SnapshotCorruption, ReadPastSectionEndIsTruncated) {
  const std::string blob = two_section_blob();
  osn::Reader r(blob);
  r.open_section(kTagB);
  (void)r.u8();
  (void)r.u32();
  try {
    (void)r.u64();  // section B holds exactly 5 bytes
    FAIL() << "read past the section end";
  } catch (const osn::SnapshotError& e) {
    EXPECT_EQ(e.status(), osn::SnapshotStatus::kTruncated);
  }
}

TEST(SnapshotCorruption, UnconsumedBytesFailExpectSectionEnd) {
  const std::string blob = two_section_blob();
  osn::Reader r(blob);
  r.open_section(kTagA);
  (void)r.u64();
  try {
    r.expect_section_end();
    FAIL() << "accepted trailing section bytes";
  } catch (const osn::SnapshotError& e) {
    EXPECT_EQ(e.status(), osn::SnapshotStatus::kBadSection);
  }
}

TEST(SnapshotCorruption, StatusCarriesThroughTheException) {
  // The structured-error contract the CLI and fuzz harness rely on: the
  // status enum survives the throw, and the message is human-readable.
  try {
    osn::Reader r("garbage");
    FAIL();
  } catch (const osn::SnapshotError& e) {
    EXPECT_EQ(e.status(), osn::SnapshotStatus::kBadMagic);
    EXPECT_NE(std::string(e.what()).find("ODRLSNAP"), std::string::npos);
  }
}

// -- state_io helpers -----------------------------------------------------

TEST(StateIo, RngRoundTripContinuesTheStream) {
  ou::Rng rng(1234);
  for (int i = 0; i < 101; ++i) (void)rng.gaussian();  // odd: cache primed

  osn::Writer w;
  w.begin_section(kTagA);
  osn::save_rng(w, rng);
  w.end_section();
  const std::string blob = std::move(w).finish();

  ou::Rng restored(1);  // wrong seed on purpose: load must overwrite all
  osn::Reader r(blob);
  r.open_section(kTagA);
  osn::load_rng(r, restored);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.next(), restored.next());
    EXPECT_EQ(rng.gaussian(), restored.gaussian());
  }
}

TEST(StateIo, EmaRoundTripPreservesPrimedState) {
  ou::Ema fresh(0.125);
  ou::Ema primed(0.125);
  primed.update(10.0);
  primed.update(12.0);

  for (const ou::Ema& src : {fresh, primed}) {
    osn::Writer w;
    w.begin_section(kTagA);
    osn::save_ema(w, src);
    w.end_section();
    const std::string blob = std::move(w).finish();

    ou::Ema dst(0.125);
    dst.update(99.0);  // dirty on purpose
    osn::Reader r(blob);
    r.open_section(kTagA);
    osn::load_ema(r, dst);
    EXPECT_EQ(dst.primed(), src.primed());
    if (src.primed()) {
      EXPECT_EQ(dst.value(), src.value());
    }
    // Both must continue identically from here.
    ou::Ema cont = src;
    cont.update(5.0);
    dst.update(5.0);
    EXPECT_EQ(dst.value(), cont.value());
  }
}

TEST(StateIo, RejectsPoisonedValues) {
  // A primed EMA carrying NaN is a poisoned snapshot, not a valid state.
  osn::Writer w;
  w.begin_section(kTagA);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.u8(1);  // primed
  w.end_section();
  const std::string blob = std::move(w).finish();
  osn::Reader r(blob);
  r.open_section(kTagA);
  ou::Ema ema(0.5);
  try {
    osn::load_ema(r, ema);
    FAIL() << "accepted a primed NaN EMA";
  } catch (const osn::SnapshotError& e) {
    EXPECT_EQ(e.status(), osn::SnapshotStatus::kNonFinite);
  }
}

TEST(StateIo, BoolFlagRejectsOutOfRange) {
  osn::Writer w;
  w.begin_section(kTagA);
  w.u8(2);  // neither 0 nor 1
  w.end_section();
  const std::string blob = std::move(w).finish();
  osn::Reader r(blob);
  r.open_section(kTagA);
  try {
    (void)osn::load_bool(r, "flag");
    FAIL() << "accepted a bool flag of 2";
  } catch (const osn::SnapshotError& e) {
    EXPECT_EQ(e.status(), osn::SnapshotStatus::kBadValue);
  }
}
