// Tests for RecordedTrace serialization: the binary snapshot artifact is
// the only format; anything else (including the retired CSV) is rejected.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "snapshot/snapshot.hpp"
#include "workload/trace_io.hpp"
#include "workload/workload.hpp"

namespace ow = odrl::workload;
namespace osn = odrl::snapshot;

namespace {
ow::RecordedTrace sample_trace(std::size_t cores = 4,
                               std::size_t epochs = 20) {
  ow::GeneratedWorkload gen = ow::GeneratedWorkload::mixed_suite(cores, 11);
  return gen.record(epochs);
}
}  // namespace

TEST(TraceIo, ReplayOfLoadedTraceMatches) {
  const ow::RecordedTrace original = sample_trace(3, 15);
  std::stringstream buffer;
  ow::save_trace(original, buffer);
  ow::ReplayWorkload a{original};
  ow::ReplayWorkload b{ow::load_trace(buffer)};
  for (int e = 0; e < 15; ++e) {
    const auto sa = a.step();
    const auto sb = b.step();
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(sa[c].mpki, sb[c].mpki);
    }
  }
}

TEST(TraceIo, FileRoundTrip) {
  const ow::RecordedTrace original = sample_trace(2, 5);
  const std::string path = testing::TempDir() + "/odrl_trace_test.bin";
  ow::save_trace_file(original, path);
  const ow::RecordedTrace loaded = ow::load_trace_file(path);
  EXPECT_EQ(loaded.n_epochs(), 5u);
  EXPECT_EQ(loaded.n_cores(), 2u);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMalformedInput) {
  // Anything that is not a snapshot frame -- garbage, an empty stream, or
  // a well-formed artifact of the retired CSV format -- fails on the magic.
  auto expect_reject = [](const std::string& text) {
    std::stringstream in(text);
    try {
      ow::load_trace(in);
      FAIL() << "accepted: " << text;
    } catch (const osn::SnapshotError& e) {
      EXPECT_EQ(e.status(), osn::SnapshotStatus::kBadMagic) << text;
    }
  };
  expect_reject("");
  expect_reject("not a trace\n");
  expect_reject("ODRLSNA");  // a magic prefix is not the magic
  expect_reject(
      "# odrl-trace v1\nlabels,a\nepoch,core,base_cpi,mpki,activity\n"
      "0,0,1.0,2.0,0.5\n");
}

TEST(TraceIo, SaveSurfacesStreamFailure) {
  // save_trace must report a failed stream instead of silently emitting a
  // truncated trace.
  const ow::RecordedTrace trace = sample_trace(1, 1);
  std::stringstream out;
  out.setstate(std::ios::badbit);
  try {
    ow::save_trace(trace, out);
    FAIL() << "bad stream accepted";
  } catch (const osn::SnapshotError& e) {
    EXPECT_EQ(e.status(), osn::SnapshotStatus::kIoError);
  }
}

TEST(TraceIo, SaveFileSurfacesWriteFailure) {
  // /dev/full opens fine and fails on flush -- the full-disk case the
  // explicit flush-and-check in save_trace_file exists for.
  const ow::RecordedTrace trace = sample_trace(1, 1);
  EXPECT_THROW(ow::save_trace_file(trace, "/dev/full"), std::runtime_error);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(ow::load_trace_file("/nonexistent/odrl.csv"),
               std::runtime_error);
}

TEST(TraceIoBinary, RoundTripPreservesEverything) {
  const ow::RecordedTrace original = sample_trace();
  std::stringstream buffer;
  ow::save_trace(original, buffer);
  const ow::RecordedTrace loaded = ow::load_trace(buffer);

  ASSERT_EQ(loaded.n_cores(), original.n_cores());
  ASSERT_EQ(loaded.n_epochs(), original.n_epochs());
  for (std::size_t c = 0; c < original.n_cores(); ++c) {
    EXPECT_EQ(loaded.label(c), original.label(c));
  }
  for (std::size_t e = 0; e < original.n_epochs(); ++e) {
    for (std::size_t c = 0; c < original.n_cores(); ++c) {
      // f64 fields round-trip bit-exactly through the binary format.
      EXPECT_EQ(loaded.epoch(e)[c].base_cpi, original.epoch(e)[c].base_cpi);
      EXPECT_EQ(loaded.epoch(e)[c].mpki, original.epoch(e)[c].mpki);
      EXPECT_EQ(loaded.epoch(e)[c].activity, original.epoch(e)[c].activity);
    }
  }
}

namespace {
// Builds a single-'TRCE'-section blob from a raw payload writer, then
// asserts load_trace rejects it with the expected status.
template <typename WritePayload>
void expect_binary_reject(WritePayload write_payload,
                          osn::SnapshotStatus want) {
  osn::Writer w;
  w.begin_section(ow::kTraceSectionTag);
  write_payload(w);
  w.end_section();
  std::stringstream in(std::move(w).finish());
  try {
    ow::load_trace(in);
    FAIL() << "malformed trace payload accepted";
  } catch (const osn::SnapshotError& e) {
    EXPECT_EQ(e.status(), want);
  }
}
}  // namespace

TEST(TraceIoBinary, RejectsZeroDimensions) {
  expect_binary_reject([](osn::Writer& w) { w.u64(0); },
                       osn::SnapshotStatus::kBadValue);
  expect_binary_reject(
      [](osn::Writer& w) {
        w.u64(1);
        w.str("a");
        w.u64(0);
      },
      osn::SnapshotStatus::kBadValue);
}

TEST(TraceIoBinary, RejectsHostileDimensions) {
  // A huge declared core count must be rejected from the header alone,
  // before any allocation proportional to it.
  expect_binary_reject(
      [](osn::Writer& w) { w.u64(std::uint64_t{1} << 40); },
      osn::SnapshotStatus::kBadValue);
}

TEST(TraceIoBinary, RejectsNonFiniteSamples) {
  expect_binary_reject(
      [](osn::Writer& w) {
        w.u64(1);
        w.str("a");
        w.u64(1);
        w.f64(std::numeric_limits<double>::quiet_NaN());
        w.f64(1.0);
        w.f64(0.5);
      },
      osn::SnapshotStatus::kNonFinite);
}

TEST(TraceIoBinary, RejectsTruncatedPayload) {
  // Declares two epochs but carries one: the section runs dry mid-read.
  expect_binary_reject(
      [](osn::Writer& w) {
        w.u64(1);
        w.str("a");
        w.u64(2);
        w.f64(1.0);
        w.f64(2.0);
        w.f64(0.5);
      },
      osn::SnapshotStatus::kTruncated);
}
