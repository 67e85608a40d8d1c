// Shared fuzz entry points for the serialized formats: the fault-schedule
// text parser, the binary Q-table and workload-trace artifacts, the raw
// snapshot frame, the multi-chip snapshot frame (a differential resume
// harness) and the service wire protocol. Each harness feeds arbitrary bytes to
// a loader and enforces the parser contract:
//
//   * malformed input throws std::runtime_error (or std::invalid_argument
//     from nested validation) -- never crashes, never corrupts memory;
//   * accepted input round-trips: save(load(bytes)) must load again to an
//     equivalent value (the serializers and parsers agree on the format).
//
// The same functions back two drivers: the libFuzzer targets under
// tests/fuzz/ (built with -DODRL_FUZZ=ON, clang only) explore new inputs,
// and tests/fuzz_regression_test.cpp replays the committed corpus through
// them in every normal build as a tier-1 regression gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rl/qtable_io.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "sim/faults.hpp"
#include "sim/multichip.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/trace_io.hpp"

namespace odrl::fuzz {

inline std::string as_string(const std::uint8_t* data, std::size_t size) {
  return std::string(reinterpret_cast<const char*>(data), size);
}

/// Anything other than the documented parse-failure exceptions escapes and
/// crashes the fuzz target -- which is exactly the point.
inline void fuzz_fault_schedule(const std::uint8_t* data, std::size_t size) {
  std::istringstream in(as_string(data, size));
  try {
    const sim::FaultSchedule schedule = sim::load_fault_schedule(in);
    // Round-trip: what the parser accepted, the serializer must preserve.
    std::stringstream io;
    sim::save_fault_schedule(schedule, io);
    const sim::FaultSchedule back = sim::load_fault_schedule(io);
    if (back.size() != schedule.size()) {
      throw std::logic_error("fault schedule round-trip changed arity");
    }
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const sim::FaultEvent& a = schedule.events()[i];
      const sim::FaultEvent& b = back.events()[i];
      if (a.epoch != b.epoch || a.kind != b.kind || a.core != b.core ||
          a.duration != b.duration ||
          !(a.magnitude == b.magnitude ||
            (a.magnitude != a.magnitude && b.magnitude != b.magnitude))) {
        throw std::logic_error("fault schedule round-trip changed an event");
      }
    }
  } catch (const std::runtime_error&) {
    // Documented rejection path.
  } catch (const std::invalid_argument&) {
    // Nested validation rejections surface as invalid_argument.
  }
}

inline void fuzz_trace(const std::uint8_t* data, std::size_t size) {
  std::istringstream in(as_string(data, size));
  try {
    const workload::RecordedTrace trace = workload::load_trace(in);
    std::stringstream io;
    workload::save_trace(trace, io);
    (void)workload::load_trace(io);
  } catch (const std::runtime_error&) {
  } catch (const std::invalid_argument&) {
  }
}

/// The snapshot frame itself: a Reader either parses the whole frame or
/// throws SnapshotError (a runtime_error). Parsed frames must rebuild
/// byte-identically -- the format is fully deterministic (ordered
/// sections, length prefixes, one checksum), so reserialization is an
/// exact round trip.
inline void fuzz_snapshot(const std::uint8_t* data, std::size_t size) {
  const std::string blob = as_string(data, size);
  try {
    snapshot::Reader r(blob);
    snapshot::Writer w;
    for (std::uint32_t tag : r.section_tags()) {
      r.open_section(tag);
      std::string payload(r.remaining(), '\0');
      r.bytes({reinterpret_cast<std::uint8_t*>(payload.data()),
               payload.size()});
      r.expect_section_end();
      w.begin_section(tag);
      w.bytes({reinterpret_cast<const std::uint8_t*>(payload.data()),
               payload.size()});
      w.end_section();
    }
    const std::string rebuilt = std::move(w).finish();
    if (rebuilt != blob) {
      throw std::logic_error("snapshot frame round-trip changed bytes");
    }
  } catch (const std::runtime_error&) {
    // SnapshotError: the documented rejection path.
  }
}

/// The fixed fleet every multichip fuzz input is interpreted against.
/// The committed seeds under tests/fuzz/corpus/multichip were captured
/// from exactly this configuration -- changing anything here (or the
/// snapshot wire format) invalidates them; FuzzRegression.
/// MultichipSeedsMatchCurrentFormat fails loudly when that happens and
/// its comment explains how to regenerate.
inline sim::FleetConfig multichip_fuzz_fleet() {
  sim::FleetConfig fc;
  fc.chips = 2;
  fc.cores = 8;
  fc.controller = "PID";
  fc.epochs = 24;
  fc.warmup_epochs = 0;
  fc.seed = 7;
  fc.sensor_noise_rel = 0.02;
  fc.keep_traces = false;
  return fc;
}

/// Differential resume harness for the multi-chip snapshot frame. Two
/// contracts, selected by what the bytes turn out to be:
///
///   * any input: run_multichip's resume path either succeeds or throws
///     SnapshotError / invalid_argument -- never crashes;
///   * a *consistent* frame (MCHD chip count matches the fleet, MCHD
///     capture epoch within the run and equal to every embedded chip's
///     own captured epoch): resuming and re-capturing at that epoch must
///     reproduce the input frame byte for byte. Snapshot capture and
///     restore are exact inverses, so even a value-mutated frame that
///     still parses must dump back out unchanged -- any canonicalization
///     on load would break resumed-run reproducibility, and this harness
///     exists to catch exactly that.
inline void fuzz_multichip(const std::uint8_t* data, std::size_t size) {
  const std::string blob = as_string(data, size);
  const sim::FleetConfig fleet_config = multichip_fuzz_fleet();

  // Structural pre-parse deciding whether the differential byte-compare
  // applies. A frame that parses but disagrees with itself (header epoch
  // vs. per-chip epochs) is still fed to the resume path below; only the
  // byte-compare is skipped, because the fleet-level re-capture epoch is
  // one number and cannot honor two.
  bool differential = false;
  std::uint64_t frame_epoch = 0;
  try {
    snapshot::Reader r(blob);
    r.open_section(sim::kSnapshotMultiChipTag);
    const std::uint64_t n_chips = r.u64();
    frame_epoch = r.u64();
    r.expect_section_end();
    if (n_chips == fleet_config.chips && frame_epoch < fleet_config.epochs) {
      differential = true;
      for (std::size_t i = 0; i < fleet_config.chips && differential; ++i) {
        r.open_section(sim::chip_section_tag(i));
        snapshot::Reader chip(r.str());
        r.expect_section_end();
        chip.open_section(sim::kSnapshotRunnerTag);
        if (chip.u64() != frame_epoch) differential = false;
      }
    }
  } catch (const std::runtime_error&) {
    // Not structurally a fleet frame; the resume below must reject it too.
  }

  try {
    sim::Fleet fleet(fleet_config);
    sim::MultiChipConfig mc;
    mc.workers = 2;
    mc.resume_snapshot = &blob;
    std::string recaptured;
    if (differential) {
      mc.snapshot_epoch = static_cast<std::size_t>(frame_epoch);
      mc.snapshot_out = &recaptured;
    }
    (void)sim::run_multichip(fleet.specs(), mc);
    if (differential && recaptured != blob) {
      // logic_error escapes the catch clauses below by design.
      throw std::logic_error(
          "multi-chip resume + re-capture changed the frame bytes");
    }
  } catch (const std::runtime_error&) {
    // SnapshotError: the documented rejection path.
  } catch (const std::invalid_argument&) {
    // Config- and validation-level rejections.
  }
}

/// The service wire protocol, three layers deep:
///
///   * FrameDecoder: the input interpreted as a TCP byte stream must split
///     into payloads or throw ServiceError(kBadFrame) -- never crash,
///     never allocate a hostile length prefix;
///   * decode_message: every payload (and the raw input) either decodes or
///     throws ServiceError/SnapshotError; what decodes must re-encode and
///     decode again to a stable byte string (the codec is deterministic);
///   * Server::handle: the full dispatcher must answer *every* payload
///     with a decodable reply -- client bytes can never throw out of it
///     (a logic_error escaping is a contract violation in the server, and
///     crashes the fuzz target by design).
inline void fuzz_service(const std::uint8_t* data, std::size_t size) {
  const std::string bytes = as_string(data, size);

  std::vector<std::string> payloads;
  try {
    service::FrameDecoder decoder;
    decoder.feed(bytes);
    std::string payload;
    while (decoder.next(payload)) payloads.push_back(std::move(payload));
  } catch (const std::runtime_error&) {
    // Hostile or truncated length prefix: documented rejection.
    payloads.clear();
  }
  // The raw input as one payload too, so unframed corpus seeds (bare
  // snapshot-framed messages) exercise the codec directly.
  payloads.push_back(bytes);

  for (const std::string& payload : payloads) {
    try {
      const service::Message msg = service::decode_message(payload);
      const std::string re = service::encode_message(msg);
      const service::Message again = service::decode_message(re);
      if (service::encode_message(again) != re) {
        throw std::logic_error("service message re-encode is not stable");
      }
    } catch (const std::runtime_error&) {
      // ServiceError / SnapshotError: the documented rejection paths.
    }
  }

  // A small fresh server per input keeps state bounded while still letting
  // a lucky valid frame open sessions and step them.
  service::ServerConfig config;
  config.workers = 1;
  config.max_sessions = 4;
  config.max_cores = 64;
  service::Server server(config);
  for (const std::string& payload : payloads) {
    // handle() never throws on client bytes; replies always decode. Either
    // failing escapes this harness and fails the target.
    (void)service::decode_message(server.handle(payload));
  }
}

inline void fuzz_qtable(const std::uint8_t* data, std::size_t size) {
  std::istringstream in(as_string(data, size));
  try {
    const rl::QTable table = rl::load_qtable(in);
    std::stringstream io;
    rl::save_qtable(table, io);
    (void)rl::load_qtable(io);
  } catch (const std::runtime_error&) {
  } catch (const std::invalid_argument&) {
  }
}

}  // namespace odrl::fuzz
