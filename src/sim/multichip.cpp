#include "sim/multichip.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "telemetry/csv_sink.hpp"
#include "telemetry/jsonl_sink.hpp"
#include "telemetry/recorder.hpp"
#include "util/rng.hpp"

namespace odrl::sim {

std::string chip_session_tag(const ChipSpec& spec, std::size_t index) {
  if (!spec.tag.empty()) return spec.tag;
  char buf[16];
  std::snprintf(buf, sizeof buf, "chip%02zu", index);
  return buf;
}

std::string sanitize_session_tag(const std::string& tag) {
  std::string out = tag;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

std::uint64_t fleet_chip_seed(std::uint64_t root, std::size_t chip,
                              std::uint64_t stream) {
  util::SplitMix64 mix(root ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  std::uint64_t s = 0;
  for (std::size_t i = 0; i <= chip; ++i) s = mix.next();
  return s;
}

std::uint32_t chip_section_tag(std::size_t chip) {
  if (chip >= 100) {
    throw std::out_of_range(
        "chip_section_tag: chip index " + std::to_string(chip) +
        " exceeds the CHnn two-digit section namespace (max 99)");
  }
  char name[8];
  std::snprintf(name, sizeof name, "CH%02zu", chip);
  return snapshot::section_tag(std::string_view(name, 4));
}

void MultiChipConfig::validate(std::span<const ChipSpec> chips) const {
  if (chips.empty()) {
    throw std::invalid_argument("run_multichip: empty chip list");
  }
  if ((snapshot_out != nullptr || resume_snapshot != nullptr) &&
      chips.size() > 100) {
    throw std::invalid_argument(
        "run_multichip: snapshot frame supports at most 100 chips");
  }
  for (std::size_t i = 0; i < chips.size(); ++i) {
    const ChipSpec& spec = chips[i];
    const std::string at = "run_multichip: chip " + std::to_string(i);
    if (spec.system == nullptr || spec.controller == nullptr) {
      throw std::invalid_argument(at + ": null system or controller");
    }
    spec.config.validate();
    if ((snapshot_out != nullptr || resume_snapshot != nullptr) &&
        (spec.config.snapshot_out != nullptr ||
         spec.config.resume_snapshot != nullptr)) {
      throw std::invalid_argument(
          at + ": per-chip snapshot fields must be unset when the fleet "
               "snapshot frame is used");
    }
    // Concurrent chips must own their state: two chips stepping one
    // system or one controller would race, and one recorder's record
    // stream would interleave their epochs nondeterministically.
    for (std::size_t j = i + 1; j < chips.size(); ++j) {
      const ChipSpec& other = chips[j];
      const char* shared = nullptr;
      if (other.system == spec.system) {
        shared = "system";
      } else if (other.controller == spec.controller) {
        shared = "controller";
      } else if (spec.config.recorder != nullptr &&
                 other.config.recorder == spec.config.recorder) {
        shared = "recorder";
      }
      if (shared != nullptr) {
        throw std::invalid_argument(at + ": " + shared +
                                    " shared with chip " + std::to_string(j) +
                                    " (give each chip its own)");
      }
    }
  }
  if (!telemetry_dir.empty()) {
    // Distinct chips must land in distinct sink files; catching a tag
    // collision here beats two runs silently clobbering one file.
    std::set<std::string> stems;
    for (std::size_t i = 0; i < chips.size(); ++i) {
      const std::string stem =
          sanitize_session_tag(chip_session_tag(chips[i], i));
      if (!stems.insert(stem).second) {
        throw std::invalid_argument(
            "run_multichip: chip " + std::to_string(i) + " session tag \"" +
            chip_session_tag(chips[i], i) +
            "\" sanitizes to duplicate sink filename \"" + stem + "\"");
      }
    }
  }
}

double MultiChipResult::bips() const {
  double longest_s = 0.0;
  for (const RunResult& r : chips) {
    if (r.elapsed_s() > longest_s) longest_s = r.elapsed_s();
  }
  return longest_s > 0.0 ? total_instructions / longest_s / 1e9 : 0.0;
}

namespace {

/// The per-chip whole-run task. Stored in a vector that outlives wait();
/// the runtime invokes it by reference on whichever worker claims it.
struct ChipTask {
  ManyCoreSystem* system = nullptr;
  Controller* controller = nullptr;
  const RunConfig* config = nullptr;
  RunResult* out = nullptr;

  void operator()() const {
    *out = run_closed_loop(*system, *controller, *config);
  }
};

}  // namespace

MultiChipResult run_multichip(std::span<ChipSpec> chips,
                              const MultiChipConfig& config) {
  config.validate(chips);
  const std::size_t n = chips.size();

  std::shared_ptr<task::Runtime> runtime = config.runtime;
  if (runtime == nullptr) {
    runtime = std::make_shared<task::Runtime>(config.workers);
  }
  const task::RuntimeStats stats0 = runtime->stats();

  // Unpack the fleet resume frame into per-chip blobs (chip order).
  std::vector<std::string> resume_blobs;
  if (config.resume_snapshot != nullptr) {
    snapshot::Reader r(*config.resume_snapshot);
    r.open_section(kSnapshotMultiChipTag);
    const std::uint64_t frame_chips = r.u64();
    r.u64();  // capture epoch: informational; each chip re-checks its own
    r.expect_section_end();
    if (frame_chips != n) {
      throw snapshot::SnapshotError(
          snapshot::SnapshotStatus::kDimensionMismatch,
          "run_multichip: snapshot frame has " + std::to_string(frame_chips) +
              " chips, fleet has " + std::to_string(n));
    }
    resume_blobs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      r.open_section(chip_section_tag(i));
      resume_blobs[i] = r.str();
      r.expect_section_end();
    }
  }

  // Effective per-chip run configs: the fleet's snapshot/resume plumbing.
  // The spec's config is copied, never mutated.
  std::vector<RunConfig> run_configs(n);
  std::vector<std::string> capture_blobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    run_configs[i] = chips[i].config;
    if (config.snapshot_out != nullptr) {
      run_configs[i].snapshot_epoch = config.snapshot_epoch;
      run_configs[i].snapshot_out = &capture_blobs[i];
    }
    if (config.resume_snapshot != nullptr) {
      run_configs[i].resume_snapshot = &resume_blobs[i];
    }
  }

  // Per-chip telemetry sessions: every chip's records carry its session
  // tag, and -- when telemetry_dir is set -- chips without a caller-provided
  // recorder get a fleet-owned one writing to a file named after the tag.
  // The streams/recorders outlive wait() below and flush on scope exit.
  const bool want_csv =
      config.telemetry_format == MultiChipConfig::TelemetryFormat::kCsv;
  std::vector<std::unique_ptr<std::ofstream>> sink_streams;
  std::vector<std::shared_ptr<telemetry::Sink>> sinks;
  std::vector<std::unique_ptr<telemetry::Recorder>> recorders;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string tag = chip_session_tag(chips[i], i);
    if (run_configs[i].session_tag.empty()) run_configs[i].session_tag = tag;
    if (config.telemetry_dir.empty() || run_configs[i].recorder != nullptr) {
      continue;
    }
    const std::string path = config.telemetry_dir + "/" +
                             sanitize_session_tag(tag) +
                             (want_csv ? ".csv" : ".jsonl");
    auto stream = std::make_unique<std::ofstream>(
        path, std::ios::binary | std::ios::trunc);
    if (!*stream) {
      throw std::runtime_error(
          "run_multichip: cannot open per-chip telemetry sink file " + path);
    }
    std::shared_ptr<telemetry::Sink> sink;
    if (want_csv) {
      sink = std::make_shared<telemetry::CsvSink>(*stream);
    } else {
      sink = std::make_shared<telemetry::JsonlSink>(*stream);
    }
    auto recorder = std::make_unique<telemetry::Recorder>();
    recorder->add_sink(sink);
    run_configs[i].recorder = recorder.get();
    sink_streams.push_back(std::move(stream));
    sinks.push_back(std::move(sink));
    recorders.push_back(std::move(recorder));
  }

  MultiChipResult result;
  result.chips.resize(n);

  std::vector<ChipTask> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks.push_back(ChipTask{chips[i].system, chips[i].controller,
                             &run_configs[i], &result.chips[i]});
  }

  // Wall-clock feeds MultiChipResult::wall_s (reporting only; every
  // simulated quantity is deterministic regardless).
  // lint: allow(nondeterminism): wall_s is observational fleet timing
  const auto t0 = std::chrono::steady_clock::now();
  {
    task::Runtime::Group group;
    for (ChipTask& t : tasks) runtime->submit(group, t);
    runtime->wait(group);  // rethrows the first chip failure
  }
  // lint: allow(nondeterminism): wall_s is observational fleet timing
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_s = std::chrono::duration<double>(t1 - t0).count();

  // Frame the fleet snapshot (chip order; assembled on this thread, after
  // the barrier, so the frame is deterministic byte-for-byte).
  if (config.snapshot_out != nullptr) {
    snapshot::Writer w;
    w.begin_section(kSnapshotMultiChipTag);
    w.u64(n);
    w.u64(config.snapshot_epoch);
    w.end_section();
    for (std::size_t i = 0; i < n; ++i) {
      w.begin_section(chip_section_tag(i));
      w.str(capture_blobs[i]);
      w.end_section();
    }
    *config.snapshot_out = std::move(w).finish();
  }

  // Deterministic chip-index-order fold of the fleet aggregates.
  for (const RunResult& r : result.chips) {
    result.total_epochs += r.epochs;
    result.total_instructions += r.total_instructions;
    result.total_energy_j += r.total_energy_j;
    result.otb_energy_j += r.otb_energy_j;
    result.mean_power_w += r.mean_power_w;
  }
  result.mean_power_w /= static_cast<double>(n);

  const task::RuntimeStats stats1 = runtime->stats();
  result.runtime_stats.tasks_executed =
      stats1.tasks_executed - stats0.tasks_executed;
  result.runtime_stats.overflows = stats1.overflows - stats0.overflows;
  result.runtime_stats.max_queue_depth = stats1.max_queue_depth;
  result.runtime_stats.worker_parks =
      stats1.worker_parks - stats0.worker_parks;
  result.runtime_stats.wait_parks = stats1.wait_parks - stats0.wait_parks;
  return result;
}

}  // namespace odrl::sim
