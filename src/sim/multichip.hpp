// Multi-chip fleet simulation: N independent chips -- each its own
// ManyCoreSystem, controller, fault schedule and RNG substreams -- stepped
// concurrently as whole-run tasks on ONE shared task runtime
// (task/runtime.hpp). Chips never interact physically; what they share is
// the worker fleet. Each chip's epoch runs serially on whichever worker
// claimed its task, so the chip is the unit of parallelism.
//
// Determinism: every chip's run is bit-identical to running it alone
// (run_closed_loop touches only that chip's state, in a fixed order), and
// results/aggregates are assembled in chip-index order on the calling
// thread after all chips complete. A fleet run is therefore bit-identical
// across worker counts and scheduling jitter.
//
// Snapshot frame (see DESIGN.md "Task runtime & multi-chip fleets"):
// a multi-chip snapshot is one versioned blob with an MCHD header section
// (chip count + capture epoch) followed by one CHnn section per chip, each
// embedding that chip's standard single-run snapshot (RUNR/SYST/FLTE/CTRL)
// as an opaque string. Resuming re-validates the chip count and hands each
// chip its own embedded blob, so a resumed fleet continues bit-identically
// to one that never stopped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/controller_registry.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "task/runtime.hpp"

namespace odrl::sim {

/// Multi-chip snapshot header section: u64 chip count, u64 capture epoch.
inline constexpr std::uint32_t kSnapshotMultiChipTag =
    snapshot::section_tag("MCHD");

/// FourCC tag of chip `chip`'s embedded-run section: "CH00".."CH99".
/// Throws std::out_of_range for chip >= 100 (the two-digit namespace).
std::uint32_t chip_section_tag(std::size_t chip);

/// One chip of a fleet: non-owning system/controller plus that chip's run
/// configuration, validated before any chip starts. `config`'s
/// snapshot fields must likewise be unset when the *fleet-level* snapshot
/// fields of MultiChipConfig are used (the frame owns every chip's blob).
struct ChipSpec {
  ManyCoreSystem* system = nullptr;
  Controller* controller = nullptr;
  RunConfig config;
  /// Telemetry/reporting label; empty = "chip<index>".
  std::string tag;
};

struct MultiChipConfig {
  /// Worker threads of the shared runtime (0 = hardware concurrency).
  /// Ignored when `runtime` is provided.
  std::size_t workers = 1;
  /// Optional externally owned runtime shared with other fleets; null =
  /// run_multichip builds a private one of width `workers`.
  std::shared_ptr<task::Runtime> runtime;

  /// Fleet snapshot capture: when `snapshot_out` is non-null, every chip
  /// captures at measured epoch `snapshot_epoch` and the per-chip blobs
  /// are framed into one MCHD + CHnn multi-chip snapshot.
  std::size_t snapshot_epoch = 0;
  std::string* snapshot_out = nullptr;
  /// Fleet resume: a blob produced by a snapshot_out capture. Chip count
  /// must match or run_multichip throws
  /// snapshot::SnapshotError(kDimensionMismatch). Non-owning.
  const std::string* resume_snapshot = nullptr;

  /// Per-chip telemetry sessions. When non-empty, every chip WITHOUT its
  /// own RunConfig::recorder gets a fleet-owned recorder writing to
  /// `<telemetry_dir>/<sanitized tag>.<csv|jsonl>` (tag defaults to
  /// "chip<%02zu index>"; characters outside [A-Za-z0-9._-] become '_').
  /// Chips that do carry their own recorder keep it -- only the session
  /// tag is threaded into their records. Duplicate sanitized filenames
  /// throw std::invalid_argument before any chip starts.
  std::string telemetry_dir;
  enum class TelemetryFormat { kCsv, kJsonl };
  TelemetryFormat telemetry_format = TelemetryFormat::kCsv;

  void validate(std::span<const ChipSpec> chips) const;
};

/// The effective session tag of chip `index` (spec.tag, or the
/// "chip<%02zu>" default) and its sanitized sink filename stem. Exposed
/// for tests and fleet monitors that need to locate a chip's sink file.
std::string chip_session_tag(const ChipSpec& spec, std::size_t index);
std::string sanitize_session_tag(const std::string& tag);

struct MultiChipResult {
  /// Per-chip results, chip-index order (chips[i] ran specs[i]).
  std::vector<RunResult> chips;
  /// Fleet-wide runtime counter deltas over this run (overflows, parks,
  /// ...). Observational; approximate if `runtime` was shared with
  /// concurrent work outside this fleet.
  task::RuntimeStats runtime_stats;
  double wall_s = 0.0;

  // Chip-index-ordered aggregates (deterministic fold, see above).
  std::size_t total_epochs = 0;  ///< sum of per-chip measured epochs
  double total_instructions = 0.0;
  double total_energy_j = 0.0;
  double otb_energy_j = 0.0;
  /// Mean of per-chip mean powers (fleets are homogeneous in epoch count
  /// in the common case; per-chip figures remain in `chips`).
  double mean_power_w = 0.0;
  /// Fleet throughput in billions of instructions per second: total
  /// instructions over the longest chip's simulated time.
  double bips() const;
};

/// Runs every chip's closed loop concurrently on one runtime and returns
/// per-chip results plus deterministic fleet aggregates. Throws the first
/// chip failure (in scheduling order) after all chips have settled;
/// validation errors throw before any chip starts.
MultiChipResult run_multichip(std::span<ChipSpec> chips,
                              const MultiChipConfig& config = {});

/// Per-chip seed fork: draw `chip` of stream `stream` from `root`, a pure
/// function of (root, stream, chip) -- fleet size never shifts a chip's
/// streams, and distinct streams (sim / workload / controller) never
/// alias. Fleet uses streams 0/1/2; exposed for tests and out-of-tree
/// fleet builders.
std::uint64_t fleet_chip_seed(std::uint64_t root, std::size_t chip,
                              std::uint64_t stream);

/// Convenience builder for a homogeneous fleet: `chips` identical chips
/// (same core count, budget fraction, controller type, epoch schedule)
/// whose seeds are forked per chip from one root via fleet_chip_seed, so
/// chip i's workload/sensor/exploration streams are a pure function of
/// (seed, i) -- independent of fleet size and of every other chip.
///
/// Fleet goes through the ControllerRegistry front door, so like
/// make_controller() it is *defined in libodrl_registry* (the layer that
/// links every controller library): link the umbrella `odrl` target, or
/// `odrl_registry`, to use it. run_multichip itself has no such
/// dependency.
struct FleetConfig {
  std::size_t chips = 2;
  std::size_t cores = 64;
  double budget_fraction = 0.6;
  std::string controller = "OD-RL";
  ControllerOverrides overrides;  ///< applied to every chip (seed is
                                  ///< overridden per chip after copy)
  std::size_t epochs = 200;
  std::size_t warmup_epochs = 0;
  std::uint64_t seed = 1;  ///< root seed; per-chip substreams forked
  double sensor_noise_rel = 0.0;
  bool keep_traces = true;
  /// Optional fault schedule applied to every chip (non-owning; each chip
  /// builds its own engine from it, so sharing the schedule is safe).
  const FaultSchedule* faults = nullptr;

  void validate() const;
};

class Fleet {
 public:
  explicit Fleet(const FleetConfig& config);

  std::size_t size() const { return specs_.size(); }
  std::span<ChipSpec> specs() { return specs_; }
  ManyCoreSystem& system(std::size_t chip) { return *systems_.at(chip); }
  Controller& controller(std::size_t chip) { return *controllers_.at(chip); }
  const FleetConfig& config() const { return config_; }

  /// Rebuilds chip `chip`'s system and controller from the same
  /// configuration (fresh construction is the snapshot-resume
  /// precondition; see RunConfig::resume_snapshot).
  void rebuild_chip(std::size_t chip);

 private:
  FleetConfig config_;
  std::vector<std::unique_ptr<ManyCoreSystem>> systems_;
  std::vector<std::unique_ptr<Controller>> controllers_;
  std::vector<ChipSpec> specs_;
};

}  // namespace odrl::sim
