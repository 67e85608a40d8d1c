// Deterministic, schedule-driven fault injection for the closed loop.
//
// A FaultSchedule is a sorted list of FaultEvents -- sensor dropout
// (stuck-at-zero / stuck-at-last / saturated per-core IPS and power
// readings), delayed or dropped V/F actuation, transient chip-budget
// steps, and core offline/online (hotplug). A FaultEngine replays a
// schedule against a running ManyCoreSystem: the runner attaches one at
// the start of the measured region and the system consults it each
// step_into().
//
// Determinism contract (PR-1): every engine mutation happens either in
// the step's serial prologue (begin_epoch, apply_actuation) or in
// per-core slots touched only by that core's loop iteration (the sensor
// filters and their stuck-at-last state), so fault runs are deterministic
// and resume bit-identically. random_storm() draws each core's fault stream
// from a SplitMix64 substream that is a pure function of (seed, core) --
// the generated schedule never depends on core iteration order.
//
// Sensor faults corrupt only *measured* readings (the ips / power_w
// columns); true_power_w and the energy accounting always see the
// physical truth -- sensors may lie to the controller, never to the
// evaluation. Offline cores are power-gated: they retire nothing, draw
// ~0 W, and are flagged in the observation's `online` column so
// controllers can mask them out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "arch/chip_config.hpp"
#include "sim/observation.hpp"

namespace odrl::snapshot {
class Writer;
class Reader;
}  // namespace odrl::snapshot

namespace odrl::sim {

/// Marks a chip-wide event (budget steps) in FaultEvent::core.
inline constexpr std::size_t kChipWide = static_cast<std::size_t>(-1);

enum class FaultKind : std::uint8_t {
  kSensorStuckZero,  ///< core's IPS/power sensors read 0
  kSensorStuckLast,  ///< sensors freeze at the last pre-fault reading
  kSensorSaturate,   ///< sensors scale by `magnitude` (e.g. 10 = pegged)
  kActuationDelay,   ///< applied V/F level lags the request by
                     ///< `magnitude` epochs (regulator lag)
  kActuationDrop,    ///< level requests are lost; last applied level holds
  kBudgetStep,       ///< chip budget scales by `magnitude` (rack event)
  kCoreOffline,      ///< core power-gated (hotplug out, back at expiry)
};

/// Human-readable kind name (the text format's kind column).
const char* fault_kind_name(FaultKind kind);

/// One scheduled fault. `epoch` counts from engine attach (the runner
/// attaches at the start of the measured region, so epoch 0 is the first
/// measured epoch). The fault is active for epochs [epoch, epoch +
/// duration). `core` is a core index, or kChipWide for budget steps.
/// `magnitude` is kind-specific: the sensor-saturate scale, the actuation
/// delay in epochs, or the budget factor; unused otherwise.
struct FaultEvent {
  std::size_t epoch = 0;
  FaultKind kind = FaultKind::kSensorStuckZero;
  std::size_t core = 0;
  std::size_t duration = 1;
  double magnitude = 0.0;
};

/// Knobs for random_storm(): per-epoch per-core injection probabilities
/// (all independent Bernoulli draws from the core's substream) and event
/// shape ranges. The defaults make a dense but survivable storm.
struct StormConfig {
  double sensor_rate = 0.002;     ///< per core-epoch, any sensor fault
  double actuation_rate = 0.001;  ///< per core-epoch, delay or drop
  double offline_rate = 0.0005;   ///< per core-epoch, hotplug-out
  double budget_rate = 0.002;     ///< per epoch, chip-wide budget step
  std::size_t min_duration = 5;
  std::size_t max_duration = 40;
  std::size_t max_delay_epochs = 4;
  double min_budget_factor = 0.7;  ///< budget steps scale within
  double max_budget_factor = 1.0;  ///< [min, max] of the nominal budget
  double max_saturate_scale = 10.0;

  void validate() const;
};

/// An ordered fault schedule: programmatic builder + text serialization.
class FaultSchedule {
 public:
  FaultSchedule() = default;

  // -- Builder (each returns *this for chaining) --
  FaultSchedule& sensor_stuck_zero(std::size_t epoch, std::size_t core,
                                   std::size_t duration);
  FaultSchedule& sensor_stuck_last(std::size_t epoch, std::size_t core,
                                   std::size_t duration);
  FaultSchedule& sensor_saturate(std::size_t epoch, std::size_t core,
                                 std::size_t duration, double scale);
  FaultSchedule& actuation_delay(std::size_t epoch, std::size_t core,
                                 std::size_t duration,
                                 std::size_t delay_epochs);
  FaultSchedule& actuation_drop(std::size_t epoch, std::size_t core,
                                std::size_t duration);
  FaultSchedule& budget_step(std::size_t epoch, std::size_t duration,
                             double factor);
  FaultSchedule& core_offline(std::size_t epoch, std::size_t core,
                              std::size_t duration);
  FaultSchedule& add(const FaultEvent& event);

  const std::vector<FaultEvent>& events() const noexcept { return events_; }
  bool empty() const noexcept { return events_.empty(); }
  std::size_t size() const noexcept { return events_.size(); }

  /// Throws std::invalid_argument unless every event is well-formed for a
  /// chip with `n_cores` cores: core indices in range (or kChipWide for
  /// budget steps only), durations > 0, magnitudes finite and positive
  /// where the kind consumes one.
  void validate(std::size_t n_cores) const;

  /// Deterministic storm generator: each core's fault stream is drawn
  /// from a SplitMix64 substream seeded as a pure function of
  /// (seed, core); the chip-wide budget stream uses the substream after
  /// the last core. The result is sorted by (epoch, core, kind).
  static FaultSchedule random_storm(std::size_t n_cores, std::size_t epochs,
                                    std::uint64_t seed,
                                    const StormConfig& storm = {});

 private:
  std::vector<FaultEvent> events_;  ///< kept sorted by epoch (stable)
};

// -- Text serialization, in the spirit of workload/trace_io --
//
//   # odrl-faults v1
//   epoch,kind,core,duration,magnitude
//   10,sensor_stuck_zero,3,25,0
//   40,budget_step,*,30,0.7
//
// `core` is `*` for chip-wide events. Parse errors throw
// std::runtime_error with the offending line quoted.
void save_fault_schedule(const FaultSchedule& schedule, std::ostream& out);
FaultSchedule load_fault_schedule(std::istream& in);
void save_fault_schedule_file(const FaultSchedule& schedule,
                              const std::string& path);
FaultSchedule load_fault_schedule_file(const std::string& path);

/// Activation counts by family, for telemetry and RunResult.
struct FaultCounts {
  std::size_t sensor = 0;
  std::size_t actuation = 0;
  std::size_t budget = 0;
  std::size_t hotplug = 0;
  std::size_t total() const noexcept {
    return sensor + actuation + budget + hotplug;
  }
};

/// Replays a FaultSchedule against a running system. All state is
/// preallocated at construction; begin_epoch()/apply_actuation() run in
/// the step's serial prologue and the filter_*() hooks touch only
/// core-private slots, so attaching an engine keeps runs deterministic
/// (and never allocates on the epoch path).
class FaultEngine {
 public:
  /// Validates the schedule against `n_cores` and sizes all state.
  FaultEngine(const FaultSchedule& schedule, std::size_t n_cores);

  std::size_t n_cores() const noexcept { return n_cores_; }
  std::size_t epochs_run() const noexcept { return epoch_; }

  /// Serial prologue, once per step: expires elapsed faults, activates
  /// the schedule's events for this engine epoch, refreshes the offline
  /// mask and budget factor. Must be called before any other query for
  /// the epoch.
  void begin_epoch();

  /// Serial: records the controller's requested levels and writes the
  /// physically applied levels (identity, delayed via per-core history
  /// ring, or held at the last applied level). Spans must be n_cores
  /// long and may not alias.
  void apply_actuation(std::span<const std::size_t> requested,
                       std::span<std::size_t> applied);

  /// Is core `i` power-gated this epoch?
  bool core_offline(std::size_t i) const noexcept {
    return offline_[i] != 0;
  }

  /// Multiplier on the chip budget this epoch (1.0 = no budget fault).
  double budget_factor() const noexcept { return budget_factor_; }

  /// Any fault (of any kind) active this epoch? The watchdog's
  /// "under active faults" predicate.
  bool any_active() const noexcept { return active_count_ > 0; }
  /// Any sensor fault active this epoch? validate_epoch's measured-vs-
  /// true aggregate identities are relaxed while sensors lie.
  bool any_sensor_fault() const noexcept { return sensor_active_ > 0; }

  /// Per-core sensor filters, called from the per-core epoch loop. Each
  /// touches only core i's stuck-at-last slot.
  double filter_ips(std::size_t i, double measured);
  double filter_power(std::size_t i, double measured);

  const FaultCounts& counts() const noexcept { return counts_; }

  /// Snapshot hooks: serialize/restore the replay position and every
  /// per-core fault latch (schedule cursor, active modes and expiries,
  /// stuck-at-last memories, the actuation history ring, budget steps,
  /// counters) into the caller's open section. The schedule itself is a
  /// construction-time input: load_state() must be called on an engine
  /// built from the same schedule and core count, and rejects shape
  /// mismatches with snapshot::SnapshotError(kDimensionMismatch).
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  enum class SensorMode : std::uint8_t { kNone, kZero, kLast, kSaturate };
  enum class ActMode : std::uint8_t { kNone, kDelay, kDrop };

  void activate(const FaultEvent& event);

  std::size_t n_cores_ = 0;
  std::vector<FaultEvent> events_;  ///< sorted by epoch
  std::size_t next_event_ = 0;
  std::size_t epoch_ = 0;  ///< engine epoch (counts begin_epoch calls)

  // Per-core fault state. A fault activated at epoch e with duration d is
  // active for engine epochs [e, e + d): `*_until_[i]` stores e + d.
  std::vector<SensorMode> sensor_mode_;
  std::vector<std::size_t> sensor_until_;
  std::vector<double> sensor_scale_;
  std::vector<ActMode> act_mode_;
  std::vector<std::size_t> act_until_;
  std::vector<std::size_t> act_delay_;
  std::vector<std::size_t> offline_until_;
  std::vector<std::uint8_t> offline_;  ///< refreshed by begin_epoch

  // Stuck-at-last sensor memory: the last value each core's sensor
  // *reported* while healthy (per-core slots, written only by core i).
  std::vector<double> last_ips_;
  std::vector<double> last_power_;

  // Actuation history ring: requested levels for the last
  // (max_delay + 1) epochs, and the level physically applied last epoch.
  std::size_t history_depth_ = 1;
  std::size_t history_head_ = 0;  ///< slot the *next* request lands in
  std::size_t history_size_ = 0;  ///< epochs recorded so far (<= depth)
  std::vector<std::size_t> history_;  ///< [depth][n_cores], row-major
  std::vector<std::size_t> last_applied_;
  bool have_last_applied_ = false;

  // Active chip-wide budget steps (at most the schedule's budget-event
  // count; preallocated).
  struct ActiveBudget {
    std::size_t until = 0;
    double factor = 1.0;
  };
  std::vector<ActiveBudget> active_budgets_;
  std::size_t n_active_budgets_ = 0;
  double budget_factor_ = 1.0;

  std::size_t active_count_ = 0;   ///< faults active this epoch
  std::size_t sensor_active_ = 0;  ///< sensor faults active this epoch
  FaultCounts counts_;
};

/// The highest uniform V/F level whose *worst-case* chip power (every
/// core at activity 1.0 and the junction-temperature limit, nominal core
/// parameters) fits under `budget_w` -- level 0 if none does. This is the
/// static-provisioning level (the Static baseline) and the watchdog's
/// per-core fallback level: holding every core at it keeps chip power
/// under the budget for any workload the models can produce.
std::size_t safe_uniform_level(const arch::ChipConfig& chip, double budget_w);

}  // namespace odrl::sim
