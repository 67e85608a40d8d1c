// The closed-loop driver: runs a Controller against a ManyCoreSystem for a
// number of epochs, times every decide() call (the scalability experiment's
// measured quantity), applies scheduled power-cap events, and accumulates
// the traces and energy totals the metrics layer consumes.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sim/controller.hpp"
#include "sim/controller_registry.hpp"
#include "sim/faults.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/record.hpp"
#include "telemetry/recorder.hpp"

namespace odrl::sim {

// -- Run snapshot sections (see snapshot/snapshot.hpp for the framing) --
//
// A run snapshot is one versioned blob with four sections, captured at the
// top of measured epoch RunConfig::snapshot_epoch, *before* that epoch's
// swap and budget events are processed:
//
//   RUNR -- the runner's own bookkeeping: the measured epoch, event/swap
//           cursors, the level double-buffer and watchdog latches.
//   SYST -- ManyCoreSystem::save_state (thermal field, RNG streams,
//           workload position, ...).
//   FLTE -- FaultEngine::save_state, present only when the run had a fault
//           schedule.
//   CTRL -- the active controller's name() followed by its save_state
//           payload.
//
// Resuming (RunConfig::resume_snapshot) on a freshly constructed
// system/controller pair built from the same configuration continues the
// run bit-identically to one that never stopped -- the resume golden
// test's guarantee.
inline constexpr std::uint32_t kSnapshotRunnerTag =
    snapshot::section_tag("RUNR");
inline constexpr std::uint32_t kSnapshotSystemTag =
    snapshot::section_tag("SYST");
inline constexpr std::uint32_t kSnapshotFaultTag =
    snapshot::section_tag("FLTE");
inline constexpr std::uint32_t kSnapshotControllerTag =
    snapshot::section_tag("CTRL");

/// One measured epoch of a run: the typed trace record. This *is* the
/// telemetry schema's chip-level record -- RunResult::trace and every
/// exported trace (CSV/JSONL) describe identical quantities, by
/// construction.
using EpochTrace = telemetry::EpochRecord;

/// At `epoch`, the chip budget becomes `budget_w` (rack-level power-cap or
/// thermal-event emulation).
struct BudgetEvent {
  std::size_t epoch = 0;
  double budget_w = 0.0;
};

/// At measured epoch `epoch` (same clock as BudgetEvent), the live
/// controller is replaced: a fresh instance of `controller` is built
/// through the ControllerRegistry with `overrides`, told the budget in
/// force, optionally seeded from a snapshot's CTRL section, and takes over
/// from the current operating point (the levels the outgoing controller
/// last decided keep driving the chip; initial_levels is not consulted).
/// The swap is recorded in RunResult::swaps and, when telemetry is on, as
/// a controller_swap event.
struct SwapEvent {
  std::size_t epoch = 0;
  std::string controller;
  ControllerOverrides overrides;
  /// Optional run snapshot whose CTRL section warm-starts the incoming
  /// controller (nullptr = cold start). The section's recorded name must
  /// match the incoming controller or the swap throws
  /// snapshot::SnapshotError(kBadValue). Non-owning; must outlive the run.
  const std::string* seed_snapshot = nullptr;
};

/// Graceful-degradation policy: a per-core fallback to the safe static
/// level (safe_uniform_level of the budget in force) when the controller
/// misbehaves. Two triggers:
///
///  * an out-of-range decided level -- sanitized to the safe level
///    immediately and that core enters fallback (any build mode; in
///    ODRL_CHECKED builds this fires *before* validate_levels would
///    throw, so a flaky controller degrades instead of aborting the run);
///  * `violation_epochs` consecutive epochs with measured chip power
///    above budget * (1 + violation_margin) while the fault engine
///    reports active faults -- every core enters fallback (the
///    controller's inputs are compromised chip-wide).
///
/// A core holds the safe level for `hold_epochs` epochs, then control is
/// handed back to the controller. Entries/exits/epochs are counted in
/// RunResult and the run's telemetry. While every core sits in fallback,
/// worst-case provisioning keeps chip power under the budget (the
/// bench_e12 acceptance property).
struct WatchdogConfig {
  bool enabled = false;
  std::size_t violation_epochs = 3;
  double violation_margin = 0.02;
  std::size_t hold_epochs = 50;

  void validate() const;
};

struct RunConfig {
  std::size_t epochs = 1000;
  /// Epochs run before measurement starts. The closed loop executes
  /// normally during warmup (controllers learn, budgets settle) but
  /// nothing is accumulated into the RunResult. Steady-state comparisons
  /// use this so a learning controller's ramp and a static controller's
  /// instant start are compared on the same (converged) footing; set to 0
  /// to measure the ramp itself (convergence experiment E6).
  std::size_t warmup_epochs = 0;
  /// Budget-change schedule, sorted by epoch. Event epochs count from the
  /// start of the *measured* region: an event at epoch e takes effect
  /// before measured epoch e runs. Events at epoch 0 describe the budget
  /// in force when measurement starts, so they are applied *before*
  /// warmup -- warmup must learn under the budget the measured region will
  /// be evaluated against, not under the default TDP.
  std::vector<BudgetEvent> budget_events;
  bool keep_traces = true;  ///< record per-epoch chip traces

  /// 0 or 1; validate() refuses a wider request, because a chip steps
  /// serially (parallelism lives across chips in run_multichip). Kept
  /// only because the frozen perfbench/ tree sets it; it goes with the
  /// next change to that benchmark.
  std::size_t threads = 0;

  /// Optional telemetry recorder (non-owning; must outlive the run). The
  /// runner threads it through the system and controller, emits per-epoch
  /// records, decide()-latency histograms and budget events, and detaches
  /// it when the run ends. Recording is purely observational: RunResults
  /// are bit-identical with and without a recorder.
  telemetry::Recorder* recorder = nullptr;

  /// Optional fault schedule (non-owning; must outlive the run). The
  /// runner builds a FaultEngine from it and attaches the engine at the
  /// start of the *measured* region -- fault-event epochs count from
  /// measured epoch 0, mirroring budget_events -- and detaches it at run
  /// end. A null (or empty) schedule leaves the run bit-identical to one
  /// with no fault plumbing at all.
  const FaultSchedule* faults = nullptr;

  /// Controller hot-swap schedule, sorted by epoch (measured clock, like
  /// budget_events). Swaps with epoch <= e are processed at the top of
  /// measured epoch e, before that epoch's budget events.
  std::vector<SwapEvent> swaps;

  /// Snapshot capture: when `snapshot_out` is non-null, the runner
  /// serializes the full run state into it at the top of measured epoch
  /// `snapshot_epoch` (before that epoch's swap/budget events). The
  /// capture allocates; it is an event epoch, excluded from the
  /// steady-state zero-allocation contract.
  std::size_t snapshot_epoch = 0;
  std::string* snapshot_out = nullptr;

  /// Resume: when non-null, the run restores from this blob instead of
  /// starting fresh. The system and controller passed to run_closed_loop
  /// must be freshly constructed from the same configuration as the run
  /// that captured the snapshot (same chip, workload and schedules);
  /// warmup and epoch-0 budget pre-application are skipped and the
  /// measured loop continues from the captured epoch. Malformed or
  /// mismatched blobs throw snapshot::SnapshotError. Non-owning; must
  /// outlive the call.
  const std::string* resume_snapshot = nullptr;

  /// Controller watchdog (off by default; see WatchdogConfig).
  WatchdogConfig watchdog;

  /// Telemetry session identity, forwarded into RunInfo::tag (and from
  /// there into sink filenames/records). run_multichip sets it from
  /// ChipSpec::tag; empty means "untagged standalone run".
  std::string session_tag;

  void validate() const;
};

/// Everything a run produced. Power/energy figures use *true* (noise-free)
/// power: sensors may lie to the controller but never to the evaluation.
/// A controller hot-swap the run performed (RunResult::swaps); the same
/// record the telemetry stream carries.
using SwapTrace = telemetry::ControllerSwapRecord;

/// A/B report for one controller hot-swap: budget-compliance aggregates
/// over the measured epochs immediately before the swap (back to the
/// previous swap, or the start of the measured region) and immediately
/// after it (up to the next swap, or the end of the run). Overshoot is
/// judged the way the energy accountant judges it: *true* chip power
/// against the budget observed in force that epoch.
struct SwapImpact {
  std::size_t epoch = 0;        ///< system clock, matches SwapTrace
  std::string from;             ///< outgoing controller
  std::string to;               ///< incoming controller
  std::size_t epochs_before = 0;
  std::size_t epochs_after = 0;
  /// Mean of max(0, true_power - budget) over the segment, in watts.
  double mean_overshoot_w_before = 0.0;
  double mean_overshoot_w_after = 0.0;
  /// Fraction of the segment's epochs with true power above budget.
  double violation_frac_before = 0.0;
  double violation_frac_after = 0.0;

  /// Negative = the swap reduced overshoot / violations.
  double delta_mean_overshoot_w() const {
    return mean_overshoot_w_after - mean_overshoot_w_before;
  }
  double delta_violation_frac() const {
    return violation_frac_after - violation_frac_before;
  }
};

struct RunResult {
  std::string controller_name;
  std::size_t epochs = 0;
  double epoch_s = 0.0;
  /// First measured epoch this result covers: 0 for a fresh run, the
  /// captured epoch when resumed from a snapshot (the result then
  /// aggregates the resumed tail only).
  std::size_t start_epoch = 0;
  /// Controller hot-swaps performed, in order (epochs on the system clock,
  /// like `trace`).
  std::vector<SwapTrace> swaps;
  /// Pre/post budget-compliance aggregates, one per performed swap
  /// (swap_report[i] describes swaps[i]). Computed from in-run segment
  /// accumulators, so it is available even with keep_traces = false.
  std::vector<SwapImpact> swap_report;

  double total_instructions = 0.0;
  double total_energy_j = 0.0;
  double otb_energy_j = 0.0;      ///< energy above budget (integral)
  double time_over_s = 0.0;       ///< wall time spent above budget
  double peak_overshoot_w = 0.0;  ///< worst instantaneous overshoot
  double mean_power_w = 0.0;
  double decision_time_s = 0.0;   ///< cumulative wall time inside decide()
  std::size_t decisions = 0;
  std::size_t thermal_violation_epochs = 0;

  // -- Fault-injection & graceful-degradation accounting (all zero when
  //    no schedule / watchdog is configured) --
  std::size_t fault_events_applied = 0;     ///< schedule events activated
  std::size_t watchdog_invalid_decisions = 0;  ///< levels sanitized
  std::size_t watchdog_fallback_entries = 0;   ///< per-core entries
  std::size_t watchdog_fallback_exits = 0;     ///< per-core exits
  std::size_t watchdog_fallback_epochs = 0;    ///< epochs with any core
                                               ///< held at the safe level

  /// Per-epoch typed records (RunConfig::keep_traces), measured region
  /// only: trace[i] is measured epoch i. The records' .epoch field carries
  /// the *system's* epoch counter (which keeps counting through warmup), so
  /// trace records and controller events share one clock in exported
  /// telemetry.
  std::vector<EpochTrace> trace;

  // -- Compatibility accessors over `trace` (materialize one column) --
  /// True (noise-free) chip watts per epoch.
  std::vector<double> chip_power_trace() const;
  /// Budget in force per epoch.
  std::vector<double> budget_trace() const;
  /// Chip IPS per epoch.
  std::vector<double> ips_trace() const;
  /// Hottest tile per epoch.
  std::vector<double> max_temp_trace() const;

  double elapsed_s() const { return static_cast<double>(epochs) * epoch_s; }
  /// Mean chip throughput in billions of instructions per second.
  double bips() const;
  /// Energy efficiency: throughput per watt (BIPS/W).
  double bips_per_watt() const;
  /// ED^2-style efficiency: BIPS^3/W, the voltage-scaling-fair metric.
  double bips3_per_watt() const;
  /// Fraction of run time spent over budget.
  double overshoot_time_fraction() const;
  /// Mean decide() latency in microseconds.
  double mean_decision_us() const;
};

/// Runs the closed loop. The controller's initial_levels() seeds epoch 0;
/// afterwards each decide() output drives the next epoch.
RunResult run_closed_loop(ManyCoreSystem& system, Controller& controller,
                          const RunConfig& config);

}  // namespace odrl::sim
