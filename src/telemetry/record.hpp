// The telemetry event schema: typed records describing one closed-loop run.
//
// Every record is a plain value struct -- no behaviour, no pointers -- so a
// sink can copy, buffer, serialize or drop it freely. The schema is shared
// with the sim layer: sim::RunResult's per-epoch trace *is* a vector of
// EpochRecord (sim::EpochTrace aliases it), which keeps the in-memory trace
// and every exported trace format describing the same quantities.
//
// Determinism contract (see DESIGN.md "Telemetry"): records are emitted from
// the run loop's thread only, in epoch order, and carry no wall-clock
// timestamps other than the decide() latency they explicitly measure.
// Recording never perturbs the run -- RunResults are bit-identical with
// telemetry on or off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace odrl::telemetry {

/// Identifies a run to the sinks (emitted once, before the first epoch).
struct RunInfo {
  std::string controller;     ///< Controller::name() of the policy under test
  std::size_t n_cores = 0;
  std::size_t epochs = 0;     ///< measured epochs the run will execute
  double epoch_s = 0.0;       ///< control epoch length in seconds
  /// Session identity for fleet runs (ChipSpec::tag under run_multichip);
  /// empty for standalone runs, and sinks omit it when empty so untagged
  /// output stays byte-identical to the pre-tag format.
  std::string tag;
};

/// Chip-level per-epoch record: the quantities every experiment plots.
/// Power fields distinguish the measured (sensor, possibly noisy) and true
/// values -- controllers only ever saw the former, evaluation uses the
/// latter.
struct EpochRecord {
  std::uint64_t epoch = 0;
  double budget_w = 0.0;            ///< TDP budget in force this epoch
  double chip_power_w = 0.0;        ///< measured (sensor) total chip power
  double true_chip_power_w = 0.0;   ///< noise-free total chip power
  double total_ips = 0.0;           ///< chip instructions per second
  double max_temp_c = 0.0;          ///< hottest tile this epoch
  std::uint32_t thermal_violations = 0;
  double decide_s = 0.0;            ///< wall time of this epoch's decide()
};

/// Per-core per-epoch record (optional: RecorderConfig::per_core).
struct CoreRecord {
  std::uint64_t epoch = 0;
  std::uint32_t core = 0;
  std::uint32_t level = 0;          ///< V/F level the core ran at
  double ips = 0.0;                 ///< measured instructions per second
  double power_w = 0.0;             ///< measured core power
  double temp_c = 0.0;              ///< junction temperature
  double mem_stall_frac = 0.0;      ///< stall-cycle fraction
};

/// OD-RL coarse-grain event: one global budget reallocation, with the
/// controller-internal signals the paper's convergence story is told in.
struct ReallocRecord {
  std::uint64_t epoch = 0;
  std::uint64_t index = 0;          ///< 0-based reallocation counter
  double mu = 0.0;                  ///< overcommit multiplier after the move
  double mean_reward = 0.0;         ///< mean agent reward, last epoch
  double epsilon = 0.0;             ///< exploration rate (core 0's schedule)
  double chip_budget_w = 0.0;       ///< real (not virtual) chip budget
  /// Per-core budget snapshot after the damped move. Reallocations are rare
  /// (every realloc_period epochs), so carrying the full vector is cheap.
  std::vector<double> core_budgets;
};

/// A power-cap event reached a controller (runner schedule or external).
struct BudgetChangeRecord {
  std::uint64_t epoch = 0;
  double budget_w = 0.0;            ///< new chip budget
};

/// The runner hot-swapped the live controller (RunConfig::swaps). Stamped
/// with the system's epoch counter, like every event record.
struct ControllerSwapRecord {
  std::uint64_t epoch = 0;
  std::string from;                 ///< name of the controller replaced
  std::string to;                   ///< name of the controller now active
};

// ---------------------------------------------------------------- metrics

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

/// Fixed-bin histogram snapshot. counts.size() == upper_edges.size() + 1:
/// bin i < edges.size() covers [edges[i-1], edges[i]) (first bin reaches
/// down to -inf), the final bin is the overflow [edges.back(), +inf).
struct HistogramSample {
  std::string name;
  std::vector<double> upper_edges;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;          ///< total observations
  double sum = 0.0;                 ///< sum of observed values
};

/// Everything the Recorder's named metrics held at end_run, name-sorted so
/// sinks see a deterministic order.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

}  // namespace odrl::telemetry
