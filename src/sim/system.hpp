// The many-core system simulator: glues workload, performance, power and
// thermal models into an epoch-stepped machine.
//
// One call to step(levels) =
//   workload advances one epoch ->
//   each core retires instructions per the perf model at its level ->
//   per-core power per the power model at its level/activity/temperature ->
//   thermal network integrates over the epoch ->
//   sensors (optionally noisy) are packaged into an EpochResult.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include <optional>

#include "arch/chip_config.hpp"
#include "arch/variation.hpp"
#include "mem/dram_model.hpp"
#include "perf/perf_model.hpp"
#include "power/batch_power.hpp"
#include "power/power_model.hpp"
#include "sim/faults.hpp"
#include "sim/observation.hpp"
#include "telemetry/recorder.hpp"
#include "thermal/thermal_model.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace odrl::snapshot {
class Writer;
class Reader;
}  // namespace odrl::snapshot

namespace odrl::task {
class Runtime;
}

namespace odrl::sim {

struct SimConfig {
  double epoch_s = 1e-3;          ///< control epoch length (1 ms default)
  double sensor_noise_rel = 0.0;  ///< relative sigma of power/IPS sensors
  /// Seeds the per-core sensor-noise substreams. Core i's stream is a pure
  /// function of (seed, i): it does not depend on the chip's core count or
  /// on any other core's draws (see DESIGN.md "Threading model").
  std::uint64_t seed = 1;

  /// Must be 1: a chip's epoch is serial, and parallelism lives across
  /// chips (run_multichip) and sessions (service::Server). validate()
  /// refuses any other value. Kept only because the frozen perfbench/
  /// tree sets it; it goes with the next change to that benchmark.
  std::size_t threads = 1;

  // DVFS actuation cost (0 = ideal regulators, the default). When a core's
  // level changes between epochs, it stalls for `switch_penalty_s` of the
  // next epoch (PLL relock / voltage ramp) and the regulator transition
  // dissipates `switch_energy_j`. Both charge the *switching* core, so
  // controllers that thrash levels pay for it -- ablated in E7.
  double switch_penalty_s = 0.0;
  double switch_energy_j = 0.0;

  /// Shared-DRAM bandwidth contention (peak_gbps = 0 disables; default).
  mem::DramConfig dram;

  void validate() const;
};

class ManyCoreSystem {
 public:
  /// Takes ownership of the workload. workload->n_cores() must equal
  /// config.n_cores(). An optional VariationMap makes this a specific
  /// fabricated chip instance: every core's power/performance constants
  /// are perturbed per the map (controllers are not told -- they see only
  /// sensors, exactly as on real varied silicon).
  ManyCoreSystem(arch::ChipConfig config,
                 std::unique_ptr<workload::Workload> workload,
                 SimConfig sim = {},
                 std::optional<arch::VariationMap> variation = std::nullopt);

  /// Heterogeneous-chip constructor: explicit per-core parameters (one per
  /// core, e.g. from arch::striped_layout). The ChipConfig's nominal
  /// CoreParams is ignored in favour of these.
  ManyCoreSystem(arch::ChipConfig config,
                 std::unique_ptr<workload::Workload> workload, SimConfig sim,
                 std::vector<arch::CoreParams> per_core_params);

  /// Runs one epoch with the given per-core V/F levels (size n_cores, each
  /// a valid index into the chip's VfTable), writing the observation into
  /// `out`. Every field of `out` is overwritten; its buffers (the SoA core
  /// block) are reused across calls, so a caller that passes the same
  /// EpochResult each epoch performs zero steady-state heap allocations.
  void step_into(std::span<const std::size_t> levels, EpochResult& out);

  /// Snapshot hooks (see snapshot/snapshot.hpp): serialize/restore every
  /// mutable field of the simulated machine -- epoch counter, budget,
  /// switch-cost cache, thermal field, sensor-noise RNG streams and the
  /// workload position -- into the caller's open section. The restored
  /// system's step_into() stream is bit-identical to one that never
  /// stopped (the resume golden test's guarantee). The chip topology,
  /// models and variation map are construction-time inputs and are NOT
  /// serialized: load_state() must be called on a system built from the
  /// same configuration, and rejects shape mismatches with
  /// snapshot::SnapshotError(kDimensionMismatch).
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

  const arch::ChipConfig& config() const { return config_; }
  std::size_t n_cores() const { return config_.n_cores(); }
  double epoch_s() const noexcept { return sim_.epoch_s; }
  std::size_t epochs_run() const { return epoch_; }

  /// Current chip budget; the runner moves this on power-cap events.
  double budget_w() const noexcept { return budget_w_; }
  void set_budget_w(double budget_w);

  /// An idle width-1 runtime shared by every system in the process; its
  /// counters always read zero, because a chip's epoch submits no tasks.
  /// Kept only because the frozen perfbench/ tree reads its stats(); it
  /// goes with the next change to that benchmark.
  const task::Runtime& runtime() const;

  /// Attaches (nullptr detaches) a telemetry recorder; the runner wires
  /// this per run. The system only updates counters/gauges (level
  /// switches, DRAM pressure) from step()'s tail, after the per-core loop,
  /// so recording is deterministic and free when off.
  void set_recorder(telemetry::Recorder* recorder) { recorder_ = recorder; }

  /// Attaches (nullptr detaches) a fault engine; the runner wires this at
  /// the start of the measured region. With an engine attached, each
  /// step_into() advances the engine one epoch, routes the requested
  /// levels through its actuation faults, gates offline cores, filters
  /// the measured sensor columns, and scales the observed budget. With no
  /// engine (or an empty schedule) the step is bit-identical to an
  /// engine-free build. The engine must outlive its attachment and must
  /// have been built for this chip's core count.
  void set_fault_engine(FaultEngine* engine);
  FaultEngine* fault_engine() const noexcept { return faults_; }

  const thermal::ThermalModel& thermal() const { return thermal_; }
  const workload::Workload& workload() const { return *workload_; }
  /// Per-core models of this chip instance (index = core).
  const perf::PerfModel& perf_model(std::size_t core = 0) const;
  const power::PowerModel& power_model(std::size_t core = 0) const;
  const arch::VariationMap& variation() const { return variation_; }

 private:
  /// Applies core `core`'s sensor-noise substream to a true value.
  double noisy(std::size_t core, double value);

  /// (Re)builds the SoA batch power evaluator from power_'s per-core
  /// parameters; called whenever power_ is (re)populated.
  void rebuild_power_batch();

  arch::ChipConfig config_;
  std::unique_ptr<workload::Workload> workload_;
  SimConfig sim_;
  arch::VariationMap variation_;
  std::vector<perf::PerfModel> perf_;    ///< one per core (variation-aware)
  std::vector<power::PowerModel> power_;
  /// Columnized mirror of power_ for the vectorized epoch kernel
  /// (bit-identical results; see power/batch_power.hpp). Optional only
  /// because it is built after the per-core models.
  std::optional<power::BatchPowerModel> power_batch_;
  std::vector<double> power_scratch_;  ///< per-core batch power outputs
  thermal::ThermalModel thermal_;
  mem::DramModel dram_;
  /// One decorrelated noise substream per core, each a pure function of
  /// (sim.seed, core index) -- independent of the chip's core count.
  std::vector<util::Rng> noise_rngs_;
  std::vector<double> tile_power_;  ///< scratch, mesh-sized
  std::vector<std::size_t> prev_levels_;  ///< for switch-cost accounting
  bool have_prev_levels_ = false;
  double budget_w_;
  std::size_t epoch_ = 0;
  telemetry::Recorder* recorder_ = nullptr;  ///< non-owning, may be null
  FaultEngine* faults_ = nullptr;            ///< non-owning, may be null
  /// Post-actuation-fault levels (scratch; sized on engine attach).
  std::vector<std::size_t> applied_levels_;
};

}  // namespace odrl::sim
