#include "sim/system.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "sim/validate.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/state_io.hpp"
#include "task/runtime.hpp"
#include "util/check.hpp"

namespace odrl::sim {

namespace {
// Block sizes of the chip-level sums. Each sum folds its block's cores in
// index order, then folds the block partials in block order: that
// two-level tree is the golden summation order every committed digest
// was recorded with, so these constants are part of the digest contract.
constexpr std::size_t kSumBlock = 32;      ///< power and IPS sums
constexpr std::size_t kTrafficBlock = 64;  ///< DRAM traffic sum
}  // namespace

void SimConfig::validate() const {
  if (epoch_s <= 0.0) throw std::invalid_argument("SimConfig: epoch_s <= 0");
  if (threads != 1) {
    throw std::invalid_argument(
        "SimConfig: threads must be 1 (a chip steps serially)");
  }
  if (sensor_noise_rel < 0.0 || sensor_noise_rel > 0.5) {
    throw std::invalid_argument(
        "SimConfig: sensor_noise_rel must be in [0, 0.5]");
  }
  if (switch_penalty_s < 0.0 || switch_penalty_s >= epoch_s) {
    throw std::invalid_argument(
        "SimConfig: switch_penalty_s must be in [0, epoch_s)");
  }
  if (switch_energy_j < 0.0) {
    throw std::invalid_argument("SimConfig: switch_energy_j < 0");
  }
  dram.validate();
}

ManyCoreSystem::ManyCoreSystem(arch::ChipConfig config,
                               std::unique_ptr<workload::Workload> workload,
                               SimConfig sim,
                               std::optional<arch::VariationMap> variation)
    : config_(std::move(config)),
      workload_(std::move(workload)),
      sim_(sim),
      variation_(variation ? std::move(*variation)
                           : arch::VariationMap::none(config_.n_cores())),
      thermal_(config_.mesh(), config_.thermal()),
      dram_(sim.dram),
      tile_power_(config_.mesh().size(), 0.0),
      budget_w_(config_.tdp_w()) {
  sim_.validate();
  // Counter-based noise substreams: core i is seeded with the (i+1)-th
  // output of SplitMix64(seed), so its stream depends only on (seed, i) --
  // not on the chip's core count or the other cores' draws.
  noise_rngs_.reserve(config_.n_cores());
  util::SplitMix64 noise_seeder(sim_.seed);
  for (std::size_t i = 0; i < config_.n_cores(); ++i) {
    noise_rngs_.emplace_back(noise_seeder.next());
  }
  if (!workload_) throw std::invalid_argument("ManyCoreSystem: null workload");
  if (workload_->n_cores() != config_.n_cores()) {
    throw std::invalid_argument(
        "ManyCoreSystem: workload core count does not match chip");
  }
  if (variation_.n_cores() != config_.n_cores()) {
    throw std::invalid_argument(
        "ManyCoreSystem: variation map core count does not match chip");
  }
  perf_.reserve(config_.n_cores());
  power_.reserve(config_.n_cores());
  for (std::size_t i = 0; i < config_.n_cores(); ++i) {
    const arch::CoreParams params = variation_.apply(config_.core(), i);
    perf_.emplace_back(params);
    power_.emplace_back(params);
  }
  rebuild_power_batch();
  // Start thermals slightly warm rather than at ambient so the first
  // epochs are not unrealistically cool.
  thermal_.reset(config_.thermal().ambient_c + 5.0);
}

ManyCoreSystem::ManyCoreSystem(arch::ChipConfig config,
                               std::unique_ptr<workload::Workload> workload,
                               SimConfig sim,
                               std::vector<arch::CoreParams> per_core_params)
    : ManyCoreSystem(std::move(config), std::move(workload), sim) {
  if (per_core_params.size() != config_.n_cores()) {
    throw std::invalid_argument(
        "ManyCoreSystem: per-core params size does not match chip");
  }
  perf_.clear();
  power_.clear();
  for (const arch::CoreParams& params : per_core_params) {
    params.validate();
    perf_.emplace_back(params);
    power_.emplace_back(params);
  }
  rebuild_power_batch();
}

void ManyCoreSystem::rebuild_power_batch() {
  std::vector<arch::CoreParams> per_core;
  per_core.reserve(power_.size());
  for (const power::PowerModel& model : power_) {
    per_core.push_back(model.params());
  }
  power_batch_.emplace(per_core, config_.vf_table());
  power_scratch_.assign(power_.size(), 0.0);
}

double ManyCoreSystem::noisy(std::size_t core, double value) {
  if (sim_.sensor_noise_rel <= 0.0) return value;
  return std::max(
      0.0, value * (1.0 + noise_rngs_[core].gaussian(
                              0.0, sim_.sensor_noise_rel)));
}

const task::Runtime& ManyCoreSystem::runtime() const {
  static const task::Runtime idle(1);
  return idle;
}

void ManyCoreSystem::set_fault_engine(FaultEngine* engine) {
  if (engine != nullptr && engine->n_cores() != config_.n_cores()) {
    throw std::invalid_argument(
        "ManyCoreSystem::set_fault_engine: engine core count mismatch");
  }
  faults_ = engine;
  applied_levels_.resize(config_.n_cores());
}

void ManyCoreSystem::step_into(std::span<const std::size_t> levels,
                               EpochResult& out) {
  const std::size_t n = config_.n_cores();
  if (levels.size() != n) {
    throw std::invalid_argument("ManyCoreSystem::step: levels size mismatch");
  }
  const auto& vf = config_.vf_table();
  for (std::size_t level : levels) {
    if (level >= vf.size()) {
      throw std::invalid_argument("ManyCoreSystem::step: level out of range");
    }
  }

  // Contract: the borrowed levels span must not alias the SoA block we are
  // about to overwrite -- e.g. step_into(out.cores.level(), out) reads
  // levels the loop below has already clobbered.
  ODRL_VALIDATE(validate_levels_disjoint(levels, out));

  // Fault prologue (serial): advance the engine one epoch, route the
  // requested levels through its actuation faults, and pick up this
  // epoch's budget scaling. From here on `levels` are the *applied*
  // levels -- what the silicon physically runs at (and what switch-cost
  // accounting and the observation's level column report).
  double budget_factor = 1.0;
  if (faults_ != nullptr) {
    faults_->begin_epoch();
    faults_->apply_actuation(levels, applied_levels_);
    levels = applied_levels_;
    budget_factor = faults_->budget_factor();
  }

  const std::span<const workload::PhaseSample> samples = workload_->step();

  // Shared-memory contention: fixed point of the chip's aggregate miss
  // traffic against the queueing latency multiplier.
  double mem_scale = 1.0;
  double dram_util = 0.0;
  if (dram_.enabled()) {
    auto traffic_at = [&](double m) {
      double bytes_per_s = 0.0;
      for (std::size_t begin = 0; begin < n; begin += kTrafficBlock) {
        const std::size_t end = std::min(n, begin + kTrafficBlock);
        double block_bytes_per_s = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          // Power-gated cores issue no memory traffic.
          if (faults_ != nullptr && faults_->core_offline(i)) continue;
          const double ips =
              perf_[i].ips(samples[i], vf[levels[i]].freq_ghz, m);
          // lint: allow(raw-loop-reduction): golden order, in-block fold
          block_bytes_per_s +=
              ips * samples[i].mpki / 1000.0 * dram_.config().line_bytes;
        }
        // lint: allow(raw-loop-reduction): golden order, block partials
        bytes_per_s += block_bytes_per_s;
      }
      return bytes_per_s;
    };
    mem_scale = dram_.solve_multiplier(traffic_at);
    dram_util = dram_.utilization(traffic_at(mem_scale));
  }

  out.epoch = epoch_;
  out.epoch_s = sim_.epoch_s;
  out.budget_w = budget_w_ * budget_factor;
  out.mem_latency_mult = mem_scale;
  out.dram_utilization = dram_util;
  out.cores.resize(n);

  // SoA output columns; captured once, written per core in the loop.
  const std::span<std::size_t> out_level = out.cores.level();
  const std::span<double> out_ips = out.cores.ips();
  const std::span<double> out_instructions = out.cores.instructions();
  const std::span<double> out_power = out.cores.power_w();
  const std::span<double> out_true_power = out.cores.true_power_w();
  const std::span<double> out_stall = out.cores.mem_stall_frac();
  const std::span<double> out_temp = out.cores.temp_c();
  const std::span<std::uint8_t> out_online = out.cores.online();

  std::fill(tile_power_.begin(), tile_power_.end(), 0.0);

  // Batch power for every core (bit-identical to per-core core_power
  // calls). Offline cores' slots are computed and then overwritten with 0
  // below.
  power_batch_->core_power_into(0, n, levels, samples,
                                thermal_.temperatures(), power_scratch_);

  // Per-core perf/power/observation loop. The three chip sums fold per
  // kSumBlock block, then across blocks (the golden summation order).
  double chip_true_w = 0.0;
  double chip_meas_w = 0.0;
  double total_ips = 0.0;
  for (std::size_t begin = 0; begin < n; begin += kSumBlock) {
    const std::size_t end = std::min(n, begin + kSumBlock);
    double block_true_w = 0.0;
    double block_meas_w = 0.0;
    double block_ips = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      // Power-gated (hotplug-out) core: retires nothing, draws ~0 W,
      // sensors read zero. Its noise substream draws nothing this epoch
      // (no sensor, no sample).
      if (faults_ != nullptr && faults_->core_offline(i)) {
        out_level[i] = levels[i];
        out_ips[i] = 0.0;
        out_instructions[i] = 0.0;
        out_power[i] = 0.0;
        out_true_power[i] = 0.0;
        out_stall[i] = 0.0;
        out_temp[i] = thermal_.temperature(i);
        out_online[i] = 0;
        tile_power_[i] = 0.0;
        continue;
      }
      const arch::VfPoint& point = vf[levels[i]];
      const double temp = thermal_.temperature(i);
      auto ep =
          perf_[i].epoch(samples[i], point.freq_ghz, sim_.epoch_s, mem_scale);
      double true_w = power_scratch_[i];

      // DVFS actuation cost: a level change stalls the core and dissipates
      // regulator transition energy during this epoch.
      const bool switched = have_prev_levels_ && prev_levels_[i] != levels[i];
      if (switched) {
        const double run_frac = 1.0 - sim_.switch_penalty_s / sim_.epoch_s;
        ep.instructions *= run_frac;
        ep.ips *= run_frac;
        true_w += sim_.switch_energy_j / sim_.epoch_s;
      }

      // Sensor faults corrupt the *measured* readings only, after noise:
      // true_power_w and the chip's true aggregates always carry the
      // physical values.
      double meas_ips = noisy(i, ep.ips);
      double meas_w = noisy(i, true_w);
      if (faults_ != nullptr) {
        meas_ips = faults_->filter_ips(i, meas_ips);
        meas_w = faults_->filter_power(i, meas_w);
      }

      out_level[i] = levels[i];
      out_ips[i] = meas_ips;
      out_instructions[i] = ep.instructions;
      out_power[i] = meas_w;
      out_true_power[i] = true_w;
      out_stall[i] = ep.mem_stall_frac;
      out_temp[i] = temp;
      out_online[i] = 1;

      tile_power_[i] = true_w;
      // lint: allow(raw-loop-reduction): golden order, in-block fold
      block_true_w += true_w;
      // lint: allow(raw-loop-reduction): golden order, in-block fold
      block_meas_w += meas_w;
      // lint: allow(raw-loop-reduction): golden order, in-block fold
      block_ips += ep.ips;
    }
    // lint: allow(raw-loop-reduction): golden order, block partials
    chip_true_w += block_true_w;
    // lint: allow(raw-loop-reduction): golden order, block partials
    chip_meas_w += block_meas_w;
    // lint: allow(raw-loop-reduction): golden order, block partials
    total_ips += block_ips;
  }

  thermal_.step(tile_power_, sim_.epoch_s);

  out.chip_power_w = chip_meas_w;
  out.true_chip_power_w = chip_true_w;
  out.total_ips = total_ips;
  out.max_temp_c = thermal_.max_temperature();
  out.thermal_violations = thermal_.violation_count();

  // Telemetry (serial tail; nothing above may touch the recorder). Level
  // switches are counted against the previous epoch's levels before they
  // are overwritten.
  if (recorder_ && recorder_->active()) {
    std::uint64_t switches = 0;
    if (have_prev_levels_) {
      for (std::size_t i = 0; i < n; ++i) {
        if (prev_levels_[i] != levels[i]) ++switches;
      }
    }
    recorder_->counter("sim.epochs").add(1);
    recorder_->counter("sim.level_switches").add(switches);
    recorder_->counter("sim.thermal_violations").add(out.thermal_violations);
    if (dram_.enabled()) {
      recorder_->gauge("sim.dram_utilization").set(dram_util);
      recorder_->gauge("sim.mem_latency_mult").set(mem_scale);
    }
    if (faults_ != nullptr && faults_->any_active()) {
      recorder_->counter("sim.fault_epochs").add(1);
    }
  }

  prev_levels_.assign(levels.begin(), levels.end());
  have_prev_levels_ = true;
  ++epoch_;

  // Post-condition: the observation we hand to the controller satisfies
  // every shape and physical invariant (power finite and >= 0, levels in
  // the V/F table, SoA columns core-count long, chip sums consistent).
  // Active sensor faults, like noise, decouple total_ips from the
  // (corrupted) measured ips column.
  ODRL_VALIDATE(validate_epoch(
      out, n, vf.size(),
      sim_.sensor_noise_rel > 0.0 ||
          (faults_ != nullptr && faults_->any_sensor_fault())));
}

const perf::PerfModel& ManyCoreSystem::perf_model(std::size_t core) const {
  if (core >= perf_.size()) {
    throw std::out_of_range("ManyCoreSystem::perf_model: core out of range");
  }
  return perf_[core];
}

const power::PowerModel& ManyCoreSystem::power_model(std::size_t core) const {
  if (core >= power_.size()) {
    throw std::out_of_range("ManyCoreSystem::power_model: core out of range");
  }
  return power_[core];
}

void ManyCoreSystem::set_budget_w(double budget_w) {
  if (budget_w <= 0.0) {
    throw std::invalid_argument("ManyCoreSystem::set_budget_w: <= 0");
  }
  budget_w_ = budget_w;
}

void ManyCoreSystem::save_state(snapshot::Writer& w) const {
  w.u64(epoch_);
  w.f64(budget_w_);
  w.u8(have_prev_levels_ ? 1 : 0);
  w.u64(prev_levels_.size());
  for (std::size_t level : prev_levels_) w.u64(level);
  const std::vector<double>& temps = thermal_.temperatures();
  w.u64(temps.size());
  for (double t : temps) w.f64(t);
  w.u64(noise_rngs_.size());
  for (const util::Rng& rng : noise_rngs_) snapshot::save_rng(w, rng);
  workload_->save_state(w);
}

void ManyCoreSystem::load_state(snapshot::Reader& r) {
  using snapshot::SnapshotError;
  using snapshot::SnapshotStatus;
  epoch_ = r.u64();
  const double budget = r.f64();
  if (!std::isfinite(budget) || budget <= 0.0) {
    throw SnapshotError(SnapshotStatus::kBadValue,
                        "system budget must be finite and > 0");
  }
  budget_w_ = budget;
  const bool have_prev = r.u8() != 0;
  const std::uint64_t n_prev = r.u64();
  if (n_prev != 0 && n_prev != config_.n_cores()) {
    throw SnapshotError(SnapshotStatus::kDimensionMismatch,
                        "prev-levels count does not match core count");
  }
  prev_levels_.resize(n_prev);
  const std::size_t n_levels = config_.vf_table().size();
  for (std::size_t& level : prev_levels_) {
    const std::uint64_t v = r.u64();
    if (v >= n_levels) {
      throw SnapshotError(SnapshotStatus::kBadValue,
                          "prev level indexes past the V/F table");
    }
    level = static_cast<std::size_t>(v);
  }
  have_prev_levels_ = have_prev;
  const std::uint64_t n_temps = r.u64();
  if (n_temps != thermal_.size()) {
    throw SnapshotError(SnapshotStatus::kDimensionMismatch,
                        "thermal field size does not match the mesh");
  }
  std::vector<double> temps(n_temps);
  for (double& t : temps) {
    t = r.f64();
    if (!std::isfinite(t)) {
      throw SnapshotError(SnapshotStatus::kNonFinite,
                          "thermal field holds a non-finite temperature");
    }
  }
  thermal_.set_temperatures(temps);
  const std::uint64_t n_rngs = r.u64();
  if (n_rngs != noise_rngs_.size()) {
    throw SnapshotError(SnapshotStatus::kDimensionMismatch,
                        "noise-stream count does not match core count");
  }
  for (util::Rng& rng : noise_rngs_) snapshot::load_rng(r, rng);
  workload_->load_state(r);
}

}  // namespace odrl::sim
