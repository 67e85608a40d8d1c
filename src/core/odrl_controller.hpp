// OD-RL: On-line Distributed Reinforcement Learning DVFS controller.
// The paper's primary contribution (Chen & Marculescu, DATE 2015).
//
// Two timescales:
//
//  * Fine grain -- every control epoch, each core's tabular TD agent observes
//    (budget-headroom bin, memory-intensity bin) -- plus the current V/F
//    level in absolute-action mode -- picks a V/F action, and learns from a
//    reward that pays for normalized throughput and charges for exceeding
//    the core's *local* power budget. Entirely model-free: only sensor
//    readings enter the state and reward.
//
//  * Coarse grain -- every `realloc_period` epochs, the global reallocator
//    (budget_realloc.hpp) re-divides the chip TDP among cores by observed
//    marginal utility, in O(n).
//
// The decide_into() path is O(n) table lookups per epoch with zero heap
// allocations in steady state, which is what the scalability experiment
// (E5) measures against global-optimization baselines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "arch/chip_config.hpp"
#include "core/budget_realloc.hpp"
#include "rl/agent.hpp"
#include "rl/discretizer.hpp"
#include "sim/controller.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace odrl::core {

/// How agent actions map to V/F levels.
///
/// In kRelative mode the state deliberately *excludes* the current level:
/// the power-headroom ratio already carries the decision-relevant signal,
/// and a level-free state lets what is learned at one level transfer to all
/// others -- an order-of-magnitude convergence win that on-line control
/// needs. kAbsolute keeps the level in the state (the action "go to level
/// k" is only meaningful relative to where the core is).
enum class ActionMode {
  kRelative,  ///< 3 actions: step down / hold / step up (default; small
              ///< action space converges fast and bounds V/F slew, matching
              ///< inductive-noise constraints on real parts)
  kAbsolute,  ///< one action per table level (bigger space, more agile)
};

struct OdrlConfig {
  rl::TdConfig td;                   ///< TD rule, gamma, schedules
  ActionMode action_mode = ActionMode::kRelative;
  /// Bins for power/cap ratio over [0, 2]. Even counts put a bin edge
  /// exactly at ratio 1.0, so the penalized and unpenalized sides of the
  /// cap never alias into one state.
  std::size_t headroom_bins = 10;
  std::size_t mem_bins = 5;          ///< memory-stall-fraction bins
  double lambda = 5.0;               ///< overshoot penalty weight in reward
  /// Weight of the frequency-shaping reward term kappa * f/f_max. The
  /// attainment term's per-level gradient collapses for memory-bound
  /// phases (IPS barely moves with f), dropping below sensor/workload
  /// noise -- the policy then drifts instead of filling its allocation.
  /// The shaping term restores a uniform "prefer the highest level your
  /// budget affords" gradient; the overshoot penalty still dominates at
  /// the cap (lambda >> kappa).
  double kappa = 0.2;

  /// Optional thermal-aware reward (extension; 0 = off, the paper's
  /// configuration). When the core's junction temperature exceeds
  /// `thermal_safe_c`, the reward is charged thermal_weight per 20C of
  /// excess -- agents then trade frequency for temperature headroom on hot
  /// tiles even when their power budget would allow more.
  double thermal_weight = 0.0;
  double thermal_safe_c = 85.0;
  /// Penalty boundary as a fraction of the core's budget. 1.0: agents are
  /// charged only past their full allocation; the bin-quantized policy
  /// already keeps a natural safety margin below the boundary (it stops
  /// one level early rather than risk the cliff), so a second explicit
  /// margin here just wastes budget.
  double target_utilization = 1.0;
  std::size_t realloc_period = 50;   ///< coarse-grain period (epochs)
  bool global_realloc = true;        ///< ablation switch (E7)
  ReallocConfig realloc;             ///< reallocator tuning
  double ema_alpha = 0.25;           ///< sensor smoothing for reallocation
  /// Blend factor for budget moves: new = (1-b)*old + b*target. Damps the
  /// budget<->power feedback loop so per-core caps are quasi-stationary
  /// between workload phase changes (agents can only learn against a
  /// stable cap).
  double budget_blend = 0.5;

  // --- chip-level overcommit loop ---
  // Bin-quantized agents park a safety margin below their allocation, so a
  // partition summing exactly to the TDP fills the chip to only ~70%. The
  // coarse-grain level therefore distributes a *virtual* budget
  // mu * TDP and adapts mu by slow integral feedback so measured chip power
  // tracks `target_fill` of the TDP. Individual discipline still comes from
  // the per-core caps; mu moves slowly (once per reallocation) and is
  // clamped, so a sudden workload surge can cause at most a brief, small
  // chip-level overshoot -- the residual the paper's "98% less overshoot"
  // is measured over.
  double target_fill = 0.93;      ///< desired chip power / TDP
  double overcommit_gain = 0.8;   ///< mu step per unit of normalized error
  double overcommit_min = 0.90;
  double overcommit_max = 2.00;
  std::uint64_t seed = 7;            ///< exploration stream seed

  void validate() const;
};

class OdrlController final : public sim::Controller {
 public:
  OdrlController(const arch::ChipConfig& chip, OdrlConfig config = {});

  std::string name() const override;
  std::vector<std::size_t> initial_levels(std::size_t n_cores) override;
  void decide_into(const sim::EpochResult& obs,
                   std::span<std::size_t> out) override;
  void on_budget_change(double new_budget_w) override;
  void reset() override;

  /// Snapshot hooks (see snapshot/snapshot.hpp): serialize/restore every
  /// field decide_into carries across epochs -- each core's agent (table,
  /// exploration clock, update count), the exploration RNG streams, the
  /// per-core budgets and sensor EMAs, the previous (s, a) bookkeeping,
  /// the offline latches and the overcommit loop. Configuration and table
  /// shape are construction-time inputs: load_state() must be called on a
  /// controller built with the same configuration and rejects shape
  /// mismatches with snapshot::SnapshotError(kDimensionMismatch).
  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

  // -- Policy persistence (warm start) --
  /// Serializes every core's learned Q-table as a single-section binary
  /// snapshot (one 'POLI' section; see snapshot/snapshot.hpp). A
  /// warm-started controller skips the cold-start ramp E6 measures.
  void save_policy(std::ostream& out) const;
  /// Restores tables saved by save_policy; core count and table shape must
  /// match this controller's configuration. Anything but a snapshot frame
  /// throws snapshot::SnapshotError(kBadMagic).
  void load_policy(std::istream& in);

  // -- Introspection (examples, tests, convergence experiment) --
  const rl::TdAgent& agent(std::size_t core) const;
  std::span<const double> core_budgets() const { return budgets_; }
  /// Mean reward over the last decided epoch.
  double last_mean_reward() const { return last_mean_reward_; }
  std::size_t realloc_count() const { return realloc_count_; }
  /// Current virtual-budget multiplier (overcommit loop state).
  double overcommit_mu() const { return mu_; }
  const OdrlConfig& config() const { return config_; }
  /// The state id core `core` visited in the last epoch.
  std::size_t last_state(std::size_t core) const;

 private:
  std::size_t n_actions() const;
  std::size_t encode_state(double headroom_ratio, double mem_stall,
                           std::size_t level) const;
  std::size_t apply_action(std::size_t level, std::size_t action) const;
  /// Scalar inputs (straight off the SoA columns, no CoreObservation
  /// temporaries on the hot path).
  double reward(double power_w, double mem_stall_frac, std::size_t level,
                double temp_c, double core_budget_w) const;
  /// Fraction of this phase's attainable (f_max) throughput the core
  /// achieved, in (0, 1]: a stationary, counter-derived normalizer.
  double attainment(double mem_stall_frac, std::size_t level) const;

  /// One TD-loop block [begin, end): the fused per-core act/learn/
  /// bookkeeping loop, returning the block's reward partial.
  double td_block(const sim::EpochResult& obs, std::span<std::size_t> out,
                  std::size_t begin, std::size_t end);

  OdrlConfig config_;
  std::size_t n_cores_;
  std::size_t n_levels_;
  rl::Discretizer headroom_disc_;
  rl::Discretizer mem_disc_;
  rl::StateSpace states_;
  std::vector<rl::TdAgent> agents_;
  std::vector<util::Rng> rngs_;

  std::vector<double> budgets_;          ///< current per-core budgets
  std::vector<util::Ema> power_ema_;     ///< smoothed per-core power
  std::vector<util::Ema> sens_ema_;      ///< smoothed frequency sensitivity
  double chip_budget_w_;

  // Reusable scratch (decide_into performs zero steady-state allocations).
  std::vector<CoreDemand> demands_;        ///< reallocation inputs
  std::vector<double> realloc_target_;     ///< reallocation outputs
  std::vector<double> realloc_scratch_;    ///< reallocator internal scratch

  // Previous-epoch transition bookkeeping (s, a) per core.
  std::vector<std::size_t> prev_state_;
  std::vector<std::size_t> prev_action_;
  bool have_prev_ = false;
  /// 1 while a core sat out the previous epoch offline (hotplug fault):
  /// its (s, a) bookkeeping is stale, so the TD update across the gap is
  /// suppressed when the core returns. All-zero in fault-free runs.
  std::vector<std::uint8_t> was_offline_;

  // Frequencies of the V/F table (GHz), used to normalize the reward's
  // throughput term against what the current phase could attain at f_max.
  std::vector<double> level_freq_ghz_;

  double last_mean_reward_ = 0.0;
  std::size_t realloc_count_ = 0;
  std::size_t epochs_seen_ = 0;

  // Overcommit state.
  double mu_ = 1.0;                  ///< virtual-budget multiplier
  util::Ema chip_power_ema_{0.08};   ///< smoothed measured chip power
};

}  // namespace odrl::core
