#include "core/odrl_controller.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "rl/qtable_io.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/state_io.hpp"
#include "sim/controller_registry.hpp"
#include "sim/validate.hpp"
#include "telemetry/recorder.hpp"
#include "util/check.hpp"

namespace odrl::core {

void OdrlConfig::validate() const {
  td.validate();
  realloc.validate();
  if (headroom_bins < 2) {
    throw std::invalid_argument("OdrlConfig: headroom_bins < 2");
  }
  if (mem_bins < 1) throw std::invalid_argument("OdrlConfig: mem_bins < 1");
  if (lambda < 0.0) throw std::invalid_argument("OdrlConfig: lambda < 0");
  if (kappa < 0.0) throw std::invalid_argument("OdrlConfig: kappa < 0");
  if (thermal_weight < 0.0) {
    throw std::invalid_argument("OdrlConfig: thermal_weight < 0");
  }
  if (target_utilization <= 0.0 || target_utilization > 1.0) {
    throw std::invalid_argument("OdrlConfig: target_utilization in (0, 1]");
  }
  if (realloc_period == 0) {
    throw std::invalid_argument("OdrlConfig: realloc_period == 0");
  }
  if (ema_alpha <= 0.0 || ema_alpha > 1.0) {
    throw std::invalid_argument("OdrlConfig: ema_alpha in (0, 1]");
  }
  if (budget_blend <= 0.0 || budget_blend > 1.0) {
    throw std::invalid_argument("OdrlConfig: budget_blend in (0, 1]");
  }
  if (target_fill <= 0.0 || target_fill > 1.0) {
    throw std::invalid_argument("OdrlConfig: target_fill in (0, 1]");
  }
  if (overcommit_gain < 0.0) {
    throw std::invalid_argument("OdrlConfig: overcommit_gain < 0");
  }
  if (overcommit_min < 0.5 || overcommit_max < overcommit_min) {
    throw std::invalid_argument("OdrlConfig: bad overcommit clamp range");
  }
}

namespace {
std::vector<std::size_t> state_dims(const OdrlConfig& config,
                                    std::size_t n_levels) {
  if (config.action_mode == ActionMode::kAbsolute) {
    return {config.headroom_bins, config.mem_bins, n_levels};
  }
  return {config.headroom_bins, config.mem_bins};
}

/// Block size of the reward sum: each block's rewards fold in core order,
/// then the block partials fold in block order. That tree is the golden
/// summation order the committed digests were recorded with.
constexpr std::size_t kRewardBlock = 32;

/// Relative tolerance for detecting a *real* budget move in the observed
/// chip budget. on_budget_change rescales every per-core allocation, so
/// treating sub-ulp rounding differences as a move would re-trigger a
/// (slightly lossy) rescale every epoch.
constexpr double kBudgetRelTol = 1e-9;

bool budget_moved(double observed_w, double current_w) {
  return std::abs(observed_w - current_w) >
         kBudgetRelTol * std::max(std::abs(observed_w), std::abs(current_w));
}
}  // namespace

OdrlController::OdrlController(const arch::ChipConfig& chip, OdrlConfig config)
    : config_(config),
      n_cores_(chip.n_cores()),
      n_levels_(chip.vf_table().size()),
      headroom_disc_(0.0, 2.0, config.headroom_bins),
      mem_disc_(0.0, 1.0, config.mem_bins),
      states_(state_dims(config, chip.vf_table().size())),
      chip_budget_w_(chip.tdp_w()) {
  config_.validate();
  util::Rng root(config_.seed);
  agents_.reserve(n_cores_);
  rngs_.reserve(n_cores_);
  for (std::size_t i = 0; i < n_cores_; ++i) {
    agents_.emplace_back(states_.size(), n_actions(), config_.td);
    rngs_.push_back(root.fork());
  }
  budgets_.assign(n_cores_, chip_budget_w_ / static_cast<double>(n_cores_));
  power_ema_.assign(n_cores_, util::Ema(config_.ema_alpha));
  sens_ema_.assign(n_cores_, util::Ema(config_.ema_alpha));
  prev_state_.assign(n_cores_, 0);
  prev_action_.assign(n_cores_, 0);
  was_offline_.assign(n_cores_, 0);
  level_freq_ghz_.reserve(n_levels_);
  for (const auto& point : chip.vf_table().points()) {
    level_freq_ghz_.push_back(point.freq_ghz);
  }
}

std::string OdrlController::name() const { return "OD-RL"; }

std::size_t OdrlController::n_actions() const {
  return config_.action_mode == ActionMode::kRelative ? 3 : n_levels_;
}

std::vector<std::size_t> OdrlController::initial_levels(std::size_t n_cores) {
  if (n_cores != n_cores_) {
    throw std::invalid_argument("OdrlController: core count mismatch");
  }
  // Start mid-table: low enough that a fair budget share is safe, high
  // enough that the climb to the learned operating point is short.
  return std::vector<std::size_t>(n_cores_, n_levels_ / 2);
}

std::size_t OdrlController::encode_state(double headroom_ratio,
                                         double mem_stall,
                                         std::size_t level) const {
  if (config_.action_mode == ActionMode::kAbsolute) {
    const std::size_t coords[3] = {headroom_disc_.bin(headroom_ratio),
                                   mem_disc_.bin(mem_stall), level};
    return states_.encode(coords);
  }
  const std::size_t coords[2] = {headroom_disc_.bin(headroom_ratio),
                                 mem_disc_.bin(mem_stall)};
  return states_.encode(coords);
}

std::size_t OdrlController::apply_action(std::size_t level,
                                         std::size_t action) const {
  if (config_.action_mode == ActionMode::kAbsolute) {
    return std::min(action, n_levels_ - 1);
  }
  // Relative: 0 = down, 1 = hold, 2 = up.
  switch (action) {
    case 0:
      return level == 0 ? 0 : level - 1;
    case 1:
      return level;
    case 2:
      return std::min(level + 1, n_levels_ - 1);
    default:
      throw std::logic_error("OdrlController: bad relative action");
  }
}

double OdrlController::attainment(double mem_stall_frac,
                                  std::size_t level) const {
  // From the observed stall fraction s at frequency f, the linear CPI-stack
  // identity gives IPS(f_max)/IPS(f) = r / ((1-s) + s*r) with r = f_max/f.
  // Both s and f come from counters, so this stays model-free in the
  // paper's sense (no fitted power/perf model).
  const double s = std::clamp(mem_stall_frac, 0.0, 1.0);
  const double r = level_freq_ghz_.back() / level_freq_ghz_[level];
  const double gain_to_max = r / ((1.0 - s) + s * r);
  return 1.0 / gain_to_max;
}

double OdrlController::reward(double power_w, double mem_stall_frac,
                              std::size_t level, double temp_c,
                              double core_budget_w) const {
  // Normalized throughput term in (0, 1]: fraction of the attainable
  // throughput for this phase (stationary across phases and levels), plus
  // the frequency-shaping term (see OdrlConfig::kappa).
  const double perf =
      attainment(mem_stall_frac, level) +
      config_.kappa * level_freq_ghz_[level] / level_freq_ghz_.back();
  // Overshoot term: charged when the core exceeds target_utilization of its
  // allocation -- agents learn to hold a safety margin *below* the line,
  // which is where the near-zero chip-level overshoot comes from.
  const double cap = config_.target_utilization * core_budget_w;
  double penalty = 0.0;
  if (cap > 0.0 && power_w > cap) {
    penalty = (power_w - cap) / cap;
  }
  double thermal = 0.0;
  if (config_.thermal_weight > 0.0 && temp_c > config_.thermal_safe_c) {
    thermal =
        config_.thermal_weight * (temp_c - config_.thermal_safe_c) / 20.0;
  }
  return perf - config_.lambda * penalty - thermal;
}

void OdrlController::decide_into(const sim::EpochResult& obs,
                                 std::span<std::size_t> out) {
  if (obs.cores.size() != n_cores_ || out.size() != n_cores_) {
    throw std::invalid_argument("OdrlController::decide: size mismatch");
  }
  // Contract: the out-span we are about to fill from the TD loop must not
  // alias the observation columns that same loop reads.
  ODRL_VALIDATE(sim::validate_out_span(obs, out));

  // Track budget moved by the runner (power-cap events reach us through
  // on_budget_change, but the observation carries it too; trust the obs).
  // Compared with a relative tolerance: after a rescale, rounding noise in
  // an externally recomputed budget must not re-trigger the rescale.
  if (obs.budget_w > 0.0 && budget_moved(obs.budget_w, chip_budget_w_)) {
    on_budget_change(obs.budget_w);
  }

  // SoA input columns, read directly (no CoreObservation temporaries).
  const std::span<const std::size_t> obs_level = obs.cores.level();
  const std::span<const double> obs_power = obs.cores.power_w();
  const std::span<const double> obs_stall = obs.cores.mem_stall_frac();
  const std::span<const std::uint8_t> obs_online = obs.cores.online();

  // Smooth the reallocation inputs. Offline (power-gated) cores are
  // masked out: their zeroed sensors are gating artifacts, not demand
  // signals, and must not decay the EMAs they resume with.
  for (std::size_t i = 0; i < n_cores_; ++i) {
    if (obs_online[i] == 0) continue;
    power_ema_[i].update(obs_power[i]);
    sens_ema_[i].update(1.0 - obs_stall[i]);
  }

  // Coarse grain: budget reallocation against the virtual (overcommitted)
  // budget, with mu adapted so measured chip power tracks the fill target.
  chip_power_ema_.update(obs.chip_power_w);
  ++epochs_seen_;
  if (config_.global_realloc && epochs_seen_ % config_.realloc_period == 0) {
    const double fill_error =
        (config_.target_fill * chip_budget_w_ - chip_power_ema_.value()) /
        chip_budget_w_;
    mu_ = std::clamp(mu_ + config_.overcommit_gain * fill_error,
                     config_.overcommit_min, config_.overcommit_max);
    demands_.resize(n_cores_);
    for (std::size_t i = 0; i < n_cores_; ++i) {
      // An offline core presents zero demand and can never raise: the
      // reallocator migrates its share to cores that can spend it (it
      // still receives the floor fraction -- watts parked, not minted).
      const bool online = obs_online[i] != 0;
      demands_[i].power_w = online ? power_ema_[i].value() : 0.0;
      demands_[i].sensitivity = online ? sens_ema_[i].value() : 0.0;
      demands_[i].budget_w = budgets_[i];
      demands_[i].can_raise = online && obs_level[i] + 1 < n_levels_;
    }
    realloc_target_.resize(n_cores_);
    reallocate_budget_into(demands_, mu_ * chip_budget_w_, config_.realloc,
                           realloc_target_, realloc_scratch_);
    // Contract: reallocation conserves watts -- the target partition sums
    // to the virtual chip budget and every share is positive.
    ODRL_VALIDATE(
        sim::validate_budget_partition(realloc_target_, mu_ * chip_budget_w_));
    // Damped move toward the target keeps per-core caps quasi-stationary.
    const double beta = config_.budget_blend;
    for (std::size_t i = 0; i < n_cores_; ++i) {
      budgets_[i] = (1.0 - beta) * budgets_[i] + beta * realloc_target_[i];
    }
    ++realloc_count_;

    // Contract: no agent's table has been poisoned by a non-finite TD
    // update since the last coarse-grain move (checked at the realloc
    // cadence -- a full table scan per epoch would dominate checked runs).
#ifdef ODRL_CHECKED
    for (std::size_t i = 0; i < n_cores_; ++i) {
      ODRL_CHECK(agents_[i].table().all_finite(),
                 "non-finite Q-value in core " + std::to_string(i) +
                     "'s table");
    }
#endif

    // Telemetry: one event per coarse-grain move, carrying the
    // controller-internal signals (mu, mean reward, exploration rate, the
    // post-move budget partition). Serial section; pure observation.
    if (recorder_ && recorder_->active()) {
      telemetry::ReallocRecord event;
      event.epoch = obs.epoch;
      event.index = realloc_count_ - 1;
      event.mu = mu_;
      event.mean_reward = last_mean_reward_;
      event.epsilon = agents_.front().epsilon();
      event.chip_budget_w = chip_budget_w_;
      event.core_budgets = budgets_;
      recorder_->record_realloc(event);
      recorder_->counter("odrl.reallocs").add(1);
      recorder_->gauge("odrl.mu").set(mu_);
      recorder_->gauge("odrl.epsilon").set(event.epsilon);
      recorder_->gauge("odrl.mean_reward").set(last_mean_reward_);
    }
  }

  // Fine grain: per-core TD step. Each core owns its agent, exploration
  // stream and bookkeeping slots; the reward sum folds per kRewardBlock
  // block (the golden summation order).
  double reward_sum = 0.0;
  for (std::size_t begin = 0; begin < n_cores_; begin += kRewardBlock) {
    const std::size_t end = std::min(n_cores_, begin + kRewardBlock);
    // lint: allow(raw-loop-reduction): golden order, block partials
    reward_sum += td_block(obs, out, begin, end);
  }
  if (have_prev_) {
    last_mean_reward_ = reward_sum / static_cast<double>(n_cores_);
  }
  have_prev_ = true;
}

double OdrlController::td_block(const sim::EpochResult& obs,
                                std::span<std::size_t> out,
                                std::size_t begin, std::size_t end) {
  const std::span<const std::size_t> obs_level = obs.cores.level();
  const std::span<const double> obs_power = obs.cores.power_w();
  const std::span<const double> obs_stall = obs.cores.mem_stall_frac();
  const std::span<const double> obs_temp = obs.cores.temp_c();
  const std::span<const std::uint8_t> obs_online = obs.cores.online();
  double local_sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    // A power-gated core sits out the TD loop entirely: no action (its
    // exploration stream draws nothing), no learning from its zeroed
    // sensors, level held for its return. The was_offline_ flag also
    // suppresses the update *across* the gap -- the stored (s, a) predate
    // the outage.
    if (obs_online[i] == 0) {
      was_offline_[i] = 1;
      out[i] = obs_level[i];
      continue;
    }
    // Headroom relative to the *penalized* cap, so ratio 1.0 (a bin edge)
    // is exactly where the reward turns negative.
    const double cap = config_.target_utilization * budgets_[i];
    const double ratio = cap > 0.0 ? obs_power[i] / cap : 2.0;
    const std::size_t state = encode_state(ratio, obs_stall[i], obs_level[i]);

    // Select the next action first so SARSA can learn on-policy from the
    // action actually taken; Q-learning ignores it (max-bootstrap).
    const std::size_t action = agents_[i].act(state, rngs_[i]);
    if (have_prev_ && was_offline_[i] == 0) {
      const double r = reward(obs_power[i], obs_stall[i], obs_level[i],
                              obs_temp[i], budgets_[i]);
      local_sum += r;
      agents_[i].learn(prev_state_[i], prev_action_[i], r, state, action);
    }
    prev_state_[i] = state;
    prev_action_[i] = action;
    was_offline_[i] = 0;
    out[i] = apply_action(obs_level[i], action);
  }
  return local_sum;
}

void OdrlController::on_budget_change(double new_budget_w) {
  if (new_budget_w <= 0.0) {
    throw std::invalid_argument("OdrlController: budget <= 0");
  }
  // Rescale allocations immediately so agents see the new headroom next
  // epoch instead of waiting out the reallocation period.
  const double scale = new_budget_w / chip_budget_w_;
  for (double& b : budgets_) b *= scale;
  chip_budget_w_ = new_budget_w;
}

void OdrlController::reset() {
  for (auto& agent : agents_) agent.reset();
  for (auto& ema : power_ema_) ema.reset();
  for (auto& ema : sens_ema_) ema.reset();
  std::fill(budgets_.begin(), budgets_.end(),
            chip_budget_w_ / static_cast<double>(n_cores_));
  have_prev_ = false;
  std::fill(was_offline_.begin(), was_offline_.end(), 0);
  last_mean_reward_ = 0.0;
  realloc_count_ = 0;
  epochs_seen_ = 0;
  mu_ = 1.0;
  chip_power_ema_.reset();
}

void OdrlController::save_state(snapshot::Writer& w) const {
  w.u64(n_cores_);
  for (std::size_t i = 0; i < n_cores_; ++i) {
    agents_[i].save_state(w);
    snapshot::save_rng(w, rngs_[i]);
    w.f64(budgets_[i]);
    snapshot::save_ema(w, power_ema_[i]);
    snapshot::save_ema(w, sens_ema_[i]);
    w.u64(prev_state_[i]);
    w.u64(prev_action_[i]);
    w.u8(was_offline_[i]);
  }
  w.f64(chip_budget_w_);
  w.u8(have_prev_ ? 1 : 0);
  w.f64(last_mean_reward_);
  w.u64(realloc_count_);
  w.u64(epochs_seen_);
  w.f64(mu_);
  snapshot::save_ema(w, chip_power_ema_);
}

void OdrlController::load_state(snapshot::Reader& r) {
  const std::uint64_t cores = r.u64();
  if (cores != n_cores_) {
    throw snapshot::SnapshotError(
        snapshot::SnapshotStatus::kDimensionMismatch,
        "OD-RL snapshot is for " + std::to_string(cores) +
            " cores, controller has " + std::to_string(n_cores_));
  }
  for (std::size_t i = 0; i < n_cores_; ++i) {
    agents_[i].load_state(r);
    snapshot::load_rng(r, rngs_[i]);
    const double budget = r.f64();
    if (!std::isfinite(budget) || budget <= 0.0) {
      throw snapshot::SnapshotError(snapshot::SnapshotStatus::kBadValue,
                                    "per-core budget must be finite > 0");
    }
    budgets_[i] = budget;
    snapshot::load_ema(r, power_ema_[i]);
    snapshot::load_ema(r, sens_ema_[i]);
    const std::uint64_t state = r.u64();
    if (state >= states_.size()) {
      throw snapshot::SnapshotError(snapshot::SnapshotStatus::kBadValue,
                                    "previous state id out of range");
    }
    prev_state_[i] = static_cast<std::size_t>(state);
    const std::uint64_t action = r.u64();
    if (action >= n_actions()) {
      throw snapshot::SnapshotError(snapshot::SnapshotStatus::kBadValue,
                                    "previous action id out of range");
    }
    prev_action_[i] = static_cast<std::size_t>(action);
    was_offline_[i] = snapshot::load_bool(r, "was_offline") ? 1 : 0;
  }
  const double chip_budget = r.f64();
  if (!std::isfinite(chip_budget) || chip_budget <= 0.0) {
    throw snapshot::SnapshotError(snapshot::SnapshotStatus::kBadValue,
                                  "chip budget must be finite > 0");
  }
  chip_budget_w_ = chip_budget;
  have_prev_ = snapshot::load_bool(r, "have_prev");
  const double mean_reward = r.f64();
  if (!std::isfinite(mean_reward)) {
    throw snapshot::SnapshotError(snapshot::SnapshotStatus::kNonFinite,
                                  "last mean reward must be finite");
  }
  last_mean_reward_ = mean_reward;
  realloc_count_ = static_cast<std::size_t>(r.u64());
  epochs_seen_ = static_cast<std::size_t>(r.u64());
  const double mu = r.f64();
  if (!std::isfinite(mu) || mu <= 0.0) {
    throw snapshot::SnapshotError(snapshot::SnapshotStatus::kBadValue,
                                  "overcommit multiplier must be finite > 0");
  }
  mu_ = mu;
  snapshot::load_ema(r, chip_power_ema_);
}

namespace {
/// The 'POLI' section tag of the policy artifact (warm-start tables).
constexpr std::uint32_t kPolicySectionTag = snapshot::section_tag("POLI");
}  // namespace

void OdrlController::save_policy(std::ostream& out) const {
  snapshot::Writer w;
  w.begin_section(kPolicySectionTag);
  w.u64(n_cores_);
  for (const auto& agent : agents_) {
    rl::save_qtable_payload(w, agent.table());
  }
  w.end_section();
  const std::string blob = std::move(w).finish();
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!out) {
    throw snapshot::SnapshotError(snapshot::SnapshotStatus::kIoError,
                                  "save_policy: stream failure");
  }
}

void OdrlController::load_policy(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    throw snapshot::SnapshotError(snapshot::SnapshotStatus::kIoError,
                                  "load_policy: stream failure");
  }
  const std::string blob = std::move(buf).str();
  snapshot::Reader r(blob);
  r.open_section(kPolicySectionTag);
  const std::uint64_t cores = r.u64();
  if (cores != n_cores_) {
    throw snapshot::SnapshotError(
        snapshot::SnapshotStatus::kDimensionMismatch,
        "policy is for " + std::to_string(cores) + " cores, controller has " +
            std::to_string(n_cores_));
  }
  for (auto& agent : agents_) {
    agent.restore_table(rl::load_qtable_payload(r));
  }
  r.expect_section_end();
}

const rl::TdAgent& OdrlController::agent(std::size_t core) const {
  if (core >= agents_.size()) {
    throw std::out_of_range("OdrlController::agent: core out of range");
  }
  return agents_[core];
}

std::size_t OdrlController::last_state(std::size_t core) const {
  if (core >= prev_state_.size()) {
    throw std::out_of_range("OdrlController::last_state: core out of range");
  }
  return prev_state_[core];
}

// -- Registry wiring ("OD-RL") --
namespace {

std::unique_ptr<sim::Controller> make_odrl(
    const arch::ChipConfig& chip, const sim::ControllerOverrides& ov) {
  OdrlConfig cfg;
  cfg.td.gamma = ov.get_double("gamma", cfg.td.gamma);
  cfg.td.q_init = ov.get_double("q_init", cfg.td.q_init);
  const std::string rule =
      ov.get_string("rule", cfg.td.rule == rl::TdRule::kSarsa ? "sarsa"
                                                              : "q-learning");
  if (rule == "sarsa") {
    cfg.td.rule = rl::TdRule::kSarsa;
  } else if (rule == "q-learning" || rule == "q") {
    cfg.td.rule = rl::TdRule::kQLearning;
  } else {
    throw std::invalid_argument(
        "OD-RL override \"rule\": expected q-learning|sarsa, got \"" + rule +
        "\"");
  }
  if (ov.contains("epsilon0") || ov.contains("epsilon_min") ||
      ov.contains("epsilon_decay")) {
    cfg.td.epsilon = rl::EpsilonSchedule(ov.get_double("epsilon0", 0.4),
                                         ov.get_double("epsilon_min", 0.03),
                                         ov.get_double("epsilon_decay", 0.997));
  } else {
    // Mark consumed so e.g. {"epsilon0": ...} alone works symmetrically.
    ov.get_double("epsilon0", 0.0);
    ov.get_double("epsilon_min", 0.0);
    ov.get_double("epsilon_decay", 0.0);
  }
  if (ov.contains("alpha")) {
    cfg.td.alpha =
        rl::LearningRateSchedule::constant(ov.get_double("alpha", 0.2));
  }
  const std::string mode = ov.get_string(
      "action_mode",
      cfg.action_mode == ActionMode::kAbsolute ? "absolute" : "relative");
  if (mode == "absolute") {
    cfg.action_mode = ActionMode::kAbsolute;
  } else if (mode == "relative") {
    cfg.action_mode = ActionMode::kRelative;
  } else {
    throw std::invalid_argument(
        "OD-RL override \"action_mode\": expected relative|absolute, got \"" +
        mode + "\"");
  }
  cfg.headroom_bins = ov.get_size("headroom_bins", cfg.headroom_bins);
  cfg.mem_bins = ov.get_size("mem_bins", cfg.mem_bins);
  cfg.lambda = ov.get_double("lambda", cfg.lambda);
  cfg.kappa = ov.get_double("kappa", cfg.kappa);
  cfg.thermal_weight = ov.get_double("thermal_weight", cfg.thermal_weight);
  cfg.thermal_safe_c = ov.get_double("thermal_safe_c", cfg.thermal_safe_c);
  cfg.target_utilization =
      ov.get_double("target_utilization", cfg.target_utilization);
  cfg.realloc_period = ov.get_size("realloc_period", cfg.realloc_period);
  cfg.global_realloc = ov.get_bool("global_realloc", cfg.global_realloc);
  cfg.ema_alpha = ov.get_double("ema_alpha", cfg.ema_alpha);
  cfg.budget_blend = ov.get_double("budget_blend", cfg.budget_blend);
  cfg.target_fill = ov.get_double("target_fill", cfg.target_fill);
  cfg.overcommit_gain = ov.get_double("overcommit_gain", cfg.overcommit_gain);
  cfg.overcommit_min = ov.get_double("overcommit_min", cfg.overcommit_min);
  cfg.overcommit_max = ov.get_double("overcommit_max", cfg.overcommit_max);
  cfg.seed = ov.get_u64("seed", cfg.seed);
  return std::make_unique<OdrlController>(chip, cfg);
}

const sim::ControllerRegistrar odrl_registrar{"OD-RL", &make_odrl};

}  // namespace

/// Link anchor: make_controller() (libodrl_registry) calls this no-op so
/// the linker must extract this archive member, which runs the registrar
/// above. A data anchor is not enough -- a discarded load of an extern
/// constant is dead code the optimizer may drop, reference and all.
void odrl_controller_registered() {}

}  // namespace odrl::core
