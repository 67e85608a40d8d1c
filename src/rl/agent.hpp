// Tabular temporal-difference agent: Q-learning (off-policy) or SARSA
// (on-policy), selectable per AgentConfig. This is the generic RL machinery;
// the OD-RL controller in src/core instantiates one agent per core with the
// paper's state/action/reward construction.
#pragma once

#include <cstddef>
#include <optional>

#include "rl/qtable.hpp"
#include "rl/schedule.hpp"
#include "util/rng.hpp"

namespace odrl::snapshot {
class Writer;
class Reader;
}  // namespace odrl::snapshot

namespace odrl::rl {

enum class TdRule { kQLearning, kSarsa };

struct TdConfig {
  double gamma = 0.7;       ///< discount; modest, control is near-myopic
  double q_init = 0.5;      ///< optimistic init > 0 encourages exploration
  TdRule rule = TdRule::kQLearning;
  EpsilonSchedule epsilon = EpsilonSchedule(0.4, 0.03, 0.997);
  /// Constant rate by default: the control environment is non-stationary
  /// (phases move, budgets move), so the agent must keep adapting forever;
  /// visit-decayed rates are available for stationary uses.
  LearningRateSchedule alpha = LearningRateSchedule::constant(0.2);

  void validate() const;
};

class TdAgent {
 public:
  TdAgent(std::size_t n_states, std::size_t n_actions, TdConfig config);

  /// epsilon-greedy action for `state`; advances the exploration schedule.
  std::size_t act(std::size_t state, util::Rng& rng);

  /// Greedy action without exploration or schedule side effects.
  std::size_t exploit(std::size_t state) const;

  /// TD update for the transition (s, a) --r--> s'. For SARSA, `next_action`
  /// must carry the action actually taken in s' (pass std::nullopt for
  /// Q-learning; it is ignored there).
  void learn(std::size_t state, std::size_t action, double reward,
             std::size_t next_state,
             std::optional<std::size_t> next_action = std::nullopt);

  const QTable& table() const { return table_; }
  /// Replaces the learned table (warm start from a serialized policy).
  /// Dimensions must match; throws std::invalid_argument otherwise.
  void restore_table(QTable table);
  const TdConfig& config() const { return config_; }
  double epsilon() const { return epsilon_.current(); }
  std::size_t updates() const { return updates_; }

  void reset();

  /// Serializes the full learning state (Q-values, visit counts, the
  /// exploration schedule's position, update counter) into the caller's
  /// open snapshot section. load_state validates dimensions against this
  /// agent's configuration and rejects non-finite Q-values with the
  /// snapshot failure taxonomy (snapshot::SnapshotError).
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  TdConfig config_;
  QTable table_;
  EpsilonSchedule epsilon_;
  std::size_t updates_ = 0;
};

}  // namespace odrl::rl
