// The DVFS controller interface every policy in this library implements:
// the paper's OD-RL (src/core) and all baselines (src/baselines).
//
// Interaction protocol, each control epoch:
//   1. the simulator runs one epoch at the current per-core V/F levels;
//   2. the controller receives the resulting EpochResult (sensors only);
//   3. the controller writes the V/F level for every core for the next
//      epoch into the caller's output buffer (decide_into).
// decide_into() is the timed hot path for the scalability experiment (E5):
// its cost as a function of core count is a first-class result of the
// paper, so it must not allocate in steady state. It is the only decision
// entry point.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/observation.hpp"

namespace odrl::task {
class Runtime;
}

namespace odrl::telemetry {
class Recorder;
}

namespace odrl::snapshot {
class Writer;
class Reader;
}  // namespace odrl::snapshot

namespace odrl::sim {

class Controller {
 public:
  virtual ~Controller() = default;

  virtual std::string name() const = 0;

  /// Initial per-core levels before any observation exists.
  virtual std::vector<std::size_t> initial_levels(std::size_t n_cores) = 0;

  /// Next-epoch level for every core, written into `out` (size must equal
  /// obs.n_cores()). This is the in-place hot path: implementations keep
  /// their scratch in members and perform zero heap allocations once
  /// warmed up.
  virtual void decide_into(const EpochResult& obs,
                           std::span<std::size_t> out) = 0;

  /// Notifies the controller that the chip budget changed (power-cap event,
  /// e.g. a rack-level RAPL reduction). Default: ignore.
  virtual void on_budget_change(double /*new_budget_w*/) {}

  /// Clears any learned/internal state.
  virtual void reset() {}

  /// Snapshot hooks (see snapshot/snapshot.hpp): write/restore every field
  /// that influences future decisions into the caller's open section --
  /// learned tables, filters, schedule positions, RNG streams. The runner
  /// uses these for checkpoint/resume and for seeding a hot-swapped
  /// replacement from a saved section; the contract is that a restored
  /// controller's decision stream is bit-identical to one that never
  /// stopped. Defaults are empty: correct for stateless policies (Greedy,
  /// MaxBIPS decide from the current observation alone).
  virtual void save_state(snapshot::Writer& w) const;
  virtual void load_state(snapshot::Reader& r);

  /// No-ops: decide_into() runs serially, and no controller overrides
  /// these. Kept only because the frozen perfbench/ tree's timing wrapper
  /// overrides them; they go with the next change to that benchmark.
  virtual void set_threads(std::size_t /*threads*/) {}
  virtual void set_runtime(std::shared_ptr<task::Runtime> /*runtime*/) {}

  /// Attaches (or, with nullptr, detaches) a telemetry recorder. The runner
  /// calls this at run start/end with RunConfig::recorder; the recorder
  /// must outlive the run. Controllers emit internal signals (e.g. OD-RL's
  /// reallocation events) through it, and must never let recording alter
  /// their decisions -- runs are
  /// bit-identical with telemetry on or off. The default keeps the pointer
  /// for subclasses; override to forward (adapters) or add instruments.
  virtual void set_recorder(telemetry::Recorder* recorder) {
    recorder_ = recorder;
  }

 protected:
  /// Null when telemetry is off; guard every use.
  telemetry::Recorder* recorder_ = nullptr;
};

}  // namespace odrl::sim
