// Allocating convenience wrappers over the buffer-reuse hot-path API, for
// tests whose loops are about behaviour, not allocation discipline. The
// production surface is step_into()/decide_into() (see sim/system.hpp and
// sim/controller.hpp); these helpers keep test bodies terse without
// hand-rolling buffer management.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/controller.hpp"
#include "sim/observation.hpp"
#include "sim/system.hpp"

namespace odrl::test {

/// One epoch of `sys` at `levels`, returning a fresh observation.
inline sim::EpochResult step(sim::ManyCoreSystem& sys,
                             std::span<const std::size_t> levels) {
  sim::EpochResult out;
  sys.step_into(levels, out);
  return out;
}

/// One decision of `ctl` on `obs`, returning a fresh level vector.
inline std::vector<std::size_t> decide(sim::Controller& ctl,
                                       const sim::EpochResult& obs) {
  std::vector<std::size_t> out(obs.n_cores());
  ctl.decide_into(obs, out);
  return out;
}

}  // namespace odrl::test
