// Batch (SoA) evaluation of the per-core power model.
//
// The simulator's epoch loop evaluates core power for every core every
// epoch -- with the scalar PowerModel that is two std::exp calls per core
// per epoch, which dominates the kernel. BatchPowerModel restructures the
// same arithmetic for throughput without changing a single bit of the
// result:
//
//  * per-core constants (c_eff, leak_scale, leak_t_coeff, uncore) are laid
//    out as columns, so a lane-group of cores loads contiguously;
//  * the voltage-dependent leakage factor exp(leak_v_coeff * (V - 1)) only
//    takes one of n_levels values per core, so it is precomputed per
//    (core, level) at construction with the *same* std::exp call the
//    scalar model makes -- identical bits, and the hot path drops from two
//    exponentials per core to one;
//  * everything else is the scalar model's IEEE arithmetic in the same
//    association order. (A hand-vectorized variant was measured at
//    0.80-1.22x of this loop and removed: the libm exp per core dominates.)
//
// core_power_into() is bit-identical to looping
// PowerModel::core_power_at(vf[level], activity, temp).total_w(), including
// the activity tolerance-clamp semantics (see power_model.hpp) --
// tests/simd_kernel_test.cpp pins this, and the golden digests pin it end
// to end.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "arch/chip_config.hpp"
#include "arch/vf_table.hpp"
#include "workload/phase.hpp"

namespace odrl::power {

class BatchPowerModel {
 public:
  /// One CoreParams per core (variation- or hetero-applied), plus the
  /// chip's V/F table. Parameters are validated and frozen; the exp-v
  /// cache is built here (n_cores * n_levels doubles).
  BatchPowerModel(std::span<const arch::CoreParams> per_core,
                  const arch::VfTable& table);

  /// Writes total core power (dynamic + leakage + uncore, exactly
  /// PowerBreakdown::total_w()'s summation order) for cores [begin, end)
  /// into out_w[i]. Inputs are indexed by absolute core id; slots outside
  /// [begin, end) are untouched, so sharded callers can fill disjoint
  /// ranges concurrently. Zero heap allocations.
  void core_power_into(std::size_t begin, std::size_t end,
                       std::span<const std::size_t> level,
                       std::span<const workload::PhaseSample> phases,
                       std::span<const double> temp_c,
                       std::span<double> out_w) const;

  std::size_t n_cores() const noexcept { return n_cores_; }
  std::size_t n_levels() const noexcept { return n_levels_; }

 private:
  std::size_t n_cores_ = 0;
  std::size_t n_levels_ = 0;
  // Per-level operating point columns.
  std::vector<double> volt_;
  std::vector<double> freq_;
  // Per-core technology columns.
  std::vector<double> c_eff_;
  std::vector<double> leak_scale_;
  std::vector<double> leak_t_coeff_;
  std::vector<double> uncore_;
  /// exp(leak_v_coeff * (V_level - 1)) per (core, level), level-major per
  /// core: exp_v_[core * n_levels + level].
  std::vector<double> exp_v_;
};

}  // namespace odrl::power
