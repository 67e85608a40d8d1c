#include "power/batch_power.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "power/power_model.hpp"
#include "util/check.hpp"

namespace odrl::power {

BatchPowerModel::BatchPowerModel(std::span<const arch::CoreParams> per_core,
                                 const arch::VfTable& table)
    : n_cores_(per_core.size()), n_levels_(table.size()) {
  if (per_core.empty()) {
    throw std::invalid_argument("BatchPowerModel: no cores");
  }
  volt_.reserve(n_levels_);
  freq_.reserve(n_levels_);
  for (const arch::VfPoint& point : table.points()) {
    volt_.push_back(point.voltage_v);
    freq_.push_back(point.freq_ghz);
  }
  c_eff_.reserve(n_cores_);
  leak_scale_.reserve(n_cores_);
  leak_t_coeff_.reserve(n_cores_);
  uncore_.reserve(n_cores_);
  exp_v_.reserve(n_cores_ * n_levels_);
  for (const arch::CoreParams& p : per_core) {
    p.validate();
    c_eff_.push_back(p.c_eff_nf);
    leak_scale_.push_back(p.leak_scale_w);
    leak_t_coeff_.push_back(p.leak_t_coeff);
    uncore_.push_back(p.uncore_w);
    // The cached factor is produced by the *same* std::exp expression
    // CoreParams::leakage_power_w evaluates per call, so substituting the
    // cache is a bitwise no-op on the result.
    for (std::size_t l = 0; l < n_levels_; ++l) {
      exp_v_.push_back(std::exp(p.leak_v_coeff * (volt_[l] - 1.0)));
    }
  }
}

void BatchPowerModel::core_power_into(
    std::size_t begin, std::size_t end, std::span<const std::size_t> level,
    std::span<const workload::PhaseSample> phases,
    std::span<const double> temp_c, std::span<double> out_w) const {
  if (end > n_cores_ || begin > end) {
    throw std::invalid_argument("BatchPowerModel: bad core range");
  }
  if (level.size() < end || phases.size() < end || temp_c.size() < end ||
      out_w.size() < end) {
    throw std::invalid_argument("BatchPowerModel: input span too short");
  }
  // The range check is hoisted out of the per-element path: the loop
  // tracks min/max activity and one verdict is rendered per call, with the
  // same semantics as PowerModel::core_power_at (hard contract when
  // checked, tolerance clamp in release, throw beyond the tolerance).
  double act_min = 0.0;
  double act_max = 1.0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t l = level[i];
    const double activity = phases[i].activity;
    act_min = std::min(act_min, activity);
    act_max = std::max(act_max, activity);
    const double a = std::clamp(activity, 0.0, 1.0);
    // Same association order as CoreParams::dynamic_power_w /
    // leakage_power_w / PowerBreakdown::total_w -- bit-identical by
    // construction.
    const double dyn = c_eff_[i] * a * volt_[l] * volt_[l] * freq_[l];
    const double exp_t = std::exp(leak_t_coeff_[i] * (temp_c[i] - 85.0));
    const double leak =
        leak_scale_[i] * volt_[l] * exp_v_[i * n_levels_ + l] * exp_t;
    out_w[i] = dyn + leak + uncore_[i];
  }
  ODRL_CHECK(act_min >= 0.0 && act_max <= 1.0,
             "BatchPowerModel: activity must be in [0, 1]");
  if (act_min < -kActivityTol || act_max > 1.0 + kActivityTol) {
    throw std::invalid_argument("PowerModel: activity must be in [0, 1]");
  }
}

}  // namespace odrl::power
