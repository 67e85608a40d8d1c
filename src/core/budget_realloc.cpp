#include "core/budget_realloc.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "sim/validate.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace odrl::core {

void ReallocConfig::validate() const {
  if (floor_fraction < 0.0 || floor_fraction >= 1.0) {
    throw std::invalid_argument("ReallocConfig: floor_fraction in [0, 1)");
  }
  if (saturated_headroom < 1.0) {
    throw std::invalid_argument("ReallocConfig: saturated_headroom < 1");
  }
  if (idle_headroom < saturated_headroom) {
    throw std::invalid_argument(
        "ReallocConfig: idle_headroom must be >= saturated_headroom");
  }
  if (growth_headroom < idle_headroom) {
    throw std::invalid_argument(
        "ReallocConfig: growth_headroom must be >= idle_headroom");
  }
}

void reallocate_budget_into(std::span<const CoreDemand> demands,
                            double chip_budget_w, const ReallocConfig& config,
                            std::span<double> out,
                            std::vector<double>& scratch) {
  config.validate();
  if (demands.empty()) {
    throw std::invalid_argument("reallocate_budget: no cores");
  }
  if (chip_budget_w <= 0.0) {
    throw std::invalid_argument("reallocate_budget: budget <= 0");
  }
  if (out.size() != demands.size()) {
    throw std::invalid_argument("reallocate_budget_into: out size mismatch");
  }
  const std::size_t n = demands.size();
  const double floor_each =
      config.floor_fraction * chip_budget_w / static_cast<double>(n);

  // Scratch layout: [0, n) demand, [n, 2n) utility. assign() reuses
  // capacity, so the caller pays the allocation once.
  scratch.assign(2 * n, 0.0);
  const std::span<double> demand(scratch.data(), n);
  const std::span<double> utility(scratch.data() + n, n);

  // Demand: consumption scaled by a sensitivity-blended headroom factor.
  // Every unsaturated core gets at least one-level-step headroom; saturated
  // cores get a guard band only (they cannot grow, and inflated demand from
  // them would permanently over-subscribe the chip). Squared sensitivity
  // skews surplus hard toward cores that convert watts into instructions;
  // saturated cores cannot use surplus at all.
  for (std::size_t i = 0; i < n; ++i) {
    const CoreDemand& d = demands[i];
    const double sens = std::clamp(d.sensitivity, 0.0, 1.0);
    double headroom = config.saturated_headroom;
    if (d.can_raise) {
      headroom = config.idle_headroom +
                 sens * (config.growth_headroom - config.idle_headroom);
    }
    demand[i] = std::max(floor_each, std::max(0.0, d.power_w) * headroom);
    utility[i] = (0.05 + sens * sens) * (d.can_raise ? 1.0 : 0.05);
  }
  // Sums fold the materialized columns in index order (util::ordered_sum),
  // so the summation tree is a pure function of the core count.
  const double demand_sum = util::ordered_sum(demand);
  const double utility_sum = util::ordered_sum(utility);

  if (demand_sum <= chip_budget_w) {
    // Everyone gets their demand; surplus follows marginal utility.
    const double surplus = chip_budget_w - demand_sum;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = demand[i] + surplus * utility[i] / utility_sum;
    }
  } else {
    // Over-subscribed: divide by demand weighted with utility, so the cut
    // falls hardest on the cores that benefit least, subject to per-core
    // floors. (Floors can push the sum above B; the final renormalization
    // resolves that -- floors are soft under extreme pressure.) The weight
    // pass uses `out` as scratch, then rescales it in place.
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = demand[i] * (0.15 + utility[i]);
    }
    const double weight_sum = util::ordered_sum(out);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::max(floor_each, chip_budget_w * out[i] / weight_sum);
    }
  }

  // Exact renormalization: floating error (or soft floors) must not leak or
  // mint budget.
  const double sum = std::accumulate(out.begin(), out.end(), 0.0);
  const double scale = chip_budget_w / sum;
  for (double& b : out) b *= scale;

  // Post-condition: the partition is positive everywhere and sums to the
  // chip budget (the paper's overshoot claims rest on this conservation).
  ODRL_VALIDATE(sim::validate_budget_partition(out, chip_budget_w));
}

std::vector<double> reallocate_budget(std::span<const CoreDemand> demands,
                                      double chip_budget_w,
                                      const ReallocConfig& config) {
  std::vector<double> budgets(demands.size());
  std::vector<double> scratch;
  reallocate_budget_into(demands, chip_budget_w, config, budgets, scratch);
  return budgets;
}

}  // namespace odrl::core
