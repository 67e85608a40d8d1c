// Per-kernel microbenchmarks for the optimized epoch kernels, with
// machine-readable output: BENCH_kernels.json.
//
// Each kernel is timed twice over identical inputs:
//   power    baseline -- the per-core PowerModel::core_power_at loop (two
//                        std::exp per core), which the shipping
//                        PowerModel still evaluates one core at a time;
//            simd     -- BatchPowerModel::core_power_into, the batch
//                        model with its cached exp-v columns (a scalar
//                        loop: the gain is the cache, not vectorization).
//   thermal  baseline -- ThermalModel::step with the util force-scalar
//                        hook on (the scalar Euler substep);
//            simd     -- the same call with the hook off (the vectorized
//                        substep, the one kernel with a SIMD variant).
//
// Both sides produce bit-identical results (tests/simd_kernel_test.cpp),
// so the ratio is pure throughput. Timing is best-of-N (min over rounds)
// to shed scheduler noise; tools/check_bench_regression.py ratchets the
// committed JSON so the speedups cannot silently regress.
//
// Output path: ODRL_BENCH_JSON=<path> (default BENCH_kernels.json; empty
// string disables writing).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arch/chip_config.hpp"
#include "arch/mesh.hpp"
#include "arch/vf_table.hpp"
#include "bench_common.hpp"
#include "power/batch_power.hpp"
#include "power/power_model.hpp"
#include "thermal/thermal_model.hpp"
#include "util/simd.hpp"

using namespace odrl;

namespace {

volatile double g_sink = 0.0;  // defeats dead-code elimination

struct Row {
  const char* kernel;
  std::size_t cores;
  double baseline_ns;
  double simd_ns;
  double speedup;
};

constexpr int kRounds = 3;  // best-of-3: min wall time per call

/// Calls f() `iters` times per round and returns the best (minimum)
/// per-call time in nanoseconds across kRounds rounds.
template <typename F>
double best_of_ns(std::size_t iters, F&& f) {
  using Clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int round = 0; round < kRounds; ++round) {
    const auto t0 = Clock::now();
    for (std::size_t it = 0; it < iters; ++it) f();
    const auto t1 = Clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(iters);
    if (ns < best) best = ns;
  }
  return best;
}

std::size_t iters_for(std::size_t cores) {
  // Target roughly 1e6 core-evaluations per round so each measurement
  // runs for a few milliseconds.
  return std::max<std::size_t>(64, 1000000 / cores);
}

// ------------------------------------------------------------- power

Row bench_power(std::size_t n) {
  const arch::VfTable table = arch::VfTable::default_table();
  const arch::CoreParams params;
  const std::vector<arch::CoreParams> per_core(n, params);
  const power::BatchPowerModel batch(per_core, table);
  // Baseline layout: one scalar PowerModel per core.
  const std::vector<power::PowerModel> scalar_models(
      n, power::PowerModel(params));

  std::vector<std::size_t> level(n);
  std::vector<workload::PhaseSample> phases(n);
  std::vector<double> temp(n), out(n);
  for (std::size_t i = 0; i < n; ++i) {
    level[i] = i % table.size();
    phases[i] = {.base_cpi = 1.0,
                 .mpki = 5.0,
                 .activity = 0.2 + 0.6 * static_cast<double>(i % 7) / 6.0};
    temp[i] = 50.0 + static_cast<double>(i % 40);
  }

  const std::size_t iters = iters_for(n);
  const double baseline = best_of_ns(iters, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = scalar_models[i]
                   .core_power_at(table[level[i]], phases[i].activity,
                                  temp[i])
                   .total_w();
    }
    g_sink = g_sink + out[n - 1];
  });
  const double simd = best_of_ns(iters, [&] {
    batch.core_power_into(0, n, level, phases, temp, out);
    g_sink = g_sink + out[n - 1];
  });
  return {"power", n, baseline, simd, baseline / simd};
}

// ------------------------------------------------------------ thermal

Row bench_thermal(std::size_t n) {
  const auto side = static_cast<std::size_t>(std::lround(std::sqrt(
      static_cast<double>(n))));
  thermal::ThermalModel model(arch::Mesh(side, side), arch::ThermalParams{});
  const std::size_t tiles = model.size();
  std::vector<double> power(tiles);
  for (std::size_t i = 0; i < tiles; ++i) {
    power[i] = 1.5 + std::sin(static_cast<double>(i)) * 0.5;
  }
  const double dt = model.dt_stable_s() * 0.9;  // exactly 1 substep
  const auto timed_step = [&] {
    model.step(power, dt);
    g_sink = g_sink + model.temperature(0);
  };

  const std::size_t iters = iters_for(tiles);
  util::set_simd_force_scalar(true);
  const double baseline = best_of_ns(iters, timed_step);
  util::set_simd_force_scalar(false);
  const double simd = best_of_ns(iters, timed_step);
  return {"thermal", tiles, baseline, simd, baseline / simd};
}

int write_json(const std::vector<Row>& rows) {
  const char* env = std::getenv("ODRL_BENCH_JSON");
  const std::string path = env ? env : "BENCH_kernels.json";
  if (path.empty()) return 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "BENCH_kernels: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"simd_compiled\": %s,\n",
               util::simd_compiled() ? "true" : "false");
  bench::write_host_fields(f);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"cores\": %zu, "
                 "\"baseline_ns\": %.1f, \"simd_ns\": %.1f, "
                 "\"speedup\": %.3f}%s\n",
                 r.kernel, r.cores, r.baseline_ns, r.simd_ns, r.speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("BENCH_kernels: wrote %s (%zu rows)\n", path.c_str(),
              rows.size());
  return 0;
}

}  // namespace

int main() {
  if (!util::simd_compiled()) {
    std::fprintf(stderr,
                 "BENCH_kernels: warning: built without native SIMD; "
                 "the thermal speedup will be ~1.0\n");
  }
  std::vector<Row> rows;
  for (std::size_t cores : {std::size_t{64}, std::size_t{256},
                            std::size_t{1024}}) {
    rows.push_back(bench_power(cores));
    rows.push_back(bench_thermal(cores));
  }
  std::printf("%-8s %6s %14s %12s %9s\n", "kernel", "cores", "baseline_ns",
              "simd_ns", "speedup");
  for (const Row& r : rows) {
    std::printf("%-8s %6zu %14.1f %12.1f %8.2fx\n", r.kernel, r.cores,
                r.baseline_ns, r.simd_ns, r.speedup);
  }
  return write_json(rows);
}
