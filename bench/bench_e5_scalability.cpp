// E5 -- controller decision-latency scalability (the paper's
// "two orders of magnitude speedup ... for systems with hundreds of cores").
//
// Times one decide_into() call of each controller as a function of core
// count. The EpochResult fed to the controllers is produced by a real
// simulator epoch so predictions operate on realistic sensor values; only
// decide_into() is inside the timed region, matching how the runner
// attributes decision time. Since PR 3 the timed region is allocation-free,
// so these numbers are algorithmic cost, not allocator noise.
//
// Expected shape: OD-RL scales ~linearly with a tiny constant; MaxBIPS's
// knapsack DP pays O(n * levels * bins) and lands 100x+ above OD-RL at 256+
// cores; Greedy sits in between.
//
// The *Threads benchmarks sweep the deterministic parallel execution layer
// (task::Runtime): step-only, decide-only and full-epoch wall time at a
// fixed core count as a function of thread count. Results are bit-identical
// across thread counts (tests/threading_test.cpp pins this), so the sweep
// measures pure speedup. Run with e.g.
//   ./bench/bench_e5_scalability --benchmark_filter=Threads
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "arch/chip_config.hpp"
#include "sim/controller_registry.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "workload/workload.hpp"

using namespace odrl;

namespace {

/// Builds a chip + one observed epoch at the given core count.
struct Fixture {
  explicit Fixture(std::size_t cores, sim::SimConfig sim = {})
      : chip(arch::ChipConfig::make(cores, 0.6)),
        system(chip,
               std::make_unique<workload::GeneratedWorkload>(
                   workload::GeneratedWorkload::mixed_suite(cores, 42)),
               sim) {
    const std::vector<std::size_t> levels(cores, chip.vf_table().size() / 2);
    system.step_into(levels, obs);
  }

  arch::ChipConfig chip;
  sim::ManyCoreSystem system;
  sim::EpochResult obs;
};

template <typename MakeController>
void run_decide_benchmark(benchmark::State& state, MakeController make) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  Fixture fx(cores);
  auto controller = make(fx.chip);
  std::vector<std::size_t> out(cores, 0);
  // Prime internal state (first decide grows the scratch buffers); after
  // this the timed region is allocation-free (tests/alloc_test.cpp).
  controller->decide_into(fx.obs, out);
  for (auto _ : state) {
    controller->decide_into(fx.obs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetComplexityN(state.range(0));
}

void BM_OdrlDecide(benchmark::State& state) {
  run_decide_benchmark(state, [](const arch::ChipConfig& chip) {
    return sim::make_controller("OD-RL", chip);
  });
}

void BM_GreedyDecide(benchmark::State& state) {
  run_decide_benchmark(state, [](const arch::ChipConfig& chip) {
    return sim::make_controller("Greedy", chip);
  });
}

void BM_MaxBipsDecide(benchmark::State& state) {
  run_decide_benchmark(state, [](const arch::ChipConfig& chip) {
    return sim::make_controller("MaxBIPS", chip);
  });
}

void BM_PidDecide(benchmark::State& state) {
  run_decide_benchmark(state, [](const arch::ChipConfig& chip) {
    return sim::make_controller("PID", chip);
  });
}

// ---------------------------------------------------------------------
// Thread-count sweeps: args = (cores, threads).

sim::SimConfig threaded_sim(std::size_t threads) {
  sim::SimConfig cfg;
  cfg.threads = threads;
  cfg.sensor_noise_rel = 0.05;  // exercise the per-core noise substreams
  return cfg;
}

/// Simulator epoch (perf/power/thermal/sensors) wall time.
void BM_StepThreads(benchmark::State& state) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  Fixture fx(cores, threaded_sim(threads));
  const std::vector<std::size_t> levels(cores, fx.chip.vf_table().size() / 2);
  sim::EpochResult obs;
  for (auto _ : state) {
    fx.system.step_into(levels, obs);
    benchmark::DoNotOptimize(obs.true_chip_power_w);
    benchmark::ClobberMemory();
  }
  state.counters["threads"] = static_cast<double>(threads);
}

/// OD-RL decide (per-core TD act/learn) wall time.
void BM_OdrlDecideThreads(benchmark::State& state) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  Fixture fx(cores, threaded_sim(threads));
  auto controller = sim::make_controller(
      "OD-RL", fx.chip, {{"threads", std::to_string(threads)}});
  std::vector<std::size_t> out(cores, 0);
  controller->decide_into(fx.obs, out);
  for (auto _ : state) {
    controller->decide_into(fx.obs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["threads"] = static_cast<double>(threads);
}

/// One full control epoch: step + decide, the closed loop's unit of wall
/// time. The 8-vs-1-thread ratio of this benchmark at 256 cores is the
/// headline speedup of the parallel epoch engine.
void BM_EpochThreads(benchmark::State& state) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  Fixture fx(cores, threaded_sim(threads));
  auto controller = sim::make_controller(
      "OD-RL", fx.chip, {{"threads", std::to_string(threads)}});
  std::vector<std::size_t> levels = controller->initial_levels(cores);
  std::vector<std::size_t> next(cores, 0);
  sim::EpochResult obs;
  for (auto _ : state) {
    fx.system.step_into(levels, obs);
    controller->decide_into(obs, next);
    levels.swap(next);
    benchmark::DoNotOptimize(levels.data());
    benchmark::ClobberMemory();
  }
  state.counters["threads"] = static_cast<double>(threads);
}

// ---------------------------------------------------------------------
// Machine-readable perf trajectory: BENCH_e5.json.
//
// The Google Benchmark tables above are for humans; this compact sweep is
// for tooling. After the registered benchmarks run, main() measures, per
// (controller, core count): closed-loop throughput (epochs/s over
// step_into + decide_into) and mean decide_into() latency in us, and
// writes one JSON file so the perf trajectory diffs across PRs. Override
// the output path with ODRL_BENCH_JSON=<path> (empty string disables).

struct JsonRow {
  std::string controller;
  std::size_t cores;
  std::size_t epochs;
  double epochs_per_s;
  double mean_decide_us;
};

JsonRow measure_row(const std::string& name, std::size_t cores) {
  using Clock = std::chrono::steady_clock;
  Fixture fx(cores);
  auto controller = sim::make_controller(name, fx.chip);
  std::vector<std::size_t> levels = controller->initial_levels(cores);
  std::vector<std::size_t> next(cores, 0);
  sim::EpochResult obs;

  // MaxBIPS's DP is O(n^2 * levels); everything else is ~linear. Scale the
  // epoch count so no row takes more than a couple of seconds.
  const bool heavy = name == "MaxBIPS";
  const std::size_t warmup = heavy ? 2 : 16;
  const std::size_t epochs =
      heavy ? std::max<std::size_t>(4, 1024 / cores)
            : std::max<std::size_t>(32, 8192 / cores);

  for (std::size_t e = 0; e < warmup; ++e) {
    fx.system.step_into(levels, obs);
    controller->decide_into(obs, next);
    levels.swap(next);
  }

  double decide_s = 0.0;
  const auto run_start = Clock::now();
  for (std::size_t e = 0; e < epochs; ++e) {
    fx.system.step_into(levels, obs);
    const auto t0 = Clock::now();
    controller->decide_into(obs, next);
    const auto t1 = Clock::now();
    decide_s += std::chrono::duration<double>(t1 - t0).count();
    levels.swap(next);
  }
  const double total_s =
      std::chrono::duration<double>(Clock::now() - run_start).count();

  JsonRow row;
  row.controller = name;
  row.cores = cores;
  row.epochs = epochs;
  row.epochs_per_s =
      total_s > 0.0 ? static_cast<double>(epochs) / total_s : 0.0;
  row.mean_decide_us = decide_s / static_cast<double>(epochs) * 1e6;
  return row;
}

int write_bench_json() {
  const char* env = std::getenv("ODRL_BENCH_JSON");
  const std::string path = env ? env : "BENCH_e5.json";
  if (path.empty()) return 0;

  std::vector<JsonRow> rows;
  for (const char* name : {"OD-RL", "PID", "Greedy", "MaxBIPS", "Static"}) {
    for (std::size_t cores : {std::size_t{16}, std::size_t{64},
                              std::size_t{256}}) {
      rows.push_back(measure_row(name, cores));
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "BENCH_e5: cannot open %s for writing\n",
                 path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"e5_scalability\",\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    std::fprintf(f,
                 "    {\"controller\": \"%s\", \"cores\": %zu, "
                 "\"epochs\": %zu, \"epochs_per_s\": %.3f, "
                 "\"mean_decide_us\": %.3f}%s\n",
                 r.controller.c_str(), r.cores, r.epochs, r.epochs_per_s,
                 r.mean_decide_us, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("BENCH_e5: wrote %s (%zu rows)\n", path.c_str(), rows.size());
  return 0;
}

}  // namespace

BENCHMARK(BM_OdrlDecide)->RangeMultiplier(2)->Range(16, 1024)->Complexity();
BENCHMARK(BM_GreedyDecide)->RangeMultiplier(2)->Range(16, 1024)->Complexity();
// MaxBIPS stops at 256 cores: its knapsack DP is O(n^2 * levels) once the
// power-axis resolution scales with n (see MaxBipsConfig), and beyond a few
// hundred cores a single decision takes ~1 s of wall time -- which is the
// paper's point, and would also make this harness unreasonably slow.
BENCHMARK(BM_MaxBipsDecide)->RangeMultiplier(2)->Range(16, 256)->Complexity();
BENCHMARK(BM_PidDecide)->RangeMultiplier(2)->Range(16, 1024)->Complexity();

// Thread sweeps at the paper's "hundreds of cores" operating point (plus a
// 1024-core stress point for the full epoch). UseRealTime: the work happens
// on pool workers, so CPU time of the driving thread would under-report.
BENCHMARK(BM_StepThreads)
    ->ArgsProduct({{256}, {1, 2, 4, 8}})
    ->UseRealTime();
BENCHMARK(BM_OdrlDecideThreads)
    ->ArgsProduct({{256}, {1, 2, 4, 8}})
    ->UseRealTime();
BENCHMARK(BM_EpochThreads)
    ->ArgsProduct({{256, 1024}, {1, 2, 4, 8}})
    ->UseRealTime();

// Custom main: the registered benchmarks run exactly as under
// BENCHMARK_MAIN(), then the compact JSON sweep appends the cross-PR
// trajectory file.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_bench_json();
}
