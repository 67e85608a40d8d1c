// Shared setup for the experiment harness (bench_e1..e10): chip and
// workload construction, the standard controller line-up, and the standard
// measured run.
//
// Methodology shared by all experiments:
//  * every controller is replayed against the *same* recorded workload
//    trace (identical per-epoch inputs, apples to apples);
//  * power/performance sensors carry 2% relative noise (RAPL-class
//    telemetry); evaluation metrics use true power;
//  * runs measure steady state after a warmup equal to the measured
//    length, except the convergence experiment (E6) which measures the
//    ramp itself.
//
// Telemetry: set ODRL_TRACE_DIR=<dir> to make every run_measured() call
// write a per-run JSONL trace (<dir>/<experiment>_<controller>_<k>.jsonl)
// through a telemetry::Recorder. Recording is observational -- results are
// bit-identical with it on or off.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/chip_config.hpp"
#include "metrics/metrics.hpp"
#include "sim/controller_registry.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "telemetry/jsonl_sink.hpp"
#include "telemetry/recorder.hpp"
#include "workload/workload.hpp"

namespace odrl::bench {

inline constexpr double kSensorNoise = 0.02;
inline constexpr std::uint64_t kSeed = 1;

struct NamedController {
  std::string name;
  std::function<std::unique_ptr<sim::Controller>(const arch::ChipConfig&)>
      make;
};

/// The paper's comparison set, OD-RL first (presentation order; the
/// registry itself sorts alphabetically). Every controller is built
/// through the registry -- benches never hand-wire constructors.
inline std::vector<NamedController> standard_controllers() {
  std::vector<NamedController> out;
  for (const char* name : {"OD-RL", "PID", "Greedy", "MaxBIPS", "Static"}) {
    out.push_back({name, [name](const arch::ChipConfig& c) {
                     return sim::make_controller(name, c);
                   }});
  }
  return out;
}

/// Tag prepended to trace file names; print_header() sets it from the
/// experiment title ("E1", "E5", ...).
inline std::string& experiment_tag() {
  static std::string tag = "bench";
  return tag;
}

inline std::string sanitize_file_tag(const std::string& s) {
  std::string out;
  for (char c : s) {
    out.push_back(
        std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return out.empty() ? std::string("run") : out;
}

/// Records a trace of the given workload profile set.
inline workload::RecordedTrace record_trace(
    std::size_t cores, std::size_t epochs,
    const std::vector<workload::BenchmarkProfile>& profiles,
    std::uint64_t seed = kSeed) {
  workload::GeneratedWorkload gen(cores, profiles, seed);
  return gen.record(epochs);
}

inline workload::RecordedTrace record_mixed_trace(std::size_t cores,
                                                  std::size_t epochs,
                                                  std::uint64_t seed = kSeed) {
  workload::GeneratedWorkload gen =
      workload::GeneratedWorkload::mixed_suite(cores, seed);
  return gen.record(epochs);
}

/// Runs one controller over a recorded trace with standard settings. With
/// ODRL_TRACE_DIR set, the run is recorded to a fresh JSONL file there.
inline sim::RunResult run_measured(const arch::ChipConfig& chip,
                                   const workload::RecordedTrace& trace,
                                   sim::Controller& controller,
                                   std::size_t epochs,
                                   std::size_t warmup_epochs,
                                   std::vector<sim::BudgetEvent> events = {}) {
  sim::SimConfig sc;
  sc.sensor_noise_rel = kSensorNoise;
  sim::ManyCoreSystem system(
      chip, std::make_unique<workload::ReplayWorkload>(trace), sc);
  sim::RunConfig rc;
  rc.epochs = epochs;
  rc.warmup_epochs = warmup_epochs;
  rc.budget_events = std::move(events);

  telemetry::Recorder recorder;
  std::ofstream trace_out;
  const char* trace_dir = std::getenv("ODRL_TRACE_DIR");
  if (trace_dir != nullptr && *trace_dir != '\0') {
    static int run_counter = 0;  // distinguishes repeat runs per process
    const std::string path = std::string(trace_dir) + "/" +
                             experiment_tag() + "_" +
                             sanitize_file_tag(controller.name()) + "_" +
                             std::to_string(run_counter++) + ".jsonl";
    trace_out.open(path);
    if (trace_out) {
      recorder.add_sink(std::make_shared<telemetry::JsonlSink>(trace_out));
      rc.recorder = &recorder;
    } else {
      std::fprintf(stderr, "warning: cannot open trace file %s\n",
                   path.c_str());
    }
  }
  return sim::run_closed_loop(system, controller, rc);
}

/// Standard comparison: all controllers on one trace; returns results in
/// line-up order.
inline std::vector<sim::RunResult> run_all(const arch::ChipConfig& chip,
                                           const workload::RecordedTrace& trace,
                                           std::size_t epochs,
                                           std::size_t warmup_epochs) {
  std::vector<sim::RunResult> results;
  for (const auto& entry : standard_controllers()) {
    auto controller = entry.make(chip);
    results.push_back(
        run_measured(chip, trace, *controller, epochs, warmup_epochs));
  }
  return results;
}

/// Writes the host fields every BENCH_*.json carries -- CPU count,
/// compiler, build type and the SIMD kernel ISA -- as JSON members, each
/// line ending in a comma. Two files are comparable only when these match;
/// a worker-scaling row recorded on 1 CPU prices oversubscription.
inline void write_host_fields(std::FILE* f) {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::fprintf(f, "  \"cpus\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"compiler\": \"%s\",\n", compiler);
  std::fprintf(f, "  \"build_type\": \"%s\",\n", ODRL_BENCH_BUILD_TYPE);
  std::fprintf(f, "  \"simd_arch\": \"%s\",\n", ODRL_BENCH_SIMD_ARCH);
}

inline void print_header(const char* experiment, const char* claim) {
  // "E5: decision latency..." -> trace tag "E5".
  std::string tag;
  for (const char* p = experiment;
       *p != '\0' && std::isalnum(static_cast<unsigned char>(*p)); ++p) {
    tag.push_back(*p);
  }
  if (!tag.empty()) experiment_tag() = tag;
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("==============================================================\n\n");
}

}  // namespace odrl::bench
