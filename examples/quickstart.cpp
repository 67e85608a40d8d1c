// Quickstart: smallest end-to-end use of the library.
//
// Builds a 16-core chip capped at 60% of its peak power, runs the built-in
// mixed workload suite under the OD-RL controller and under the static
// worst-case baseline on the *same recorded trace*, and prints the standard
// comparison table. Controllers are built by name through the registry --
// pass --controller to swap the one under test.
//
//   ./quickstart [--cores=16] [--epochs=2000] [--budget=0.6] [--seed=1]
//                [--controller=OD-RL]
//                [--chips=1] [--workers=1]
//                [--serve[=port]] [--serve-idle-polls=n]
//                [--faults=storm.txt | --fault-storm-seed=7] [--watchdog]
//                [--trace-out=run.jsonl] [--trace-format=jsonl|csv]
//                [--trace-cores] [--trace-sample=k]
//                [--save-snapshot=run.snap --snapshot-epoch=n]
//                [--load-snapshot=run.snap]
//                [--swap='epoch:controller[:k=v,...][;epoch:...]']
//
// --chips=N > 1 switches to multi-chip fleet mode: N independent chips
// (per-chip seed substreams forked from --seed, see sim/multichip.hpp)
// run concurrently on one shared work-stealing runtime with --workers
// threads (0 = hardware concurrency). Prints a per-chip summary plus the
// fleet aggregates and runtime counters; every figure is bit-identical
// for every --workers value. Fleet mode composes with --faults and
// --watchdog (the schedule applies to every chip) but not with the
// trace/snapshot/swap flags, which are single-run concepts here.
//
// --serve switches to service mode: instead of simulating locally, the
// process becomes a control-plane power-management server
// (src/service/) on 127.0.0.1:<port> (0 or bare --serve = ephemeral;
// the bound port is printed). External tenant hosts open sessions over
// the length-prefixed wire protocol and stream measured epochs at it --
// see DESIGN.md "Control-plane service & wire protocol" and the
// in-process LoopbackClient for the message-level API. --workers sizes
// the server's task runtime (replies are bit-identical for any value);
// --serve-idle-polls=n exits after n consecutive idle pump iterations
// (0 = serve until killed), which keeps smoke tests hermetic.
//
// --faults replays a fault schedule (text format, see sim/faults.hpp)
// against both runs: sensor dropouts, delayed/dropped actuation, core
// hotplug and chip budget steps, deterministically. --fault-storm-seed
// generates a random storm instead of loading one. --watchdog arms the
// runner's graceful-degradation fallback (automatic whenever faults are
// injected).
//
// --trace-out records the measured region of the first (learning) run
// through the telemetry subsystem: per-epoch chip records (power, budget,
// IPS, max temperature, decide() latency), OD-RL reallocation events
// (per-core budgets, mu, epsilon, mean reward), counters/gauges and the
// decide()-latency histogram. --trace-cores adds per-core rows;
// --trace-sample=k keeps every k-th epoch. Recording never changes
// results.
//
// --save-snapshot captures the learning run's full state (system,
// controller, fault engine, runner bookkeeping) into a versioned binary
// snapshot at the top of measured epoch --snapshot-epoch;
// --load-snapshot resumes a run from such a file on freshly built
// objects -- rerun with identical flags and the resumed tail is
// bit-identical to the uninterrupted run. --swap hot-swaps the live
// controller at the given measured epoch(s), e.g.
// --swap='500:Greedy;1500:PID:kp=0.4' (registry overrides ride after the
// controller name). Malformed or mismatched snapshots are rejected with a
// structured status, never undefined behavior.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/chip_config.hpp"
#include "metrics/metrics.hpp"
#include "service/client.hpp"
#include "service/tcp.hpp"
#include "sim/controller_registry.hpp"
#include "sim/faults.hpp"
#include "sim/multichip.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/csv_sink.hpp"
#include "telemetry/jsonl_sink.hpp"
#include "telemetry/recorder.hpp"
#include "util/cli.hpp"
#include "workload/workload.hpp"

using namespace odrl;

namespace {

/// Snapshot/hot-swap wiring for the main run (the static baseline never
/// snapshots or swaps: it is the reference).
struct SnapshotOptions {
  std::vector<sim::SwapEvent> swaps;
  std::size_t capture_epoch = 0;
  std::string* capture_out = nullptr;     ///< --save-snapshot target
  const std::string* resume = nullptr;    ///< --load-snapshot blob
};

/// Parses one "epoch:controller[:k=v,...]" swap spec.
bool parse_one_swap(const std::string& one, sim::SwapEvent& ev) {
  const std::size_t c1 = one.find(':');
  if (c1 == std::string::npos || c1 == 0) return false;
  try {
    ev.epoch = static_cast<std::size_t>(std::stoul(one.substr(0, c1)));
  } catch (const std::exception&) {
    return false;
  }
  const std::size_t c2 = one.find(':', c1 + 1);
  ev.controller = one.substr(
      c1 + 1, c2 == std::string::npos ? std::string::npos : c2 - c1 - 1);
  if (ev.controller.empty()) return false;
  if (c2 != std::string::npos) {
    std::size_t p = c2 + 1;
    while (p <= one.size()) {
      const std::size_t q = std::min(one.find(',', p), one.size());
      const std::string kv = one.substr(p, q - p);
      const std::size_t eq = kv.find('=');
      if (eq == 0 || eq == std::string::npos) return false;
      ev.overrides.set(kv.substr(0, eq), kv.substr(eq + 1));
      p = q + 1;
    }
  }
  return true;
}

/// Parses a ';'-separated list of swap specs into `out`.
bool parse_swaps(const std::string& spec, std::vector<sim::SwapEvent>& out) {
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t end = std::min(spec.find(';', begin), spec.size());
    sim::SwapEvent ev;
    if (!parse_one_swap(spec.substr(begin, end - begin), ev)) return false;
    out.push_back(std::move(ev));
    begin = end + 1;
  }
  // The runner requires the schedule sorted by epoch; flag order is free.
  std::stable_sort(out.begin(), out.end(),
                   [](const sim::SwapEvent& a, const sim::SwapEvent& b) {
                     return a.epoch < b.epoch;
                   });
  return true;
}

sim::RunResult run_one(const arch::ChipConfig& chip,
                       const workload::RecordedTrace& trace,
                       sim::Controller& controller, std::size_t epochs,
                       telemetry::Recorder* recorder = nullptr,
                       const sim::FaultSchedule* faults = nullptr,
                       bool watchdog = false,
                       const SnapshotOptions* snap = nullptr) {
  auto workload = std::make_unique<workload::ReplayWorkload>(trace);
  sim::ManyCoreSystem system(chip, std::move(workload));
  sim::RunConfig run_cfg;
  // Measure steady state: let the learning controller converge first (the
  // ramp itself is examined in bench_e6_convergence).
  run_cfg.warmup_epochs = epochs;
  run_cfg.epochs = epochs;
  run_cfg.recorder = recorder;
  run_cfg.faults = faults;
  run_cfg.watchdog.enabled = watchdog;
  if (snap != nullptr) {
    run_cfg.swaps = snap->swaps;
    run_cfg.snapshot_epoch = snap->capture_epoch;
    run_cfg.snapshot_out = snap->capture_out;
    run_cfg.resume_snapshot = snap->resume;
  }
  return sim::run_closed_loop(system, controller, run_cfg);
}

/// Parses --faults / --fault-storm-seed into `out` (shared by the
/// single-chip and fleet paths). Returns false after printing an error.
bool load_fault_flags(const util::CliArgs& args, std::size_t cores,
                      std::size_t epochs, sim::FaultSchedule& out) {
  const std::string faults_path = args.get("faults", "");
  const auto storm_seed =
      static_cast<std::uint64_t>(args.get_int("fault-storm-seed", 0));
  if (!faults_path.empty() && storm_seed != 0) {
    std::fprintf(stderr,
                 "error: --faults and --fault-storm-seed are exclusive\n");
    return false;
  }
  if (!faults_path.empty()) {
    try {
      out = sim::load_fault_schedule_file(faults_path);
      out.validate(cores);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return false;
    }
  } else if (storm_seed != 0) {
    out = sim::FaultSchedule::random_storm(cores, epochs, storm_seed);
  }
  return true;
}

/// Fleet mode (--chips > 1): N seed-forked copies of the configured chip
/// stepped concurrently on one shared runtime. Returns the process exit
/// code.
int run_fleet(const util::CliArgs& args, std::size_t chips,
              std::size_t cores, double budget_fraction, std::size_t epochs,
              std::uint64_t seed, const std::string& controller_name) {
  for (const char* flag : {"trace-out", "save-snapshot", "load-snapshot",
                           "swap"}) {
    if (!args.get(flag, "").empty()) {
      std::fprintf(stderr, "error: --%s is not available in fleet mode\n",
                   flag);
      return 1;
    }
  }

  sim::FaultSchedule faults;
  if (!load_fault_flags(args, cores, epochs, faults)) return 1;
  const bool inject = !faults.empty();
  const bool watchdog = args.get_bool("watchdog", false) || inject;
  if (inject) {
    std::printf("faults: %zu scheduled events per chip, watchdog armed\n",
                faults.size());
  }

  sim::FleetConfig fc;
  fc.chips = chips;
  fc.cores = cores;
  fc.budget_fraction = budget_fraction;
  fc.controller = controller_name;
  fc.epochs = epochs;
  fc.warmup_epochs = epochs;  // steady state, like the single-chip run
  fc.seed = seed;
  fc.keep_traces = false;
  fc.faults = inject ? &faults : nullptr;
  sim::Fleet fleet(fc);
  if (watchdog) {
    for (sim::ChipSpec& spec : fleet.specs()) {
      spec.config.watchdog.enabled = true;
    }
  }

  sim::MultiChipConfig mc;
  mc.workers = static_cast<std::size_t>(args.get_int("workers", 1));
  const sim::MultiChipResult fr = sim::run_multichip(fleet.specs(), mc);

  std::printf("fleet: %zu chips x %zu cores under %s, %zu workers\n", chips,
              cores, controller_name.c_str(),
              task::Runtime::resolve_workers(mc.workers));
  for (std::size_t i = 0; i < fr.chips.size(); ++i) {
    const sim::RunResult& r = fr.chips[i];
    std::printf(
        "  chip %2zu: %7.3f bips, mean power %6.1f W, "
        "time over budget %5.2f%%\n",
        i, r.bips(), r.mean_power_w,
        100.0 * r.overshoot_time_fraction());
  }
  std::printf(
      "fleet totals: %.3f bips, mean power %.1f W, "
      "energy over budget %.1f J, wall %.3f s\n",
      fr.bips(), fr.mean_power_w, fr.otb_energy_j, fr.wall_s);
  std::printf(
      "runtime: %llu tasks, %llu steals (%llu attempts), %llu overflows\n",
      static_cast<unsigned long long>(fr.runtime_stats.tasks_executed),
      static_cast<unsigned long long>(fr.runtime_stats.steals),
      static_cast<unsigned long long>(fr.runtime_stats.steal_attempts),
      static_cast<unsigned long long>(fr.runtime_stats.overflows));
  return 0;
}

/// Service mode (--serve): the process becomes a control-plane server for
/// external tenant hosts instead of simulating a chip itself. Returns the
/// process exit code.
int run_serve(const util::CliArgs& args) {
  service::ServerConfig sc;
  sc.workers = static_cast<std::size_t>(args.get_int("workers", 1));
  service::Server server(sc);

  // A loopback hello against our own server: the same message a remote
  // tenant opens with, reused here to print the controller registry.
  service::LoopbackClient probe(server, "quickstart");
  const service::HelloReply hello = probe.hello();

  // Bare --serve parses as the boolean "true": treat it as port 0
  // (ephemeral) rather than an integer flag error.
  const std::string port_arg = args.get("serve", "0");
  const auto port = static_cast<std::uint16_t>(
      port_arg == "true" ? 0 : args.get_int("serve", 0));
  const auto idle_limit =
      static_cast<std::size_t>(args.get_int("serve-idle-polls", 0));
  try {
    service::TcpServer tcp(server, port);
    std::printf("service: %s listening on 127.0.0.1:%u (%zu workers)\n",
                server.config().name.c_str(), tcp.port(),
                task::Runtime::resolve_workers(sc.workers));
    std::printf("service: controllers:");
    for (const std::string& name : hello.controllers) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
    // Single-threaded pump: the adapter shuttles frames, the server's
    // runtime does the work. Ctrl-C (or the idle limit) ends the process;
    // Server's destructor drains in-flight requests before exiting.
    std::size_t idle = 0;
    while (idle_limit == 0 || idle < idle_limit) {
      idle = tcp.poll_once(200) > 0 ? 0 : idle + 1;
    }
    std::printf("service: idle for %zu polls, shutting down\n", idle);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: service failed: %s\n", e.what());
    return 1;
  }
  const service::ServerStats stats = server.stats();
  std::printf(
      "service: %llu requests (%llu errors), %llu sessions opened, "
      "%llu epochs stepped\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.errors),
      static_cast<unsigned long long>(stats.sessions_opened),
      static_cast<unsigned long long>(stats.epochs));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto cores = static_cast<std::size_t>(args.get_int("cores", 16));
  const auto epochs = static_cast<std::size_t>(args.get_int("epochs", 2000));
  const double budget_fraction = args.get_double("budget", 0.6);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string controller_name = args.get("controller", "OD-RL");

  if (args.has("serve")) return run_serve(args);

  const auto chips = static_cast<std::size_t>(args.get_int("chips", 1));
  if (chips > 1) {
    return run_fleet(args, chips, cores, budget_fraction, epochs, seed,
                     controller_name);
  }

  const arch::ChipConfig chip = arch::ChipConfig::make(cores, budget_fraction);
  std::printf("chip: %zu cores, %zu V/F levels, TDP = %.1f W (%.0f%% of %.1f W peak)\n",
              chip.n_cores(), chip.vf_table().size(), chip.tdp_w(),
              100.0 * budget_fraction, chip.max_chip_power_w());

  // Record one workload trace so both controllers see identical inputs
  // (warmup + measured region).
  workload::GeneratedWorkload generator =
      workload::GeneratedWorkload::mixed_suite(cores, seed);
  const workload::RecordedTrace trace = generator.record(2 * epochs);

  auto main_ctl = sim::make_controller(controller_name, chip);
  auto static_ctl = sim::make_controller("Static", chip);

  // Optional telemetry export of the main controller's run.
  telemetry::RecorderConfig rec_cfg;
  rec_cfg.sample_every =
      static_cast<std::size_t>(args.get_int("trace-sample", 1));
  rec_cfg.per_core = args.get_bool("trace-cores", false);
  telemetry::Recorder recorder(rec_cfg);
  std::ofstream trace_out;
  const std::string trace_path = args.get("trace-out", "");
  if (!trace_path.empty()) {
    trace_out.open(trace_path);
    if (!trace_out) {
      std::fprintf(stderr, "error: cannot open %s\n", trace_path.c_str());
      return 1;
    }
    const std::string format = args.get("trace-format", "jsonl");
    if (format == "jsonl") {
      recorder.add_sink(std::make_shared<telemetry::JsonlSink>(trace_out));
    } else if (format == "csv") {
      recorder.add_sink(std::make_shared<telemetry::CsvSink>(trace_out));
    } else {
      std::fprintf(stderr, "error: --trace-format must be jsonl or csv\n");
      return 1;
    }
  }

  // Optional fault injection: load a schedule or generate a storm; either
  // arms the watchdog (and --watchdog arms it on a healthy run too).
  sim::FaultSchedule faults;
  if (!load_fault_flags(args, cores, epochs, faults)) return 1;
  const bool inject = !faults.empty();
  const bool watchdog = args.get_bool("watchdog", false) || inject;
  if (inject) {
    std::printf("faults: %zu scheduled events%s, watchdog armed\n",
                faults.size(),
                args.get("faults", "").empty() ? " (random storm)" : "");
  }

  // Optional snapshot capture/resume and controller hot-swaps (main run
  // only; see the header comment for the flag grammar).
  SnapshotOptions snap;
  std::string snapshot_blob;
  std::string resume_blob;
  const std::string save_path = args.get("save-snapshot", "");
  const std::string load_path = args.get("load-snapshot", "");
  if (!save_path.empty()) {
    snap.capture_epoch =
        static_cast<std::size_t>(args.get_int("snapshot-epoch", 0));
    snap.capture_out = &snapshot_blob;
  }
  if (!load_path.empty()) {
    std::ifstream in(load_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", load_path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    resume_blob = std::move(buf).str();
    snap.resume = &resume_blob;
  }
  const std::string swap_spec = args.get("swap", "");
  if (!swap_spec.empty() && !parse_swaps(swap_spec, snap.swaps)) {
    std::fprintf(stderr,
                 "error: --swap expects epoch:controller[:k=v,...] specs "
                 "separated by ';', got '%s'\n",
                 swap_spec.c_str());
    return 1;
  }

  sim::RunResult main_run;
  try {
    main_run = run_one(chip, trace, *main_ctl, epochs, &recorder,
                       inject ? &faults : nullptr, watchdog, &snap);
  } catch (const snapshot::SnapshotError& e) {
    std::fprintf(stderr, "error: snapshot rejected (%s): %s\n",
                 snapshot::snapshot_status_name(e.status()), e.what());
    return 1;
  }
  if (!save_path.empty()) {
    std::ofstream out(save_path, std::ios::binary);
    out.write(snapshot_blob.data(),
              static_cast<std::streamsize>(snapshot_blob.size()));
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", save_path.c_str());
      return 1;
    }
    std::printf("snapshot: %zu bytes captured at epoch %zu -> %s\n",
                snapshot_blob.size(), snap.capture_epoch, save_path.c_str());
  }
  if (snap.resume != nullptr) {
    std::printf("snapshot: resumed %s at epoch %zu (%zu epochs remain)\n",
                load_path.c_str(), main_run.start_epoch, main_run.epochs);
  }
  // A/B report per hot-swap: budget compliance of the segments on either
  // side (negative deltas mean the incoming controller did better).
  for (const sim::SwapImpact& s : main_run.swap_report) {
    std::printf("swap: epoch %llu, %s -> %s\n",
                static_cast<unsigned long long>(s.epoch), s.from.c_str(),
                s.to.c_str());
    std::printf(
        "  overshoot %.3f W -> %.3f W (%+.3f), violations %.1f%% -> "
        "%.1f%% (%+.1f pp) over %zu/%zu epochs\n",
        s.mean_overshoot_w_before, s.mean_overshoot_w_after,
        s.delta_mean_overshoot_w(), 100.0 * s.violation_frac_before,
        100.0 * s.violation_frac_after, 100.0 * s.delta_violation_frac(),
        s.epochs_before, s.epochs_after);
  }
  const sim::RunResult static_run =
      run_one(chip, trace, *static_ctl, epochs, nullptr,
              inject ? &faults : nullptr, watchdog);

  const sim::RunResult runs[] = {main_run, static_run};
  std::cout << '\n'
            << metrics::comparison_table(runs).render(
                   main_run.controller_name +
                   " vs. static worst-case provisioning");

  std::printf("\n%s throughput gain over static: %+.1f%%\n",
              main_run.controller_name.c_str(),
              100.0 * (main_run.bips() / static_run.bips() - 1.0));
  std::printf("%s time over budget: %.2f%% of the run\n",
              main_run.controller_name.c_str(),
              100.0 * main_run.overshoot_time_fraction());
  if (inject) {
    std::printf(
        "%s under faults: %zu events applied, %zu decisions sanitized, "
        "%zu fallback entries, %zu fallback epochs\n",
        main_run.controller_name.c_str(), main_run.fault_events_applied,
        main_run.watchdog_invalid_decisions,
        main_run.watchdog_fallback_entries,
        main_run.watchdog_fallback_epochs);
  }
  if (!trace_path.empty()) {
    std::printf("telemetry written to %s\n", trace_path.c_str());
  }
  return 0;
}
