#include "sim/runner.hpp"

#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "power/energy.hpp"
#include "sim/validate.hpp"
#include "util/check.hpp"

namespace odrl::sim {

void WatchdogConfig::validate() const {
  if (violation_epochs == 0) {
    throw std::invalid_argument("WatchdogConfig: violation_epochs == 0");
  }
  if (!std::isfinite(violation_margin) || violation_margin < 0.0) {
    throw std::invalid_argument(
        "WatchdogConfig: violation_margin must be finite and >= 0");
  }
  if (hold_epochs == 0) {
    throw std::invalid_argument("WatchdogConfig: hold_epochs == 0");
  }
}

void RunConfig::validate() const {
  if (epochs == 0) throw std::invalid_argument("RunConfig: epochs == 0");
  for (std::size_t i = 0; i < budget_events.size(); ++i) {
    if (budget_events[i].budget_w <= 0.0) {
      throw std::invalid_argument("RunConfig: budget event with watts <= 0");
    }
    if (i > 0 && budget_events[i].epoch < budget_events[i - 1].epoch) {
      throw std::invalid_argument("RunConfig: budget events not sorted");
    }
  }
  for (std::size_t i = 0; i < swaps.size(); ++i) {
    if (swaps[i].controller.empty()) {
      throw std::invalid_argument("RunConfig: swap with empty controller");
    }
    if (i > 0 && swaps[i].epoch < swaps[i - 1].epoch) {
      throw std::invalid_argument("RunConfig: swap events not sorted");
    }
  }
  if (snapshot_out != nullptr && snapshot_epoch >= epochs) {
    throw std::invalid_argument(
        "RunConfig: snapshot_epoch beyond the measured region");
  }
  if (threads > 1) {
    throw std::invalid_argument(
        "RunConfig: threads must be 0 or 1 (a chip steps serially)");
  }
  watchdog.validate();
}

double RunResult::bips() const {
  const double t = elapsed_s();
  return t == 0.0 ? 0.0 : total_instructions / t / 1e9;
}

double RunResult::bips_per_watt() const {
  return mean_power_w == 0.0 ? 0.0 : bips() / mean_power_w;
}

double RunResult::bips3_per_watt() const {
  const double b = bips();
  return mean_power_w == 0.0 ? 0.0 : b * b * b / mean_power_w;
}

double RunResult::overshoot_time_fraction() const {
  const double t = elapsed_s();
  return t == 0.0 ? 0.0 : time_over_s / t;
}

double RunResult::mean_decision_us() const {
  return decisions == 0
             ? 0.0
             : decision_time_s / static_cast<double>(decisions) * 1e6;
}

namespace {
template <typename Get>
std::vector<double> trace_column(const std::vector<EpochTrace>& trace,
                                 Get get) {
  std::vector<double> out;
  out.reserve(trace.size());
  for (const EpochTrace& t : trace) out.push_back(get(t));
  return out;
}
}  // namespace

std::vector<double> RunResult::chip_power_trace() const {
  return trace_column(trace,
                      [](const EpochTrace& t) { return t.true_chip_power_w; });
}

std::vector<double> RunResult::budget_trace() const {
  return trace_column(trace, [](const EpochTrace& t) { return t.budget_w; });
}

std::vector<double> RunResult::ips_trace() const {
  return trace_column(trace, [](const EpochTrace& t) { return t.total_ips; });
}

std::vector<double> RunResult::max_temp_trace() const {
  return trace_column(trace, [](const EpochTrace& t) { return t.max_temp_c; });
}

RunResult run_closed_loop(ManyCoreSystem& system, Controller& controller,
                          const RunConfig& config) {
  config.validate();
  // Wall-clock timing feeds decide_s / decide_us telemetry only -- never a
  // simulated quantity, so determinism is untouched.
  // lint: allow(nondeterminism): telemetry-only decide() latency timing
  using Clock = std::chrono::steady_clock;
  const bool resuming = config.resume_snapshot != nullptr;

  RunResult result;
  result.epoch_s = system.epoch_s();

  // Telemetry attach. `rec` stays null when no sink is listening, so every
  // emission below is skipped with one branch -- recording only observes,
  // it never changes what the loop computes.
  telemetry::Recorder* rec =
      (config.recorder && config.recorder->active()) ? config.recorder
                                                     : nullptr;
  system.set_recorder(rec);
  controller.set_recorder(rec);

  const std::size_t n_cores = system.n_cores();
  const std::size_t n_levels = system.config().vf_table().size();

  // Hot-swap bookkeeping: `active` is whichever controller currently
  // drives the loop; replacements built through the registry are owned
  // here so the caller's controller object is never deleted.
  Controller* active = &controller;
  std::vector<std::unique_ptr<Controller>> swapped_in;
  std::size_t next_swap = 0;
  std::size_t next_event = 0;
  std::size_t start_epoch = 0;

  // Double-buffered hot-loop state: `levels` drives the next step while
  // `next_levels` receives the controller's decision, then the two swap.
  // The one EpochResult (SoA core block included) is rewritten in place
  // each epoch, so the steady-state loop performs zero heap allocations
  // (verified by tests/alloc_test.cpp).
  std::vector<std::size_t> levels(n_cores, 0);
  std::vector<std::size_t> next_levels(n_cores, 0);
  EpochResult obs;

  // Fault engine, built up front (the construction allocates; attachment
  // happens after warmup so fault-event epochs count from measured epoch
  // 0, like budget_events).
  std::optional<FaultEngine> fault_engine;
  if (config.faults != nullptr && !config.faults->empty()) {
    fault_engine.emplace(*config.faults, n_cores);
  }

  // Watchdog state, preallocated outside the epoch loop. `fallback_hold`
  // counts the epochs each core still owes at the safe level; the safe
  // level itself is re-derived whenever the observed budget moves (cap
  // events and budget-step faults both shift it).
  const WatchdogConfig& wd = config.watchdog;
  std::vector<std::size_t> fallback_hold(n_cores, 0);
  std::size_t consecutive_violations = 0;
  std::size_t safe_level = 0;
  double safe_level_budget_w = -1.0;

  if (resuming) {
    // Restore the four sections in wire order (see runner.hpp). Every
    // structural property was checked by the Reader's constructor; the
    // checks here are the semantic ones -- does this blob describe *this*
    // run's configuration?
    snapshot::Reader r(*config.resume_snapshot);

    r.open_section(kSnapshotRunnerTag);
    const std::uint64_t e0 = r.u64();
    const std::uint64_t saved_event = r.u64();
    const std::uint64_t saved_swap = r.u64();
    if (e0 >= config.epochs) {
      throw snapshot::SnapshotError(
          snapshot::SnapshotStatus::kBadValue,
          "snapshot captured at epoch " + std::to_string(e0) +
              " but the run has only " + std::to_string(config.epochs) +
              " epochs");
    }
    if (saved_event > config.budget_events.size()) {
      throw snapshot::SnapshotError(
          snapshot::SnapshotStatus::kBadValue,
          "snapshot budget-event cursor beyond the run's schedule");
    }
    if (saved_swap > config.swaps.size()) {
      throw snapshot::SnapshotError(
          snapshot::SnapshotStatus::kBadValue,
          "snapshot swap cursor beyond the run's schedule");
    }
    const std::uint64_t saved_cores = r.u64();
    if (saved_cores != n_cores) {
      throw snapshot::SnapshotError(
          snapshot::SnapshotStatus::kDimensionMismatch,
          "snapshot has " + std::to_string(saved_cores) +
              " cores, the system has " + std::to_string(n_cores));
    }
    for (std::size_t i = 0; i < n_cores; ++i) {
      const std::uint64_t l = r.u64();
      if (l >= n_levels) {
        throw snapshot::SnapshotError(snapshot::SnapshotStatus::kBadValue,
                                      "snapshot level out of range");
      }
      levels[i] = static_cast<std::size_t>(l);
    }
    for (std::size_t i = 0; i < n_cores; ++i) {
      fallback_hold[i] = static_cast<std::size_t>(r.u64());
    }
    consecutive_violations = static_cast<std::size_t>(r.u64());
    r.expect_section_end();

    r.open_section(kSnapshotSystemTag);
    system.load_state(r);
    r.expect_section_end();

    if (fault_engine.has_value() != r.has_section(kSnapshotFaultTag)) {
      throw snapshot::SnapshotError(
          snapshot::SnapshotStatus::kBadValue,
          "run fault schedule and snapshot FLTE section must agree");
    }
    if (fault_engine.has_value()) {
      r.open_section(kSnapshotFaultTag);
      fault_engine->load_state(r);
      r.expect_section_end();
    }

    start_epoch = static_cast<std::size_t>(e0);
    next_event = static_cast<std::size_t>(saved_event);
    next_swap = static_cast<std::size_t>(saved_swap);

    // A swap had already fired when the snapshot was taken: rebuild the
    // replacement through the registry. load_state() below covers its
    // entire state, so no on_budget_change() replay is needed.
    if (next_swap > 0) {
      const SwapEvent& sw = config.swaps[next_swap - 1];
      swapped_in.push_back(ControllerRegistry::instance().make(
          sw.controller, system.config(), sw.overrides));
      active = swapped_in.back().get();
      active->set_recorder(rec);
    }

    r.open_section(kSnapshotControllerTag);
    const std::string saved_name = r.str();
    if (saved_name != active->name()) {
      throw snapshot::SnapshotError(
          snapshot::SnapshotStatus::kBadValue,
          "snapshot controller '" + saved_name +
              "' does not match the run's '" + active->name() + "'");
    }
    active->load_state(r);
    r.expect_section_end();

    // The engine resumes exactly where it latched; attach now (the
    // resumed loop has no warmup region).
    if (fault_engine.has_value()) system.set_fault_engine(&*fault_engine);
  } else {
    levels = controller.initial_levels(n_cores);
    if (levels.size() != n_cores) {
      throw std::logic_error("controller initial_levels size mismatch");
    }
  }

  result.controller_name = active->name();
  result.start_epoch = start_epoch;
  result.epochs = config.epochs - start_epoch;
  if (config.keep_traces) result.trace.reserve(result.epochs);

  telemetry::Histogram* decide_hist = nullptr;
  if (rec) {
    rec->begin_run({active->name(), n_cores, result.epochs, system.epoch_s(),
                    config.session_tag});
    // decide() latencies span sub-us table walks to ~1 s global solves:
    // log-spaced microsecond bins covering 0.1 us .. 10 s.
    decide_hist = &rec->histogram(
        "decide_us", telemetry::Histogram::exponential_edges(0.1, 1e7, 17));
  }

  power::EnergyAccountant accountant(system.budget_w());

  // A/B swap report bookkeeping: one budget-compliance segment per
  // controller tenure (swaps split the measured region). Plain sums kept
  // in the loop -- no trace required, so the report exists even with
  // keep_traces = false. `reserve` up front keeps swap epochs' vector
  // growth out of the steady-state loop.
  struct SwapSegment {
    std::size_t epochs = 0;
    double overshoot_sum_w = 0.0;
    std::size_t violations = 0;
    double mean_overshoot_w() const {
      return epochs == 0 ? 0.0 : overshoot_sum_w / static_cast<double>(epochs);
    }
    double violation_frac() const {
      return epochs == 0
                 ? 0.0
                 : static_cast<double>(violations) / static_cast<double>(epochs);
    }
  };
  std::vector<SwapSegment> swap_segments;
  swap_segments.reserve(config.swaps.size() + 1);
  SwapSegment current_segment;
  result.swap_report.reserve(config.swaps.size());

  // One epoch of the closed loop -- the single code path both the warmup
  // and measured regions share; returns the decide_into() wall time. The
  // ODRL_CHECKED contracts bracket the controller boundary: the out-span
  // must be well-shaped and non-aliasing going in, and every level the
  // controller wrote must index the V/F table coming out -- caught here,
  // one call before the system would fault on it. The watchdog slots in
  // on both sides of that boundary: it observes the step's chip power
  // before the decision and sanitizes/overrides the decision *before*
  // validate_levels, so a misbehaving controller degrades to the safe
  // level instead of aborting a checked run.
  auto run_epoch = [&]() -> double {
    system.step_into(levels, obs);
    if (wd.enabled) {
      if (obs.budget_w != safe_level_budget_w) {
        safe_level = safe_uniform_level(system.config(), obs.budget_w);
        safe_level_budget_w = obs.budget_w;
      }
      const FaultEngine* fe = system.fault_engine();
      const bool faults_active = fe != nullptr && fe->any_active();
      if (faults_active &&
          obs.chip_power_w > obs.budget_w * (1.0 + wd.violation_margin)) {
        ++consecutive_violations;
      } else {
        consecutive_violations = 0;
      }
    }
    ODRL_VALIDATE(validate_out_span(obs, next_levels));
    const auto t0 = Clock::now();
    active->decide_into(obs, next_levels);
    const auto t1 = Clock::now();
    if (wd.enabled) {
      // Out-of-range decisions: sanitize per offending core.
      for (std::size_t i = 0; i < n_cores; ++i) {
        if (next_levels[i] >= n_levels) {
          next_levels[i] = safe_level;
          ++result.watchdog_invalid_decisions;
          if (fallback_hold[i] == 0) ++result.watchdog_fallback_entries;
          fallback_hold[i] = wd.hold_epochs;
        }
      }
      // Chip-wide trip: the controller kept blowing the budget while its
      // inputs were compromised -- every core falls back.
      if (consecutive_violations >= wd.violation_epochs) {
        for (std::size_t i = 0; i < n_cores; ++i) {
          if (fallback_hold[i] == 0) ++result.watchdog_fallback_entries;
          fallback_hold[i] = wd.hold_epochs;
        }
        consecutive_violations = 0;
      }
      // Enforce the safe level on held cores and pay down their holds.
      bool any_fallback = false;
      for (std::size_t i = 0; i < n_cores; ++i) {
        if (fallback_hold[i] > 0) {
          next_levels[i] = safe_level;
          any_fallback = true;
          if (--fallback_hold[i] == 0) ++result.watchdog_fallback_exits;
        }
      }
      if (any_fallback) ++result.watchdog_fallback_epochs;
    }
    ODRL_VALIDATE(validate_levels(next_levels, n_levels));
    levels.swap(next_levels);
    return std::chrono::duration<double>(t1 - t0).count();
  };

  if (!resuming) {
    // Events at epoch 0 are the budget in force when measurement starts;
    // apply them before warmup so warmup learns under that budget rather
    // than the default TDP (see RunConfig::budget_events). A resumed run
    // skips all of this: the snapshot's event cursor already sits past
    // everything the original run processed.
    while (next_event < config.budget_events.size() &&
           config.budget_events[next_event].epoch == 0) {
      const double new_budget = config.budget_events[next_event].budget_w;
      system.set_budget_w(new_budget);
      active->on_budget_change(new_budget);
      if (rec) rec->record_budget_change({system.epochs_run(), new_budget});
      ++next_event;
    }

    // Unmeasured warmup: the loop runs normally, results are discarded.
    for (std::size_t e = 0; e < config.warmup_epochs; ++e) {
      (void)run_epoch();
    }

    // Fault injection starts with the measured region: engine epoch 0 is
    // measured epoch 0 (mirroring budget_events' clock).
    if (fault_engine.has_value()) system.set_fault_engine(&*fault_engine);
  }

  accountant.set_budget_w(system.budget_w());
  for (std::size_t e = start_epoch; e < config.epochs; ++e) {
    // Snapshot capture first: the blob describes the state *before* this
    // epoch's swap and budget events, so a resumed run re-processes them
    // in exactly the order the uninterrupted run did.
    if (config.snapshot_out != nullptr && e == config.snapshot_epoch) {
      snapshot::Writer w;
      w.begin_section(kSnapshotRunnerTag);
      w.u64(e);
      w.u64(next_event);
      w.u64(next_swap);
      w.u64(n_cores);
      for (std::size_t i = 0; i < n_cores; ++i) w.u64(levels[i]);
      for (std::size_t i = 0; i < n_cores; ++i) w.u64(fallback_hold[i]);
      w.u64(consecutive_violations);
      w.end_section();
      w.begin_section(kSnapshotSystemTag);
      system.save_state(w);
      w.end_section();
      if (fault_engine.has_value()) {
        w.begin_section(kSnapshotFaultTag);
        fault_engine->save_state(w);
        w.end_section();
      }
      w.begin_section(kSnapshotControllerTag);
      w.str(active->name());
      active->save_state(w);
      w.end_section();
      *config.snapshot_out = std::move(w).finish();
    }

    // Controller hot-swaps land before the epoch's budget events: the
    // incoming controller sees a same-epoch cap change the way any sitting
    // controller would. It takes over from the current operating point --
    // `levels` keeps driving the chip; initial_levels() is not consulted.
    while (next_swap < config.swaps.size() &&
           config.swaps[next_swap].epoch <= e) {
      const SwapEvent& sw = config.swaps[next_swap];
      std::unique_ptr<Controller> incoming =
          ControllerRegistry::instance().make(sw.controller, system.config(),
                                              sw.overrides);
      incoming->set_recorder(rec);
      incoming->on_budget_change(system.budget_w());
      if (sw.seed_snapshot != nullptr) {
        snapshot::Reader seed(*sw.seed_snapshot);
        seed.open_section(kSnapshotControllerTag);
        const std::string seed_name = seed.str();
        if (seed_name != incoming->name()) {
          throw snapshot::SnapshotError(
              snapshot::SnapshotStatus::kBadValue,
              "seed snapshot controller '" + seed_name +
                  "' does not match incoming '" + incoming->name() + "'");
        }
        incoming->load_state(seed);
        seed.expect_section_end();
      }
      // Close the outgoing controller's compliance segment; the next one
      // starts accumulating at this epoch's step.
      swap_segments.push_back(current_segment);
      current_segment = SwapSegment{};
      const SwapTrace swap_rec{system.epochs_run(), active->name(),
                               incoming->name()};
      result.swaps.push_back(swap_rec);
      if (rec) rec->record_controller_swap(swap_rec);
      active->set_recorder(nullptr);
      active = incoming.get();
      swapped_in.push_back(std::move(incoming));
      ++next_swap;
    }

    while (next_event < config.budget_events.size() &&
           config.budget_events[next_event].epoch <= e) {
      const double new_budget = config.budget_events[next_event].budget_w;
      system.set_budget_w(new_budget);
      accountant.set_budget_w(new_budget);
      active->on_budget_change(new_budget);
      if (rec) rec->record_budget_change({system.epochs_run(), new_budget});
      ++next_event;
    }

    const double decide_s = run_epoch();

    for (double instructions : obs.cores.instructions()) {
      result.total_instructions += instructions;
    }
    // The budget of record for this epoch is the *observed* one --
    // budget-step faults scale it below the cap-event schedule's value,
    // and overshoot must be judged against what was actually in force.
    // Fault-free this equals the accountant's current budget (no-op).
    accountant.set_budget_w(obs.budget_w);
    accountant.add_epoch(obs.true_chip_power_w, obs.epoch_s);
    ++current_segment.epochs;
    if (obs.true_chip_power_w > obs.budget_w) {
      current_segment.overshoot_sum_w += obs.true_chip_power_w - obs.budget_w;
      ++current_segment.violations;
    }
    if (obs.thermal_violations > 0) ++result.thermal_violation_epochs;
    result.decision_time_s += decide_s;
    ++result.decisions;

    // The typed record for this epoch, shared verbatim between the
    // in-memory trace and the telemetry sinks. Stamped with the *system's*
    // epoch counter (obs.epoch) so it shares a clock with the controller
    // events (realloc, budget_change) that land in the same trace stream;
    // trace[i] is measured epoch i regardless.
    EpochTrace record;
    record.epoch = obs.epoch;
    record.budget_w = obs.budget_w;
    record.chip_power_w = obs.chip_power_w;
    record.true_chip_power_w = obs.true_chip_power_w;
    record.total_ips = obs.total_ips;
    record.max_temp_c = obs.max_temp_c;
    record.thermal_violations =
        static_cast<std::uint32_t>(obs.thermal_violations);
    record.decide_s = decide_s;
    if (config.keep_traces) result.trace.push_back(record);
    if (rec) {
      rec->record_epoch(record);
      decide_hist->observe(decide_s * 1e6);
      if (rec->wants_cores(record.epoch)) {
        // Per-core emission reads the SoA columns directly -- no
        // CoreObservation temporaries on the telemetry path.
        const std::span<const std::size_t> level = obs.cores.level();
        const std::span<const double> ips = obs.cores.ips();
        const std::span<const double> power = obs.cores.power_w();
        const std::span<const double> temp = obs.cores.temp_c();
        const std::span<const double> stall = obs.cores.mem_stall_frac();
        for (std::size_t i = 0; i < n_cores; ++i) {
          rec->record_core({record.epoch, static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(level[i]), ips[i],
                            power[i], temp[i], stall[i]});
        }
      }
    }
  }

  // Assemble the A/B report: swap i sits between segments i and i+1.
  swap_segments.push_back(current_segment);
  for (std::size_t i = 0; i < result.swaps.size(); ++i) {
    SwapImpact impact;
    impact.epoch = result.swaps[i].epoch;
    impact.from = result.swaps[i].from;
    impact.to = result.swaps[i].to;
    const SwapSegment& before = swap_segments[i];
    const SwapSegment& after = swap_segments[i + 1];
    impact.epochs_before = before.epochs;
    impact.epochs_after = after.epochs;
    impact.mean_overshoot_w_before = before.mean_overshoot_w();
    impact.mean_overshoot_w_after = after.mean_overshoot_w();
    impact.violation_frac_before = before.violation_frac();
    impact.violation_frac_after = after.violation_frac();
    result.swap_report.push_back(std::move(impact));
  }

  result.total_energy_j = accountant.total_energy_j();
  result.otb_energy_j = accountant.otb_energy_j();
  result.time_over_s = accountant.time_over_budget_s();
  result.peak_overshoot_w = accountant.peak_overshoot_w();
  result.mean_power_w = accountant.mean_power_w();

  if (fault_engine.has_value()) {
    result.fault_events_applied = fault_engine->counts().total();
  }

  if (rec) {
    rec->counter("run.epochs").add(result.epochs);
    rec->counter("run.decisions").add(result.decisions);
    rec->counter("run.thermal_violation_epochs")
        .add(result.thermal_violation_epochs);
    rec->gauge("run.mean_power_w").set(result.mean_power_w);
    rec->gauge("run.otb_energy_j").set(result.otb_energy_j);
    if (fault_engine.has_value()) {
      const FaultCounts& counts = fault_engine->counts();
      rec->counter("faults.sensor").add(counts.sensor);
      rec->counter("faults.actuation").add(counts.actuation);
      rec->counter("faults.budget").add(counts.budget);
      rec->counter("faults.hotplug").add(counts.hotplug);
    }
    if (wd.enabled) {
      rec->counter("watchdog.invalid_decisions")
          .add(result.watchdog_invalid_decisions);
      rec->counter("watchdog.fallback_entries")
          .add(result.watchdog_fallback_entries);
      rec->counter("watchdog.fallback_exits")
          .add(result.watchdog_fallback_exits);
      rec->counter("watchdog.fallback_epochs")
          .add(result.watchdog_fallback_epochs);
    }
    rec->end_run();
  }
  // Detach: the recorder's and engine's lifetimes are only guaranteed for
  // this run.
  system.set_fault_engine(nullptr);
  system.set_recorder(nullptr);
  controller.set_recorder(nullptr);
  active->set_recorder(nullptr);
  return result;
}

}  // namespace odrl::sim
