// chip_1024 and fleet_8x128: OD-RL closed loops driven through
// run_closed_loop / run_multichip. The benchmark sees each layer through
// two forwarding seams it hands to the library: a controller that wraps
// the registry-built OD-RL controller (core) and a workload that wraps the
// generated workload (workload). Everything between two decisions that is
// neither is the simulator's own time (sim).
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/odrl_controller.hpp"
#include "sim/controller_registry.hpp"
#include "sim/multichip.hpp"
#include "sim/runner.hpp"
#include "task/runtime.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using namespace odrl;

/// Forwards every call to the wrapped workload; times step().
class TimedWorkload final : public workload::Workload {
 public:
  TimedWorkload(std::unique_ptr<workload::Workload> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::size_t n_cores() const override { return inner_->n_cores(); }
  std::span<const workload::PhaseSample> step() override {
    if (!tracer_.enabled()) return inner_->step();
    tracer_.open(now_ns());
    const auto out = inner_->step();
    tracer_.close(SpanName::kWorkloadStep, steps_++, now_ns());
    return out;
  }
  std::string core_label(std::size_t core) const override {
    return inner_->core_label(core);
  }
  void save_state(snapshot::Writer& w) const override {
    inner_->save_state(w);
  }
  void load_state(snapshot::Reader& r) override { inner_->load_state(r); }

 private:
  std::unique_ptr<workload::Workload> inner_;
  Tracer& tracer_;
  std::uint64_t steps_ = 0;
};

/// Forwards every call to the wrapped controller; times decide_into(),
/// checks and fingerprints its output. One exception to pure forwarding:
/// once it has decided, initial_levels() hands back the last decision, so
/// consecutive measured batches (separate run_closed_loop calls) continue
/// one unbroken closed loop instead of restarting from mid-table levels.
class TimedController final : public sim::Controller {
 public:
  TimedController(std::unique_ptr<sim::Controller> inner,
                  std::size_t n_levels, Tracer& tracer, Samples& samples)
      : inner_(std::move(inner)),
        odrl_(dynamic_cast<const core::OdrlController*>(inner_.get())),
        n_levels_(n_levels),
        tracer_(tracer),
        samples_(samples) {}

  std::string name() const override { return inner_->name(); }
  std::vector<std::size_t> initial_levels(std::size_t n_cores) override {
    if (!last_.empty()) return last_;
    return inner_->initial_levels(n_cores);
  }

  void decide_into(const sim::EpochResult& obs,
                   std::span<std::size_t> out) override {
    const std::size_t reallocs_before = reallocs();
    const std::int64_t t0 = now_ns();
    if (tracer_.enabled()) {
      if (epoch_open_) tracer_.close(SpanName::kEpoch, decisions_ - 1, t0);
      tracer_.open(t0);  // the epoch this decision starts
      tracer_.open(t0);  // the decision itself
      epoch_open_ = true;
    }
    inner_->decide_into(obs, out);
    const std::int64_t t1 = now_ns();
    const bool realloc = reallocs() != reallocs_before;
    if (tracer_.enabled()) {
      tracer_.close(realloc ? SpanName::kDecideRealloc : SpanName::kDecideTd,
                    decisions_, t1);
    }
    if (sampling_) samples_.add_ns(t1 - t0);
    ++decisions_;
    for (const std::size_t level : out) {
      if (level >= n_levels_) ++bad_levels_;
    }
    if (fingerprint_) fnv_fold(digest_, out);
    last_.assign(out.begin(), out.end());
  }

  /// Ends the open epoch span at this chip's last decision; called once a
  /// traced batch has returned.
  void end_batch() {
    if (epoch_open_) {
      tracer_.close(SpanName::kEpoch, decisions_ - 1, tracer_.last_ns());
      epoch_open_ = false;
    }
  }

  void on_budget_change(double w) override { inner_->on_budget_change(w); }
  void reset() override { inner_->reset(); }
  void save_state(snapshot::Writer& w) const override {
    inner_->save_state(w);
  }
  void load_state(snapshot::Reader& r) override { inner_->load_state(r); }
  void set_threads(std::size_t threads) override {
    inner_->set_threads(threads);
  }
  void set_runtime(std::shared_ptr<task::Runtime> runtime) override {
    inner_->set_runtime(std::move(runtime));
  }
  void set_recorder(telemetry::Recorder* recorder) override {
    inner_->set_recorder(recorder);
  }

  void set_sampling(bool on) { sampling_ = on; }
  void set_fingerprint(bool on) { fingerprint_ = on; }
  std::uint64_t digest() const { return digest_; }
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t bad_levels() const { return bad_levels_; }

 private:
  std::size_t reallocs() const {
    return odrl_ != nullptr ? odrl_->realloc_count() : 0;
  }

  std::unique_ptr<sim::Controller> inner_;
  const core::OdrlController* odrl_;
  std::size_t n_levels_;
  Tracer& tracer_;
  Samples& samples_;
  std::vector<std::size_t> last_;
  bool epoch_open_ = false;
  bool sampling_ = false;
  bool fingerprint_ = true;
  std::uint64_t digest_ = kFnvBasis;
  std::uint64_t decisions_ = 0;
  std::uint64_t bad_levels_ = 0;
};

/// One simulated chip under a timed OD-RL controller. Heap-allocated so
/// the tracer and samples the seams point at never move.
struct Chip {
  Tracer tracer;
  Samples samples;
  std::unique_ptr<sim::ManyCoreSystem> system;
  std::unique_ptr<TimedController> controller;

  Chip(std::size_t cores, std::uint64_t seed, std::size_t index)
      : tracer(static_cast<std::uint32_t>(index)) {
    const arch::ChipConfig cc = arch::ChipConfig::make(cores, kBudgetFraction);
    sim::SimConfig sc;
    sc.sensor_noise_rel = kSensorNoise;
    sc.seed = sim::fleet_chip_seed(seed, index, 0);
    sc.threads = 1;
    auto generated = std::make_unique<workload::GeneratedWorkload>(
        workload::GeneratedWorkload::mixed_suite(
            cores, sim::fleet_chip_seed(seed, index, 1)));
    system = std::make_unique<sim::ManyCoreSystem>(
        cc, std::make_unique<TimedWorkload>(std::move(generated), tracer),
        sc);
    sim::ControllerOverrides ov;
    ov.set("seed", std::to_string(sim::fleet_chip_seed(seed, index, 2)));
    controller = std::make_unique<TimedController>(
        sim::make_controller("OD-RL", cc, ov), cc.vf_table().size(), tracer,
        samples);
  }
};

/// Size of one closed-loop workload.
struct LoopShape {
  std::size_t cores;
  std::size_t chips;
  std::size_t warmup_epochs;  ///< per chip, part of setup
  std::size_t batch_epochs;   ///< per chip, one measured batch
  std::size_t width;          ///< execution width (threads doing sim work)
};

/// Simulated totals of one batch.
struct Totals {
  double instructions = 0.0;
  double energy_j = 0.0;
  double otb_energy_j = 0.0;
};

task::RuntimeStats operator-(const task::RuntimeStats& a,
                             const task::RuntimeStats& b) {
  task::RuntimeStats d;
  d.tasks_executed = a.tasks_executed - b.tasks_executed;
  d.steals = a.steals - b.steals;
  d.steal_attempts = a.steal_attempts - b.steal_attempts;
  d.overflows = a.overflows - b.overflows;
  d.max_queue_depth = a.max_queue_depth;
  d.worker_parks = a.worker_parks - b.worker_parks;
  d.wait_parks = a.wait_parks - b.wait_parks;
  return d;
}

task::RuntimeStats& operator+=(task::RuntimeStats& a,
                               const task::RuntimeStats& d) {
  a.tasks_executed += d.tasks_executed;
  a.steals += d.steals;
  a.steal_attempts += d.steal_attempts;
  a.overflows += d.overflows;
  a.max_queue_depth = std::max(a.max_queue_depth, d.max_queue_depth);
  a.worker_parks += d.worker_parks;
  a.wait_parks += d.wait_parks;
  return a;
}

/// One set-up workload: its chips and, for a fleet, the shared runtime.
struct Instance {
  std::vector<std::unique_ptr<Chip>> chips;
  std::shared_ptr<task::Runtime> runtime;

  Instance(const LoopShape& shape, std::uint64_t seed) {
    for (std::size_t i = 0; i < shape.chips; ++i) {
      chips.push_back(std::make_unique<Chip>(shape.cores, seed, i));
    }
    if (shape.chips > 1) {
      runtime = std::make_shared<task::Runtime>(shape.width);
    }
  }

  /// Runs `epochs` epochs on every chip; `task` receives the counter
  /// deltas of the runtime doing the parallel work (the fleet's shared
  /// runtime, or the lone chip's private one).
  Totals run(std::size_t epochs, task::RuntimeStats* task = nullptr) {
    sim::RunConfig rc;
    rc.epochs = epochs;
    rc.keep_traces = false;
    if (chips.size() == 1) {
      Chip& c = *chips[0];
      rc.threads = 1;
      const task::RuntimeStats before = c.system->runtime().stats();
      const sim::RunResult r =
          sim::run_closed_loop(*c.system, *c.controller, rc);
      if (task != nullptr) *task = c.system->runtime().stats() - before;
      return {r.total_instructions, r.total_energy_j, r.otb_energy_j};
    }
    std::vector<sim::ChipSpec> specs(chips.size());
    for (std::size_t i = 0; i < chips.size(); ++i) {
      specs[i].system = chips[i]->system.get();
      specs[i].controller = chips[i]->controller.get();
      specs[i].config = rc;
      specs[i].tag = "chip" + std::to_string(i);
    }
    sim::MultiChipConfig mc;
    mc.runtime = runtime;
    const sim::MultiChipResult r = sim::run_multichip(specs, mc);
    if (task != nullptr) *task = r.runtime_stats;
    return {r.total_instructions, r.total_energy_j, r.otb_energy_j};
  }

  std::uint64_t digest() const {
    if (chips.size() == 1) return chips[0]->controller->digest();
    std::uint64_t d = kFnvBasis;
    for (const auto& c : chips) {
      d ^= c->controller->digest();
      d *= 0x100000001b3ull;
    }
    return d;
  }
};

/// What the two closed-loop workloads share: setup, the measured-batch
/// loop, and the end-to-end and per-layer metric derivation.
class ClosedLoopBench {
 public:
  ClosedLoopBench(const Options& opt, LoopShape shape)
      : opt_(opt), shape_(shape) {}

  Report run() {
    // The measured instance is the first setup; the others are set up in
    // child processes between batches and thrown away.
    const SetupRun first = timed_setup(live_);
    setup_digest_ = first.fingerprint;
    loop_.setup_s.push_back(first.seconds);

    BatchLatency latency;
    Samples batch_samples;
    std::int64_t traced_wall_ns = 0;
    task::RuntimeStats task_sum;
    for (auto& c : live_->chips) c->controller->set_sampling(true);
    loop_.run(
        opt_,
        [&](std::size_t b, bool traced) {
          for (auto& c : live_->chips) c->tracer.set_enabled(traced);
          task::RuntimeStats task;
          const std::int64_t t0 = now_ns();
          const Totals totals = live_->run(shape_.batch_epochs, &task);
          const std::int64_t t1 = now_ns();
          if (traced) {
            batch_tracer_.leaf(SpanName::kBatch, b, t0, t1);
            for (auto& c : live_->chips) c->controller->end_batch();
            traced_wall_ns += t1 - t0;
            task_sum += task;
          }
          for (auto& c : live_->chips) {
            if (!traced) batch_samples.append(c->samples);
            c->samples.clear();
          }
          if (!traced) latency.take(batch_samples);
          if (b == 0) {
            // The golden prefix ends here: setup plus the first batch.
            check_.emplace_back("levels_digest", hex64(live_->digest()));
            check_.emplace_back("instructions", exact(totals.instructions));
            check_.emplace_back("energy_j", exact(totals.energy_j));
            check_.emplace_back("otb_energy_j", exact(totals.otb_energy_j));
            for (auto& c : live_->chips) c->controller->set_fingerprint(false);
          }
          return BatchTime{
              static_cast<double>(shape_.chips * shape_.batch_epochs) /
                  (1e-9 * static_cast<double>(t1 - t0)),
              t1 - t0};
        },
        [&] {
          const SetupRun extra = setup_in_child([&] {
            std::unique_ptr<Instance> in;
            return timed_setup(in);
          });
          if (extra.fingerprint != setup_digest_) {
            errors_.push_back("setup " + std::to_string(loop_.setup_s.size()) +
                              " decided differently from setup 0");
          }
          return extra.seconds;
        });

    Report rep;
    rep.check = check_;
    rep.errors = errors_;
    std::uint64_t decisions = 0;
    std::uint64_t bad = 0;
    for (auto& c : live_->chips) {
      decisions += c->controller->decisions();
      bad += c->controller->bad_levels();
    }
    // Warmup decisions belong to setup.
    rep.attempted = decisions - shape_.chips * shape_.warmup_epochs;
    rep.failed = bad;
    if (bad != 0) {
      rep.errors.push_back(std::to_string(bad) + " out-of-range levels");
    }
    if (!loop_.error.empty()) {
      // The operation that threw is attempted and failed.
      ++rep.attempted;
      ++rep.failed;
      rep.errors.push_back("run stopped: " + loop_.error);
    }
    rep.info.emplace_back("decision_samples",
                          static_cast<double>(latency.samples));
    rep.info.emplace_back("batch_chip_epochs",
                          static_cast<double>(shape_.chips *
                                              shape_.batch_epochs));
    loop_.add_info(rep);

    if (!opt_.trace) {
      rep.add("setup_s", median(loop_.setup_s), "s");
      rep.add("epochs_per_s", loop_.rates.median_rate(), "1/s");
      rep.add("decision_us_p50", loop_.rates.median_time(latency.p50), "us");
      rep.add("decision_us_p99", loop_.rates.median_time(latency.p99), "us");
      rep.add("peak_rss_mb", peak_rss_mb(), "MB");
      return rep;
    }
    layer_metrics(rep, traced_wall_ns, task_sum);
    return rep;
  }

 private:
  /// Builds and warms up one instance into `in`, timed; the fingerprint
  /// is what it decided.
  SetupRun timed_setup(std::unique_ptr<Instance>& in) const {
    const std::int64_t t0 = now_ns();
    in = std::make_unique<Instance>(shape_, opt_.seed);
    in->run(shape_.warmup_epochs);
    SetupRun r;
    r.seconds = 1e-9 * static_cast<double>(now_ns() - t0);
    r.fingerprint = in->digest();
    return r;
  }

  void layer_metrics(Report& rep, std::int64_t traced_wall_ns,
                     const task::RuntimeStats& task) {
    std::vector<const Tracer*> tracers;
    for (const auto& c : live_->chips) tracers.push_back(&c->tracer);
    const SpanStats epoch = combined(tracers, SpanName::kEpoch);
    const SpanStats td = combined(tracers, SpanName::kDecideTd);
    const SpanStats re = combined(tracers, SpanName::kDecideRealloc);
    const SpanStats step = combined(tracers, SpanName::kWorkloadStep);
    SpanStats decide = td;
    decide.count += re.count;
    decide.total_ns += re.total_ns;

    LayerValues v;
    v.sim_epoch_us = epoch.mean_us();
    v.sim_self_us = epoch.mean_self_us();
    v.workload_step_us = step.mean_us();
    v.core_decide_us = decide.mean_us();
    v.core_decide_td_us = td.mean_us();
    v.core_decide_realloc_us = re.mean_us();
    v.core_reallocs = static_cast<double>(re.count);
    const double epochs = static_cast<double>(epoch.count);
    if (epochs > 0) {
      v.task_tasks_per_epoch = static_cast<double>(task.tasks_executed) /
                               epochs;
      v.task_steals_per_epoch = static_cast<double>(task.steals) / epochs;
    }
    if (task.steal_attempts > 0) {
      v.task_steal_hit_ratio = static_cast<double>(task.steals) /
                               static_cast<double>(task.steal_attempts);
    }
    v.task_overflows = static_cast<double>(task.overflows);
    v.task_max_queue_depth = static_cast<double>(task.max_queue_depth);
    v.task_worker_parks = static_cast<double>(task.worker_parks);
    v.task_wait_parks = static_cast<double>(task.wait_parks);
    const double wall = static_cast<double>(traced_wall_ns);
    if (wall > 0) {
      v.multichip_parallelism = static_cast<double>(epoch.total_ns) / wall;
      v.trace_unattributed_frac =
          1.0 - static_cast<double>(epoch.total_ns) /
                    (static_cast<double>(shape_.width) * wall);
    }
    v.trace_overhead_frac = loop_.trace_overhead();
    add_layer_metrics(rep, v);

    rep.info.emplace_back("traced_epochs", epochs);
    tracers.push_back(&batch_tracer_);
    std::uint64_t spans = 0;
    for (const Tracer* t : tracers) spans += t->spans_recorded();
    rep.info.emplace_back("spans", static_cast<double>(spans));
    if (!opt_.span_path.empty()) {
      rep.info.emplace_back(
          "spans_written",
          static_cast<double>(write_spans(opt_.span_path, tracers)));
    }
  }

  const Options& opt_;
  LoopShape shape_;
  std::unique_ptr<Instance> live_;  ///< the measured instance
  MeasureLoop loop_;
  std::uint64_t setup_digest_ = 0;
  std::vector<std::pair<std::string, std::string>> check_;
  std::vector<std::string> errors_;
  /// Batch spans (the main thread's; chips trace on their own).
  Tracer batch_tracer_{1000};
};

}  // namespace

Report run_chip(const Options& opt) {
  // One 1024-core chip, serial: the paper's scale point.
  return ClosedLoopBench(opt, {1024, 1, 256, 1024, 1}).run();
}

Report run_fleet(const Options& opt) {
  // Eight 128-core chips on one 2-worker runtime.
  return ClosedLoopBench(opt, {128, 8, 256, 256, 2}).run();
}

}  // namespace perfbench
