// The recording facade the sim/core layers talk to. A Recorder owns the
// run's named instruments (counters/gauges/histograms), applies the
// sampling policy, and fans records out to the attached sinks.
//
// Cost model: a Recorder with no sinks is inert -- every record_* call is
// one empty()-check and a return, so instrumented code paths guard with
// `if (rec && rec->active())` and pay nothing when telemetry is off (the
// <3% no-op bound on the decide() hot path is enforced by construction:
// the controllers' instrumentation sits outside their parallel loops and
// behind a null check).
//
// Threading/determinism contract: all record_* and instrument calls of
// ONE run must come from one thread (the closed-loop driver's), in epoch
// order. Sinks therefore observe a deterministic record sequence, and
// recording never changes RunResults (it only reads them). That
// single-writer shape used to be an implicit convention; the internals
// are now guarded by an annotated mutex (rank kRecorder) so a
// Recorder shared across threads -- e.g. fleet-level counters aggregated
// over per-chip runs -- is merely *interleaved*, never corrupted, and the
// guard is machine-checked by -Wthread-safety in CI.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/metric.hpp"
#include "telemetry/record.hpp"
#include "telemetry/sink.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace odrl::telemetry {

struct RecorderConfig {
  /// Keep every k-th epoch (and its per-core records); controller events
  /// (realloc, budget_change) always pass -- they are sparse and losing
  /// them would orphan the mu/epsilon story the traces exist to tell.
  std::size_t sample_every = 1;
  /// Also emit per-core records (n_cores rows per sampled epoch).
  bool per_core = false;

  void validate() const;
};

class Recorder {
 public:
  Recorder() = default;
  explicit Recorder(RecorderConfig config);

  /// Sinks are shared: callers typically keep their own handle (e.g. a
  /// MemorySink to inspect after the run).
  void add_sink(std::shared_ptr<Sink> sink);

  /// True once a sink is attached; the universal hot-path guard. Lock-free
  /// (one relaxed atomic load), so inactive instrumented paths still pay
  /// nothing.
  bool active() const { return n_sinks_.load(std::memory_order_acquire) != 0; }
  const RecorderConfig& config() const { return config_; }

  /// True when per-core records are wanted for this epoch -- callers check
  /// before assembling n_cores records.
  bool wants_cores(std::uint64_t epoch) const {
    return active() && config_.per_core && sampled(epoch);
  }
  bool sampled(std::uint64_t epoch) const {
    return epoch % config_.sample_every == 0;
  }

  void begin_run(const RunInfo& info);
  /// Emits the metrics snapshot, then end_run, to every sink.
  void end_run() ODRL_EXCLUDES(mutex_);

  void record_epoch(const EpochRecord& rec);
  void record_core(const CoreRecord& rec);
  void record_realloc(const ReallocRecord& rec);
  void record_budget_change(const BudgetChangeRecord& rec);
  void record_controller_swap(const ControllerSwapRecord& rec);

  /// Named instruments, created on first use. Names are sorted in the
  /// snapshot, so emission order never depends on creation order. The
  /// lookup locks (the maps may rebalance); the returned reference is
  /// stable (std::map) and updated by the run's single recording thread
  /// per the contract above.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Get-or-create; on reuse the edges must match the existing histogram
  /// (throws std::invalid_argument otherwise).
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_edges);

  MetricsSnapshot snapshot() const ODRL_EXCLUDES(mutex_);

 private:
  MetricsSnapshot snapshot_locked() const ODRL_REQUIRES(mutex_);

  RecorderConfig config_;
  mutable util::Mutex mutex_{util::LockRank::kRecorder, "recorder"};
  /// Mirror of sinks_.size() so active() stays lock-free.
  std::atomic<std::size_t> n_sinks_{0};
  std::vector<std::shared_ptr<Sink>> sinks_ ODRL_GUARDED_BY(mutex_);
  std::map<std::string, Counter> counters_ ODRL_GUARDED_BY(mutex_);
  std::map<std::string, Gauge> gauges_ ODRL_GUARDED_BY(mutex_);
  std::map<std::string, Histogram> histograms_ ODRL_GUARDED_BY(mutex_);
};

}  // namespace odrl::telemetry
