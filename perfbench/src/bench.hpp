// Shared pieces of the end-to-end benchmark: options, the outside-in span
// tracer, latency sample sets and the result record every workload fills.
//
// The benchmark reaches the library only through public seams (forwarding
// controllers and workloads, run_closed_loop / run_multichip, the service
// connection and wire codec), so every span here is recorded in the
// benchmark's own code, around a call into one layer.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Every chip and tenant runs at 60% of its TDP with 2% sensor noise.
inline constexpr double kBudgetFraction = 0.6;
inline constexpr double kSensorNoise = 0.02;
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty = do not write).
  std::string span_path;
};

/// Span names. One enum for every workload keeps the per-name aggregates
/// a flat array.
enum class SpanName : std::uint8_t {
  kBatch,             ///< one measured batch (run_closed_loop / run_multichip)
  kEpoch,             ///< sim.epoch: one decide start to the next
  kDecideTd,          ///< core.decide without a budget reallocation
  kDecideRealloc,     ///< core.decide where realloc_count() advanced
  kWorkloadStep,      ///< workload.step
  kRound,             ///< service round: every tenant steps once
  kTenantStep,        ///< gen.tenant_step (generator's own chip)
  kStepEncode,        ///< service.encode of a StepEpoch request
  kStepCall,          ///< service.call: post + take_reply
  kStepDecode,        ///< service.decode of the StepEpoch reply
  kStepHandle,        ///< service.handle on the shadow server
  kSnapshotEncode,
  kSnapshotCall,
  kSnapshotDecode,
  kSnapshotHandle,    ///< snapshot handle on the shadow server
  kCount
};

const char* span_name(SpanName name);

/// Aggregate of every closed span of one name.
struct SpanStats {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;  ///< total minus time covered by child spans

  double mean_us() const {
    return count == 0 ? 0.0 : 1e-3 * static_cast<double>(total_ns) /
                                  static_cast<double>(count);
  }
  double mean_self_us() const {
    return count == 0 ? 0.0 : 1e-3 * static_cast<double>(self_ns) /
                                  static_cast<double>(count);
  }
};

/// One recorded span, as written to the span file.
struct SpanRecord {
  std::uint64_t seq = 0;     ///< order of opening within this tracer
  std::uint64_t parent = 0;  ///< seq of the enclosing span, 0 = root
  std::uint64_t id = 0;      ///< epoch or request id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanName name = SpanName::kBatch;
};

/// Stack-shaped span recorder for one thread of control (one chip's closed
/// loop, or the service generator). Spans nest: close() ends the innermost
/// open span, credits its duration to the enclosing span's child time and
/// folds it into the per-name aggregates. The first kMaxRecords spans are
/// also kept verbatim for write-out; the aggregates cover every span.
class Tracer {
 public:
  static constexpr std::size_t kMaxRecords = std::size_t{1} << 15;
  /// Tracers of concurrently running chips are told apart in the span
  /// file by `lane`.
  explicit Tracer(std::uint32_t lane = 0);

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span at `t` (its name is given when it closes).
  void open(std::int64_t t);
  /// Closes the innermost open span at `t`.
  void close(SpanName name, std::uint64_t id, std::int64_t t);
  /// A leaf span, opened and closed in one call.
  void leaf(SpanName name, std::uint64_t id, std::int64_t start,
            std::int64_t end);
  /// Last timestamp this tracer saw (open or close).
  std::int64_t last_ns() const noexcept { return last_ns_; }

  const SpanStats& stats(SpanName name) const {
    return stats_[static_cast<std::size_t>(name)];
  }
  std::uint64_t spans_recorded() const noexcept { return next_seq_ - 1; }
  std::span<const SpanRecord> records() const { return records_; }
  std::uint32_t lane() const noexcept { return lane_; }

 private:
  struct Open {
    std::uint64_t seq = 0;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };
  std::uint32_t lane_;
  bool enabled_ = false;
  std::uint64_t next_seq_ = 1;
  std::int64_t last_ns_ = 0;
  std::vector<Open> open_;
  SpanStats stats_[static_cast<std::size_t>(SpanName::kCount)] = {};
  std::vector<SpanRecord> records_;
};

/// Sum of one span name's aggregates over several tracers.
SpanStats combined(std::span<const Tracer* const> tracers, SpanName name);

/// Writes every tracer's kept records as CSV
/// (lane,seq,parent,id,name,start_ns,end_ns). Returns spans written.
std::size_t write_spans(const std::string& path,
                        std::span<const Tracer* const> tracers);

/// One batch's latency samples, in microseconds.
class Samples {
 public:
  void add_ns(std::int64_t ns) {
    v_.push_back(static_cast<float>(1e-3 * static_cast<double>(ns)));
  }
  void append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  std::size_t size() const noexcept { return v_.size(); }
  void clear() { v_.clear(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 on an empty set.
  double quantile(double q) const;

 private:
  std::vector<float> v_;
};

struct Report;

/// Median of a list of values (0 on empty).
double median(std::vector<double> values);

/// Host memory-pressure probe. On a shared host the other tenants slow
/// this program through the caches and memory they share with it, for
/// whole runs at a time: the same code measured minutes apart differs by
/// up to 2x, while a compute-bound loop's speed barely moves and neither
/// does the latency of a load from memory. The probe times the same chain
/// of 16384 dependent loads each time, through lines spread in random
/// order over an 8 MiB buffer. Between two measurements other work evicts
/// some of those lines, so the time per load rises with the pressure on
/// the shared caches, and the benchmark scales the batch times and rates
/// it measures to a host on which one such load takes kReferenceNsPerLoad.
class MemoryProbe {
 public:
  /// The process-wide probe. main() creates it before any workload, so
  /// its buffer is resident from the start (see peak_rss_mb()).
  static MemoryProbe& instance();
  /// Nanoseconds per load of the chain, measured now (a few milliseconds).
  double ns_per_load();
  /// Bytes of the probe's buffer, all of them resident.
  std::size_t bytes() const { return next_.size() * sizeof(next_[0]); }

 private:
  MemoryProbe();
  std::vector<std::uint32_t> next_;
};

/// Time per probe load on the reference host.
inline constexpr double kReferenceNsPerLoad = 100.0;

/// Values measured batch after batch, each with the factor that scales a
/// time measured while it ran to the reference host:
/// kReferenceNsPerLoad / (probe ns per load around the batch).
struct Scaled {
  std::vector<double> raw;
  std::vector<double> scale;

  void add(double value, double factor) {
    raw.push_back(value);
    scale.push_back(factor);
  }
  std::size_t size() const noexcept { return raw.size(); }
  /// Median of the values as times (value x factor), on the reference host.
  double median_time() const;
  /// Median of the values as rates (value / factor), on the reference host.
  double median_rate() const;
  /// Median of `per_batch` (times measured alongside these values, one per
  /// value) scaled the same way.
  double median_time(const std::vector<double>& per_batch) const;
};

/// Decision-latency percentiles taken batch by batch: every batch's own
/// p50 and p99, reported as the median over batches on the reference
/// host. A batch holds enough decisions that its p99 has at least ten
/// samples beyond it.
struct BatchLatency {
  std::vector<double> p50;
  std::vector<double> p99;
  std::size_t samples = 0;

  /// Folds one batch's samples in and clears them.
  void take(Samples& batch) {
    samples += batch.size();
    p50.push_back(batch.quantile(0.50));
    p99.push_back(batch.quantile(0.99));
    batch.clear();
  }
};

/// Setups per run; setup_s is their median.
inline constexpr int kSetups = 9;

/// One timed setup: its duration, a fingerprint of what it decided, and
/// how many of its operations failed.
struct SetupRun {
  double seconds = 0.0;
  std::uint64_t fingerprint = 0;
  std::uint64_t failures = 0;
};

/// Runs `setup` (which builds and warms up one instance, timed, and
/// returns its duration, fingerprint and failure count) in a forked child
/// process and reports the result back. The extra instance never becomes
/// part of this process's memory, so peak_rss_mb covers the measured
/// instance alone. Throws if the child fails.
SetupRun setup_in_child(const std::function<SetupRun()>& setup);

/// What one measured batch reports.
struct BatchTime {
  double rate = 0.0;
  std::int64_t wall_ns = 0;
};

/// The measured part of a run, shared by every workload.
struct MeasureLoop {
  /// Per-batch rates (as the workload defines them) and wall times in
  /// seconds, untraced and traced.
  Scaled rates, traced_rates;
  Scaled wall_s, traced_wall_s;
  /// Setup durations: the measured instance first, then the extra ones.
  /// Not scaled: set-up repeats better across runs as measured than
  /// scaled by the probe.
  std::vector<double> setup_s;
  /// Set when a batch or a setup threw: the run stops there.
  std::string error;

  /// Runs batches for opt.seconds (and, traced, until one traced batch
  /// ran), each between two memory probes. With tracing, batches
  /// alternate untraced/traced, so both come from the same minutes of the
  /// same process; batch 0 is untraced. `batch(b, traced)` runs batch b
  /// and returns its rate and the wall time of the work it measures.
  /// `extra_setup()` sets up one more instance and returns its setup time;
  /// extra setups are spread over the run until there are kSetups. An
  /// exception from either ends the run and lands in `error`.
  void run(const Options& opt,
           const std::function<BatchTime(std::size_t, bool)>& batch,
           const std::function<double()>& extra_setup);

  std::size_t batches() const { return rates.size() + traced_rates.size(); }
  /// 1 - traced / untraced throughput, from batch wall times (every batch
  /// of a workload does the same work), on the reference host.
  double trace_overhead() const;
  /// The probe's median and the unscaled median rate, for the info line.
  void add_info(Report& rep) const;
};

/// FNV-1a fold of decided levels: the bit-identity fingerprint.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
inline void fnv_fold(std::uint64_t& digest, std::span<const std::size_t> v) {
  for (const std::size_t level : v) {
    digest ^= static_cast<std::uint64_t>(level);
    digest *= 0x100000001b3ull;
  }
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run produced.
struct Report {
  /// Operations counted: decisions (chip, fleet) or requests (service).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Printed as the result's metrics: the end-to-end set when untraced,
  /// the per-layer set when traced.
  std::vector<Metric> metrics;
  /// Sample counts and other details for the info line.
  std::vector<std::pair<std::string, double>> info;
  /// Values compared against the committed golden file on the default
  /// seed: hex digests and simulated totals, as exact strings.
  std::vector<std::pair<std::string, std::string>> check;
  /// Failed-check descriptions found inside the run (out-of-range levels,
  /// error replies, shadow mismatches, non-repeating setups).
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Every per-layer metric, on every workload. A layer a workload does not
/// reach keeps its zero: that workload does no work in it.
struct LayerValues {
  double sim_epoch_us = 0, sim_self_us = 0;
  double workload_step_us = 0;
  double core_decide_us = 0, core_decide_td_us = 0,
         core_decide_realloc_us = 0, core_reallocs = 0;
  double task_tasks_per_epoch = 0, task_steals_per_epoch = 0,
         task_steal_hit_ratio = 0, task_overflows = 0,
         task_max_queue_depth = 0, task_worker_parks = 0,
         task_wait_parks = 0;
  double multichip_parallelism = 0;
  double gen_tenant_step_us = 0;
  double service_encode_us = 0, service_call_us = 0, service_decode_us = 0,
         service_handle_us = 0, service_snapshot_handle_us = 0,
         service_request_bytes = 0, service_reply_bytes = 0,
         service_requests = 0, service_errors = 0,
         service_untraced_frac = 0;
  double snapshot_reply_bytes = 0, snapshot_encode_share = 0;
  double trace_overhead_frac = 0, trace_unattributed_frac = 0;
};

/// Appends the per-layer metrics (derived shares included) in one fixed
/// order with their units.
void add_layer_metrics(Report& rep, const LayerValues& v);

std::string hex64(std::uint64_t v);
/// Shortest exact round-trip text of a double.
std::string exact(double v);

/// Peak resident set size of this process, in MB, without the memory
/// probe's buffer (the benchmark's own, resident from the start).
double peak_rss_mb();

Report run_chip(const Options& opt);
Report run_fleet(const Options& opt);
Report run_service(const Options& opt);

}  // namespace perfbench
