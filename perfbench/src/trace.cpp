#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kBatch: return "batch";
    case SpanName::kEpoch: return "sim.epoch";
    case SpanName::kDecideTd: return "core.decide_td";
    case SpanName::kDecideRealloc: return "core.decide_realloc";
    case SpanName::kWorkloadStep: return "workload.step";
    case SpanName::kRound: return "service.round";
    case SpanName::kTenantStep: return "gen.tenant_step";
    case SpanName::kStepEncode: return "service.encode";
    case SpanName::kStepCall: return "service.call";
    case SpanName::kStepDecode: return "service.decode";
    case SpanName::kStepHandle: return "service.handle";
    case SpanName::kSnapshotEncode: return "snapshot.encode";
    case SpanName::kSnapshotCall: return "snapshot.call";
    case SpanName::kSnapshotDecode: return "snapshot.decode";
    case SpanName::kSnapshotHandle: return "snapshot.handle";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::uint32_t lane) : lane_(lane) { open_.reserve(8); }

void Tracer::open(std::int64_t t) {
  open_.push_back({next_seq_++, t, 0});
  last_ns_ = t;
}

void Tracer::close(SpanName name, std::uint64_t id, std::int64_t t) {
  if (open_.empty()) throw std::logic_error("Tracer::close: no open span");
  const Open span = open_.back();
  open_.pop_back();
  const std::int64_t dur = t - span.start_ns;
  SpanStats& s = stats_[static_cast<std::size_t>(name)];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur - span.child_ns;
  std::uint64_t parent = 0;
  if (!open_.empty()) {
    open_.back().child_ns += dur;
    parent = open_.back().seq;
  }
  if (records_.size() < kMaxRecords) {
    records_.push_back({span.seq, parent, id, span.start_ns, t, name});
  }
  last_ns_ = t;
}

void Tracer::leaf(SpanName name, std::uint64_t id, std::int64_t start,
                  std::int64_t end) {
  open(start);
  close(name, id, end);
}

SpanStats combined(std::span<const Tracer* const> tracers, SpanName name) {
  SpanStats out;
  for (const Tracer* t : tracers) {
    const SpanStats& s = t->stats(name);
    out.count += s.count;
    out.total_ns += s.total_ns;
    out.self_ns += s.self_ns;
  }
  return out;
}

std::size_t write_spans(const std::string& path,
                        std::span<const Tracer* const> tracers) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "lane,seq,parent,id,name,start_ns,end_ns\n";
  std::size_t written = 0;
  for (const Tracer* t : tracers) {
    for (const SpanRecord& r : t->records()) {
      out << t->lane() << ',' << r.seq << ',' << r.parent << ',' << r.id
          << ',' << span_name(r.name) << ',' << r.start_ns << ','
          << r.end_ns << '\n';
      ++written;
    }
  }
  return written;
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<float> copy = v_;
  const double rank = std::ceil(q * static_cast<double>(copy.size()));
  const std::size_t k = std::min(
      copy.size() - 1,
      static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(copy.begin(), copy.begin() + static_cast<long>(k),
                   copy.end());
  return static_cast<double>(copy[k]);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

MemoryProbe& MemoryProbe::instance() {
  static MemoryProbe probe;
  return probe;
}

MemoryProbe::MemoryProbe() {
  // One 4-byte link per 64-byte line; the links visit every line once in
  // an order drawn from a fixed LCG, so the chain defeats the prefetchers.
  constexpr std::size_t kLines = (std::size_t{8} << 20) / 64;
  constexpr std::size_t kStride = 64 / sizeof(std::uint32_t);
  std::vector<std::uint32_t> order(kLines);
  for (std::size_t i = 0; i < kLines; ++i) {
    order[i] = static_cast<std::uint32_t>(i * kStride);
  }
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = kLines - 1; i > 0; --i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(order[i], order[(state >> 33) % (i + 1)]);
  }
  next_.assign(kLines * kStride, 0);
  for (std::size_t i = 0; i < kLines; ++i) {
    next_[order[i]] = order[(i + 1) % kLines];
  }
}

double MemoryProbe::ns_per_load() {
  constexpr int kLoads = 16384;
  std::uint32_t at = 0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kLoads; ++i) at = next_[at];
  const std::int64_t t1 = now_ns();
  // Keep the chain: its end value is otherwise unused.
  asm volatile("" : : "r"(at));
  return static_cast<double>(t1 - t0) / kLoads;
}

namespace {

/// Scale factor for a measurement bracketed by two probes.
double scale_between(double ns_before, double ns_after) {
  return kReferenceNsPerLoad / (0.5 * (ns_before + ns_after));
}

double median_of(const std::vector<double>& v,
                 const std::vector<double>& scale, bool as_time) {
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = as_time ? v[i] * scale[i] : v[i] / scale[i];
  }
  return median(std::move(out));
}

}  // namespace

double Scaled::median_time() const { return median_of(raw, scale, true); }
double Scaled::median_rate() const { return median_of(raw, scale, false); }
double Scaled::median_time(const std::vector<double>& per_batch) const {
  return median_of(per_batch, scale, true);
}

SetupRun setup_in_child(const std::function<SetupRun()>& setup) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("extra setup: pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("extra setup: fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 1;
    try {
      const SetupRun r = setup();
      if (::write(fds[1], &r, sizeof r) == static_cast<ssize_t>(sizeof r)) {
        code = 0;
      }
    } catch (...) {
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  SetupRun r;
  std::size_t got = 0;
  while (got < sizeof r) {
    const ssize_t n =
        ::read(fds[0], reinterpret_cast<char*>(&r) + got, sizeof r - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof r || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("extra setup failed in its child process");
  }
  return r;
}

void MeasureLoop::run(const Options& opt,
                      const std::function<BatchTime(std::size_t, bool)>& batch,
                      const std::function<double()>& extra_setup) {
  MemoryProbe& probe = MemoryProbe::instance();
  const auto want = static_cast<std::size_t>(kSetups);
  const std::int64_t start = now_ns();
  try {
    for (std::size_t b = 0;; ++b) {
      const bool traced = opt.trace && b % 2 == 1;
      const double before = probe.ns_per_load();
      const BatchTime t = batch(b, traced);
      const double scale = scale_between(before, probe.ns_per_load());
      (traced ? traced_rates : rates).add(t.rate, scale);
      (traced ? traced_wall_s : wall_s)
          .add(1e-9 * static_cast<double>(t.wall_ns), scale);
      const double elapsed = 1e-9 * static_cast<double>(now_ns() - start);
      if (setup_s.size() < want &&
          elapsed >= static_cast<double>(setup_s.size()) * opt.seconds /
                         static_cast<double>(want)) {
        setup_s.push_back(extra_setup());
      }
      const bool enough = !opt.trace || traced_rates.size() != 0;
      if (enough && elapsed >= opt.seconds) break;
    }
    while (setup_s.size() < want) setup_s.push_back(extra_setup());
  } catch (const std::exception& e) {
    error = e.what();
  }
}

double MeasureLoop::trace_overhead() const {
  const double traced = traced_wall_s.median_time();
  return traced > 0 ? 1.0 - wall_s.median_time() / traced : 0.0;
}

void MeasureLoop::add_info(Report& rep) const {
  std::vector<double> probe_ns;
  for (const double f : rates.scale) {
    probe_ns.push_back(kReferenceNsPerLoad / f);
  }
  rep.info.emplace_back("probe_ns_per_load_median", median(probe_ns));
  rep.info.emplace_back("raw_rate_median", median(rates.raw));
  rep.info.emplace_back("batches", static_cast<double>(batches()));
  rep.info.emplace_back("setup_runs", static_cast<double>(setup_s.size()));
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  // VmHWM, not getrusage(): ru_maxrss carries the peak of the process that
  // exec'd this one (the Python harness), so it would report the parent.
  // The probe's buffer is resident from before the first setup to the
  // end, so it adds exactly its size to the peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double bytes = std::strtod(line.c_str() + 6, nullptr) * 1024.0;
      return (bytes - static_cast<double>(MemoryProbe::instance().bytes())) /
             1e6;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

void add_layer_metrics(Report& rep, const LayerValues& v) {
  auto share = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  rep.add("sim.epoch_us", v.sim_epoch_us, "us");
  rep.add("sim.self_us", v.sim_self_us, "us");
  rep.add("sim.self_share", share(v.sim_self_us, v.sim_epoch_us), "fraction");
  rep.add("workload.step_us", v.workload_step_us, "us");
  rep.add("workload.share", share(v.workload_step_us, v.sim_epoch_us),
          "fraction");
  rep.add("core.decide_us", v.core_decide_us, "us");
  rep.add("core.decide_td_us", v.core_decide_td_us, "us");
  rep.add("core.decide_realloc_us", v.core_decide_realloc_us, "us");
  rep.add("core.reallocs", v.core_reallocs, "count");
  rep.add("core.share", share(v.core_decide_us, v.sim_epoch_us), "fraction");
  rep.add("task.tasks_per_epoch", v.task_tasks_per_epoch, "tasks/epoch");
  rep.add("task.steals_per_epoch", v.task_steals_per_epoch, "steals/epoch");
  rep.add("task.steal_hit_ratio", v.task_steal_hit_ratio, "fraction");
  rep.add("task.overflows", v.task_overflows, "count");
  rep.add("task.max_queue_depth", v.task_max_queue_depth, "count");
  rep.add("task.worker_parks", v.task_worker_parks, "count");
  rep.add("task.wait_parks", v.task_wait_parks, "count");
  rep.add("multichip.parallelism", v.multichip_parallelism, "ratio");
  rep.add("gen.tenant_step_us", v.gen_tenant_step_us, "us");
  rep.add("service.encode_us", v.service_encode_us, "us");
  rep.add("service.call_us", v.service_call_us, "us");
  rep.add("service.decode_us", v.service_decode_us, "us");
  rep.add("service.handle_us", v.service_handle_us, "us");
  rep.add("service.snapshot_handle_us", v.service_snapshot_handle_us, "us");
  rep.add("service.transport_us", v.service_call_us - v.service_handle_us,
          "us");
  rep.add("service.request_bytes", v.service_request_bytes, "B");
  rep.add("service.reply_bytes", v.service_reply_bytes, "B");
  rep.add("service.requests", v.service_requests, "count");
  rep.add("service.errors", v.service_errors, "count");
  rep.add("service.untraced_frac", v.service_untraced_frac, "fraction");
  rep.add("snapshot.reply_bytes", v.snapshot_reply_bytes, "B");
  rep.add("snapshot.encode_share", v.snapshot_encode_share, "fraction");
  rep.add("trace.overhead_frac", v.trace_overhead_frac, "fraction");
  rep.add("trace.unattributed_frac", v.trace_unattributed_frac, "fraction");
}

}  // namespace perfbench
