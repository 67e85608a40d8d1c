#include "workload/trace_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

namespace odrl::workload {

using snapshot::SnapshotError;
using snapshot::SnapshotStatus;

namespace {

double finite_sample(snapshot::Reader& r, const char* what) {
  const double v = r.f64();
  if (!std::isfinite(v)) {
    throw SnapshotError(SnapshotStatus::kNonFinite,
                        std::string("trace: non-finite ") + what);
  }
  return v;
}

}  // namespace

void save_trace_payload(snapshot::Writer& w, const RecordedTrace& trace) {
  w.u64(trace.n_cores());
  for (std::size_t c = 0; c < trace.n_cores(); ++c) w.str(trace.label(c));
  w.u64(trace.n_epochs());
  for (std::size_t e = 0; e < trace.n_epochs(); ++e) {
    const auto& samples = trace.epoch(e);
    for (const PhaseSample& s : samples) {
      w.f64(s.base_cpi);
      w.f64(s.mpki);
      w.f64(s.activity);
    }
  }
}

RecordedTrace load_trace_payload(snapshot::Reader& r) {
  const std::uint64_t n_cores = r.u64();
  if (n_cores == 0) {
    throw SnapshotError(SnapshotStatus::kBadValue, "trace: zero cores");
  }
  if (n_cores > kMaxTraceCells) {
    throw SnapshotError(SnapshotStatus::kBadValue,
                        "trace: implausible core count " +
                            std::to_string(n_cores));
  }
  std::vector<std::string> labels;
  labels.reserve(static_cast<std::size_t>(n_cores));
  for (std::uint64_t c = 0; c < n_cores; ++c) labels.push_back(r.str());

  const std::uint64_t n_epochs = r.u64();
  if (n_epochs == 0) {
    throw SnapshotError(SnapshotStatus::kBadValue, "trace: zero epochs");
  }
  if (n_epochs > kMaxTraceCells / n_cores) {
    throw SnapshotError(SnapshotStatus::kBadValue,
                        "trace: implausible dimensions " +
                            std::to_string(n_cores) + "x" +
                            std::to_string(n_epochs));
  }

  RecordedTrace trace(static_cast<std::size_t>(n_cores), std::move(labels));
  std::vector<PhaseSample> samples(static_cast<std::size_t>(n_cores));
  for (std::uint64_t e = 0; e < n_epochs; ++e) {
    for (PhaseSample& s : samples) {
      s.base_cpi = finite_sample(r, "base_cpi");
      s.mpki = finite_sample(r, "mpki");
      s.activity = finite_sample(r, "activity");
    }
    trace.append_epoch(samples);
  }
  return trace;
}

void save_trace(const RecordedTrace& trace, std::ostream& out) {
  snapshot::Writer w;
  w.begin_section(kTraceSectionTag);
  save_trace_payload(w, trace);
  w.end_section();
  const std::string blob = std::move(w).finish();
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!out) {
    throw SnapshotError(SnapshotStatus::kIoError,
                        "save_trace: stream failure");
  }
}

RecordedTrace load_trace(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    throw SnapshotError(SnapshotStatus::kIoError,
                        "load_trace: stream failure");
  }
  const std::string blob = std::move(buf).str();
  snapshot::Reader r(blob);
  r.open_section(kTraceSectionTag);
  RecordedTrace trace = load_trace_payload(r);
  r.expect_section_end();
  return trace;
}

void save_trace_file(const RecordedTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw SnapshotError(SnapshotStatus::kIoError,
                        "save_trace_file: cannot open " + path);
  }
  save_trace(trace, out);
  // Flush before the destructor would swallow the error: a full disk must
  // surface here, not as a mysteriously truncated file.
  out.flush();
  if (!out) {
    throw SnapshotError(SnapshotStatus::kIoError,
                        "save_trace_file: write failed for " + path);
  }
}

RecordedTrace load_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SnapshotError(SnapshotStatus::kIoError,
                        "load_trace_file: cannot open " + path);
  }
  return load_trace(in);
}

}  // namespace odrl::workload
