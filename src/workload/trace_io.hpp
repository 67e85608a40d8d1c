// RecordedTrace serialization.
//
// Experiments are reproducible from seeds alone, but shipping a recorded
// trace lets others rerun a comparison on byte-identical workload inputs
// without the generator (and lets real-machine traces, converted to the
// phase-parameter schema, drive the simulator).
//
// Since snapshot format v1 the on-disk artifact is a single-section binary
// snapshot (magic ODRLSNAP, one 'TRCE' section: core count, labels, epoch
// count, per-epoch-per-core phase samples; see snapshot/snapshot.hpp for
// framing and the versioning policy). It is the only format read: any
// other bytes are rejected with kBadMagic.
#pragma once

#include <iosfwd>
#include <string>

#include "snapshot/snapshot.hpp"
#include "workload/workload.hpp"

namespace odrl::workload {

/// The 'TRCE' section tag of the binary trace artifact.
inline constexpr std::uint32_t kTraceSectionTag =
    snapshot::section_tag("TRCE");

/// Hard cap on declared n_cores * n_epochs: a corrupt (or hostile) header
/// must be rejected, not obeyed. Far above any real trace.
inline constexpr std::size_t kMaxTraceCells = std::size_t{1} << 26;

/// Writes the trace's payload (cores, labels, samples) into the caller's
/// open snapshot section.
void save_trace_payload(snapshot::Writer& w, const RecordedTrace& trace);
/// Reads a payload written by save_trace_payload, enforcing the cell cap
/// (kBadValue) and rejecting non-finite samples (kNonFinite).
RecordedTrace load_trace_payload(snapshot::Reader& r);

/// Writes the trace as a standalone single-section snapshot blob.
void save_trace(const RecordedTrace& trace, std::ostream& out);

/// Reads a trace written by save_trace. Throws snapshot::SnapshotError on
/// malformed input. Consumes the whole stream (the frame is checksummed).
RecordedTrace load_trace(std::istream& in);

/// Convenience file wrappers over save_trace / load_trace.
void save_trace_file(const RecordedTrace& trace, const std::string& path);
RecordedTrace load_trace_file(const std::string& path);

}  // namespace odrl::workload
