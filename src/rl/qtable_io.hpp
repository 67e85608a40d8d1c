// Q-table serialization.
//
// A learned policy is a deployment artifact: production DVFS firmware
// warm-starts from a table trained on a reference workload instead of
// paying the cold-start ramp on every boot (E6 shows that ramp costs a few
// seconds of budget under-utilization).
//
// Since snapshot format v1 the on-disk artifact is a single-section binary
// snapshot (magic ODRLSNAP, one 'QTAB' section: dimensions, Q-values,
// visit counts; see snapshot/snapshot.hpp for framing and the versioning
// policy). It is the only format read: any other bytes are rejected with
// kBadMagic.
//
// All failure paths throw snapshot::SnapshotError carrying a
// SnapshotStatus code -- the same taxonomy the snapshot Reader and the
// fuzz harness use -- so callers can distinguish a truncated stream
// (kTruncated) from hostile dimensions (kBadValue) from a poisoned table
// (kNonFinite) without parsing messages.
#pragma once

#include <iosfwd>
#include <string>

#include "rl/qtable.hpp"
#include "snapshot/snapshot.hpp"

namespace odrl::rl {

/// The 'QTAB' section tag of the binary Q-table artifact.
inline constexpr std::uint32_t kQtableSectionTag =
    snapshot::section_tag("QTAB");

/// Hard cap on declared n_states * n_actions: a corrupt (or hostile)
/// header must be rejected, not obeyed. Far above any real policy -- the
/// largest configured state space is a few thousand states by tens of
/// actions.
inline constexpr std::size_t kMaxQtableCells = std::size_t{1} << 26;

/// Writes the table's payload (dims, Q-values, visit counts) into the
/// caller's open snapshot section. Shared by the standalone artifact
/// below, TdAgent::save_state and OD-RL's policy files.
void save_qtable_payload(snapshot::Writer& w, const QTable& table);
/// Reads a payload written by save_qtable_payload, enforcing the cell cap
/// and rejecting non-finite Q-values (kBadValue / kNonFinite).
QTable load_qtable_payload(snapshot::Reader& r);

/// Writes the table as a standalone single-section snapshot blob.
void save_qtable(const QTable& table, std::ostream& out);

/// Reads a table written by save_qtable. Throws snapshot::SnapshotError on
/// malformed input. Consumes the whole stream (the frame is checksummed).
QTable load_qtable(std::istream& in);

/// Convenience file wrappers.
void save_qtable_file(const QTable& table, const std::string& path);
QTable load_qtable_file(const std::string& path);

}  // namespace odrl::rl
