#include "rl/qtable_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

namespace odrl::rl {

using snapshot::SnapshotError;
using snapshot::SnapshotStatus;

namespace {
void check_dims(std::uint64_t n_states, std::uint64_t n_actions) {
  if (n_states == 0 || n_actions == 0) {
    throw SnapshotError(SnapshotStatus::kBadValue,
                        "qtable dimensions must be nonzero");
  }
  if (n_states > kMaxQtableCells ||
      n_actions > kMaxQtableCells / n_states) {
    throw SnapshotError(SnapshotStatus::kBadValue,
                        "implausible qtable dimensions " +
                            std::to_string(n_states) + "x" +
                            std::to_string(n_actions));
  }
}

}  // namespace

void save_qtable_payload(snapshot::Writer& w, const QTable& table) {
  w.u64(table.n_states());
  w.u64(table.n_actions());
  for (std::size_t s = 0; s < table.n_states(); ++s) {
    for (std::size_t a = 0; a < table.n_actions(); ++a) {
      w.f64(table.q(s, a));
    }
  }
  for (std::size_t s = 0; s < table.n_states(); ++s) {
    for (std::size_t a = 0; a < table.n_actions(); ++a) {
      w.u32(static_cast<std::uint32_t>(table.visits(s, a)));
    }
  }
}

QTable load_qtable_payload(snapshot::Reader& r) {
  const std::uint64_t n_states = r.u64();
  const std::uint64_t n_actions = r.u64();
  check_dims(n_states, n_actions);
  QTable table(static_cast<std::size_t>(n_states),
               static_cast<std::size_t>(n_actions));
  for (std::size_t s = 0; s < n_states; ++s) {
    for (std::size_t a = 0; a < n_actions; ++a) {
      const double q = r.f64();
      if (!std::isfinite(q)) {
        throw SnapshotError(SnapshotStatus::kNonFinite,
                            "non-finite q value in state " +
                                std::to_string(s));
      }
      table.set_q(s, a, q);
    }
  }
  for (std::size_t s = 0; s < n_states; ++s) {
    for (std::size_t a = 0; a < n_actions; ++a) {
      table.set_visits(s, a, r.u32());
    }
  }
  return table;
}

void save_qtable(const QTable& table, std::ostream& out) {
  snapshot::Writer w;
  w.begin_section(kQtableSectionTag);
  save_qtable_payload(w, table);
  w.end_section();
  const std::string blob = std::move(w).finish();
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!out) {
    throw SnapshotError(SnapshotStatus::kIoError,
                        "save_qtable: stream failure");
  }
}

QTable load_qtable(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    throw SnapshotError(SnapshotStatus::kIoError,
                        "load_qtable: stream failure");
  }
  const std::string blob = std::move(buf).str();
  snapshot::Reader r(blob);
  r.open_section(kQtableSectionTag);
  QTable table = load_qtable_payload(r);
  r.expect_section_end();
  return table;
}

void save_qtable_file(const QTable& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw SnapshotError(SnapshotStatus::kIoError,
                        "save_qtable_file: cannot open " + path);
  }
  save_qtable(table, out);
  // Flush before the destructor would swallow the error: a full disk must
  // surface here, not as a silently truncated policy file.
  out.flush();
  if (!out) {
    throw SnapshotError(SnapshotStatus::kIoError,
                        "save_qtable_file: write failed for " + path);
  }
}

QTable load_qtable_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SnapshotError(SnapshotStatus::kIoError,
                        "load_qtable_file: cannot open " + path);
  }
  return load_qtable(in);
}

}  // namespace odrl::rl
