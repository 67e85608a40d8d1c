#include "util/lock_rank.hpp"

#include <cstdio>
#include <cstdlib>

namespace odrl::util {

bool lock_rank_enabled() noexcept {
#ifdef ODRL_CHECKED
  return true;
#else
  return false;
#endif
}

namespace lock_rank {

namespace {

// Per-thread stack of held locks. Fixed-size POD array: note_acquire /
// note_release must never allocate, or the zero-steady-state-allocation
// contract (tests/alloc_test.cpp) would break under ODRL_CHECKED.
struct HeldLock {
  const void* mutex;
  LockRank rank;
  const char* name;
  const char* file;
  int line;
};

struct HeldStack {
  HeldLock locks[kMaxHeldLocks];
  std::uint32_t depth = 0;
};

thread_local HeldStack tls_held;

[[noreturn]] void die_inversion(const HeldLock& held, LockRank rank,
                                const char* name, const char* file, int line) {
  std::fprintf(
      stderr,
      "odrl lock-rank violation: acquiring \"%s\" (rank %u) at %s:%d while "
      "holding \"%s\" (rank %u) acquired at %s:%d; locks must be taken in "
      "strictly increasing rank order (see util/lock_rank.hpp)\n",
      name, static_cast<unsigned>(rank), file, line, held.name,
      static_cast<unsigned>(held.rank), held.file, held.line);
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void note_acquire(const void* mutex, LockRank rank, const char* name,
                  const char* file, int line) {
  HeldStack& held = tls_held;
  if (held.depth >= kMaxHeldLocks) {
    std::fprintf(stderr,
                 "odrl lock-rank violation: more than %u locks held at once "
                 "(acquiring \"%s\" at %s:%d)\n",
                 kMaxHeldLocks, name, file, line);
    std::fflush(stderr);
    std::abort();
  }
  for (std::uint32_t i = 0; i < held.depth; ++i) {
    const HeldLock& h = held.locks[i];
    if (h.mutex == mutex) {
      std::fprintf(stderr,
                   "odrl lock-rank violation: recursive acquisition of \"%s\" "
                   "at %s:%d (first acquired at %s:%d)\n",
                   name, file, line, h.file, h.line);
      std::fflush(stderr);
      std::abort();
    }
    if (h.rank >= rank) die_inversion(h, rank, name, file, line);
  }
  held.locks[held.depth++] = HeldLock{mutex, rank, name, file, line};
}

void note_release(const void* mutex) noexcept {
  HeldStack& held = tls_held;
  for (std::uint32_t i = held.depth; i-- > 0;) {
    if (held.locks[i].mutex != mutex) continue;
    // Remove wherever it sits: releases need not mirror acquisition order.
    for (std::uint32_t j = i + 1; j < held.depth; ++j) {
      held.locks[j - 1] = held.locks[j];
    }
    --held.depth;
    return;
  }
  // Releasing a lock we never saw acquired: only possible if the library
  // and caller disagree on ODRL_CHECKED mid-stream; ignore rather than
  // abort so mixed builds stay usable.
}

}  // namespace lock_rank
}  // namespace odrl::util
