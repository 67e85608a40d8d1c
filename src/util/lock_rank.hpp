// Debug lock-rank checker: runtime deadlock detection the static analysis
// and TSan cannot provide.
//
// Clang Thread Safety Analysis proves that guarded data is touched under
// its lock, and TSan observes the lock orders a particular run *happened*
// to take -- neither rejects a lock-order inversion that did not deadlock
// this time. The rank checker does: every util::Mutex carries a LockRank,
// each thread keeps a fixed-size stack of the locks it holds, and any
// acquisition whose rank is not strictly greater than the deepest held
// rank aborts immediately with both acquisition sites -- the inversion is
// caught on its first occurrence, on any interleaving, in any test.
//
// The checker is compiled into util::Mutex's out-of-line lock()/unlock()
// under ODRL_CHECKED (the contract-layer switch; ON in Debug and in the
// sanitizer CI jobs), so its cost -- two thread-local array operations per
// acquisition -- is paid only where the contracts already are. Release
// builds pay nothing and lock_rank_enabled() reports which world the
// *library* was built in (the caller's own ODRL_CHECKED state may
// differ, exactly like util::checks_enabled()).
//
// Rank table (acquire strictly upward; see DESIGN.md "Thread-safety model
// & static analysis" for the capability map):
//
//   kRegistry       10  ControllerRegistry::mutex_ (factory map)
//   kRecorder       20  telemetry::Recorder::mutex_ (sink list, instruments)
//   kSink           30  telemetry sink internals (Memory/Csv/Jsonl)
//   kServiceTable   32  service::Server session table (id -> session)
//   kServiceSession 34  one service session's state (controller, watchdog)
//   kServiceQueue   36  service transport queues (inbox / reply FIFOs;
//                       a thread holds at most one queue lock at a time)
//   kGroup          50  task::Runtime::Group::mutex_ (first-exception slot)
//   kScheduler      60  task::Runtime::sched_mutex_ (the task queue and its
//                       park/wake state)
//   kLeaf          100  standalone flags (SIMD force-scalar hook, default)
//
// The three service ranks sit below the runtime's ranks because request
// handlers and transport pumps submit tasks to the runtime (scheduler
// lock) while a service lock is held; they sit above kRecorder/kRegistry so
// holding one across a recorder export or a registry make() would abort
// -- the server builds controllers and exports counters with no service
// lock held, by construction (see src/service/server.cpp).
//
// Two locks of the SAME rank never nest either (the relation is strict):
// a thread holds at most one service queue lock at a time.
#pragma once

#include <cstdint>

namespace odrl::util {

/// Acquisition order: a thread may only lock a mutex whose rank is
/// STRICTLY greater than the highest rank it currently holds.
enum class LockRank : std::uint32_t {
  kRegistry = 10,
  kRecorder = 20,
  kSink = 30,
  kServiceTable = 32,
  kServiceSession = 34,
  kServiceQueue = 36,
  kGroup = 50,
  kScheduler = 60,
  kLeaf = 100,
};

/// True when the library was built with ODRL_CHECKED, i.e. the rank
/// checker is live inside util::Mutex. Tests branch on this the same way
/// they branch on util::checks_enabled().
bool lock_rank_enabled() noexcept;

namespace lock_rank {

/// Deepest nesting the fixed-size per-thread stack supports. The runtime
/// never exceeds depth 2; blowing this bound aborts with a message (it
/// means a locking architecture change, not a bigger buffer).
inline constexpr std::uint32_t kMaxHeldLocks = 16;

/// Registers an acquisition by the calling thread; aborts with both lock
/// sites on a rank inversion. `site` is the caller's "file:line".
void note_acquire(const void* mutex, LockRank rank, const char* name,
                  const char* file, int line);

/// Unregisters a release (locks release in any order; the stack entry is
/// removed wherever it sits).
void note_release(const void* mutex) noexcept;

}  // namespace lock_rank
}  // namespace odrl::util
