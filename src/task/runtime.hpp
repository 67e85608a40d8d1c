// Work-stealing task runtime: the execution substrate for multi-chip
// fleet runs (sim::run_multichip submits one whole-run task per chip) and
// for the control-plane service (service::Server submits one drain task
// per connection). A chip's epoch never submits tasks: it runs serially
// on whichever thread claimed its chip.
//
// Shape (in the style of mx::tasking): `workers - 1` spawned threads plus
// the calling thread, each with an owner-local deque operated with the
// Chase-Lev discipline -- the owner pushes and pops at the *bottom*
// (LIFO, cache-warm), thieves steal from the *top* (FIFO, oldest task
// first) -- plus a bounded MPSC submission channel that external
// (non-worker) threads round-robin tasks into. Idle workers drain their
// channel, then their deque, then scan the other workers' structures;
// when a full scan finds nothing they park on a generation-counted
// epoch barrier until a producer publishes new work. Core pinning is
// optional and best-effort (Linux sched affinity).
//
// The rings are fixed-capacity and guarded by per-ring mutexes rather
// than the lock-free Chase-Lev protocol: the protocol's *discipline*
// (owner-bottom / thief-top) is kept, the racy memory reclamation is
// not, so the runtime is ThreadSanitizer-clean by construction and the
// tsan CI job can pin every fleet and service path (see DESIGN.md "Task
// runtime & multi-chip fleets"). At this library's task granularity (a
// whole chip run, or a connection's drain) the mutex cost is noise.
// Every lock here is an annotated util::Mutex: guarded members are
// machine-checked by Clang Thread Safety Analysis (CI builds src/ with
// -Wthread-safety -Werror) and the ODRL_CHECKED lock-rank checker aborts
// on any out-of-order acquisition (util/lock_rank.hpp rank table).
//
// Determinism: the runtime decides only *who* runs a task and *when*,
// never what a task computes. Callers keep their results deterministic
// by giving each task disjoint state and assembling results in a fixed
// order after wait() (tests/task_test.cpp, tests/multichip_test.cpp and
// the service soak test pin this). A runtime of width 1 spawns no
// workers; its submitted tasks run on the thread that calls wait().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace odrl::task {

/// Construction knobs. The defaults are width 1 (inline execution, no
/// spawned threads) and no pinning.
struct RuntimeConfig {
  /// Total execution width including the calling thread; the runtime
  /// spawns `workers - 1` threads. 0 means hardware_concurrency.
  std::size_t workers = 1;
  /// Best-effort: pin spawned worker i to CPU (i % hardware_concurrency).
  /// Failures are ignored (containers often restrict affinity masks).
  bool pin_workers = false;
  /// Slots per worker-owned deque. A full deque never loses work: the
  /// pushing thread executes the task inline and counts an overflow.
  std::size_t deque_capacity = 256;
  /// Slots per worker submission channel (external producers).
  std::size_t channel_capacity = 64;
};

/// Monotonic counters since construction (or the last reset_stats()).
/// Observational only -- reading them never perturbs scheduling;
/// run_multichip reports them as MultiChipResult::runtime_stats.
struct RuntimeStats {
  std::uint64_t tasks_executed = 0;  ///< tasks run to completion
  std::uint64_t steals = 0;          ///< tasks taken from another slot
  std::uint64_t steal_attempts = 0;  ///< victim probes (incl. misses)
  std::uint64_t overflows = 0;       ///< full-ring submissions run inline
  std::uint64_t max_queue_depth = 0; ///< deepest ring seen at push
  std::uint64_t worker_parks = 0;    ///< idle workers hitting the barrier
  std::uint64_t wait_parks = 0;      ///< wait() callers that had to block
};

class Runtime {
 public:
  /// Completion barrier for a batch of submitted tasks. Caller-owned and
  /// reusable after wait() returns; must outlive every task submitted
  /// against it. Not copyable/movable (tasks hold its address).
  class Group {
   public:
    Group() = default;
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

   private:
    friend class Runtime;
    // Completion is observed through pending_ alone and *signalled*
    // through the runtime-wide scheduler CV, never a per-group CV: the
    // last finisher's final touch of the (possibly stack-allocated)
    // Group is the fetch_sub itself, so a waiter that observes zero can
    // safely destroy the Group even while the finisher is still waking
    // other threads. mutex_ guards only error_, and only *before* the
    // owning task's decrement, so the same argument covers it.
    std::atomic<std::size_t> pending_{0};
    util::Mutex mutex_{util::LockRank::kGroup, "task-group"};
    std::exception_ptr error_ ODRL_GUARDED_BY(mutex_);  ///< first exception
  };

  /// `workers` = total execution width including the calling thread.
  explicit Runtime(std::size_t workers = 1);
  explicit Runtime(const RuntimeConfig& config);
  /// Drains every still-queued task inline (submitted-but-unwaited groups
  /// complete, never leak), then joins the workers. No submissions may be
  /// concurrent with destruction.
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Execution width (spawned workers + the calling thread).
  std::size_t size() const noexcept { return width_; }
  const RuntimeConfig& config() const noexcept { return config_; }

  /// 0 -> hardware_concurrency (>= 1), anything else unchanged. Throws
  /// std::invalid_argument on absurd counts (> 4096), which in practice
  /// means a negative value was cast to size_t on the way in.
  static std::size_t resolve_workers(std::size_t requested);

  /// Enqueues one task against `group`. The callable is *borrowed*: it
  /// must stay alive until wait(group) returns (keep it in a container
  /// next to the Group). A worker caller pushes to its own deque bottom;
  /// an external caller round-robins across the submission channels. If
  /// the target ring is full the task runs inline here (counted as an
  /// overflow) -- submission is therefore allocation-free and never
  /// blocks on a slow consumer.
  template <typename F>
  void submit(Group& group, F& fn) {
    static_assert(std::is_invocable_v<F&>,
                  "submit() callables take no arguments");
    group.pending_.fetch_add(1, std::memory_order_relaxed);
    enqueue(Task{&invoke_callable<F>, std::addressof(fn), &group});
    publish();
  }

  /// Blocks until every task submitted against `group` completed,
  /// *helping*: the caller executes queued tasks of this group (its own
  /// deque first, then steals) instead of spinning. Tasks of other
  /// groups are deliberately left alone -- helping must not capture the
  /// caller inside an unrelated long-running task (a nested chip step
  /// would otherwise block behind a sibling chip's whole run). Rethrows
  /// the first exception any task of the group threw.
  void wait(Group& group);

  /// Snapshot of the counters (torn reads across fields are acceptable:
  /// each field is individually consistent).
  RuntimeStats stats() const;
  void reset_stats();

 private:
  /// One queued unit of work: a raw trampoline + context (allocation-free
  /// by construction) and the barrier it reports completion to.
  struct Task {
    void (*fn)(void* ctx) = nullptr;
    void* ctx = nullptr;
    Group* group = nullptr;
  };

  template <typename F>
  static void invoke_callable(void* ctx) { (*static_cast<F*>(ctx))(); }

  /// Fixed-capacity ring operated with the Chase-Lev discipline under a
  /// per-ring mutex: owner at the bottom, thieves at the top.
  class TaskRing {
   public:
    explicit TaskRing(std::size_t capacity);
    bool push_bottom(const Task& task);           ///< false when full
    bool pop_bottom(Task& out);                   ///< owner end
    bool pop_bottom_if(const Group* group, Task& out);
    bool steal_top(Task& out);                    ///< thief end
    bool steal_top_if(const Group* group, Task& out);
    std::size_t depth() const;

   private:
    // All rings share rank kRing: the runtime's discipline is "release
    // the current ring before touching another", so two ring locks never
    // nest (the rank checker enforces that, same-rank nesting aborts).
    mutable util::Mutex mutex_{util::LockRank::kRing, "task-ring"};
    std::vector<Task> slots_ ODRL_GUARDED_BY(mutex_);
    std::size_t top_ ODRL_GUARDED_BY(mutex_) = 0;    ///< oldest task
    std::size_t count_ ODRL_GUARDED_BY(mutex_) = 0;  ///< live task count
  };

  /// Per-slot state. Slot 0 belongs to external callers (the thread that
  /// owns the Runtime, typically); slots 1..width-1 to spawned workers.
  struct WorkerState {
    WorkerState(std::size_t deque_cap, std::size_t channel_cap)
        : deque(deque_cap), channel(channel_cap) {}
    TaskRing deque;    ///< owner-local, Chase-Lev discipline
    TaskRing channel;  ///< bounded MPSC submission channel
  };

  void start_workers();
  void worker_loop(std::size_t slot);
  /// Slot of the calling thread in *this* runtime, or 0 for external
  /// threads (they share the external slot's rings under its locks).
  std::size_t current_slot() const;
  bool is_worker_thread() const;

  /// Routes a task to a ring (own deque for workers, round-robin channel
  /// for external callers); runs it inline on overflow.
  void enqueue(const Task& task);
  /// Bumps the activity generation and wakes parked workers.
  void publish();
  /// Next runnable task for `slot`, any group: own channel, own deque,
  /// then steal scan. Powers the idle worker loop and the destructor
  /// drain.
  bool find_task(std::size_t slot, Task& out);
  /// Group-filtered variant powering wait()'s help loop.
  bool find_group_task(std::size_t slot, const Group& group, Task& out);
  void execute(const Task& task);
  void note_depth(std::size_t depth);

  RuntimeConfig config_;
  std::size_t width_ = 1;
  std::vector<std::unique_ptr<WorkerState>> slots_;
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> round_robin_{0};

  /// Epoch barrier for idle workers: producers bump the generation under
  /// the mutex after publishing work; a worker whose full scan came up
  /// empty parks until the generation moves past the one it scanned at.
  util::Mutex sched_mutex_{util::LockRank::kScheduler, "task-sched"};
  util::CondVar sched_cv_;
  std::uint64_t activity_ ODRL_GUARDED_BY(sched_mutex_) = 0;
  bool stop_ ODRL_GUARDED_BY(sched_mutex_) = false;

  // Counters (relaxed; observational only).
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> steal_attempts_{0};
  std::atomic<std::uint64_t> overflows_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
  std::atomic<std::uint64_t> worker_parks_{0};
  std::atomic<std::uint64_t> wait_parks_{0};
};

}  // namespace odrl::task
