// Task runtime: the execution substrate for multi-chip fleet runs
// (sim::run_multichip submits one whole-run task per chip) and for the
// control-plane service (service::Server submits one drain task per
// connection). A chip's epoch never submits tasks: it runs serially on
// whichever thread claimed its chip.
//
// Shape: `workers - 1` spawned threads plus the calling thread share ONE
// fixed-capacity FIFO ring of tasks under one annotated util::Mutex
// (Clang TSA and the ODRL_CHECKED lock-rank checker cover it). Both
// callers submit from outside the runtime and their tasks are coarse (a
// whole chip run, a connection's drain), so one queue under one lock
// costs nothing measurable: an idle worker takes the oldest task, and
// each push wakes one parked worker.
//
// Determinism: the runtime decides only *who* runs a task and *when*,
// never what a task computes. Callers keep their results deterministic
// by giving each task disjoint state and assembling results in a fixed
// order after wait() (tests/task_test.cpp, tests/multichip_test.cpp and
// the service soak test pin this). A runtime of width 1 spawns no
// workers; its submitted tasks run on the thread that calls wait().
#pragma once

#include <array>
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

/// Monotonic counters since construction (or the last reset_stats()).
/// Observational only -- reading them never perturbs scheduling;
/// run_multichip reports them as MultiChipResult::runtime_stats.
struct RuntimeStats {
  std::uint64_t tasks_executed = 0;  ///< tasks run to completion
  std::uint64_t steals = 0;          ///< always 0; kept for perfbench
  std::uint64_t steal_attempts = 0;  ///< always 0; kept for perfbench
  std::uint64_t overflows = 0;       ///< full-queue submissions run inline
  std::uint64_t max_queue_depth = 0; ///< deepest queue seen at push
  std::uint64_t worker_parks = 0;    ///< idle workers that had to block
  std::uint64_t wait_parks = 0;      ///< wait() callers that had to block
};

class Runtime {
 public:
  /// Slots of the shared task queue. A full queue never loses work: the
  /// submitting thread executes the task inline and counts an overflow.
  static constexpr std::size_t kQueueCapacity = 256;

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
    // through the runtime-wide CV, never a per-group CV: the last
    // finisher's final touch of the (possibly stack-allocated) Group is
    // the fetch_sub itself, so a waiter that observes zero can safely
    // destroy the Group even while the finisher is still waking other
    // threads. mutex_ guards only error_, and only *before* the owning
    // task's decrement, so the same argument covers it.
    std::atomic<std::size_t> pending_{0};
    util::Mutex mutex_{util::LockRank::kGroup, "task-group"};
    std::exception_ptr error_ ODRL_GUARDED_BY(mutex_);  ///< first exception
  };

  /// `workers` = total execution width including the calling thread
  /// (0 = hardware concurrency).
  explicit Runtime(std::size_t workers = 1);
  /// Drains every still-queued task (submitted-but-unwaited groups
  /// complete, never leak), then joins the workers. No submissions may be
  /// concurrent with destruction.
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Execution width (spawned workers + the calling thread).
  std::size_t size() const noexcept { return width_; }

  /// 0 -> hardware_concurrency (>= 1), anything else unchanged. Throws
  /// std::invalid_argument on absurd counts (> 4096), which in practice
  /// means a negative value was cast to size_t on the way in.
  static std::size_t resolve_workers(std::size_t requested);

  /// Enqueues one task against `group`. The callable is *borrowed*: it
  /// must stay alive until wait(group) returns (keep it in a container
  /// next to the Group). If the queue is full the task runs inline here
  /// (counted as an overflow) -- submission is therefore allocation-free
  /// and never blocks on a slow consumer.
  template <typename F>
  void submit(Group& group, F& fn) {
    static_assert(std::is_invocable_v<F&>,
                  "submit() callables take no arguments");
    group.pending_.fetch_add(1, std::memory_order_relaxed);
    push(Task{&invoke_callable<F>, std::addressof(fn), &group});
  }

  /// Blocks until every task submitted against `group` completed,
  /// *helping*: the caller claims queued tasks of this group and runs
  /// them instead of spinning, so a nested submit+wait cannot deadlock
  /// even when every thread is waiting. Tasks of other groups are
  /// deliberately left alone -- helping must not capture the caller
  /// inside an unrelated long-running task (a chip's run would otherwise
  /// block behind a sibling chip's whole run). Rethrows the first
  /// exception any task of the group threw.
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

  void worker_loop();
  /// Appends to the queue and wakes a parked thread; runs the task inline
  /// when the queue is full.
  void push(const Task& task);
  /// Removes the oldest queued task of `group` (any group when null).
  bool take(const Group* group, Task& out) ODRL_REQUIRES(sched_mutex_);
  void execute(const Task& task);

  std::size_t width_ = 1;
  std::vector<std::thread> threads_;

  util::Mutex sched_mutex_{util::LockRank::kScheduler, "task-sched"};
  util::CondVar sched_cv_;
  std::array<Task, kQueueCapacity> queue_ ODRL_GUARDED_BY(sched_mutex_);
  std::size_t head_ ODRL_GUARDED_BY(sched_mutex_) = 0;   ///< oldest task
  std::size_t count_ ODRL_GUARDED_BY(sched_mutex_) = 0;  ///< queued tasks
  /// wait() callers parked on sched_cv_. While any is parked, a push or
  /// a group completion must wake everyone; otherwise a push wakes one
  /// worker and a completion wakes nobody.
  std::size_t parked_waiters_ ODRL_GUARDED_BY(sched_mutex_) = 0;
  bool stop_ ODRL_GUARDED_BY(sched_mutex_) = false;

  // Counters (relaxed; observational only).
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> overflows_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
  std::atomic<std::uint64_t> worker_parks_{0};
  std::atomic<std::uint64_t> wait_parks_{0};
};

}  // namespace odrl::task
