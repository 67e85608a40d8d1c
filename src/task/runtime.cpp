#include "task/runtime.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace odrl::task {

namespace {

// A request beyond this is always a bug (e.g. a negative CLI value cast to
// size_t), never a real machine; fail with a readable message instead of
// letting vector::reserve throw length_error deep inside the constructor.
constexpr std::size_t kMaxWorkers = 4096;

// Which runtime (if any) the current thread is a spawned worker of, and
// its slot there. External threads -- including the runtime's owner --
// stay unregistered and share slot 0's rings under its locks.
thread_local const void* tls_runtime = nullptr;
thread_local std::size_t tls_slot = 0;

void pin_current_thread(std::size_t slot) {
#if defined(__linux__)
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(slot % hw), &set);
  // Best-effort: containers and cgroups often restrict the affinity mask;
  // a failed pin costs locality, never correctness.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)slot;
#endif
}

}  // namespace

// ------------------------------------------------------------- TaskRing

Runtime::TaskRing::TaskRing(std::size_t capacity)
    : slots_(std::max<std::size_t>(capacity, 1)) {}

bool Runtime::TaskRing::push_bottom(const Task& task) {
  util::MutexLock lock(mutex_);
  if (count_ == slots_.size()) return false;
  slots_[(top_ + count_) % slots_.size()] = task;
  ++count_;
  return true;
}

bool Runtime::TaskRing::pop_bottom(Task& out) {
  util::MutexLock lock(mutex_);
  if (count_ == 0) return false;
  --count_;
  out = slots_[(top_ + count_) % slots_.size()];
  return true;
}

bool Runtime::TaskRing::pop_bottom_if(const Group* group, Task& out) {
  util::MutexLock lock(mutex_);
  if (count_ == 0) return false;
  const std::size_t bottom = (top_ + count_ - 1) % slots_.size();
  if (slots_[bottom].group != group) return false;
  --count_;
  out = slots_[bottom];
  return true;
}

bool Runtime::TaskRing::steal_top(Task& out) {
  util::MutexLock lock(mutex_);
  if (count_ == 0) return false;
  out = slots_[top_];
  top_ = (top_ + 1) % slots_.size();
  --count_;
  return true;
}

bool Runtime::TaskRing::steal_top_if(const Group* group, Task& out) {
  util::MutexLock lock(mutex_);
  if (count_ == 0 || slots_[top_].group != group) return false;
  out = slots_[top_];
  top_ = (top_ + 1) % slots_.size();
  --count_;
  return true;
}

std::size_t Runtime::TaskRing::depth() const {
  util::MutexLock lock(mutex_);
  return count_;
}

// -------------------------------------------------------------- Runtime

std::size_t Runtime::resolve_workers(std::size_t requested) {
  if (requested > kMaxWorkers) {
    throw std::invalid_argument("task::Runtime: worker count " +
                                std::to_string(requested) +
                                " exceeds the supported maximum (" +
                                std::to_string(kMaxWorkers) + ")");
  }
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

Runtime::Runtime(std::size_t workers) : Runtime(RuntimeConfig{workers}) {}

Runtime::Runtime(const RuntimeConfig& config) : config_(config) {
  width_ = resolve_workers(config_.workers);
  config_.workers = width_;
  config_.deque_capacity = std::max<std::size_t>(config_.deque_capacity, 1);
  config_.channel_capacity =
      std::max<std::size_t>(config_.channel_capacity, 1);
  slots_.reserve(width_);
  for (std::size_t s = 0; s < width_; ++s) {
    slots_.push_back(std::make_unique<WorkerState>(config_.deque_capacity,
                                                   config_.channel_capacity));
  }
  start_workers();
}

void Runtime::start_workers() {
  threads_.reserve(width_ - 1);
  for (std::size_t s = 1; s < width_; ++s) {
    threads_.emplace_back([this, s] { worker_loop(s); });
  }
}

Runtime::~Runtime() {
  // Drain: submitted-but-unwaited groups complete instead of leaking.
  // Workers race us for the remaining tasks; every task popped anywhere
  // runs to completion, so after the rings are empty and the workers are
  // joined no Group has pending work.
  Task task;
  while (find_task(current_slot(), task)) execute(task);
  {
    util::MutexLock lock(sched_mutex_);
    stop_ = true;
    ++activity_;
  }
  sched_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

std::size_t Runtime::current_slot() const {
  return tls_runtime == this ? tls_slot : 0;
}

bool Runtime::is_worker_thread() const { return tls_runtime == this; }

void Runtime::enqueue(const Task& task) {
  if (is_worker_thread()) {
    // Owner end: newest work at the bottom, cache-warm for ourselves,
    // while thieves drain the oldest tasks from the top.
    TaskRing& deque = slots_[tls_slot]->deque;
    if (deque.push_bottom(task)) {
      note_depth(deque.depth());
      return;
    }
  } else {
    // External producer: round-robin across the bounded submission
    // channels so a fleet of chip tasks spreads over the workers even
    // before any stealing happens.
    const std::size_t start =
        round_robin_.fetch_add(1, std::memory_order_relaxed) % width_;
    for (std::size_t i = 0; i < width_; ++i) {
      TaskRing& channel = slots_[(start + i) % width_]->channel;
      if (channel.push_bottom(task)) {
        note_depth(channel.depth());
        return;
      }
    }
  }
  // Every ring full: run inline. Submission never blocks or drops work;
  // the counter makes sustained overflow visible in telemetry.
  overflows_.fetch_add(1, std::memory_order_relaxed);
  execute(task);
}

void Runtime::publish() {
  {
    util::MutexLock lock(sched_mutex_);
    ++activity_;
  }
  sched_cv_.notify_all();
}

bool Runtime::find_task(std::size_t slot, Task& out) {
  WorkerState& self = *slots_[slot];
  // Own submissions first (FIFO), then own deque (LIFO), then steal the
  // oldest task from each victim in round-robin order.
  if (self.channel.steal_top(out)) return true;
  if (self.deque.pop_bottom(out)) return true;
  for (std::size_t i = 1; i < width_; ++i) {
    WorkerState& victim = *slots_[(slot + i) % width_];
    steal_attempts_.fetch_add(1, std::memory_order_relaxed);
    if (victim.deque.steal_top(out) || victim.channel.steal_top(out)) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool Runtime::find_group_task(std::size_t slot, const Group& group,
                              Task& out) {
  WorkerState& self = *slots_[slot];
  if (self.channel.steal_top_if(&group, out)) return true;
  if (self.deque.pop_bottom_if(&group, out)) return true;
  for (std::size_t i = 1; i < width_; ++i) {
    WorkerState& victim = *slots_[(slot + i) % width_];
    steal_attempts_.fetch_add(1, std::memory_order_relaxed);
    if (victim.deque.steal_top_if(&group, out) ||
        victim.channel.steal_top_if(&group, out)) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void Runtime::execute(const Task& task) {
  try {
    task.fn(task.ctx);
  } catch (...) {
    if (task.group != nullptr) {
      util::MutexLock lock(task.group->mutex_);
      if (!task.group->error_) task.group->error_ = std::current_exception();
    }
  }
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  if (task.group != nullptr) {
    // The fetch_sub is the finisher's last touch of the Group (see the
    // Group declaration); completion wakeups go through the runtime CV.
    if (task.group->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      {
        util::MutexLock lock(sched_mutex_);
        ++activity_;
      }
      sched_cv_.notify_all();
    }
  }
}

void Runtime::wait(Group& group) {
  const std::size_t slot = current_slot();
  Task task;
  while (group.pending_.load(std::memory_order_acquire) != 0) {
    if (find_group_task(slot, group, task)) {
      execute(task);
      continue;
    }
    // Nothing of ours is claimable: the rest of the group is either
    // running on other threads or buried behind other groups' tasks
    // (which only idle workers run, on purpose -- helping must not trap
    // us inside an unrelated long task). Park until the scheduler
    // generation moves, which every publish and every group completion
    // bumps.
    std::uint64_t seen = 0;
    {
      util::MutexLock lock(sched_mutex_);
      seen = activity_;
    }
    if (find_group_task(slot, group, task)) {  // close the publish race
      execute(task);
      continue;
    }
    {
      // Manual predicate loop (not the wait(lock, pred) overload): the
      // thread-safety analysis cannot follow locks across a predicate
      // lambda, and the explicit shape keeps the park accounting exact --
      // wait_parks counts callers that actually blocked.
      util::MutexLock lock(sched_mutex_);
      if (activity_ == seen &&
          group.pending_.load(std::memory_order_acquire) != 0) {
        wait_parks_.fetch_add(1, std::memory_order_relaxed);
        while (activity_ == seen &&
               group.pending_.load(std::memory_order_acquire) != 0) {
          sched_cv_.wait(sched_mutex_);
        }
      }
    }
  }
  std::exception_ptr error;
  {
    util::MutexLock lock(group.mutex_);
    error = group.error_;
    group.error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void Runtime::note_depth(std::size_t depth) {
  std::uint64_t seen = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > seen && !max_queue_depth_.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
}

void Runtime::worker_loop(std::size_t slot) {
  tls_runtime = this;
  tls_slot = slot;
  if (config_.pin_workers) pin_current_thread(slot);
  std::uint64_t seen = 0;
  for (;;) {
    {
      util::MutexLock lock(sched_mutex_);
      if (stop_) return;
      seen = activity_;
    }
    Task task;
    bool ran = false;
    while (find_task(slot, task)) {
      execute(task);
      ran = true;
    }
    if (ran) continue;  // rescan under a fresh generation
    util::MutexLock lock(sched_mutex_);
    if (stop_) return;
    if (activity_ == seen) {
      // Per-worker epoch barrier: the scan at generation `seen` found
      // nothing, so sleep until a producer (or a group completion)
      // advances the generation. Manual predicate loop, same reasoning
      // as in wait().
      worker_parks_.fetch_add(1, std::memory_order_relaxed);
      while (!stop_ && activity_ == seen) sched_cv_.wait(sched_mutex_);
      if (stop_) return;
    }
  }
}

RuntimeStats Runtime::stats() const {
  RuntimeStats s;
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.steal_attempts = steal_attempts_.load(std::memory_order_relaxed);
  s.overflows = overflows_.load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  s.worker_parks = worker_parks_.load(std::memory_order_relaxed);
  s.wait_parks = wait_parks_.load(std::memory_order_relaxed);
  return s;
}

void Runtime::reset_stats() {
  tasks_executed_.store(0, std::memory_order_relaxed);
  steals_.store(0, std::memory_order_relaxed);
  steal_attempts_.store(0, std::memory_order_relaxed);
  overflows_.store(0, std::memory_order_relaxed);
  max_queue_depth_.store(0, std::memory_order_relaxed);
  worker_parks_.store(0, std::memory_order_relaxed);
  wait_parks_.store(0, std::memory_order_relaxed);
}

}  // namespace odrl::task
