#include "task/runtime.hpp"

#include <stdexcept>
#include <string>

namespace odrl::task {

namespace {

// A request beyond this is always a bug (e.g. a negative CLI value cast to
// size_t), never a real machine; fail with a readable message instead of
// letting vector::reserve throw length_error deep inside the constructor.
constexpr std::size_t kMaxWorkers = 4096;

}  // namespace

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

Runtime::Runtime(std::size_t workers) : width_(resolve_workers(workers)) {
  threads_.reserve(width_ - 1);
  for (std::size_t i = 1; i < width_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

Runtime::~Runtime() {
  // Drain: submitted-but-unwaited groups complete instead of leaking.
  // Workers race us for the rest and exit only once the queue is empty.
  for (;;) {
    Task task;
    {
      util::MutexLock lock(sched_mutex_);
      if (!take(nullptr, task)) {
        stop_ = true;
        break;
      }
    }
    execute(task);
  }
  sched_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void Runtime::push(const Task& task) {
  bool queued = false;
  bool wake_all = false;
  {
    util::MutexLock lock(sched_mutex_);
    if (count_ < kQueueCapacity) {
      queue_[(head_ + count_) % kQueueCapacity] = task;
      ++count_;
      if (count_ > max_queue_depth_.load(std::memory_order_relaxed)) {
        max_queue_depth_.store(count_, std::memory_order_relaxed);
      }
      queued = true;
      wake_all = parked_waiters_ > 0;
    }
  }
  if (!queued) {
    // Queue full: run inline. Submission never blocks or drops work; the
    // counter makes sustained overflow visible in telemetry.
    overflows_.fetch_add(1, std::memory_order_relaxed);
    execute(task);
  } else if (wake_all) {
    // A parked waiter may need this task (it helps with its own group),
    // so while one is parked everyone wakes; otherwise one idle worker.
    sched_cv_.notify_all();
  } else {
    sched_cv_.notify_one();
  }
}

bool Runtime::take(const Group* group, Task& out) {
  for (std::size_t i = 0; i < count_; ++i) {
    if (group != nullptr &&
        queue_[(head_ + i) % kQueueCapacity].group != group) {
      continue;
    }
    out = queue_[(head_ + i) % kQueueCapacity];
    if (i == 0) {
      head_ = (head_ + 1) % kQueueCapacity;
    } else {
      // Close the gap, keeping the remaining tasks in FIFO order.
      for (std::size_t j = i + 1; j < count_; ++j) {
        queue_[(head_ + j - 1) % kQueueCapacity] =
            queue_[(head_ + j) % kQueueCapacity];
      }
    }
    --count_;
    return true;
  }
  return false;
}

void Runtime::execute(const Task& task) {
  try {
    task.fn(task.ctx);
  } catch (...) {
    util::MutexLock lock(task.group->mutex_);
    if (!task.group->error_) task.group->error_ = std::current_exception();
  }
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  // The fetch_sub is the finisher's last touch of the Group (see the
  // Group declaration); completion wakeups go through the runtime CV.
  if (task.group->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    util::MutexLock lock(sched_mutex_);
    if (parked_waiters_ > 0) sched_cv_.notify_all();
  }
}

void Runtime::wait(Group& group) {
  for (;;) {
    Task task;
    {
      // Manual predicate loop (not the wait(lock, pred) overload): the
      // thread-safety analysis cannot follow locks across a predicate
      // lambda, and the explicit shape keeps the park accounting exact --
      // wait_parks counts callers that actually blocked.
      util::MutexLock lock(sched_mutex_);
      bool parked = false;
      while (group.pending_.load(std::memory_order_acquire) != 0 &&
             !take(&group, task)) {
        // The rest of the group is running on other threads. Park until
        // a push (maybe one of ours) or a group completion.
        if (!parked) wait_parks_.fetch_add(1, std::memory_order_relaxed);
        parked = true;
        ++parked_waiters_;
        sched_cv_.wait(sched_mutex_);
        --parked_waiters_;
      }
      if (task.fn == nullptr) break;  // pending_ reached zero
    }
    execute(task);
  }
  std::exception_ptr error;
  {
    util::MutexLock lock(group.mutex_);
    error = group.error_;
    group.error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void Runtime::worker_loop() {
  for (;;) {
    Task task;
    {
      util::MutexLock lock(sched_mutex_);
      if (!stop_ && count_ == 0) {
        worker_parks_.fetch_add(1, std::memory_order_relaxed);
        do {
          sched_cv_.wait(sched_mutex_);
        } while (!stop_ && count_ == 0);
      }
      // stop_ is set only once the queue is empty, but a still-running
      // task may have queued more since; drain those before exiting.
      if (!take(nullptr, task)) return;
    }
    execute(task);
  }
}

RuntimeStats Runtime::stats() const {
  RuntimeStats s;
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.overflows = overflows_.load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  s.worker_parks = worker_parks_.load(std::memory_order_relaxed);
  s.wait_parks = wait_parks_.load(std::memory_order_relaxed);
  return s;
}

void Runtime::reset_stats() {
  tasks_executed_.store(0, std::memory_order_relaxed);
  overflows_.store(0, std::memory_order_relaxed);
  max_queue_depth_.store(0, std::memory_order_relaxed);
  worker_parks_.store(0, std::memory_order_relaxed);
  wait_parks_.store(0, std::memory_order_relaxed);
}

}  // namespace odrl::task
