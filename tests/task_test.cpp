// Task runtime tests (src/task/runtime.hpp): submission, the queue bound
// and its inline overflow, helping waits, shutdown-with-pending-work and
// exception propagation. The rendezvous cases are the TSan stress surface
// for the runtime (tsan label) that the multi-chip fleet and the
// service's connection drains are built on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "task/runtime.hpp"
#include "util/lock_rank.hpp"
#include "util/mutex.hpp"

namespace ot = odrl::task;

TEST(TaskRuntime, ResolveWorkersContract) {
  EXPECT_GE(ot::Runtime::resolve_workers(0), 1u);
  EXPECT_EQ(ot::Runtime::resolve_workers(1), 1u);
  EXPECT_EQ(ot::Runtime::resolve_workers(6), 6u);
  EXPECT_THROW(ot::Runtime::resolve_workers(static_cast<std::size_t>(-1)),
               std::invalid_argument);
  EXPECT_THROW(ot::Runtime::resolve_workers(4097), std::invalid_argument);
}

TEST(TaskRuntime, WidthOneExecutesInlineOnCaller) {
  // Width 1 spawns no workers: submitted tasks run on the thread that
  // waits (the single-threaded service relies on this).
  ot::Runtime rt(1);
  EXPECT_EQ(rt.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  auto probe = [&] {
    if (std::this_thread::get_id() == caller) on_caller++;
  };
  std::vector<decltype(probe)> tasks(16, probe);
  ot::Runtime::Group group;
  for (auto& t : tasks) rt.submit(group, t);
  rt.wait(group);
  EXPECT_EQ(on_caller.load(), 16);
}

TEST(TaskRuntime, SubmitRunsEveryTaskAndGroupIsReusable) {
  ot::Runtime rt(4);
  std::atomic<int> counter{0};
  auto bump = [&] { counter++; };
  std::vector<decltype(bump)> tasks(64, bump);

  ot::Runtime::Group group;
  for (auto& t : tasks) rt.submit(group, t);
  rt.wait(group);
  EXPECT_EQ(counter.load(), 64);

  // Same group, second batch: the barrier is reusable after wait().
  for (auto& t : tasks) rt.submit(group, t);
  rt.wait(group);
  EXPECT_EQ(counter.load(), 128);
}

TEST(TaskRuntime, WaitOnEmptyGroupReturnsImmediately) {
  ot::Runtime rt(2);
  ot::Runtime::Group group;
  rt.wait(group);  // nothing submitted: must not block
}

TEST(TaskRuntime, OversubscribedSubmissionOverflowsInlineWithoutLoss) {
  // The lone worker of a width-2 runtime blocks on a latch, so nothing
  // drains the queue: the first kQueueCapacity submissions fill it
  // exactly and each of the k after them runs inline on the submitter,
  // counted as one overflow. Every task still runs exactly once.
  constexpr std::size_t kExtra = 7;
  ot::Runtime rt(2);
  std::atomic<bool> worker_blocked{false};
  std::latch release(1);
  auto blocker = [&] {
    worker_blocked = true;
    release.wait();
  };
  ot::Runtime::Group blocked;
  rt.submit(blocked, blocker);
  while (!worker_blocked) std::this_thread::yield();

  std::atomic<int> counter{0};
  auto bump = [&] { counter++; };
  std::vector<decltype(bump)> tasks(ot::Runtime::kQueueCapacity + kExtra,
                                    bump);
  ot::Runtime::Group group;
  for (auto& t : tasks) rt.submit(group, t);
  EXPECT_EQ(rt.stats().overflows, kExtra);
  EXPECT_EQ(rt.stats().max_queue_depth, ot::Runtime::kQueueCapacity);
  EXPECT_EQ(counter.load(), static_cast<int>(kExtra));  // inline only

  release.count_down();
  rt.wait(group);
  rt.wait(blocked);
  EXPECT_EQ(counter.load(), static_cast<int>(tasks.size()));
  EXPECT_EQ(rt.stats().tasks_executed, tasks.size() + 1);
}

TEST(TaskRuntime, RendezvousRunsWidthTasksAtOnce) {
  // W tasks submitted from the caller each block on a W-party latch, so
  // none can finish before all W run at once: wait() returning proves the
  // W-1 workers and the helping caller each claimed one.
  constexpr std::size_t kWidth = 4;
  ot::Runtime rt(kWidth);
  std::latch rendezvous(kWidth);
  std::atomic<int> ran{0};
  auto meet = [&] {
    ran++;
    rendezvous.arrive_and_wait();
  };
  std::vector<decltype(meet)> tasks(kWidth, meet);
  ot::Runtime::Group group;
  for (auto& t : tasks) rt.submit(group, t);
  rt.wait(group);
  EXPECT_EQ(ran.load(), static_cast<int>(kWidth));
}

TEST(TaskRuntime, NestedRendezvousHelpsInsideATask) {
  // A task submits W-1 inner latch tasks and waits on them. Its wait()
  // claims one inner task itself; a thread waiting on the outer group
  // never adopts an inner one, so the remaining W-2 need other threads.
  // Returning proves nested submit+wait neither deadlocks nor serializes.
  constexpr std::size_t kWidth = 4;
  ot::Runtime rt(kWidth);
  std::latch rendezvous(kWidth - 1);
  std::atomic<int> ran{0};
  auto meet = [&] {
    ran++;
    rendezvous.arrive_and_wait();
  };
  std::vector<decltype(meet)> inner_tasks(kWidth - 1, meet);
  auto outer = [&] {
    ot::Runtime::Group inner;
    for (auto& t : inner_tasks) rt.submit(inner, t);
    rt.wait(inner);
  };
  ot::Runtime::Group group;
  rt.submit(group, outer);
  rt.wait(group);
  EXPECT_EQ(ran.load(), static_cast<int>(kWidth - 1));
}

TEST(TaskRuntime, GroupExceptionLeavesRuntimeUsable) {
  for (std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    ot::Runtime rt(width);
    std::atomic<int> counter{0};
    auto bump = [&] { counter++; };
    auto thrower = [] { throw std::runtime_error("boom"); };
    std::vector<decltype(bump)> bumps(9, bump);
    ot::Runtime::Group group;
    for (auto& t : bumps) rt.submit(group, t);
    rt.submit(group, thrower);
    EXPECT_THROW(rt.wait(group), std::runtime_error) << "width=" << width;
    // The other tasks of the failing group still ran.
    EXPECT_EQ(counter.load(), 9) << "width=" << width;

    // The runtime and the group survive: the next batch runs normally.
    for (auto& t : bumps) rt.submit(group, t);
    rt.wait(group);
    EXPECT_EQ(counter.load(), 18) << "width=" << width;
  }
}

TEST(TaskRuntime, SubmittedTaskExceptionReachesWaiter) {
  ot::Runtime rt(2);
  auto thrower = [] { throw std::runtime_error("task failed"); };
  ot::Runtime::Group group;
  rt.submit(group, thrower);
  EXPECT_THROW(rt.wait(group), std::runtime_error);
}

TEST(TaskRuntime, ShutdownDrainsPendingTasks) {
  // Width 1 spawns no workers, so unwaited external submissions sit in
  // the queue until the destructor's drain. Nothing may be lost.
  std::atomic<int> counter{0};
  auto bump = [&] { counter++; };
  std::vector<decltype(bump)> tasks(32, bump);
  ot::Runtime::Group group;  // outlives the runtime
  {
    ot::Runtime rt(1);
    for (auto& t : tasks) rt.submit(group, t);
    // No wait: the destructor owns completion.
  }
  EXPECT_EQ(counter.load(), 32);
}

TEST(TaskRuntime, StatsAccumulateAndReset) {
  ot::Runtime rt(2);
  auto noop = [] {};
  std::vector<decltype(noop)> tasks(10, noop);
  ot::Runtime::Group group;
  for (auto& t : tasks) rt.submit(group, t);
  rt.wait(group);
  EXPECT_EQ(rt.stats().tasks_executed, 10u);
  rt.reset_stats();
  EXPECT_EQ(rt.stats().tasks_executed, 0u);
  EXPECT_EQ(rt.stats().overflows, 0u);
}

TEST(TaskRuntime, ManyConsecutiveJobsStayCorrect) {
  // One reused group, 200 batches of varying size: every batch's tasks
  // complete before its wait() returns, and none leaks into the next.
  ot::Runtime rt(4);
  std::atomic<int> counter{0};
  auto bump = [&] { counter++; };
  std::vector<decltype(bump)> tasks(64 + 6 * 13, bump);
  ot::Runtime::Group group;
  for (int job = 0; job < 200; ++job) {
    const std::size_t n = 64 + static_cast<std::size_t>(job % 7) * 13;
    counter = 0;
    for (std::size_t t = 0; t < n; ++t) rt.submit(group, tasks[t]);
    rt.wait(group);
    ASSERT_EQ(counter.load(), static_cast<int>(n)) << "job=" << job;
  }
}

// ---------------------------------------------------------------------------
// Lock-rank checker (src/util/lock_rank.hpp). The checker is compiled into
// util::Mutex only under ODRL_CHECKED; both tests skip cleanly in release
// builds via util::lock_rank_enabled() so the suite's pass/fail shape is
// identical across build types.

TEST(LockRank, SeededInversionAborts) {
  if (!odrl::util::lock_rank_enabled()) {
    GTEST_SKIP() << "lock-rank checker compiled out (ODRL_CHECKED off)";
  }
  // Death test: acquiring a lower-ranked mutex while a higher-ranked one is
  // held must abort with the "lock-rank violation" report naming both
  // acquisition sites. Runs in a forked child; the parent matches stderr.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  odrl::util::Mutex high(odrl::util::LockRank::kScheduler, "test-high");
  odrl::util::Mutex low(odrl::util::LockRank::kGroup, "test-low");
  EXPECT_DEATH(
      {
        odrl::util::MutexLock outer(high);
        odrl::util::MutexLock inner(low);  // kGroup(50) under kScheduler(60)
      },
      "lock-rank violation");
}

TEST(LockRank, NestedRuntimeWaitHasNoFalsePositive) {
  if (!odrl::util::lock_rank_enabled()) {
    GTEST_SKIP() << "lock-rank checker compiled out (ODRL_CHECKED off)";
  }
  // The deepest lock nesting the runtime produces: submitted tasks that
  // submit and wait on an inner group of the same runtime, so
  // Runtime::wait() parks (kScheduler) while workers cycle the queue lock
  // (kScheduler) and group error locks (kGroup) concurrently. Under
  // ODRL_CHECKED every acquisition runs through the checker; any false
  // positive aborts the whole test binary.
  ot::Runtime rt(4);
  std::atomic<int> counter{0};
  auto leaf = [&] { counter += 8; };
  auto nested_job = [&] {
    std::vector<decltype(leaf)> leaves(8, leaf);
    ot::Runtime::Group inner;
    for (auto& l : leaves) rt.submit(inner, l);
    rt.wait(inner);
  };
  for (int round = 0; round < 16; ++round) {
    ot::Runtime::Group group;
    for (int t = 0; t < 4; ++t) rt.submit(group, nested_job);
    rt.wait(group);
  }
  EXPECT_EQ(counter.load(), 16 * 4 * 64);
}
