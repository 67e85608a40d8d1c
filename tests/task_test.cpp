// Work-stealing task runtime tests (src/task/runtime.hpp): submission,
// stealing, overflow, shutdown-with-pending-work and exception
// propagation. The steal-heavy cases are the TSan stress surface for the
// runtime (tsan label) that the multi-chip fleet and the service's
// connection drains are built on.
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
  // Rings of capacity 1 and a width-2 runtime: most of a 500-task burst
  // cannot fit and must run inline on the submitter (counted as
  // overflows), but every task runs exactly once.
  ot::RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.deque_capacity = 1;
  cfg.channel_capacity = 1;
  ot::Runtime rt(cfg);

  std::atomic<int> counter{0};
  auto bump = [&] { counter++; };
  std::vector<decltype(bump)> tasks(500, bump);
  ot::Runtime::Group group;
  for (auto& t : tasks) rt.submit(group, t);
  rt.wait(group);

  EXPECT_EQ(counter.load(), 500);
  EXPECT_GT(rt.stats().overflows, 0u);
  EXPECT_EQ(rt.stats().tasks_executed, 500u);
}

TEST(TaskRuntime, StealHeavyStressDistributesWork) {
  // Deterministic steal forcing. The outer task is claimed by a spawned
  // worker (the main thread submits and then does not help until the
  // outer task is already running). On that worker, three inner tasks go
  // to its *own deque*; it then helps its inner group and blocks inside
  // the first one on a 3-party latch. The other two tasks can only reach
  // the latch if two *other* workers steal them -- so reaching wait()'s
  // return proves two steals, and the counters must agree.
  ot::Runtime rt(4);
  std::atomic<bool> outer_started{false};
  std::latch rendezvous(3);
  std::atomic<int> ran{0};

  auto blocker = [&] {
    ran++;
    rendezvous.arrive_and_wait();
  };
  std::vector<decltype(blocker)> blockers(3, blocker);

  auto outer = [&] {
    outer_started = true;
    ot::Runtime::Group inner;
    for (auto& b : blockers) rt.submit(inner, b);
    rt.wait(inner);
  };

  ot::Runtime::Group group;
  rt.submit(group, outer);
  while (!outer_started) std::this_thread::yield();
  rt.wait(group);

  EXPECT_EQ(ran.load(), 3);
  EXPECT_GE(rt.stats().steals, 2u);
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
  // the channel until the destructor's drain. Nothing may be lost.
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

TEST(TaskRuntime, PinnedWorkersRunNormally) {
  ot::RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.pin_workers = true;  // best-effort; must never fail the run
  ot::Runtime rt(cfg);
  std::atomic<int> counter{0};
  auto bump = [&] { counter++; };
  std::vector<decltype(bump)> tasks(100, bump);
  ot::Runtime::Group group;
  for (auto& t : tasks) rt.submit(group, t);
  rt.wait(group);
  EXPECT_EQ(counter.load(), 100);
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
  EXPECT_EQ(rt.stats().steals, 0u);
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
  odrl::util::Mutex low(odrl::util::LockRank::kRing, "test-low");
  EXPECT_DEATH(
      {
        odrl::util::MutexLock outer(high);
        odrl::util::MutexLock inner(low);  // kRing(40) under kScheduler(60)
      },
      "lock-rank violation");
}

TEST(LockRank, NestedRuntimeWaitHasNoFalsePositive) {
  if (!odrl::util::lock_rank_enabled()) {
    GTEST_SKIP() << "lock-rank checker compiled out (ODRL_CHECKED off)";
  }
  // The deepest lock nesting the runtime produces: submitted tasks that
  // submit and wait on an inner group of the same runtime, so
  // Runtime::wait() parks (kScheduler) while workers cycle ring locks
  // (kRing) and group error locks (kGroup) concurrently. Under
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
