// Lint self-test fixture: one deliberate violation per rule under test.
// tests/lint_selftest.py asserts lint_odrl.py exits 1 on this tree and
// names every expected rule. Never compiled -- .cc keeps it out of the
// clang-format/clang-tidy gates.
#include <condition_variable>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "sim/controller.hpp"
#include "util/thread_annotations.hpp"

namespace fixture {

// controller-must-decide-into: a Controller subclass whose class body
// never implements decide_into().
class BadController : public odrl::sim::Controller {
 public:
  std::string name() const override { return "Bad"; }
};

// heap-in-hot-path: a local std::vector inside a *_into function.
inline void bad_scratch_into(std::span<double> out) {
  std::vector<double> scratch(out.size(), 1.0);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = scratch[i];
}

// raw-loop-reduction: a '+=' fold onto a scalar inside a *_into body,
// with no marker naming its order.
inline void bad_sum_into(std::span<const double> in, double& out) {
  double total = 0.0;
  for (double v : in) total += v;
  out = total;
}

// raw-mutex: std::mutex / lock_guard / condition_variable outside
// src/util/mutex.{hpp,cpp}.
class BadLocking {
 public:
  void poke() {
    std::lock_guard<std::mutex> lock(mutex_);
    cv_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
};

// unguarded-capability: mutable non-primitive member, no ODRL_GUARDED_BY,
// no allow marker, in a file that includes thread_annotations.hpp.
class BadGuarding {
 private:
  mutable int cache_ = 0;
};

// nondeterminism: clock type, random_device, time(), rand().
inline unsigned bad_entropy() {
  std::random_device rd;
  const auto t = std::chrono::steady_clock::now();
  (void)t;
  return rd() + static_cast<unsigned>(time(nullptr)) +
         static_cast<unsigned>(rand());
}

// raw-thread: threads outside the task runtime -- direct spawn, the
// std::async side door, and the pthread C API all count.
inline void bad_thread() { std::thread worker([] {}); }
inline void bad_async() { auto f = std::async([] {}); }
inline void bad_pthread(pthread_t* t) {
  pthread_create(t, nullptr, nullptr, nullptr);
}

// std-function-hot-path: type-erasure outside the registration allowlist.
inline std::function<void()> bad_callback;

// A suppression without a reason is itself a finding.
// lint: allow(nondeterminism)
inline const auto bad_naked_marker = std::chrono::steady_clock::now();

}  // namespace fixture
