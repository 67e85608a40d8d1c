// Lint self-test fixture: a file every lint_odrl.py rule should PASS.
// Exercises the blessed idioms (annotated Mutex, guarded members,
// reasoned allow markers) so a rule that over-triggers fails the
// lint_selftest ctest case. Never compiled -- .cc keeps it out of the
// clang-format/clang-tidy gates, which only see committed .cpp/.hpp.
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace fixture {

class GoodGuarded {
 public:
  int value() const {
    odrl::util::MutexLock lock(mutex_);
    return value_;
  }

 private:
  mutable odrl::util::Mutex mutex_;          // sync primitive: no guard needed
  mutable int value_ ODRL_GUARDED_BY(mutex_) = 0;
  // lint: allow(unguarded-capability): scratch confined to the owner thread
  mutable int scratch_ = 0;
};

// Observational timing with a reasoned marker passes nondeterminism.
inline double good_timing() {
  // lint: allow(nondeterminism): fixture models telemetry-only timing
  using Clock = std::chrono::steady_clock;
  return Clock::now().time_since_epoch().count() * 0.0;
}

// Strings and comments never trip rules: "std::mutex", `time(`, rand(.
inline const char* kDoc = "std::mutex in a string literal is fine";

// Static member accesses never trip raw-thread, and non-std async
// helpers (my::async, launch_async) do not alias onto std::async.
inline unsigned good_thread_query() {
  return std::thread::hardware_concurrency();
}
inline void launch_async() {}
inline void good_async_name() { launch_async(); }

// Member calls named like banned free functions are fine: the
// lookbehind skips qualified/receiver forms.
struct Sim {
  // lint: allow(nondeterminism): simulated-seconds accessor, not wall time
  double time() const { return 0.0; }
};
inline double good_member_call(const Sim& sim) { return sim.time(); }

// Retired API names are the compiler's business, not lint's: the deleted
// Controller::decide()/ManyCoreSystem::step() shims and util::ThreadPool no
// longer exist to be called, so a member named decide() or a local type
// named ThreadPool passes.
struct ThreadPool {};
struct Policy {
  int decide() const { return 0; }
};
inline int good_retired_names(const Policy& p) { return p.decide(); }

}  // namespace fixture
