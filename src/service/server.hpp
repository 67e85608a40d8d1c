// The control-plane service: one Server process supervising a fleet of
// tenant chips, each tenant a *session* -- a controller instance built
// through the registry, stepped one observation batch at a time over the
// wire protocol (service/wire.hpp).
//
// Execution model (actor-style, on the PR 8 task runtime):
//
//   * A Connection is a duplex pair of FIFO queues (inbox of request
//     payloads, outbox of reply payloads). post() enqueues a request and
//     schedules at most ONE drain task per connection on the runtime; the
//     drain processes the inbox in order, so replies leave a connection
//     in request order, pipelining included.
//   * handle() -- decode, dispatch, encode -- is the synchronous core.
//     Drain tasks never block on other tasks and sessions never submit
//     nested work (controllers decide serially), so a worker is never
//     parked inside a handler: the server cannot deadlock itself.
//   * With a width-1 runtime the drain runs inline in post()'s caller
//     (the runtime spawns no workers at width 1), which keeps a
//     single-threaded server live without a pump thread.
//
// Determinism: each session's decision stream depends only on its own
// request sequence -- per-connection FIFO plus a per-session lock plus
// serial controllers means worker count changes *interleaving across
// sessions*, never the decisions of any one session. The soak test pins
// this: 256 sessions, workers 1/2/4, bit-identical level streams.
//
// Error contract: handle() never throws and never crashes the process on
// client bytes -- every failure becomes an ErrorReply carrying a
// ServiceStatus (hostile frames, unknown sessions, shape mismatches,
// non-finite sensor readings). The only escapes are logic_error-family
// exceptions (util::ContractViolation), which indicate a server bug and
// are deliberately left fatal so the fuzzer surfaces them.
//
// Lock order (util/lock_rank.hpp): kServiceTable (32) -> kServiceSession
// (34) -> kServiceQueue (36) -> runtime internals (40+). Registry and
// recorder locks rank *below* the service ranks, so controllers are
// built and counters exported with no service lock held.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/chip_config.hpp"
#include "service/wire.hpp"
#include "sim/controller.hpp"
#include "sim/runner.hpp"
#include "task/runtime.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace odrl::telemetry {
class Recorder;
}

namespace odrl::service {

struct ServerConfig {
  /// Execution width of the server's task runtime (1 = inline drains,
  /// 0 = hardware concurrency). Replies are bit-identical for any value.
  std::size_t workers = 1;
  /// Session-table capacity; OpenSession beyond it gets kSessionLimit.
  std::size_t max_sessions = 4096;
  /// Largest chip a tenant may open (cores); guards the per-session
  /// memory footprint against a hostile OpenSession.
  std::size_t max_cores = 4096;
  /// Server identity echoed in HelloReply.
  std::string name = "odrl-service";
  /// Default watchdog policy applied to sessions that request one
  /// (OpenSessionRequest::watchdog). `enabled` is ignored -- the per-open
  /// flag decides; the thresholds come from here.
  sim::WatchdogConfig watchdog;

  void validate() const;
};

/// Monotonic server-wide counters (relaxed atomic reads; observational).
struct ServerStats {
  std::uint64_t requests = 0;         ///< payloads handled, errors included
  std::uint64_t errors = 0;           ///< ErrorReply responses produced
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t epochs = 0;           ///< StepEpoch requests served
  std::uint64_t sanitized = 0;        ///< watchdog level corrections
};

class Server {
 public:
  /// One client endpoint: paired FIFO queues bridged by the server's
  /// drain tasks. Create via Server::connect(); the server keeps every
  /// connection alive until it is destroyed, so a client may drop its
  /// handle at any time.
  class Connection {
   public:
    /// Enqueues one request payload (a wire message, no length prefix)
    /// and wakes the server. Never blocks on the server being busy.
    void post(std::string payload);
    /// Blocks until the next reply payload is available and returns it.
    /// Replies arrive in request order.
    std::string take_reply();
    /// Non-blocking variant; false when no reply is pending.
    bool try_take_reply(std::string& out);

   private:
    friend class Server;
    explicit Connection(Server* server) : server_(server) {}

    /// One queued request. The shutdown cut is taken at post() time:
    /// `accepted` records whether the payload beat begin_shutdown(), so a
    /// drain running after shutdown still answers pre-shutdown requests
    /// normally.
    struct Inbound {
      std::string payload;
      bool accepted = true;
    };

    Server* server_;
    util::Mutex mutex_{util::LockRank::kServiceQueue, "service-conn"};
    util::CondVar reply_ready_;
    std::deque<Inbound> inbox_ ODRL_GUARDED_BY(mutex_);
    std::deque<std::string> outbox_ ODRL_GUARDED_BY(mutex_);
    /// True while a drain task is queued or running for this connection
    /// (at most one at a time -- the per-connection FIFO guarantee).
    bool drain_scheduled_ ODRL_GUARDED_BY(mutex_) = false;
    /// The borrowed callable submitted to the runtime (task::Runtime
    /// borrows callables; this one lives as long as the connection).
    struct DrainTask {
      Connection* conn = nullptr;
      void operator()() const;
    };
    DrainTask drain_task_{this};
  };

  explicit Server(ServerConfig config = {});
  /// Stops accepting work (everything posted before this point --
  /// including requests still queued in a connection inbox -- finishes
  /// and is answered normally; anything posted after is answered
  /// kShutdown), waits for every scheduled drain, then joins the runtime.
  /// No post() may be concurrent with destruction's *completion* -- same
  /// contract as task::Runtime.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const ServerConfig& config() const noexcept { return config_; }

  /// Opens a new in-process connection (the LoopbackClient transport; the
  /// TCP adapter opens one per accepted socket).
  std::shared_ptr<Connection> connect();

  /// The synchronous request core: decodes `payload`, dispatches, returns
  /// the encoded reply. Exposed publicly for the fuzz driver and direct
  /// tests; transports go through Connection::post(). Shutdown is
  /// enforced at post() time, so direct handle() calls are always served.
  std::string handle(std::string_view payload);

  /// Rejects all requests posted after this call with kShutdown
  /// (idempotent). The cut is taken at Connection::post() time:
  /// already-queued requests still get real replies even if their drain
  /// runs later. The destructor calls this; exposed so a host can drain
  /// gracefully first.
  void begin_shutdown();

  ServerStats stats() const;
  /// Number of live sessions (tests/monitoring).
  std::size_t session_count() const;

  /// Adds the server-wide counters and every live session's per-session
  /// counters (service.session.<tag>.*) into `recorder`'s instruments.
  /// Caller-thread only, per the Recorder threading contract; snapshots
  /// the values first so no service lock is held across recorder calls.
  void export_counters(telemetry::Recorder& recorder) const;

 private:
  /// One tenant: a chip shape, a controller, and the session-scoped
  /// bookkeeping (epoch cursor, watchdog latches, counters).
  struct Session {
    explicit Session(arch::ChipConfig chip_config)
        : chip(std::move(chip_config)) {}

    const arch::ChipConfig chip;
    std::string tag;  ///< immutable after open (telemetry identity)

    util::Mutex mutex{util::LockRank::kServiceSession, "service-session"};
    std::unique_ptr<sim::Controller> controller ODRL_GUARDED_BY(mutex);
    std::uint64_t next_epoch ODRL_GUARDED_BY(mutex) = 0;
    bool closed ODRL_GUARDED_BY(mutex) = false;
    double budget_w ODRL_GUARDED_BY(mutex) = 0.0;
    std::vector<std::size_t> levels ODRL_GUARDED_BY(mutex);  ///< scratch

    // Watchdog policy (per-tenant; see sim::WatchdogConfig). Mirrors the
    // runner's semantics minus the fault-engine gate -- the service sees
    // only what the tenant reports, so sustained overshoot alone trips
    // the chip-wide fallback.
    bool watchdog ODRL_GUARDED_BY(mutex) = false;
    sim::WatchdogConfig wd;  ///< thresholds; immutable after open
    std::size_t safe_level ODRL_GUARDED_BY(mutex) = 0;
    double safe_level_budget_w ODRL_GUARDED_BY(mutex) = -1.0;
    std::size_t consecutive_violations ODRL_GUARDED_BY(mutex) = 0;
    std::vector<std::size_t> fallback_hold ODRL_GUARDED_BY(mutex);

    // Lifetime counters; atomic so export_counters() reads them without
    // the session lock.
    std::atomic<std::uint64_t> epochs{0};
    std::atomic<std::uint64_t> sanitized{0};
  };

  // -- Request handlers (one per MsgType; each returns the reply) --
  Message handle_hello(const HelloRequest& req);
  Message handle_open(const OpenSessionRequest& req);
  Message handle_step(const StepEpochRequest& req);
  Message handle_snapshot(const SnapshotRequest& req);
  Message handle_close(const CloseSessionRequest& req);

  /// Looks up a live session or throws ServiceError(kUnknownSession).
  std::shared_ptr<Session> find_session(std::uint64_t id) const
      ODRL_EXCLUDES(table_mutex_);

  /// Rejects non-finite / out-of-range observation fields with
  /// ServiceError before any of them reach a controller (whose
  /// ODRL_CHECKED contracts would abort-by-design on garbage).
  static void validate_observation(const Session& session,
                                   const StepEpochRequest& req)
      ODRL_REQUIRES(session.mutex);

  /// Serializes one session (SESS bookkeeping + the runner-format CTRL
  /// section, so the blob warm-starts a future OpenSession).
  static std::string snapshot_session(Session& session)
      ODRL_REQUIRES(session.mutex);

  /// Builds the kShutdown ErrorReply for a payload that was posted after
  /// begin_shutdown() (counted in requests_ and errors_).
  std::string reject_shutdown(std::string_view payload);

  /// Drains `conn`'s inbox (FIFO) until empty; the body of DrainTask.
  void drain(Connection& conn);
  /// Schedules a drain for `conn` unless one is already pending; runs it
  /// inline when the runtime has width 1.
  void schedule_drain(Connection& conn);

  ServerConfig config_;
  std::unique_ptr<task::Runtime> runtime_;
  /// Completion barrier for every drain task ever submitted; waited in
  /// the destructor.
  task::Runtime::Group drains_;

  mutable util::Mutex table_mutex_{util::LockRank::kServiceTable,
                                   "service-table"};
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_
      ODRL_GUARDED_BY(table_mutex_);
  std::vector<std::shared_ptr<Connection>> connections_
      ODRL_GUARDED_BY(table_mutex_);
  std::uint64_t next_session_id_ ODRL_GUARDED_BY(table_mutex_) = 1;

  std::atomic<bool> shutdown_{false};

  // Server-wide counters (relaxed; observational only).
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> sessions_closed_{0};
  std::atomic<std::uint64_t> epochs_{0};
  std::atomic<std::uint64_t> sanitized_{0};
};

}  // namespace odrl::service
