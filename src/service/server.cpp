#include "service/server.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "sim/controller_registry.hpp"
#include "sim/faults.hpp"
#include "telemetry/recorder.hpp"

namespace odrl::service {
namespace {

/// Best-effort header recovery for error replies: when the payload is
/// structurally sound enough to carry a MSGH section, echo its seq and
/// session id; otherwise zeros. Never throws (a second failure here must
/// not mask the original one).
MsgHeader recover_header(std::string_view payload) noexcept {
  MsgHeader head;
  try {
    snapshot::Reader r(payload);
    r.open_section(kMsgHeaderTag);
    (void)r.u32();  // version (unchecked: recovery only)
    (void)r.u8();   // type
    head.seq = r.u64();
    head.session_id = r.u64();
  } catch (...) {
    head.seq = 0;
    head.session_id = 0;
  }
  return head;
}

MsgHeader reply_header(MsgType type, const MsgHeader& request) {
  MsgHeader head;
  head.type = type;
  head.seq = request.seq;
  head.session_id = request.session_id;
  return head;
}

void require_finite(double v, const char* what) {
  if (!std::isfinite(v)) {
    throw ServiceError(ServiceStatus::kBadValue,
                       std::string("service: non-finite ") + what);
  }
}

}  // namespace

void ServerConfig::validate() const {
  if (max_sessions == 0) {
    throw std::invalid_argument("ServerConfig: max_sessions == 0");
  }
  if (max_cores == 0) {
    throw std::invalid_argument("ServerConfig: max_cores == 0");
  }
  if (name.empty()) {
    throw std::invalid_argument("ServerConfig: empty server name");
  }
  watchdog.validate();  // thresholds; `enabled` is per-session
}

// -- Connection --

void Server::Connection::DrainTask::operator()() const {
  conn->server_->drain(*conn);
}

void Server::Connection::post(std::string payload) {
  // Capture the shutdown cut here, not at drain time: a request that
  // beat begin_shutdown() is answered normally no matter when its drain
  // actually runs (the documented ~Server contract).
  const bool accepted =
      !server_->shutdown_.load(std::memory_order_acquire);
  bool schedule = false;
  {
    util::MutexLock lock(mutex_);
    inbox_.push_back(Inbound{std::move(payload), accepted});
    if (!drain_scheduled_) {
      drain_scheduled_ = true;
      schedule = true;
    }
  }
  if (schedule) server_->schedule_drain(*this);
}

std::string Server::Connection::take_reply() {
  util::MutexLock lock(mutex_);
  while (outbox_.empty()) reply_ready_.wait(mutex_);
  std::string reply = std::move(outbox_.front());
  outbox_.pop_front();
  return reply;
}

bool Server::Connection::try_take_reply(std::string& out) {
  util::MutexLock lock(mutex_);
  if (outbox_.empty()) return false;
  out = std::move(outbox_.front());
  outbox_.pop_front();
  return true;
}

// -- Server --

Server::Server(ServerConfig config) : config_(std::move(config)) {
  config_.validate();
  task::RuntimeConfig rc;
  rc.workers = config_.workers;
  runtime_ = std::make_unique<task::Runtime>(rc);
}

Server::~Server() {
  begin_shutdown();
  runtime_->wait(drains_);
}

void Server::begin_shutdown() {
  shutdown_.store(true, std::memory_order_release);
}

std::shared_ptr<Server::Connection> Server::connect() {
  // No make_shared: the constructor is private to keep Server the only
  // producer of connections.
  std::shared_ptr<Connection> conn(new Connection(this));
  util::MutexLock lock(table_mutex_);
  connections_.push_back(conn);
  return conn;
}

void Server::schedule_drain(Connection& conn) {
  // A width-1 runtime spawns no workers, so queued tasks would only run
  // at wait(); execute inline instead -- the single-threaded server stays
  // live and fully deterministic.
  if (runtime_->size() == 1) {
    drain(conn);
    return;
  }
  runtime_->submit(drains_, conn.drain_task_);
}

void Server::drain(Connection& conn) {
  for (;;) {
    Connection::Inbound item;
    {
      util::MutexLock lock(conn.mutex_);
      if (conn.inbox_.empty()) {
        conn.drain_scheduled_ = false;
        return;
      }
      item = std::move(conn.inbox_.front());
      conn.inbox_.pop_front();
    }
    std::string reply = item.accepted ? handle(item.payload)
                                      : reject_shutdown(item.payload);
    {
      util::MutexLock lock(conn.mutex_);
      conn.outbox_.push_back(std::move(reply));
    }
    conn.reply_ready_.notify_all();
  }
}

std::string Server::handle(std::string_view payload) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  ServiceStatus status = ServiceStatus::kInternal;
  std::string detail;
  try {
    Message msg = decode_message(payload);
    Message reply = std::visit(
        [&](auto& m) -> Message {
          using T = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<T, HelloRequest>) {
            return handle_hello(m);
          } else if constexpr (std::is_same_v<T, OpenSessionRequest>) {
            return handle_open(m);
          } else if constexpr (std::is_same_v<T, StepEpochRequest>) {
            return handle_step(m);
          } else if constexpr (std::is_same_v<T, SnapshotRequest>) {
            return handle_snapshot(m);
          } else if constexpr (std::is_same_v<T, CloseSessionRequest>) {
            return handle_close(m);
          } else {
            // A reply type arriving as a request: shaped like a message,
            // meaningless as one.
            throw ServiceError(ServiceStatus::kBadMessage,
                               "service: reply type sent as a request");
          }
        },
        msg);
    return encode_message(reply);
  } catch (const ServiceError& e) {
    status = e.status();
    detail = e.what();
  } catch (const snapshot::SnapshotError& e) {
    // The payload frame itself was corrupt (decode_message's Reader).
    // seed-blob corruption inside handlers is re-thrown as kBadValue
    // before reaching here.
    status = ServiceStatus::kBadFrame;
    detail = std::string("service: payload frame: ") +
             snapshot::snapshot_status_name(e.status()) + ": " + e.what();
  } catch (const std::invalid_argument& e) {
    // Registry rejections: unknown controller name, unconsumed override
    // keys, config validation.
    status = ServiceStatus::kBadValue;
    detail = std::string("service: ") + e.what();
  } catch (const std::logic_error&) {
    // Contract violations are server bugs, not client errors: let them
    // escape so tests and the fuzzer see them instead of an ErrorReply.
    throw;
  } catch (const std::exception& e) {
    status = ServiceStatus::kInternal;
    detail = std::string("service: ") + e.what();
  }
  errors_.fetch_add(1, std::memory_order_relaxed);
  ErrorReply err;
  err.head = reply_header(MsgType::kErrorReply, recover_header(payload));
  err.status = status;
  err.message = std::move(detail);
  return encode_message(Message(std::move(err)));
}

std::string Server::reject_shutdown(std::string_view payload) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  errors_.fetch_add(1, std::memory_order_relaxed);
  ErrorReply err;
  err.head = reply_header(MsgType::kErrorReply, recover_header(payload));
  err.status = ServiceStatus::kShutdown;
  err.message = "service: server is shutting down";
  return encode_message(Message(std::move(err)));
}

Message Server::handle_hello(const HelloRequest& req) {
  HelloReply reply;
  reply.head = reply_header(MsgType::kHelloReply, req.head);
  reply.server = config_.name;
  reply.controllers = sim::registered_controllers();
  return reply;
}

Message Server::handle_open(const OpenSessionRequest& req) {
  if (req.cores == 0 || req.cores > config_.max_cores) {
    throw ServiceError(ServiceStatus::kBadValue,
                       "service: cores " + std::to_string(req.cores) +
                           " outside [1, " +
                           std::to_string(config_.max_cores) + "]");
  }
  if (!std::isfinite(req.budget_fraction) || req.budget_fraction <= 0.0 ||
      req.budget_fraction > 1.0) {
    throw ServiceError(ServiceStatus::kBadValue,
                       "service: budget_fraction outside (0, 1]");
  }
  const std::size_t n_cores = static_cast<std::size_t>(req.cores);

  // Registry work happens before any service lock is taken (registry and
  // recorder locks rank below the service locks by design).
  arch::ChipConfig chip = arch::ChipConfig::make(n_cores, req.budget_fraction);
  sim::ControllerOverrides overrides{
      std::map<std::string, std::string>(req.overrides)};
  if (!overrides.contains("seed")) {
    overrides.set("seed", std::to_string(req.seed));
  }
  std::unique_ptr<sim::Controller> controller =
      sim::make_controller(req.controller, chip, overrides);

  if (!req.seed_blob.empty()) {
    // Warm start from any blob carrying the runner-format CTRL section --
    // a run snapshot, a service session snapshot, or a bare Q-table
    // wrapper. A corrupt or mismatched blob is the *client's* data, so it
    // surfaces as kBadValue, not as a frame error.
    try {
      snapshot::Reader r(req.seed_blob);
      r.open_section(sim::kSnapshotControllerTag);
      const std::string saved_name = r.str();
      if (saved_name != controller->name()) {
        throw ServiceError(ServiceStatus::kBadValue,
                           "service: seed blob controller '" + saved_name +
                               "' does not match '" + controller->name() +
                               "'");
      }
      controller->load_state(r);
      r.expect_section_end();
    } catch (const snapshot::SnapshotError& e) {
      throw ServiceError(ServiceStatus::kBadValue,
                         std::string("service: seed blob: ") +
                             snapshot::snapshot_status_name(e.status()) +
                             ": " + e.what());
    }
  }

  std::vector<std::size_t> initial = controller->initial_levels(n_cores);
  if (initial.size() != n_cores) {
    throw ServiceError(ServiceStatus::kInternal,
                       "service: controller initial_levels size mismatch");
  }

  auto session = std::make_shared<Session>(chip);
  {
    util::MutexLock lock(session->mutex);
    session->controller = std::move(controller);
    session->budget_w = chip.tdp_w();
    session->levels = initial;
    session->watchdog = req.watchdog;
    session->wd = config_.watchdog;
    session->wd.enabled = req.watchdog;
    session->fallback_hold.assign(n_cores, 0);
  }

  std::uint64_t id = 0;
  {
    util::MutexLock lock(table_mutex_);
    if (sessions_.size() >= config_.max_sessions) {
      throw ServiceError(ServiceStatus::kSessionLimit,
                         "service: session table full (" +
                             std::to_string(config_.max_sessions) + ")");
    }
    id = next_session_id_++;
    session->tag =
        req.tag.empty() ? "session-" + std::to_string(id) : req.tag;
    sessions_.emplace(id, session);
  }
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);

  OpenSessionReply reply;
  reply.head = reply_header(MsgType::kOpenReply, req.head);
  reply.head.session_id = id;
  reply.budget_w = chip.tdp_w();
  reply.initial_levels = std::move(initial);
  return reply;
}

void Server::validate_observation(const Session& session,
                                  const StepEpochRequest& req) {
  const sim::EpochResult& obs = req.obs;
  require_finite(obs.epoch_s, "epoch_s");
  require_finite(obs.budget_w, "budget_w");
  require_finite(obs.chip_power_w, "chip_power_w");
  require_finite(obs.total_ips, "total_ips");
  require_finite(obs.max_temp_c, "max_temp_c");
  require_finite(obs.mem_latency_mult, "mem_latency_mult");
  require_finite(obs.dram_utilization, "dram_utilization");
  if (obs.budget_w <= 0.0) {
    throw ServiceError(ServiceStatus::kBadValue,
                       "service: budget_w must be positive");
  }
  const std::size_t max_level = session.chip.vf_table().max_level();
  const auto level = obs.cores.level();
  const auto ips = obs.cores.ips();
  const auto instructions = obs.cores.instructions();
  const auto power = obs.cores.power_w();
  const auto stall = obs.cores.mem_stall_frac();
  const auto temp = obs.cores.temp_c();
  for (std::size_t i = 0; i < obs.cores.size(); ++i) {
    if (level[i] > max_level) {
      throw ServiceError(ServiceStatus::kBadValue,
                         "service: core " + std::to_string(i) +
                             " reports level " + std::to_string(level[i]) +
                             " > max " + std::to_string(max_level));
    }
    require_finite(ips[i], "core ips");
    require_finite(instructions[i], "core instructions");
    require_finite(power[i], "core power_w");
    require_finite(stall[i], "core mem_stall_frac");
    require_finite(temp[i], "core temp_c");
  }
}

Message Server::handle_step(const StepEpochRequest& req) {
  std::shared_ptr<Session> session = find_session(req.head.session_id);
  util::MutexLock lock(session->mutex);
  if (session->closed) {
    throw ServiceError(ServiceStatus::kUnknownSession,
                       "service: session already closed");
  }
  if (req.epoch != session->next_epoch) {
    throw ServiceError(ServiceStatus::kOutOfOrderEpoch,
                       "service: epoch " + std::to_string(req.epoch) +
                           " != expected " +
                           std::to_string(session->next_epoch));
  }
  const std::size_t n_cores = session->chip.n_cores();
  if (req.obs.n_cores() != n_cores) {
    throw ServiceError(ServiceStatus::kDimensionMismatch,
                       "service: observation has " +
                           std::to_string(req.obs.n_cores()) +
                           " cores, session chip has " +
                           std::to_string(n_cores));
  }
  validate_observation(*session, req);

  const double budget_w = req.obs.budget_w;
  if (budget_w != session->budget_w) {
    session->controller->on_budget_change(budget_w);
    session->budget_w = budget_w;
  }

  std::uint64_t fixed = 0;
  bool holding = false;
  const sim::WatchdogConfig& wd = session->wd;
  if (session->watchdog) {
    if (budget_w != session->safe_level_budget_w) {
      session->safe_level = sim::safe_uniform_level(session->chip, budget_w);
      session->safe_level_budget_w = budget_w;
    }
    if (req.obs.chip_power_w > budget_w * (1.0 + wd.violation_margin)) {
      ++session->consecutive_violations;
    } else {
      session->consecutive_violations = 0;
    }
  }

  session->controller->decide_into(req.obs, session->levels);

  if (session->watchdog) {
    const std::size_t n_levels = session->chip.vf_table().size();
    // Out-of-range decisions fall back per offending core.
    for (std::size_t i = 0; i < n_cores; ++i) {
      if (session->levels[i] >= n_levels) {
        session->fallback_hold[i] = wd.hold_epochs;
      }
    }
    // Sustained overshoot of the reported budget trips every core: the
    // tenant's telemetry says the controller is not holding the cap.
    if (session->consecutive_violations >= wd.violation_epochs) {
      session->consecutive_violations = 0;
      for (std::size_t i = 0; i < n_cores; ++i) {
        if (session->fallback_hold[i] < wd.hold_epochs) {
          session->fallback_hold[i] = wd.hold_epochs;
        }
      }
    }
    for (std::size_t i = 0; i < n_cores; ++i) {
      if (session->fallback_hold[i] > 0) {
        holding = true;
        --session->fallback_hold[i];
        if (session->levels[i] != session->safe_level) {
          session->levels[i] = session->safe_level;
          ++fixed;
        }
      }
    }
  }

  ++session->next_epoch;
  session->epochs.fetch_add(1, std::memory_order_relaxed);
  session->sanitized.fetch_add(fixed, std::memory_order_relaxed);
  epochs_.fetch_add(1, std::memory_order_relaxed);
  sanitized_.fetch_add(fixed, std::memory_order_relaxed);

  StepEpochReply reply;
  reply.head = reply_header(MsgType::kStepReply, req.head);
  reply.epoch = req.epoch;
  reply.levels = session->levels;
  reply.sanitized = fixed;
  reply.watchdog_holding = holding;
  return reply;
}

std::string Server::snapshot_session(Session& session) {
  snapshot::Writer w;
  w.begin_section(kSessionStateTag);
  w.u64(session.next_epoch);
  w.f64(session.budget_w);
  w.u8(session.watchdog ? 1 : 0);
  w.u64(session.consecutive_violations);
  w.u64(session.epochs.load(std::memory_order_relaxed));
  w.u64(session.sanitized.load(std::memory_order_relaxed));
  w.u64(session.levels.size());
  for (const std::size_t level : session.levels) w.u64(level);
  for (const std::size_t hold : session.fallback_hold) w.u64(hold);
  w.end_section();
  // The runner's CTRL framing, verbatim, so this blob walks back in
  // through OpenSessionRequest::seed_blob (and run_closed_loop's
  // resume path recognizes the section).
  w.begin_section(sim::kSnapshotControllerTag);
  w.str(session.controller->name());
  session.controller->save_state(w);
  w.end_section();
  return std::move(w).finish();
}

Message Server::handle_snapshot(const SnapshotRequest& req) {
  std::shared_ptr<Session> session = find_session(req.head.session_id);
  util::MutexLock lock(session->mutex);
  if (session->closed) {
    throw ServiceError(ServiceStatus::kUnknownSession,
                       "service: session already closed");
  }
  SnapshotReply reply;
  reply.head = reply_header(MsgType::kSnapshotReply, req.head);
  reply.epoch = session->next_epoch;
  reply.blob = snapshot_session(*session);
  return reply;
}

Message Server::handle_close(const CloseSessionRequest& req) {
  std::shared_ptr<Session> session;
  {
    util::MutexLock lock(table_mutex_);
    auto it = sessions_.find(req.head.session_id);
    if (it == sessions_.end()) {
      throw ServiceError(ServiceStatus::kUnknownSession,
                         "service: unknown session " +
                             std::to_string(req.head.session_id));
    }
    session = it->second;
    sessions_.erase(it);
  }
  {
    // Table rank (32) < session rank (34): this nesting is the sanctioned
    // order, though the table lock is already gone here.
    util::MutexLock lock(session->mutex);
    session->closed = true;
  }
  sessions_closed_.fetch_add(1, std::memory_order_relaxed);

  CloseSessionReply reply;
  reply.head = reply_header(MsgType::kCloseReply, req.head);
  reply.epochs = session->epochs.load(std::memory_order_relaxed);
  reply.sanitized = session->sanitized.load(std::memory_order_relaxed);
  return reply;
}

std::shared_ptr<Server::Session> Server::find_session(
    std::uint64_t id) const {
  util::MutexLock lock(table_mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw ServiceError(ServiceStatus::kUnknownSession,
                       "service: unknown session " + std::to_string(id));
  }
  return it->second;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  s.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  s.epochs = epochs_.load(std::memory_order_relaxed);
  s.sanitized = sanitized_.load(std::memory_order_relaxed);
  return s;
}

std::size_t Server::session_count() const {
  util::MutexLock lock(table_mutex_);
  return sessions_.size();
}

void Server::export_counters(telemetry::Recorder& recorder) const {
  // Snapshot everything under the service locks first: recorder locks
  // rank *below* the service ranks, so touching the recorder while a
  // service lock is held would abort under the rank checker.
  const ServerStats s = stats();
  std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>>
      per_session;
  {
    util::MutexLock lock(table_mutex_);
    per_session.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) {
      per_session.emplace_back(
          session->tag, session->epochs.load(std::memory_order_relaxed),
          session->sanitized.load(std::memory_order_relaxed));
    }
  }
  recorder.counter("service.requests").add(s.requests);
  recorder.counter("service.errors").add(s.errors);
  recorder.counter("service.sessions_opened").add(s.sessions_opened);
  recorder.counter("service.sessions_closed").add(s.sessions_closed);
  recorder.counter("service.epochs").add(s.epochs);
  recorder.counter("service.sanitized").add(s.sanitized);
  for (const auto& [tag, epochs, sanitized] : per_session) {
    recorder.counter("service.session." + tag + ".epochs").add(epochs);
    recorder.counter("service.session." + tag + ".sanitized").add(sanitized);
  }
}

}  // namespace odrl::service
