#include "service/client.hpp"

#include <stdexcept>
#include <utility>

#include "arch/chip_config.hpp"
#include "workload/workload.hpp"

namespace odrl::service {
namespace {

sim::ManyCoreSystem make_tenant_system(const TenantConfig& config) {
  sim::SimConfig sim;
  sim.seed = config.seed;
  return sim::ManyCoreSystem(
      arch::ChipConfig::make(config.cores, config.budget_fraction),
      std::make_unique<workload::GeneratedWorkload>(
          workload::GeneratedWorkload::mixed_suite(config.cores,
                                                   config.seed)),
      sim);
}

}  // namespace

LoopbackClient::LoopbackClient(Server& server, std::string name)
    : conn_(server.connect()), name_(std::move(name)) {}

std::uint64_t LoopbackClient::post(Message msg) {
  const std::uint64_t seq = next_seq_++;
  std::visit([seq](auto& m) { m.head.seq = seq; }, msg);
  conn_->post(encode_message(msg));
  return seq;
}

Message LoopbackClient::wait_reply() {
  return decode_message(conn_->take_reply());
}

Message LoopbackClient::call(Message msg) {
  post(std::move(msg));
  return wait_reply();
}

template <typename R>
R LoopbackClient::expect(Message reply) {
  if (auto* r = std::get_if<R>(&reply)) return std::move(*r);
  if (auto* err = std::get_if<ErrorReply>(&reply)) {
    throw ServiceError(err->status, err->message);
  }
  throw ServiceError(ServiceStatus::kBadMessage,
                     "client: unexpected reply type");
}

HelloReply LoopbackClient::hello() {
  HelloRequest req;
  req.head.type = MsgType::kHello;
  req.client = name_;
  return expect<HelloReply>(call(std::move(req)));
}

OpenSessionReply LoopbackClient::open_session(OpenSessionRequest req) {
  req.head = MsgHeader{};
  req.head.type = MsgType::kOpenSession;
  return expect<OpenSessionReply>(call(std::move(req)));
}

StepEpochReply LoopbackClient::step(std::uint64_t session_id,
                                    std::uint64_t epoch,
                                    const sim::EpochResult& obs) {
  StepEpochRequest req;
  req.head.type = MsgType::kStepEpoch;
  req.head.session_id = session_id;
  req.epoch = epoch;
  req.obs = obs;
  return expect<StepEpochReply>(call(std::move(req)));
}

SnapshotReply LoopbackClient::snapshot(std::uint64_t session_id) {
  SnapshotRequest req;
  req.head.type = MsgType::kSnapshot;
  req.head.session_id = session_id;
  return expect<SnapshotReply>(call(std::move(req)));
}

CloseSessionReply LoopbackClient::close_session(std::uint64_t session_id) {
  CloseSessionRequest req;
  req.head.type = MsgType::kCloseSession;
  req.head.session_id = session_id;
  return expect<CloseSessionReply>(call(std::move(req)));
}

Tenant::Tenant(LoopbackClient& client, const TenantConfig& config)
    : client_(client), system_(make_tenant_system(config)) {
  OpenSessionRequest open;
  open.controller = config.controller;
  open.cores = config.cores;
  open.budget_fraction = config.budget_fraction;
  open.seed = config.seed;
  open.tag = config.tag;
  open.watchdog = config.watchdog;
  open.overrides = config.overrides;
  OpenSessionReply reply = client_.open_session(std::move(open));
  session_id_ = reply.head.session_id;
  levels_ = std::move(reply.initial_levels);
  if (levels_.size() != config.cores) {
    throw ServiceError(ServiceStatus::kDimensionMismatch,
                       "tenant: initial levels size mismatch");
  }
}

const StepEpochReply& Tenant::step() {
  post_step();
  return complete_step();
}

void Tenant::post_step() {
  system_.step_into(levels_, obs_);
  StepEpochRequest req;
  req.head.type = MsgType::kStepEpoch;
  req.head.session_id = session_id_;
  req.epoch = epoch_;
  req.obs = obs_;
  client_.post(std::move(req));
}

const StepEpochReply& Tenant::complete_step() {
  Message reply = client_.wait_reply();
  if (auto* err = std::get_if<ErrorReply>(&reply)) {
    throw ServiceError(err->status, err->message);
  }
  auto* step_reply = std::get_if<StepEpochReply>(&reply);
  if (step_reply == nullptr || step_reply->epoch != epoch_) {
    throw ServiceError(ServiceStatus::kBadMessage,
                       "tenant: mismatched step reply");
  }
  adopt(*step_reply);
  return last_;
}

void Tenant::adopt(const StepEpochReply& reply) {
  last_ = reply;
  levels_ = reply.levels;
  ++epoch_;
  for (const std::size_t level : reply.levels) {
    // FNV-1a over the level bytes, folded level by level: cheap, order-
    // sensitive, and identical across platforms for 64-bit size_t.
    digest_ ^= static_cast<std::uint64_t>(level);
    digest_ *= 0x100000001b3ull;
  }
}

CloseSessionReply Tenant::close() {
  return client_.close_session(session_id_);
}

}  // namespace odrl::service
