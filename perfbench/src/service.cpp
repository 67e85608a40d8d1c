// service_64x16: one Server at width 1 supervising 64 OD-RL sessions of 16
// cores, driven over in-process connections. Each round the generator
// steps its own 64 tenant chips (outside the service), then makes one
// synchronous StepEpoch call per tenant and adopts the returned levels;
// one tenant per round also asks for a session snapshot. Closed loop: a
// tenant cannot step again before its levels come back.
//
// A traced run adds a width-1 shadow server fed the same payload bytes
// through Server::handle(). Its replies must equal the live server's byte
// for byte, and its handle() time splits a call into handling and
// transport. The shadow replays each batch's requests after the batch,
// outside the timed rounds.
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "bench.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "sim/multichip.hpp"
#include "sim/system.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using namespace odrl;
using service::Message;
using service::MsgType;
using service::Server;

constexpr std::size_t kTenants = 64;
constexpr std::size_t kCores = 16;
constexpr std::size_t kWarmupRounds = 64;
constexpr std::size_t kBatchRounds = 64;

/// The generator's side of one tenant: its own chip and its connection.
struct Tenant {
  std::unique_ptr<sim::ManyCoreSystem> system;
  std::shared_ptr<Server::Connection> conn;
  /// The StepEpoch request, kept across rounds: the chip steps straight
  /// into its observation, so encoding needs no copy.
  Message step = service::StepEpochRequest{};
  std::vector<std::size_t> levels;
  std::uint64_t session = 0;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 1;
  std::uint64_t digest = kFnvBasis;
};

/// One request the live server answered, kept for the shadow server.
struct Exchange {
  std::string payload;
  std::string reply;
  bool snapshot = false;
  std::uint64_t id = 0;
};

/// One set-up service: the live server, the shadow (traced runs only) and
/// the generator's tenants. Tenants are declared last so their connections
/// close before the servers go.
struct Instance {
  std::unique_ptr<Server> server;
  std::unique_ptr<Server> shadow;
  /// Requests the shadow has not replayed yet.
  std::vector<Exchange> pending;
  std::vector<Tenant> tenants;

  std::vector<std::uint64_t> digests() const {
    std::vector<std::uint64_t> d;
    for (const Tenant& t : tenants) d.push_back(t.digest);
    return d;
  }
};

std::uint64_t fold(const std::vector<std::uint64_t>& digests) {
  std::uint64_t all = kFnvBasis;
  for (const std::uint64_t x : digests) {
    all ^= x;
    all *= 0x100000001b3ull;
  }
  return all;
}

class ServiceBench {
 public:
  explicit ServiceBench(const Options& opt) : opt_(opt) {}

  Report run() {
    // The measured instance is the first setup; the others are set up in
    // child processes between batches and thrown away.
    const SetupRun first = timed_setup(live_, opt_.trace);
    setup_digest_ = first.fingerprint;
    loop_.setup_s.push_back(first.seconds);
    replay_shadow(live_, false);

    BatchLatency latency;
    std::int64_t traced_wall_ns = 0;
    service::ServerStats traced_stats;
    measuring_ = true;
    std::size_t r = kWarmupRounds;
    loop_.run(
        opt_,
        [&](std::size_t b, bool traced) {
          tracer_.set_enabled(traced);
          const service::ServerStats before = live_.server->stats();
          service_ns_ = 0;
          steps_ = 0;
          const std::int64_t t0 = now_ns();
          for (std::size_t i = 0; i < kBatchRounds; ++i) {
            round(live_, r++, traced);
          }
          const std::int64_t t1 = now_ns();
          if (!traced) {
            latency.take(samples_);
          } else {
            samples_.clear();
            traced_wall_ns += t1 - t0;
            const service::ServerStats after = live_.server->stats();
            traced_stats.requests += after.requests - before.requests;
            traced_stats.errors += after.errors - before.errors;
          }
          replay_shadow(live_, traced);
          if (b == 0) {
            // The golden prefix ends here: setup plus the first batch.
            std::string list;
            for (const std::uint64_t x : live_.digests()) {
              if (!list.empty()) list += ',';
              list += hex64(x);
            }
            rep_.check.emplace_back("levels_digest", hex64(fold(live_.digests())));
            rep_.check.emplace_back("session_digests", list);
          }
          return BatchTime{static_cast<double>(steps_) /
                               (1e-9 * static_cast<double>(service_ns_)),
                           t1 - t0};
        },
        [&] {
          const SetupRun extra = setup_in_child([&] {
            measuring_ = false;  // the child's copy: count setup failures
            Instance in;
            return timed_setup(in, false);
          });
          if (extra.fingerprint != setup_digest_) {
            rep_.errors.push_back("setup " +
                                  std::to_string(loop_.setup_s.size()) +
                                  " decided differently from setup 0");
          }
          setup_failures_ += extra.failures;
          return extra.seconds;
        });
    if (setup_failures_ != 0) {
      rep_.errors.push_back(std::to_string(setup_failures_) +
                            " requests failed during setup");
    }
    if (!loop_.error.empty()) {
      ++rep_.attempted;
      ++rep_.failed;
      rep_.errors.push_back("run stopped: " + loop_.error);
    }

    rep_.info.emplace_back("decision_samples",
                           static_cast<double>(latency.samples));
    rep_.info.emplace_back("batch_rounds", kBatchRounds);
    loop_.add_info(rep_);
    if (!opt_.trace) {
      rep_.add("setup_s", median(loop_.setup_s), "s");
      rep_.add("epochs_per_s", loop_.rates.median_rate(), "1/s");
      rep_.add("decision_us_p50", loop_.rates.median_time(latency.p50), "us");
      rep_.add("decision_us_p99", loop_.rates.median_time(latency.p99), "us");
      rep_.add("peak_rss_mb", peak_rss_mb(), "MB");
      return std::move(rep_);
    }
    layer_metrics(traced_wall_ns, traced_stats);
    return std::move(rep_);
  }

 private:
  /// Builds and warms up one instance, timed (the shadow's replay of the
  /// setup requests comes later). The fingerprint folds every session's
  /// digest; failures counts failed requests.
  SetupRun timed_setup(Instance& in, bool shadow) {
    const std::uint64_t failures_before = setup_failures_;
    const std::int64_t t0 = now_ns();
    build(in, shadow);
    for (std::size_t r = 0; r < kWarmupRounds; ++r) round(in, r, false);
    SetupRun out;
    out.seconds = 1e-9 * static_cast<double>(now_ns() - t0);
    out.fingerprint = fold(in.digests());
    out.failures = setup_failures_ - failures_before;
    return out;
  }

  /// Feeds the shadow server every pending request and checks that it
  /// answers exactly like the live server did.
  void replay_shadow(Instance& in, bool traced) {
    if (!in.shadow) return;
    for (Exchange& x : in.pending) {
      const std::int64_t h0 = now_ns();
      const std::string reply = in.shadow->handle(x.payload);
      const std::int64_t h1 = now_ns();
      if (traced) {
        tracer_.leaf(x.snapshot ? SpanName::kSnapshotHandle
                                : SpanName::kStepHandle,
                     x.id, h0, h1);
      }
      if (reply != x.reply) {
        ++shadow_mismatches_;
        fail("shadow server reply differs from the live server's");
      }
    }
    in.pending.clear();
  }

  void build(Instance& in, bool shadow) {
    service::ServerConfig sc;
    sc.workers = 1;
    in.server = std::make_unique<Server>(sc);
    if (shadow) in.shadow = std::make_unique<Server>(sc);
    in.tenants.resize(kTenants);
    const arch::ChipConfig cc = arch::ChipConfig::make(kCores, kBudgetFraction);
    n_levels_ = cc.vf_table().size();
    for (std::size_t i = 0; i < kTenants; ++i) {
      Tenant& t = in.tenants[i];
      sim::SimConfig sim;
      sim.sensor_noise_rel = kSensorNoise;
      sim.seed = sim::fleet_chip_seed(opt_.seed, i, 0);
      sim.threads = 1;
      t.system = std::make_unique<sim::ManyCoreSystem>(
          cc,
          std::make_unique<workload::GeneratedWorkload>(
              workload::GeneratedWorkload::mixed_suite(
                  kCores, sim::fleet_chip_seed(opt_.seed, i, 1))),
          sim);
      t.conn = in.server->connect();

      service::OpenSessionRequest open;
      open.head = {MsgType::kOpenSession, t.seq++, 0};
      open.controller = "OD-RL";
      open.cores = kCores;
      open.budget_fraction = kBudgetFraction;
      open.seed = sim::fleet_chip_seed(opt_.seed, i, 2);
      open.tag = "tenant" + std::to_string(i);
      const std::string reply =
          exchange(in, t, service::encode_message(open), false, false, 0);
      const Message m = service::decode_message(reply);
      const auto* ok = std::get_if<service::OpenSessionReply>(&m);
      if (ok == nullptr || ok->initial_levels.size() != kCores) {
        throw std::runtime_error("service: OpenSession failed for tenant " +
                                 std::to_string(i));
      }
      t.session = ok->head.session_id;
      t.levels = ok->initial_levels;
      auto& req = std::get<service::StepEpochRequest>(t.step);
      req.head.type = MsgType::kStepEpoch;
      req.head.session_id = t.session;
    }
  }

  /// Sends one encoded request on the tenant's connection and returns the
  /// reply bytes. With a shadow server, the request and its reply are
  /// kept for replay_shadow().
  std::string exchange(Instance& in, Tenant& t, std::string payload,
                       bool traced, bool snapshot, std::uint64_t id) {
    if (in.shadow) in.pending.push_back({payload, {}, snapshot, id});
    const std::int64_t c0 = now_ns();
    t.conn->post(std::move(payload));
    std::string reply = t.conn->take_reply();
    const std::int64_t c1 = now_ns();
    if (traced) {
      tracer_.leaf(snapshot ? SpanName::kSnapshotCall : SpanName::kStepCall,
                   id, c0, c1);
    }
    call_ns_ = c1 - c0;
    if (in.shadow) in.pending.back().reply = reply;
    return reply;
  }

  void fail(const std::string& what) {
    if (measuring_) {
      ++rep_.failed;
      if (rep_.errors.size() < 8) rep_.errors.push_back(what);
    } else {
      ++setup_failures_;
    }
  }

  /// One round: every tenant steps its chip and makes one StepEpoch call;
  /// tenant (round mod 64) also takes a session snapshot.
  void round(Instance& in, std::size_t r, bool traced) {
    if (traced) tracer_.open(now_ns());
    for (std::size_t i = 0; i < kTenants; ++i) {
      Tenant& t = in.tenants[i];
      const std::uint64_t id = r * kTenants + i;
      auto& req = std::get<service::StepEpochRequest>(t.step);
      {
        const std::int64_t s0 = now_ns();
        t.system->step_into(t.levels, req.obs);
        if (traced) tracer_.leaf(SpanName::kTenantStep, id, s0, now_ns());
      }
      req.head.seq = t.seq++;
      req.epoch = t.epoch;
      step_call(in, t, id, traced);
      if (i == r % kTenants) snapshot_call(in, t, id, traced);
    }
    if (traced) tracer_.close(SpanName::kRound, r, now_ns());
  }

  /// One StepEpoch call. An exception anywhere in it (encode, transport,
  /// decode) fails this request; the tenant retries the epoch next round.
  void step_call(Instance& in, Tenant& t, std::uint64_t id, bool traced) {
    if (measuring_) ++rep_.attempted;
    Message m;
    std::size_t request_bytes = 0;
    std::size_t reply_bytes = 0;
    try {
      const std::int64_t e0 = now_ns();
      std::string payload = service::encode_message(t.step);
      const std::int64_t e1 = now_ns();
      request_bytes = payload.size();
      const std::string reply =
          exchange(in, t, std::move(payload), traced, false, id);
      reply_bytes = reply.size();
      const std::int64_t d0 = now_ns();
      m = service::decode_message(reply);
      const std::int64_t d1 = now_ns();
      const std::int64_t ns = (e1 - e0) + call_ns_ + (d1 - d0);
      service_ns_ += ns;
      ++steps_;
      if (measuring_) samples_.add_ns(ns);
      if (traced) {
        tracer_.leaf(SpanName::kStepEncode, id, e0, e1);
        tracer_.leaf(SpanName::kStepDecode, id, d0, d1);
      }
    } catch (const std::exception& e) {
      fail(std::string("StepEpoch call threw: ") + e.what());
      return;
    }
    if (traced) {
      step_request_bytes_ += request_bytes;
      step_reply_bytes_ += reply_bytes;
      ++traced_steps_;
    }
    const auto* ok = std::get_if<service::StepEpochReply>(&m);
    if (ok == nullptr) {
      const auto* err = std::get_if<service::ErrorReply>(&m);
      fail(err != nullptr ? "StepEpoch error reply: " + err->message
                          : std::string("StepEpoch: unexpected reply type"));
      return;
    }
    if (ok->epoch != t.epoch || ok->levels.size() != kCores) {
      fail("StepEpoch reply for the wrong epoch or shape");
      return;
    }
    for (const std::size_t level : ok->levels) {
      if (level >= n_levels_) {
        fail("StepEpoch reply level out of range");
        return;
      }
    }
    t.levels = ok->levels;
    fnv_fold(t.digest, t.levels);
    ++t.epoch;
  }

  void snapshot_call(Instance& in, Tenant& t, std::uint64_t id,
                     bool traced) {
    if (measuring_) ++rep_.attempted;
    Message m;
    try {
      const std::int64_t e0 = now_ns();
      service::SnapshotRequest req;
      req.head = {MsgType::kSnapshot, t.seq++, t.session};
      std::string payload = service::encode_message(req);
      const std::int64_t e1 = now_ns();
      const std::string reply =
          exchange(in, t, std::move(payload), traced, true, id);
      const std::int64_t d0 = now_ns();
      m = service::decode_message(reply);
      const std::int64_t d1 = now_ns();
      service_ns_ += (e1 - e0) + call_ns_ + (d1 - d0);
      if (traced) {
        tracer_.leaf(SpanName::kSnapshotEncode, id, e0, e1);
        tracer_.leaf(SpanName::kSnapshotDecode, id, d0, d1);
        snapshot_reply_bytes_ += reply.size();
        ++traced_snapshots_;
      }
    } catch (const std::exception& e) {
      fail(std::string("Snapshot call threw: ") + e.what());
      return;
    }
    const auto* ok = std::get_if<service::SnapshotReply>(&m);
    if (ok == nullptr || ok->epoch != t.epoch || ok->blob.empty()) {
      fail("Snapshot reply missing, empty or for the wrong epoch");
    }
  }

  void layer_metrics(std::int64_t traced_wall_ns,
                     const service::ServerStats& stats) {
    auto s = [&](SpanName n) { return tracer_.stats(n); };
    const SpanStats round = s(SpanName::kRound);
    const SpanStats step_handle = s(SpanName::kStepHandle);
    const SpanStats snap_handle = s(SpanName::kSnapshotHandle);
    LayerValues v;
    v.gen_tenant_step_us = s(SpanName::kTenantStep).mean_us();
    v.service_encode_us = s(SpanName::kStepEncode).mean_us();
    v.service_call_us = s(SpanName::kStepCall).mean_us();
    v.service_decode_us = s(SpanName::kStepDecode).mean_us();
    v.service_handle_us = step_handle.mean_us();
    v.service_snapshot_handle_us = snap_handle.mean_us();
    if (traced_steps_ > 0) {
      v.service_request_bytes = static_cast<double>(step_request_bytes_) /
                                static_cast<double>(traced_steps_);
      v.service_reply_bytes = static_cast<double>(step_reply_bytes_) /
                              static_cast<double>(traced_steps_);
    }
    v.service_requests = static_cast<double>(stats.requests);
    v.service_errors = static_cast<double>(stats.errors);
    if (round.total_ns > 0) {
      v.service_untraced_frac = static_cast<double>(round.self_ns) /
                                static_cast<double>(round.total_ns);
      // The shadow replays outside the rounds, so its snapshot handling
      // is priced against the live rounds alone.
      v.snapshot_encode_share = static_cast<double>(snap_handle.total_ns) /
                                static_cast<double>(round.total_ns);
    }
    if (traced_snapshots_ > 0) {
      v.snapshot_reply_bytes = static_cast<double>(snapshot_reply_bytes_) /
                               static_cast<double>(traced_snapshots_);
    }
    // Wall time of whole traced and untraced batches, tracer bookkeeping
    // included; the shadow's replay is outside both.
    v.trace_overhead_frac = loop_.trace_overhead();
    if (traced_wall_ns > 0) {
      // Leaf spans cover the whole round but its own bookkeeping; what
      // the batch spends outside every leaf is unattributed.
      v.trace_unattributed_frac =
          1.0 - static_cast<double>(round.total_ns - round.self_ns) /
                    static_cast<double>(traced_wall_ns);
    }
    add_layer_metrics(rep_, v);
    rep_.info.emplace_back("traced_requests",
                           static_cast<double>(stats.requests));
    rep_.info.emplace_back("shadow_mismatches",
                           static_cast<double>(shadow_mismatches_));
    rep_.info.emplace_back("spans",
                           static_cast<double>(tracer_.spans_recorded()));
    if (!opt_.span_path.empty()) {
      const Tracer* tracers[] = {&tracer_};
      rep_.info.emplace_back(
          "spans_written",
          static_cast<double>(write_spans(opt_.span_path, tracers)));
    }
  }

  const Options& opt_;
  Report rep_;
  Instance live_;  ///< the measured instance
  MeasureLoop loop_;
  std::uint64_t setup_digest_ = 0;
  Tracer tracer_;
  Samples samples_;
  std::size_t n_levels_ = 0;
  bool measuring_ = false;  ///< count operations (off during setup)
  std::uint64_t setup_failures_ = 0;
  std::uint64_t shadow_mismatches_ = 0;
  std::int64_t call_ns_ = 0;     ///< duration of the latest exchange's call
  std::int64_t service_ns_ = 0;  ///< time inside service calls, this batch
  std::uint64_t steps_ = 0;      ///< StepEpoch calls, this batch
  std::uint64_t traced_steps_ = 0;
  std::uint64_t step_request_bytes_ = 0;
  std::uint64_t step_reply_bytes_ = 0;
  std::uint64_t snapshot_reply_bytes_ = 0;
  std::uint64_t traced_snapshots_ = 0;
};

}  // namespace

Report run_service(const Options& opt) { return ServiceBench(opt).run(); }

}  // namespace perfbench
