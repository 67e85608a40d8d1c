// Service soak: >= 256 concurrent sessions driven from a fleet of client
// threads, on servers with 1, 2 and 4 workers. The acceptance property is
// the determinism contract under real contention: every session's decision
// digest must be bit-identical across worker counts, and the server's
// bookkeeping must balance exactly. Runs under the `tsan` label -- the
// client threads, the drain tasks on the shared task runtime, and the
// session/table locks are precisely the paths a data race would corrupt.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "service/client.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"

namespace sv = odrl::service;

namespace {

constexpr std::size_t kClientThreads = 8;
constexpr std::size_t kTenantsPerThread = 32;  // 8 x 32 = 256 sessions
constexpr std::size_t kSessions = kClientThreads * kTenantsPerThread;
constexpr std::uint64_t kEpochs = 6;
constexpr std::size_t kCores = 2;

/// Per-session digest map, keyed by the tenant's seed (stable across
/// worker counts; session ids are assignment-order-dependent).
using DigestMap = std::map<std::uint64_t, std::uint64_t>;

DigestMap run_soak(std::size_t workers) {
  sv::ServerConfig config;
  config.workers = workers;
  config.max_sessions = kSessions;
  sv::Server server(config);

  std::vector<DigestMap> per_thread(kClientThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClientThreads);
    for (std::size_t t = 0; t < kClientThreads; ++t) {
      threads.emplace_back([&server, &per_thread, t] {
        // One client (= one connection) per tenant so replies never
        // interleave across sessions; the thread pipelines its whole
        // cohort each epoch to keep many requests in flight.
        std::vector<std::unique_ptr<sv::LoopbackClient>> clients;
        std::vector<std::unique_ptr<sv::Tenant>> tenants;
        for (std::size_t i = 0; i < kTenantsPerThread; ++i) {
          clients.push_back(std::make_unique<sv::LoopbackClient>(server));
          sv::TenantConfig tc;
          tc.controller = (i % 2 == 0) ? "OD-RL" : "PID";
          tc.cores = kCores;
          tc.seed = 1000 + t * kTenantsPerThread + i;
          tc.watchdog = (i % 4 == 0);
          tenants.push_back(std::make_unique<sv::Tenant>(*clients[i], tc));
        }
        for (std::uint64_t e = 0; e < kEpochs; ++e) {
          for (auto& tenant : tenants) tenant->post_step();
          for (auto& tenant : tenants) (void)tenant->complete_step();
        }
        DigestMap digests;
        for (std::size_t i = 0; i < kTenantsPerThread; ++i) {
          digests[1000 + t * kTenantsPerThread + i] =
              tenants[i]->decision_digest();
          const sv::CloseSessionReply closed = tenants[i]->close();
          EXPECT_EQ(closed.epochs, kEpochs);
        }
        per_thread[t] = std::move(digests);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  DigestMap all;
  for (DigestMap& m : per_thread) all.merge(m);
  EXPECT_EQ(all.size(), kSessions);

  const sv::ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, kSessions);
  EXPECT_EQ(stats.sessions_closed, kSessions);
  EXPECT_EQ(stats.epochs, kSessions * kEpochs);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(server.session_count(), 0u);
  return all;
}

TEST(ServiceSoak, SessionsBitIdenticalAcrossWorkerCounts) {
  const DigestMap d1 = run_soak(1);
  const DigestMap d2 = run_soak(2);
  const DigestMap d4 = run_soak(4);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d4);
}

}  // namespace
