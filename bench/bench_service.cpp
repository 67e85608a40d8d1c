// Control-plane service throughput sweep: sessions x workers, measuring
// session-epochs per second through the full loopback stack (tenant sim
// step -> wire encode -> server decode/decide -> wire encode -> client
// decode), with machine-readable output: BENCH_service.json.
//
// One driver thread pipelines every tenant's StepEpoch each round (post
// all, then complete all), so with workers > 1 the server's drain tasks
// overlap across connections while each session's decision stream stays
// bit-identical -- the property the soak test enforces; this bench only
// prices it.
//
// Output path: ODRL_BENCH_JSON=<path> (default BENCH_service.json; empty
// string disables writing).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

using namespace odrl;

namespace {

struct Row {
  std::size_t sessions;
  std::size_t cores;
  std::size_t workers;
  std::size_t epochs;  ///< epochs stepped per session
  double wall_s;
  double epochs_per_s;  ///< sessions * epochs / wall
  std::uint64_t requests;
};

constexpr int kRounds = 2;  // best-of-2: min wall time
constexpr std::size_t kCores = 4;

std::size_t epochs_for(std::size_t sessions) {
  // Keep each cell around 20k+ session-epochs (a few hundred ms): cells
  // much shorter than that ratchet timer noise, not throughput.
  if (sessions >= 256) return 96;
  if (sessions >= 64) return 384;
  return 1024;
}

Row bench_cell(std::size_t sessions, std::size_t workers) {
  const std::size_t epochs = epochs_for(sessions);
  Row row{sessions, kCores, workers, epochs, 1e300, 0.0, 0};

  for (int round = 0; round < kRounds; ++round) {
    service::ServerConfig config;
    config.workers = workers;
    config.max_sessions = sessions;
    service::Server server(config);

    std::vector<std::unique_ptr<service::LoopbackClient>> clients;
    std::vector<std::unique_ptr<service::Tenant>> tenants;
    clients.reserve(sessions);
    tenants.reserve(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      clients.push_back(std::make_unique<service::LoopbackClient>(server));
      service::TenantConfig tc;
      tc.controller = (i % 2 == 0) ? "OD-RL" : "PID";
      tc.cores = kCores;
      tc.seed = 100 + i;
      tenants.push_back(
          std::make_unique<service::Tenant>(*clients[i], tc));
    }

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t e = 0; e < epochs; ++e) {
      for (auto& tenant : tenants) tenant->post_step();
      for (auto& tenant : tenants) (void)tenant->complete_step();
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    if (wall < row.wall_s) {
      row.wall_s = wall;
      row.requests = server.stats().requests;
    }
    for (auto& tenant : tenants) (void)tenant->close();
  }

  row.epochs_per_s =
      static_cast<double>(row.sessions * row.epochs) / row.wall_s;
  return row;
}

int write_json(const std::vector<Row>& rows) {
  const char* env = std::getenv("ODRL_BENCH_JSON");
  const std::string path = env ? env : "BENCH_service.json";
  if (path.empty()) return 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "BENCH_service: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"service\",\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  bench::write_host_fields(f);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"sessions\": %zu, \"cores\": %zu, \"workers\": %zu, "
                 "\"epochs\": %zu, \"wall_s\": %.4f, "
                 "\"epochs_per_s\": %.1f, \"requests\": %llu}%s\n",
                 r.sessions, r.cores, r.workers, r.epochs, r.wall_s,
                 r.epochs_per_s,
                 static_cast<unsigned long long>(r.requests),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("BENCH_service: wrote %s (%zu rows)\n", path.c_str(),
              rows.size());
  return 0;
}

}  // namespace

int main() {
  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("BENCH_service: %u hardware threads\n", cpus);

  std::vector<Row> rows;
  for (std::size_t sessions :
       {std::size_t{16}, std::size_t{64}, std::size_t{256}}) {
    for (std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      rows.push_back(bench_cell(sessions, workers));
    }
  }

  std::printf("%9s %6s %8s %7s %9s %13s %9s\n", "sessions", "cores",
              "workers", "epochs", "wall_s", "epochs_per_s", "requests");
  for (const Row& r : rows) {
    std::printf("%9zu %6zu %8zu %7zu %9.3f %13.1f %9llu\n", r.sessions,
                r.cores, r.workers, r.epochs, r.wall_s, r.epochs_per_s,
                static_cast<unsigned long long>(r.requests));
  }
  return write_json(rows);
}
