// Multi-chip fleet throughput sweep: chips x cores x workers, measuring
// aggregate chip-epochs per second on the shared work-stealing runtime
// plus the runtime's steal/overflow counters, with machine-readable
// output: BENCH_multichip.json.
//
// The acceptance property (>= 3x epochs/s scaling from 1 to 8 workers at
// 8 chips) only has meaning on a machine with >= 8 CPUs, so the JSON
// records `cpus` and tools/check_bench_regression.py gates the scaling
// floor on it -- a 1-CPU container measures (and ratchets) only the
// per-row throughput, honestly.
//
// Output path: ODRL_BENCH_JSON=<path> (default BENCH_multichip.json;
// empty string disables writing).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "sim/multichip.hpp"

using namespace odrl;

namespace {

struct Row {
  std::size_t chips;
  std::size_t cores;
  std::size_t workers;
  std::size_t epochs;  ///< measured epochs per chip
  double wall_s;
  double chip_epochs_per_s;  ///< chips * epochs / wall
  std::uint64_t steals;
  std::uint64_t overflows;
  std::uint64_t tasks;
};

constexpr int kRounds = 2;  // best-of-2: min wall time

std::size_t epochs_for(std::size_t cores) {
  // Keep each cell a few hundred ms: smaller chips step faster.
  return cores >= 64 ? 192 : 512;
}

Row bench_cell(std::size_t chips, std::size_t cores, std::size_t workers) {
  sim::FleetConfig fc;
  fc.chips = chips;
  fc.cores = cores;
  fc.controller = "OD-RL";
  fc.epochs = epochs_for(cores);
  fc.warmup_epochs = 8;
  fc.seed = 41;
  fc.keep_traces = false;  // throughput, not traces

  Row row{chips, cores, workers, fc.epochs, 1e300, 0.0, 0, 0, 0};
  for (int round = 0; round < kRounds; ++round) {
    sim::Fleet fleet(fc);
    sim::MultiChipConfig mc;
    mc.workers = workers;
    const sim::MultiChipResult r = sim::run_multichip(fleet.specs(), mc);
    if (r.wall_s < row.wall_s) {
      row.wall_s = r.wall_s;
      row.steals = r.runtime_stats.steals;
      row.overflows = r.runtime_stats.overflows;
      row.tasks = r.runtime_stats.tasks_executed;
    }
  }
  row.chip_epochs_per_s =
      static_cast<double>(chips * fc.epochs) / row.wall_s;
  return row;
}

int write_json(const std::vector<Row>& rows) {
  const char* env = std::getenv("ODRL_BENCH_JSON");
  const std::string path = env ? env : "BENCH_multichip.json";
  if (path.empty()) return 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "BENCH_multichip: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"multichip\",\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  bench::write_host_fields(f);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"chips\": %zu, \"cores\": %zu, \"workers\": %zu, "
                 "\"epochs\": %zu, \"wall_s\": %.4f, "
                 "\"chip_epochs_per_s\": %.1f, \"steals\": %llu, "
                 "\"overflows\": %llu, \"tasks\": %llu}%s\n",
                 r.chips, r.cores, r.workers, r.epochs, r.wall_s,
                 r.chip_epochs_per_s,
                 static_cast<unsigned long long>(r.steals),
                 static_cast<unsigned long long>(r.overflows),
                 static_cast<unsigned long long>(r.tasks),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("BENCH_multichip: wrote %s (%zu rows)\n", path.c_str(),
              rows.size());
  return 0;
}

}  // namespace

int main() {
  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("BENCH_multichip: %u hardware threads\n", cpus);

  std::vector<Row> rows;
  for (std::size_t chips : {std::size_t{1}, std::size_t{8}}) {
    for (std::size_t cores : {std::size_t{16}, std::size_t{64}}) {
      for (std::size_t workers :
           {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        if (workers > chips && cores < 64) continue;  // no work to spread
        rows.push_back(bench_cell(chips, cores, workers));
      }
    }
  }

  std::printf("%6s %6s %8s %7s %9s %18s %8s %10s\n", "chips", "cores",
              "workers", "epochs", "wall_s", "chip_epochs_per_s", "steals",
              "overflows");
  for (const Row& r : rows) {
    std::printf("%6zu %6zu %8zu %7zu %9.3f %18.1f %8llu %10llu\n", r.chips,
                r.cores, r.workers, r.epochs, r.wall_s, r.chip_epochs_per_s,
                static_cast<unsigned long long>(r.steals),
                static_cast<unsigned long long>(r.overflows));
  }
  return write_json(rows);
}
