// perfbench_odrl: runs one benchmark workload and prints one JSON object
// with its metrics, operation counts, correctness-check values and the
// build it measured. perfbench/run.py builds this program, runs it and
// compares the check values with the committed golden file.
//
//   perfbench_odrl --workload chip_1024 --seed 1 --seconds 20 --trace 0
//                  [--spans <file.csv>]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace {

using namespace perfbench;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string host_json() {
  std::string out = "{";
  out += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"compiler\":" + quoted(PERFBENCH_COMPILER);
  out += ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE);
  out += ",\"odrl_simd\":" + quoted(PERFBENCH_SIMD);
  out += ",\"odrl_simd_arch\":" + quoted(PERFBENCH_SIMD_ARCH);
  out += ",\"simd_active\":" +
         std::string(odrl::util::simd_active() ? "true" : "false");
  out += ",\"checks_enabled\":" +
         std::string(odrl::util::checks_enabled() ? "true" : "false");
  return out + "}";
}

std::string report_json(const Options& opt, const Report& rep) {
  std::string out = "{\"workload\":" + quoted(opt.workload);
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"trace\":" + std::string(opt.trace ? "1" : "0");
  out += ",\"host\":" + host_json();
  out += ",\"attempted\":" + std::to_string(rep.attempted);
  out += ",\"failed\":" + std::to_string(rep.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    if (i != 0) out += ',';
    out += quoted(m.name) + ":{\"value\":" + number(m.value) +
           ",\"unit\":" + quoted(m.unit) + "}";
  }
  out += "},\"info\":{";
  for (std::size_t i = 0; i < rep.info.size(); ++i) {
    if (i != 0) out += ',';
    out += quoted(rep.info[i].first) + ":" + number(rep.info[i].second);
  }
  out += "},\"check\":{";
  for (std::size_t i = 0; i < rep.check.size(); ++i) {
    if (i != 0) out += ',';
    out += quoted(rep.check[i].first) + ":" + quoted(rep.check[i].second);
  }
  out += "},\"errors\":[";
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    if (i != 0) out += ',';
    out += quoted(rep.errors[i]);
  }
  return out + "]}";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_odrl: %s\nusage: perfbench_odrl --workload "
               "chip_1024|fleet_8x128|service_64x16 --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--spans") {
      opt.span_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(opt.seconds > 0)) usage("--seconds must be > 0");

  try {
    // The probe's buffer goes first, so it is resident for the whole run.
    MemoryProbe::instance();
    Report rep;
    if (opt.workload == "chip_1024") {
      rep = run_chip(opt);
    } else if (opt.workload == "fleet_8x128") {
      rep = run_fleet(opt);
    } else if (opt.workload == "service_64x16") {
      rep = run_service(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
    std::printf("%s\n", report_json(opt, rep).c_str());
  } catch (const std::exception& e) {
    // Still a report: the operation that threw is attempted and failed.
    std::fprintf(stderr, "perfbench_odrl: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    Report rep;
    rep.attempted = 1;
    rep.failed = 1;
    rep.errors.push_back(std::string("run stopped: ") + e.what());
    std::printf("%s\n", report_json(opt, rep).c_str());
    return 1;
  }
  return 0;
}
