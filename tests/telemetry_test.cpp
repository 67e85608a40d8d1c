// Telemetry subsystem tests: instrument semantics (histogram bin edges),
// the MemorySink ring buffer, serialization escaping (JSONL/CSV), the
// Recorder's sampling policy, and the tier-1 pin that recording never
// changes what a run computes -- RunResults are bit-identical with
// telemetry on or off, and recorded streams repeat run to run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/chip_config.hpp"
#include "sim/controller_registry.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "telemetry/csv_sink.hpp"
#include "telemetry/jsonl_sink.hpp"
#include "telemetry/memory_sink.hpp"
#include "telemetry/metric.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/text.hpp"
#include "workload/workload.hpp"

namespace ot = odrl::telemetry;
namespace os = odrl::sim;
namespace oa = odrl::arch;
namespace ow = odrl::workload;

// ---------------------------------------------------------------- metrics

TEST(Histogram, BinEdgeSemantics) {
  // bin 0 = (-inf, 1), bin 1 = [1, 10), bin 2 = [10, 100), overflow = [100,).
  ot::Histogram h({1.0, 10.0, 100.0});
  ASSERT_EQ(h.counts().size(), 4u);

  h.observe(0.5);    // bin 0
  h.observe(1.0);    // exactly on an edge -> the bin above it (bin 1)
  h.observe(5.0);    // bin 1
  h.observe(10.0);   // edge -> bin 2
  h.observe(99.9);   // bin 2
  h.observe(100.0);  // edge -> overflow
  h.observe(1e9);    // overflow

  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 2u);
  EXPECT_EQ(h.counts()[3], 2u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 5.0 + 10.0 + 99.9 + 100.0 + 1e9, 1e-3);
}

TEST(Histogram, RejectsBadEdges) {
  EXPECT_THROW(ot::Histogram(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(ot::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(ot::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(ot::Histogram({1.0, std::nan("")}), std::invalid_argument);
}

TEST(Histogram, ExponentialEdgesSpanInclusive) {
  const auto edges = ot::Histogram::exponential_edges(0.1, 1e7, 17);
  ASSERT_EQ(edges.size(), 17u);
  EXPECT_DOUBLE_EQ(edges.front(), 0.1);
  EXPECT_DOUBLE_EQ(edges.back(), 1e7);  // exact endpoint, not accumulated
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_GT(edges[i], edges[i - 1]);
  }
  // Geometric spacing: constant ratio between neighbours.
  const double r0 = edges[1] / edges[0];
  for (std::size_t i = 2; i < edges.size(); ++i) {
    EXPECT_NEAR(edges[i] / edges[i - 1], r0, 1e-6);
  }
}

TEST(Recorder, HistogramReuseRequiresMatchingEdges) {
  ot::Recorder rec;
  rec.add_sink(std::make_shared<ot::MemorySink>());
  rec.histogram("h", {1.0, 2.0});
  EXPECT_NO_THROW(rec.histogram("h", {1.0, 2.0}));
  EXPECT_THROW(rec.histogram("h", {1.0, 3.0}), std::invalid_argument);
}

// ------------------------------------------------------------- ring buffer

TEST(MemorySink, RingKeepsLastCapacityRecords) {
  ot::MemorySink sink(4);
  for (std::uint64_t e = 0; e < 10; ++e) {
    ot::EpochRecord rec;
    rec.epoch = e;
    sink.epoch(rec);
  }
  EXPECT_EQ(sink.epochs_seen(), 10u);
  const auto kept = sink.epochs();
  ASSERT_EQ(kept.size(), 4u);
  // Oldest-first unroll of the last 4: 6, 7, 8, 9.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(kept[i].epoch, 6u + i);
  }
}

TEST(MemorySink, UnboundedWhenCapacityZero) {
  ot::MemorySink sink;
  for (std::uint64_t e = 0; e < 100; ++e) {
    ot::EpochRecord rec;
    rec.epoch = e;
    sink.epoch(rec);
  }
  ASSERT_EQ(sink.epochs().size(), 100u);
  EXPECT_EQ(sink.epochs().front().epoch, 0u);
  EXPECT_EQ(sink.epochs().back().epoch, 99u);
}

// -------------------------------------------------------------- escaping

TEST(Text, JsonEscape) {
  EXPECT_EQ(ot::json_escape("plain"), "plain");
  EXPECT_EQ(ot::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(ot::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(ot::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(ot::json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Text, FmtDoubleRoundTripsAndNamesNonFinite) {
  EXPECT_EQ(std::stod(ot::fmt_double(0.1)), 0.1);
  EXPECT_EQ(ot::fmt_double(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(ot::fmt_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(ot::fmt_double(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST(JsonlSink, EscapesNamesAndNullsNonFinite) {
  std::ostringstream out;
  ot::Recorder rec;
  rec.add_sink(std::make_shared<ot::JsonlSink>(out));
  rec.begin_run({"weird \"name\"\n", 4, 10, 1e-3, ""});
  rec.gauge("g.nan").set(std::numeric_limits<double>::quiet_NaN());
  rec.end_run();

  const std::string text = out.str();
  EXPECT_NE(text.find("weird \\\"name\\\"\\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\"type\":\"gauge\",\"name\":\"g.nan\",\"value\":null"),
            std::string::npos)
      << text;
  // Every line must be a complete object.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
}

TEST(CsvSink, QuotesFieldsWithCommasAndQuotes) {
  std::ostringstream out;
  ot::Recorder rec;
  rec.add_sink(std::make_shared<ot::CsvSink>(out));
  rec.begin_run({"name,with \"quotes\"", 2, 5, 1e-3, ""});
  rec.counter("c,1").add(3);
  rec.end_run();

  const std::string text = out.str();
  // RFC 4180: the field is quoted, embedded quotes double.
  EXPECT_NE(text.find("\"name,with \"\"quotes\"\"\""), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"c,1\""), std::string::npos) << text;
}

TEST(Sinks, SessionTagEmittedOnlyWhenSet) {
  // RunInfo::tag is additive: an empty tag produces byte-identical output
  // to a build that predates the field (the multi-chip golden digests and
  // any downstream CSV/JSONL parsers rely on this).
  auto run_once = [](const std::string& tag, bool jsonl) {
    std::ostringstream out;
    ot::Recorder rec;
    if (jsonl) {
      rec.add_sink(std::make_shared<ot::JsonlSink>(out));
    } else {
      rec.add_sink(std::make_shared<ot::CsvSink>(out));
    }
    rec.begin_run({"ctl", 4, 10, 1e-3, tag});
    rec.counter("c").add(1);
    rec.end_run();
    return out.str();
  };

  for (bool jsonl : {false, true}) {
    const std::string untagged = run_once("", jsonl);
    const std::string tagged = run_once("chip03", jsonl);
    EXPECT_EQ(untagged.find("tag"), std::string::npos) << untagged;
    EXPECT_NE(tagged.find(jsonl ? "\"tag\":\"chip03\"" : "tag=chip03"),
              std::string::npos)
        << tagged;
    EXPECT_NE(untagged, tagged);
  }
}

// ------------------------------------------------------------- recorder

TEST(Recorder, InertWithoutSinks) {
  ot::Recorder rec;
  EXPECT_FALSE(rec.active());
  EXPECT_FALSE(rec.wants_cores(0));
  // The record path must be safe to call anyway (the runner guards on
  // active(), but belt and braces).
  rec.record_epoch({});
  rec.end_run();
}

TEST(Recorder, SamplingKeepsEveryKthEpochButAllEvents) {
  ot::RecorderConfig cfg;
  cfg.sample_every = 3;
  ot::Recorder rec(cfg);
  auto sink = std::make_shared<ot::MemorySink>();
  rec.add_sink(sink);
  for (std::uint64_t e = 0; e < 10; ++e) {
    ot::EpochRecord epoch_rec;
    epoch_rec.epoch = e;
    rec.record_epoch(epoch_rec);          // recorder filters unsampled epochs
    rec.record_budget_change({e, 50.0});  // events always pass
  }
  ASSERT_EQ(sink->epochs().size(), 4u);  // epochs 0, 3, 6, 9
  EXPECT_EQ(sink->epochs()[1].epoch, 3u);
  EXPECT_EQ(sink->budget_changes().size(), 10u);
}

TEST(RecorderConfig, RejectsZeroSampling) {
  ot::RecorderConfig cfg;
  cfg.sample_every = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// ------------------------------------- telemetry never changes the run

namespace {

os::SimConfig noisy_sim() {
  os::SimConfig cfg;
  cfg.sensor_noise_rel = 0.05;
  cfg.seed = 11;
  return cfg;
}

/// One OD-RL closed-loop run, optionally recorded.
os::RunResult run_odrl(ot::Recorder* recorder) {
  const std::size_t cores = 32;
  const oa::ChipConfig chip = oa::ChipConfig::make(cores, 0.6);
  os::ManyCoreSystem system(
      chip,
      std::make_unique<ow::GeneratedWorkload>(
          ow::GeneratedWorkload::mixed_suite(cores, 5)),
      noisy_sim());
  auto controller = os::make_controller("OD-RL", chip);
  os::RunConfig cfg;
  cfg.warmup_epochs = 20;
  cfg.epochs = 150;
  cfg.budget_events = {{0, chip.tdp_w() * 0.9}, {60, chip.tdp_w() * 0.5}};
  cfg.recorder = recorder;
  return os::run_closed_loop(system, *controller, cfg);
}

void expect_bit_identical(const os::RunResult& a, const os::RunResult& b) {
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.otb_energy_j, b.otb_energy_j);
  EXPECT_EQ(a.time_over_s, b.time_over_s);
  EXPECT_EQ(a.peak_overshoot_w, b.peak_overshoot_w);
  EXPECT_EQ(a.mean_power_w, b.mean_power_w);
  EXPECT_EQ(a.thermal_violation_epochs, b.thermal_violation_epochs);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t e = 0; e < a.trace.size(); ++e) {
    ASSERT_EQ(a.trace[e].epoch, b.trace[e].epoch) << "epoch " << e;
    ASSERT_EQ(a.trace[e].budget_w, b.trace[e].budget_w) << "epoch " << e;
    ASSERT_EQ(a.trace[e].chip_power_w, b.trace[e].chip_power_w)
        << "epoch " << e;
    ASSERT_EQ(a.trace[e].true_chip_power_w, b.trace[e].true_chip_power_w)
        << "epoch " << e;
    ASSERT_EQ(a.trace[e].total_ips, b.trace[e].total_ips) << "epoch " << e;
    ASSERT_EQ(a.trace[e].max_temp_c, b.trace[e].max_temp_c) << "epoch " << e;
    ASSERT_EQ(a.trace[e].thermal_violations, b.trace[e].thermal_violations)
        << "epoch " << e;
    // decide_s is wall clock: excluded, like decision_time_s above.
  }
}

}  // namespace

TEST(TelemetryDeterminism, RunResultsIdenticalWithTelemetryOnOrOff) {
  const os::RunResult off = run_odrl(nullptr);

  ot::RecorderConfig rc;
  rc.per_core = true;
  ot::Recorder rec(rc);
  auto sink = std::make_shared<ot::MemorySink>();
  rec.add_sink(sink);
  const os::RunResult on = run_odrl(&rec);

  expect_bit_identical(off, on);
  // And the recording actually happened.
  EXPECT_EQ(sink->epochs().size(), 150u);
  EXPECT_EQ(sink->cores().size(), 150u * 32u);
  EXPECT_FALSE(sink->reallocs().empty());
  EXPECT_EQ(sink->budget_changes().size(), 2u);
  EXPECT_EQ(sink->runs_ended(), 1u);
}

TEST(TelemetryDeterminism, RecordedRunsRepeatBitForBit) {
  ot::Recorder rec1;
  auto sink1 = std::make_shared<ot::MemorySink>();
  rec1.add_sink(sink1);
  const os::RunResult first = run_odrl(&rec1);

  ot::Recorder rec2;
  auto sink2 = std::make_shared<ot::MemorySink>();
  rec2.add_sink(sink2);
  const os::RunResult second = run_odrl(&rec2);

  expect_bit_identical(first, second);

  // The sink streams must match too (deterministic emission order): same
  // epoch records, same reallocation events with the same per-core budgets.
  const auto e1 = sink1->epochs();
  const auto e2 = sink2->epochs();
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t i = 0; i < e1.size(); ++i) {
    ASSERT_EQ(e1[i].epoch, e2[i].epoch) << i;
    ASSERT_EQ(e1[i].true_chip_power_w, e2[i].true_chip_power_w) << i;
  }
  const auto r1 = sink1->reallocs();
  const auto r2 = sink2->reallocs();
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    const auto& ra = r1[i];
    const auto& rb = r2[i];
    ASSERT_EQ(ra.epoch, rb.epoch) << i;
    ASSERT_EQ(ra.mu, rb.mu) << i;
    ASSERT_EQ(ra.mean_reward, rb.mean_reward) << i;
    ASSERT_EQ(ra.core_budgets, rb.core_budgets) << i;
  }
}

TEST(TelemetryRun, EmitsDecideLatencyHistogramAndRunMetrics) {
  ot::Recorder rec;
  auto sink = std::make_shared<ot::MemorySink>();
  rec.add_sink(sink);
  (void)run_odrl(&rec);

  const ot::MetricsSnapshot& snap = sink->last_metrics();
  bool found_hist = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "decide_us") {
      found_hist = true;
      EXPECT_EQ(h.count, 150u);  // one decide() per measured epoch
    }
  }
  EXPECT_TRUE(found_hist);
  bool found_epochs = false;
  for (const auto& c : snap.counters) {
    if (c.name == "run.epochs") {
      found_epochs = true;
      EXPECT_EQ(c.value, 150u);
    }
  }
  EXPECT_TRUE(found_epochs);
}
