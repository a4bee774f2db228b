// Tests for the telemetry layer: instrument semantics (counter/gauge/
// histogram), registry registration + label canonicalisation + type
// clashes, snapshot determinism, the Prometheus/JSON exposition
// grammar, the trace recorder (capacity, context propagation, Chrome
// export), the serving layer's percentile window, and a TSan-targeted
// stress suite (concurrent instruments + scrapes + a live compaction
// swap under tracing).
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "index/mutable_index.hpp"
#include "index/registry.hpp"
#include "persist/compactor.hpp"
#include "shard/mutable_sharded_index.hpp"
#include "sparse/generator.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/trace.hpp"
#include "util/percentile.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace topk::telemetry {
namespace {

// ---- instruments ---------------------------------------------------------

TEST(TelemetryMetricsTest, CounterAccumulatesMonotonically) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(TelemetryMetricsTest, GaugeSetAddAndTrackMax) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(3.5);
  EXPECT_EQ(gauge.value(), 3.5);
  gauge.add(-1.5);
  EXPECT_EQ(gauge.value(), 2.0);
  gauge.track_max(1.0);  // below current: no-op
  EXPECT_EQ(gauge.value(), 2.0);
  gauge.track_max(7.0);
  EXPECT_EQ(gauge.value(), 7.0);
}

TEST(TelemetryMetricsTest, HistogramUsesLeBucketSemantics) {
  Histogram hist({1.0, 2.0, 4.0});
  hist.observe(0.5);  // <= 1
  hist.observe(1.0);  // le: boundary lands in its own bucket
  hist.observe(3.0);  // <= 4
  hist.observe(9.0);  // overflow
  const HistogramSnapshot snap = hist.snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 0u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 13.5);
}

TEST(TelemetryMetricsTest, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(TelemetryMetricsTest, ExponentialBucketsLadder) {
  const auto bounds = Histogram::exponential_buckets(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
  EXPECT_THROW(Histogram::exponential_buckets(0.0, 2.0, 4),
               std::invalid_argument);
  EXPECT_THROW(Histogram::exponential_buckets(1.0, 1.0, 4),
               std::invalid_argument);
  EXPECT_THROW(Histogram::exponential_buckets(1.0, 2.0, 0),
               std::invalid_argument);
}

// ---- registry ------------------------------------------------------------

TEST(TelemetryMetricsTest, RegistryDedupesByNameAndCanonicalLabels) {
  MetricsRegistry reg;
  Counter& a = reg.counter("topk_test_total", {{"a", "1"}, {"b", "2"}});
  // Same cell regardless of label order.
  Counter& b = reg.counter("topk_test_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
  Counter& c = reg.counter("topk_test_total", {{"a", "1"}, {"b", "3"}});
  EXPECT_NE(&a, &c);
  a.inc();
  const auto families = reg.snapshot();
  ASSERT_EQ(families.size(), 1u);
  ASSERT_EQ(families[0].series.size(), 2u);
}

TEST(TelemetryMetricsTest, RegistryRejectsTypeClash) {
  MetricsRegistry reg;
  (void)reg.counter("topk_clash_total");
  EXPECT_THROW((void)reg.gauge("topk_clash_total"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("topk_clash_total", {1.0}),
               std::invalid_argument);
}

TEST(TelemetryMetricsTest, RegistryRejectsHistogramBoundsMismatch) {
  MetricsRegistry reg;
  (void)reg.histogram("topk_h_seconds", {1.0, 2.0}, {{"phase", "a"}});
  // New cell of the same family must reuse the family's bucket layout.
  EXPECT_THROW(
      (void)reg.histogram("topk_h_seconds", {1.0, 3.0}, {{"phase", "b"}}),
      std::invalid_argument);
  EXPECT_NO_THROW(
      (void)reg.histogram("topk_h_seconds", {1.0, 2.0}, {{"phase", "b"}}));
}

TEST(TelemetryMetricsTest, RegistryValidatesNames) {
  MetricsRegistry reg;
  EXPECT_THROW((void)reg.counter("0bad"), std::invalid_argument);
  EXPECT_THROW((void)reg.counter("has space"), std::invalid_argument);
  EXPECT_THROW((void)reg.counter("topk_ok", {{"bad:label", "v"}}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.counter("topk_ok", {{"a", "1"}, {"a", "2"}}),
               std::invalid_argument);
  EXPECT_NO_THROW((void)reg.counter("topk_ok:sub", {{"a", "1"}}));
}

TEST(TelemetryMetricsTest, SnapshotIsSortedAndAdoptsFirstHelp) {
  MetricsRegistry reg;
  (void)reg.gauge("topk_zz", {}, "");
  (void)reg.counter("topk_aa_total", {}, "first help");
  (void)reg.counter("topk_aa_total", {}, "second help ignored");
  const auto families = reg.snapshot();
  ASSERT_EQ(families.size(), 2u);
  EXPECT_EQ(families[0].name, "topk_aa_total");
  EXPECT_EQ(families[0].help, "first help");
  EXPECT_EQ(families[1].name, "topk_zz");
}

// ---- exposition ----------------------------------------------------------

std::string prometheus_text(const MetricsRegistry& reg) {
  std::ostringstream out;
  write_prometheus(out, reg.snapshot());
  return out.str();
}

TEST(TelemetryExpositionTest, PrometheusScalarGrammar) {
  MetricsRegistry reg;
  reg.counter("topk_q_total", {{"shard", "0"}}, "Queries.").add(3);
  reg.gauge("topk_depth", {}, "Queue depth.").set(2.0);
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("# HELP topk_depth Queue depth.\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE topk_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("topk_depth 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE topk_q_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("topk_q_total{shard=\"0\"} 3\n"), std::string::npos);
}

TEST(TelemetryExpositionTest, PrometheusHistogramIsCumulative) {
  MetricsRegistry reg;
  Histogram& hist = reg.histogram("topk_lat_seconds", {0.5, 1.0});
  hist.observe(0.25);
  hist.observe(0.75);
  hist.observe(5.0);
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("topk_lat_seconds_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("topk_lat_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("topk_lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("topk_lat_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("topk_lat_seconds_sum 6\n"), std::string::npos);
}

TEST(TelemetryExpositionTest, BucketBoundsRenderCompactly) {
  MetricsRegistry reg;
  (void)reg.histogram("topk_ladder_seconds",
                      Histogram::exponential_buckets(1e-5, 2.5, 3));
  const std::string text = prometheus_text(reg);
  // The ladder's second rung must not pick up max_digits10 noise
  // ("2.5000000000000001e-05") — le values are identity labels.
  EXPECT_NE(text.find("le=\"2.5e-05\""), std::string::npos);
  EXPECT_EQ(text.find("0000000"), std::string::npos);
}

TEST(TelemetryExpositionTest, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("topk_esc_total", {{"path", "a\\b\"c\nd"}}).inc();
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos);
}

TEST(TelemetryExpositionTest, JsonMirrorsTheSnapshot) {
  MetricsRegistry reg;
  reg.counter("topk_j_total", {{"k", "v"}}).add(7);
  reg.histogram("topk_j_seconds", {1.0}).observe(0.5);
  std::ostringstream out;
  write_json(out, reg.snapshot());
  const std::string text = out.str();
  EXPECT_NE(text.find("\"name\":\"topk_j_total\""), std::string::npos);
  EXPECT_NE(text.find("\"labels\":{\"k\":\"v\"}"), std::string::npos);
  EXPECT_NE(text.find("\"value\":7"), std::string::npos);
  EXPECT_NE(text.find("\"count\":1"), std::string::npos);
  EXPECT_NE(text.find("{\"le\":\"1\",\"count\":1}"), std::string::npos);
  EXPECT_NE(text.find("{\"le\":\"+Inf\",\"count\":0}"), std::string::npos);
}

TEST(TelemetryExpositionTest, JsonEscapeCoversControlCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\n\t\r"), "x\\n\\t\\r");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

// ---- trace recorder ------------------------------------------------------

TEST(TelemetryTraceTest, DisabledRecorderIsSilent) {
  TraceRecorder recorder;
  TraceSpan span;
  span.name = "query";
  recorder.record(span);
  EXPECT_TRUE(recorder.snapshot().empty());
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TelemetryTraceTest, CapacityDropsAreCounted) {
  TraceRecorder recorder;
  recorder.enable(2);
  for (int i = 0; i < 5; ++i) {
    TraceSpan span;
    span.name = "s" + std::to_string(i);
    recorder.record(std::move(span));
  }
  EXPECT_EQ(recorder.snapshot().size(), 2u);
  EXPECT_EQ(recorder.dropped(), 3u);
  recorder.enable(8);  // re-enable resets the buffer and the counter
  EXPECT_TRUE(recorder.snapshot().empty());
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TelemetryTraceTest, MintedTraceIdsAreUniqueAndNonZero) {
  TraceRecorder recorder;
  const std::uint64_t first = recorder.mint_trace_id();
  const std::uint64_t second = recorder.mint_trace_id();
  EXPECT_NE(first, 0u);
  EXPECT_NE(first, second);
}

TEST(TelemetryTraceTest, ContextScopeRestoresPreviousId) {
  const std::uint64_t outer = current_trace_id();
  {
    TraceContextScope scope(1234);
    EXPECT_EQ(current_trace_id(), 1234u);
    {
      TraceContextScope inner(5678);
      EXPECT_EQ(current_trace_id(), 5678u);
    }
    EXPECT_EQ(current_trace_id(), 1234u);
  }
  EXPECT_EQ(current_trace_id(), outer);
}

TEST(TelemetryTraceTest, ContextIsThreadLocal) {
  TraceContextScope scope(99);
  std::uint64_t seen_in_thread = 99;
  std::thread worker([&] { seen_in_thread = current_trace_id(); });
  worker.join();
  EXPECT_EQ(seen_in_thread, 0u);
  EXPECT_EQ(current_trace_id(), 99u);
}

TEST(TelemetryTraceTest, ChromeTraceExportShape) {
  TraceRecorder recorder;
  recorder.enable(16);
  TraceSpan span;
  span.name = "cell";
  span.category = "shard";
  span.trace_id = 7;
  span.thread_id = 3;
  span.start_seconds = 1.0;
  span.duration_seconds = 0.5;
  span.args.push_back(arg("shard", 2));
  span.args.push_back(arg("label", std::string("a\"b")));
  recorder.record(std::move(span));
  std::ostringstream out;
  recorder.write_chrome_trace(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"cell\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"shard\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\":1000000"), std::string::npos);
  EXPECT_NE(text.find("\"dur\":500000"), std::string::npos);
  EXPECT_NE(text.find("\"trace\":7"), std::string::npos);
  EXPECT_NE(text.find("\"shard\":2"), std::string::npos);
  EXPECT_NE(text.find("\"label\":\"a\\\"b\""), std::string::npos);
}

// ---- percentile window --------------------------------------------------

TEST(PercentileTest, WindowEvictsOldestSamples) {
  util::PercentileWindow window(3);
  EXPECT_THROW(util::PercentileWindow(0), std::invalid_argument);
  window.add(1.0);
  window.add(2.0);
  window.add(3.0);
  window.add(100.0);  // evicts 1.0
  EXPECT_EQ(window.samples().size(), 3u);
  EXPECT_DOUBLE_EQ(util::quantile(window.samples(), 0.0), 2.0);
  EXPECT_DOUBLE_EQ(util::quantile(window.samples(), 1.0), 100.0);
  window.clear();
  EXPECT_TRUE(window.samples().empty());
  EXPECT_THROW((void)util::quantile(window.samples(), 0.5),
               std::invalid_argument);
}

// ---- TSan stress ---------------------------------------------------------
// These run under the CI TSan leg (and plain ctest elsewhere): many
// writers on one instrument set while a scraper snapshots, and a live
// mutable index serving queries through a compaction swap with tracing
// on.  Assertions are exact where the instruments promise exactness.

TEST(TelemetryStressTest, ConcurrentInstrumentsAndScrapes) {
  MetricsRegistry reg;
  Counter& counter = reg.counter("topk_stress_total");
  Gauge& gauge = reg.gauge("topk_stress_depth");
  Histogram& hist = reg.histogram("topk_stress_seconds", {0.5, 1.0});
  constexpr int kThreads = 8;
  constexpr int kEvents = 4000;
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (const auto& family : reg.snapshot()) {
        for (const auto& series : family.series) {
          // Cumulative per-cell reads can never run backwards past the
          // final total.
          ASSERT_LE(series.histogram.count,
                    static_cast<std::uint64_t>(kThreads) * kEvents);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kEvents; ++i) {
        counter.inc();
        gauge.add(1.0);
        gauge.add(-1.0);
        hist.observe(i % 2 == 0 ? 0.25 : 2.0);
      }
    });
  }
  for (auto& writer : writers) {
    writer.join();
  }
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kEvents);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kEvents);
  EXPECT_EQ(snap.counts[0], static_cast<std::uint64_t>(kThreads) * kEvents / 2);
}

TEST(TelemetryStressTest, ConcurrentSpanRecordingNeverLosesCount) {
  TraceRecorder recorder;
  recorder.enable(1000);  // deliberately smaller than the offered load
  constexpr int kThreads = 8;
  constexpr int kSpans = 500;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      TraceContextScope scope(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kSpans; ++i) {
        TraceSpan span;
        span.name = "stress";
        span.trace_id = current_trace_id();
        recorder.record(std::move(span));
        (void)recorder.snapshot();  // concurrent scrape on the same lock
      }
    });
  }
  for (auto& writer : writers) {
    writer.join();
  }
  EXPECT_EQ(recorder.snapshot().size(), 1000u);
  EXPECT_EQ(recorder.dropped(),
            static_cast<std::uint64_t>(kThreads) * kSpans - 1000u);
}

TEST(TelemetryStressTest, TracedQueriesThroughCompactionSwap) {
  // A small mutable sharded index serving concurrent queries while a
  // mutator appends and a compaction swaps the sealed generation, all
  // with the global tracer enabled and a scraper hammering both the
  // registry and the span buffer — the telemetry-on version of the
  // mutable tier's race surface.
  sparse::GeneratorConfig generator;
  generator.rows = 2000;
  generator.cols = 64;
  generator.mean_nnz_per_row = 8.0;
  generator.seed = 7;
  const auto matrix = std::make_shared<const sparse::Csr>(
      sparse::generate_matrix(generator));
  index::IndexOptions options;
  options.shards = 2;
  auto index = index::make_index("mutable-sharded-cpu-heap", matrix, options);
  const auto mut = index::as_mutable(index);
  ASSERT_NE(mut, nullptr);
  const auto typed =
      std::dynamic_pointer_cast<shard::MutableShardedIndex>(index);
  ASSERT_NE(typed, nullptr);
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "topk_test_telemetry_stress";
  persist::Compactor compactor(typed, root);

  tracer().enable(4096);
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)registry().snapshot();
      (void)tracer().snapshot();
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      util::Xoshiro256 rng(100 + static_cast<std::uint64_t>(t));
      while (!done.load(std::memory_order_relaxed)) {
        TraceContextScope scope(tracer().mint_trace_id());
        const auto x = sparse::generate_dense_vector(generator.cols, rng);
        (void)index->query(x, 10);
      }
    });
  }
  {
    util::Xoshiro256 rng(200);
    for (int m = 0; m < 300; ++m) {
      std::vector<std::uint32_t> cols{static_cast<std::uint32_t>(m % 64)};
      std::vector<float> vals{0.5f};
      (void)mut->insert_row(cols, vals);
      if (m == 150) {
        ASSERT_TRUE(compactor.compact().has_value());
      }
    }
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) {
    reader.join();
  }
  scraper.join();
  tracer().disable();
  tracer().clear();
  std::filesystem::remove_all(root);
  SUCCEED();  // the assertion is TSan/ASan cleanliness
}

}  // namespace
}  // namespace topk::telemetry
