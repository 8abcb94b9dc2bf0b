// Tests for the observability layer: span tracer (thread-local rings,
// runtime gate, ring wrap, ring memory only for threads that record,
// Perfetto export) and the metrics registry (family-of-cells aggregation,
// gauge expiry, Prometheus text).
//
// Trace state is process-global, so every tracer test starts from
// set_tracing(false) + clear_traces() and filters lanes/events by names
// unique to this file.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.h"
#include "obs/export.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#if defined(__linux__)
#include <unistd.h>
#endif

// Sanitizer runtimes reserve and touch their own shadow memory, so a
// resident-set delta means nothing under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PC_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PC_TEST_SANITIZED 1
#endif
#endif

namespace pc {
namespace {

using obs::JsonReader;
using obs::JsonValue;

size_t total_events(const std::vector<obs::ThreadTrace>& traces) {
  size_t n = 0;
  for (const auto& t : traces) n += t.events.size();
  return n;
}

#if PC_OBS_ENABLED

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing(false);
    obs::clear_traces();
  }
  void TearDown() override {
    obs::set_tracing(false);
    obs::clear_traces();
  }
};

TEST_F(TracerTest, SpanRecordsNameDurationAndArgs) {
  obs::set_tracing(true);
  {
    PC_SPAN("obs_unit_span", {"request", 42}, {"tokens", 7});
  }
  obs::set_tracing(false);

  const obs::TraceEvent* found = nullptr;
  const auto traces = obs::collect_traces();
  for (const auto& t : traces) {
    for (const auto& e : t.events) {
      if (std::string_view(e.name) == "obs_unit_span") found = &e;
    }
  }
  ASSERT_NE(found, nullptr);
  EXPECT_GE(found->end_ns, found->start_ns);
  EXPECT_STREQ(found->args[0].key, "request");
  EXPECT_EQ(found->args[0].value, 42);
  EXPECT_STREQ(found->args[1].key, "tokens");
  EXPECT_EQ(found->args[1].value, 7);
}

TEST_F(TracerTest, DisabledGateRecordsNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  {
    PC_SPAN("obs_should_not_appear");
    PC_SPAN_NAMED(named, "obs_should_not_appear_either");
    named.set_arg("k", 1);
  }
  EXPECT_EQ(total_events(obs::collect_traces()), 0u);
}

TEST_F(TracerTest, SetArgAttachesMidSpan) {
  obs::set_tracing(true);
  {
    PC_SPAN_NAMED(span, "obs_set_arg_span");
    span.set_arg("late", 99);
  }
  obs::set_tracing(false);
  bool found = false;
  for (const auto& t : obs::collect_traces()) {
    for (const auto& e : t.events) {
      if (std::string_view(e.name) != "obs_set_arg_span") continue;
      found = true;
      EXPECT_STREQ(e.args[0].key, "late");
      EXPECT_EQ(e.args[0].value, 99);
    }
  }
  EXPECT_TRUE(found);
}

// Spans from several threads export to Perfetto JSON that parses, labels
// each lane, and is strictly nested per thread (intervals pairwise nested
// or disjoint — Perfetto's precondition for rendering a span tree).
TEST_F(TracerTest, MultiThreadExportIsValidStrictlyNestedPerfettoJson) {
  constexpr int kThreads = 4;
  obs::set_tracing(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      obs::set_thread_name("obs_lane_" + std::to_string(t));
      for (int i = 0; i < 6; ++i) {
        PC_SPAN("obs_outer", {"i", i});
        PC_SPAN("obs_middle");
        {
          PC_SPAN("obs_inner");
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  obs::set_tracing(false);

  std::ostringstream os;
  obs::export_perfetto_json(os);
  const JsonValue root = JsonReader::parse(os.str());
  ASSERT_TRUE(root.is_object());
  const JsonValue& events = root["traceEvents"];
  ASSERT_TRUE(events.is_array());

  // Lane names and per-tid complete events.
  struct Interval {
    double start, end;
  };
  std::map<int, std::string> lane_names;
  std::map<int, std::vector<Interval>> by_tid;
  std::map<int, int> inner_count;
  for (const JsonValue& e : events.array) {
    const int tid = static_cast<int>(e["tid"].as_number(-1));
    const std::string& ph = e["ph"].as_string();
    if (ph == "M" && e["name"].as_string() == "thread_name") {
      lane_names[tid] = e["args"]["name"].as_string();
    } else if (ph == "X") {
      const double ts = e["ts"].as_number();
      const double dur = e["dur"].as_number();
      EXPECT_GE(dur, 0.0);
      by_tid[tid].push_back({ts, ts + dur});
      if (e["name"].as_string() == "obs_inner") ++inner_count[tid];
    }
  }

  int our_lanes = 0;
  for (const auto& [tid, name] : lane_names) {
    if (name.rfind("obs_lane_", 0) != 0) continue;
    ++our_lanes;
    EXPECT_EQ(inner_count[tid], 6) << "lane " << name;
    const auto& iv = by_tid[tid];
    EXPECT_EQ(iv.size(), 18u) << "lane " << name;  // 3 spans * 6 iterations
    for (size_t a = 0; a < iv.size(); ++a) {
      for (size_t b = a + 1; b < iv.size(); ++b) {
        const bool disjoint =
            iv[a].end <= iv[b].start || iv[b].end <= iv[a].start;
        const bool a_in_b =
            iv[a].start >= iv[b].start && iv[a].end <= iv[b].end;
        const bool b_in_a =
            iv[b].start >= iv[a].start && iv[b].end <= iv[a].end;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "partial overlap on lane " << name;
      }
    }
  }
  EXPECT_EQ(our_lanes, kThreads);
}

TEST_F(TracerTest, RingWrapDropsOldestAndCountsThem) {
  constexpr int kCapacity = 8;
  constexpr int kSpans = 20;
  obs::set_ring_capacity(kCapacity);
  obs::set_tracing(true);
  std::thread writer([] {  // fresh thread => fresh ring at the small size
    obs::set_thread_name("obs_wrap_lane");
    for (int i = 0; i < kSpans; ++i) {
      PC_SPAN("obs_wrap_span", {"i", i});
    }
  });
  writer.join();
  obs::set_tracing(false);
  obs::set_ring_capacity(65536);  // restore for rings created later

  const obs::ThreadTrace* lane = nullptr;
  const auto traces = obs::collect_traces();
  for (const auto& t : traces) {
    if (t.name == "obs_wrap_lane") lane = &t;
  }
  ASSERT_NE(lane, nullptr);
  EXPECT_EQ(lane->events.size(), static_cast<size_t>(kCapacity));
  EXPECT_EQ(lane->dropped, static_cast<uint64_t>(kSpans - kCapacity));
  EXPECT_GE(obs::dropped_events(), lane->dropped);
  // Oldest events were overwritten: the survivors are exactly the last
  // kCapacity spans, still in completion order.
  for (int k = 0; k < kCapacity; ++k) {
    EXPECT_EQ(lane->events[static_cast<size_t>(k)].args[0].value,
              kSpans - kCapacity + k);
  }
  // The wrap is visible in the export as an instant event.
  std::ostringstream os;
  obs::export_perfetto_json(os);
  EXPECT_NE(os.str().find("ring_dropped_events"), std::string::npos);
}

TEST_F(TracerTest, ClearTracesResetsEventsAndDrops) {
  obs::set_ring_capacity(4);
  obs::set_tracing(true);
  std::thread writer([] {
    obs::set_thread_name("obs_clear_lane");
    for (int i = 0; i < 10; ++i) {
      PC_SPAN("obs_clear_span");
    }
  });
  writer.join();
  obs::set_tracing(false);
  obs::set_ring_capacity(65536);
  EXPECT_GT(obs::dropped_events(), 0u);
  obs::clear_traces();
  EXPECT_EQ(total_events(obs::collect_traces()), 0u);
  EXPECT_EQ(obs::dropped_events(), 0u);
  // The lane itself survives a clear; only its contents reset.
  bool lane_present = false;
  for (const auto& t : obs::collect_traces()) {
    lane_present = lane_present || t.name == "obs_clear_lane";
  }
  EXPECT_TRUE(lane_present);
}

// A thread registers its ring when it is named, but the ring's slots (4
// MiB at the default 65536 events) are allocated only at its first event:
// naming 16 threads with tracing off must not grow the resident set by
// their 64 MiB of rings.
TEST_F(TracerTest, NamedThreadsThatNeverRecordAllocateNoRing) {
#if !defined(__linux__) || defined(PC_TEST_SANITIZED)
  GTEST_SKIP() << "needs /proc/self/statm and no sanitizer runtime";
#else
  const auto resident_bytes = [] {
    std::ifstream statm("/proc/self/statm");
    size_t size_pages = 0;
    size_t resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return resident_pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
  };
  const size_t registered = obs::collect_traces().size();
  const size_t before = resident_bytes();
  for (int i = 0; i < 16; ++i) {
    std::thread([i] {
      obs::set_thread_name("obs_idle_lane_" + std::to_string(i));
    }).join();
  }
  const size_t after = resident_bytes();
  EXPECT_LT(after > before ? after - before : 0, size_t{16} << 20)
      << "resident set " << before << " -> " << after << " bytes";
  // Still registered, in order: the lanes exist in the trace, eventless.
  const auto traces = obs::collect_traces();
  ASSERT_EQ(traces.size(), registered + 16);
  for (size_t i = 0; i < 16; ++i) {
    const obs::ThreadTrace& t = traces[registered + i];
    EXPECT_EQ(t.name, "obs_idle_lane_" + std::to_string(i));
    EXPECT_TRUE(t.events.empty()) << t.name;
  }
#endif
}

#else  // !PC_OBS_ENABLED

// Under -DPC_OBS=OFF the whole layer is no-op inlines: PC_SPAN compiles
// (with unevaluated arguments), nothing records, nothing collects.
TEST(TracerOff, CompilesToNothing) {
  obs::set_tracing(true);  // ignored: the gate is hardwired off
  EXPECT_FALSE(obs::tracing_enabled());
  {
    PC_SPAN("off_span", {"k", 1});
    PC_SPAN_NAMED(named, "off_named");
    named.set_arg("k", 2);
  }
  EXPECT_TRUE(obs::collect_traces().empty());
  EXPECT_EQ(obs::dropped_events(), 0u);
  EXPECT_EQ(total_events(obs::collect_traces()), 0u);
}

#endif  // PC_OBS_ENABLED

// ---- metrics registry (live in both PC_OBS modes) ---------------------------

TEST(Metrics, CounterFamilyAggregatesCells) {
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter a = reg.counter("pc_test_agg_total", "test counter");
  obs::Counter b = reg.counter("pc_test_agg_total");
  a.inc(3);
  b.inc(4);
  {
    obs::Counter c = reg.counter("pc_test_agg_total");
    c.inc(5);
  }  // counter cells are retained after their owner dies
  uint64_t value = 0;
  std::string help;
  for (const auto& f : reg.collect()) {
    if (f.name != "pc_test_agg_total") continue;
    value = f.counter_value;
    help = f.help;
    EXPECT_EQ(f.type, obs::MetricType::kCounter);
  }
  EXPECT_EQ(value, 12u);
  EXPECT_EQ(help, "test counter");
}

TEST(Metrics, GaugeCellsExpireWithOwner) {
  auto& reg = obs::MetricsRegistry::global();
  obs::Gauge keeper = reg.gauge("pc_test_gauge", "test gauge");
  keeper.set(10);
  const auto family_value = [&]() -> int64_t {
    for (const auto& f : reg.collect()) {
      if (f.name == "pc_test_gauge") return f.gauge_value;
    }
    return -1;
  };
  {
    obs::Gauge temp = reg.gauge("pc_test_gauge");
    temp.set(5);
    EXPECT_EQ(family_value(), 15);
  }
  EXPECT_EQ(family_value(), 10);  // dead cell stops contributing

  {
    obs::Gauge only = reg.gauge("pc_test_gauge_expired");
    only.set(7);
  }
  for (const auto& f : reg.collect()) {
    EXPECT_NE(f.name, "pc_test_gauge_expired")
        << "fully-expired gauge family must be skipped";
  }
}

TEST(Metrics, TypeConflictThrows) {
  auto& reg = obs::MetricsRegistry::global();
  (void)reg.counter("pc_test_conflict_total");
  EXPECT_THROW((void)reg.gauge("pc_test_conflict_total"), Error);
  EXPECT_THROW((void)reg.histogram("pc_test_conflict_total"), Error);
}

TEST(Metrics, HistogramFamilyMergesCells) {
  auto& reg = obs::MetricsRegistry::global();
  obs::Histogram a = reg.histogram("pc_test_hist_seconds", "test histogram");
  obs::Histogram b = reg.histogram("pc_test_hist_seconds");
  a.record_ms(1.0);
  a.record_ms(2.0);
  b.record_ms(100.0);
  for (const auto& f : reg.collect()) {
    if (f.name != "pc_test_hist_seconds") continue;
    EXPECT_EQ(f.type, obs::MetricType::kHistogram);
    EXPECT_EQ(f.histogram_value.count(), 3u);
    EXPECT_NEAR(f.histogram_value.sum_seconds(), 0.103, 1e-9);
    EXPECT_GT(f.histogram_value.p99_ms(), f.histogram_value.p50_ms());
  }
}

TEST(Metrics, PrometheusTextCoversAllInstrumentTypes) {
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter c = reg.counter("pc_test_prom_total", "prom counter");
  obs::Gauge g = reg.gauge("pc_test_prom_bytes", "prom gauge");
  obs::Histogram h = reg.histogram("pc_test_prom_seconds", "prom histogram");
  c.inc(2);
  g.set(1024);
  h.record_ms(5.0);

  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("# HELP pc_test_prom_total prom counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pc_test_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("pc_test_prom_total 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pc_test_prom_bytes gauge"), std::string::npos);
  EXPECT_NE(text.find("pc_test_prom_bytes 1024"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pc_test_prom_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("pc_test_prom_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("pc_test_prom_seconds_count 1"), std::string::npos);
  // The tracer's drop counter always scrapes, even with no drops.
  EXPECT_NE(text.find("pc_trace_dropped_events_total"), std::string::npos);
}

TEST(Metrics, DetachedHandlesWorkWithoutRegistry) {
  obs::Counter c;  // default-constructed: functional but never scraped
  c.inc(3);
  EXPECT_EQ(c.value(), 3u);
  obs::Gauge g;
  g.add(5);
  g.sub(2);
  EXPECT_EQ(g.value(), 3);
  obs::Histogram h;
  h.record_seconds(0.5);
  EXPECT_EQ(h.snapshot().count(), 1u);
}

TEST(Metrics, JsonReaderRejectsMalformedInput) {
  EXPECT_THROW(JsonReader::parse("{\"a\": }"), Error);
  EXPECT_THROW(JsonReader::parse("[1, 2"), Error);
  EXPECT_THROW(JsonReader::parse("{} trailing"), Error);
  const JsonValue v = JsonReader::parse(
      "{\"s\": \"x\\ny\", \"n\": -2.5e1, \"b\": true, \"a\": [null, 1]}");
  EXPECT_EQ(v["s"].as_string(), "x\ny");
  EXPECT_DOUBLE_EQ(v["n"].as_number(), -25.0);
  EXPECT_TRUE(v["b"].boolean);
  ASSERT_TRUE(v["a"].is_array());
  EXPECT_EQ(v["a"].array.size(), 2u);
}

}  // namespace
}  // namespace pc
