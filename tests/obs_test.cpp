// Tests for the distributed-tracing layer (src/obs) and its end-to-end
// integration: context propagation through the Fig. 4 pipeline stages and
// the Fig. 3 fog tiers, stage-sum/end-to-end reconciliation, and degraded
// annotation under injected faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "dfs/dfs.h"
#include "fog/fog.h"
#include "obs/trace.h"
#include "resilience/policy.h"
#include "util/clock.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define METRO_OBS_TEST_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define METRO_OBS_TEST_TSAN 1
#endif

namespace metro {
namespace {

// Slack floor for wall-clock stage-sum reconciliation: TSan slows every
// lock/atomic by ~10x, so cross-thread handoffs that cost microseconds
// uninstrumented cost milliseconds there.
#ifdef METRO_OBS_TEST_TSAN
constexpr TimeNs kSlackFloorNs = 20 * kMillisecond;
#else
constexpr TimeNs kSlackFloorNs = 2 * kMillisecond;
#endif

// ---------------------------------------------------------------- Context

TEST(TraceContextTest, SerializeParseRoundTrip) {
  const obs::TraceContext ctx{0xdeadbeefULL, 0x1f, 0x3};
  const std::string header = ctx.Serialize();
  EXPECT_EQ(header, "deadbeef-1f-3");
  const auto parsed = obs::TraceContext::Parse(header);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, ctx.trace_id);
  EXPECT_EQ(parsed->span_id, ctx.span_id);
  EXPECT_EQ(parsed->parent_span_id, ctx.parent_span_id);
}

TEST(TraceContextTest, ParseRejectsMalformedHeaders) {
  EXPECT_FALSE(obs::TraceContext::Parse("").has_value());
  EXPECT_FALSE(obs::TraceContext::Parse("abc").has_value());
  EXPECT_FALSE(obs::TraceContext::Parse("1-2").has_value());
  EXPECT_FALSE(obs::TraceContext::Parse("zz-1-2").has_value());
  EXPECT_FALSE(obs::TraceContext::Parse("1-2-zz").has_value());
  EXPECT_FALSE(obs::TraceContext::Parse("0-1-2").has_value());  // invalid id
  EXPECT_FALSE(obs::TraceContext::Parse("--").has_value());
  EXPECT_FALSE(
      obs::TraceContext::Parse("11111111111111111-1-1").has_value());  // >64bit
}

TEST(TraceContextTest, DefaultIsInvalidAndChildOfInvalidIsFreshTrace) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  EXPECT_FALSE(obs::TraceContext{}.valid());
  const auto child = collector.Child(obs::TraceContext{});
  EXPECT_TRUE(child.valid());
  EXPECT_EQ(child.parent_span_id, 0u);
}

TEST(TraceContextTest, ChildKeepsTraceAndLinksParent) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  const auto root = collector.StartTrace();
  const auto child = collector.Child(root);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_NE(child.span_id, root.span_id);
  EXPECT_EQ(child.parent_span_id, root.span_id);
}

// ---------------------------------------------------------------- Collector

TEST(SpanCollectorTest, ScopedSpanMeasuresOnInjectedClock) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  const auto root = collector.StartTrace();
  {
    obs::ScopedSpan span(collector, "work", collector.Child(root));
    clock.Advance(7 * kMillisecond);
  }
  const auto spans = collector.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].duration(), 7 * kMillisecond);
}

TEST(SpanCollectorTest, StageBreakdownQuantilesAreExact) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  // 100 "store" stage spans of 1..100 ms.
  for (int i = 1; i <= 100; ++i) {
    obs::Span s;
    s.name = "store";
    s.context = collector.StartTrace();
    s.start = 0;
    s.end = TimeNs(i) * kMillisecond;
    collector.Record(std::move(s));
  }
  const auto stages = collector.StageBreakdown();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].stage, "store");
  EXPECT_EQ(stages[0].count, 100);
  EXPECT_DOUBLE_EQ(stages[0].mean_ms, 50.5);
  // Exact sorted-sample interpolation, not log buckets.
  EXPECT_NEAR(stages[0].p50_ms, 50.5, 1e-9);
  EXPECT_NEAR(stages[0].p95_ms, 95.05, 1e-9);
  EXPECT_NEAR(stages[0].p99_ms, 99.01, 1e-9);
}

TEST(SummarizeLatencyTest, EmptyIsZeroAndOneSampleIsEveryQuantile) {
  const obs::LatencySummary empty = obs::SummarizeLatency({});
  EXPECT_EQ(empty.count, 0);
  for (const double v : {empty.mean, empty.p50, empty.p95, empty.p99}) {
    EXPECT_EQ(v, 0.0);
  }
  const obs::LatencySummary one = obs::SummarizeLatency({42.0});
  EXPECT_EQ(one.count, 1);
  for (const double v : {one.mean, one.p50, one.p95, one.p99}) {
    EXPECT_EQ(v, 42.0);
  }
}

TEST(SummarizeLatencyTest, NarrowUnsortedRangeNeverLeavesMinMax) {
  std::vector<double> samples;
  for (int v = 47; v >= 33; --v) samples.push_back(double(v));
  const obs::LatencySummary s = obs::SummarizeLatency(samples);
  for (const double v : {s.mean, s.p50, s.p95, s.p99}) {
    EXPECT_GE(v, 33.0);
    EXPECT_LE(v, 47.0);
  }
  EXPECT_DOUBLE_EQ(s.p50, 40.0);
  EXPECT_DOUBLE_EQ(s.p99, 46.86);  // 33 + 0.99 * 14
}

TEST(SpanCollectorTest, OverlaysAndEventsDoNotCountAsStageTime) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  const auto root = collector.StartTrace();
  obs::Span stage;
  stage.name = "compute";
  stage.context = collector.Child(root);
  stage.start = 0;
  stage.end = 10 * kMillisecond;
  collector.Record(std::move(stage));
  obs::Span overlay;
  overlay.name = "retry.backoff";
  overlay.context = collector.Child(root);
  overlay.kind = obs::SpanKind::kOverlay;
  overlay.start = 2 * kMillisecond;
  overlay.end = 6 * kMillisecond;
  collector.Record(std::move(overlay));
  collector.Event("degrade", collector.Child(root), {{"degraded", "test"}});

  const auto traces = collector.Traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].spans, 3);
  EXPECT_EQ(traces[0].stage_total, 10 * kMillisecond);  // stage only
  EXPECT_EQ(traces[0].total(), 10 * kMillisecond);
  EXPECT_TRUE(traces[0].degraded);
  EXPECT_TRUE(traces[0].retried);  // retry.* overlay marks the trace
  const auto stages = collector.StageBreakdown();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].stage, "compute");
}

TEST(SpanCollectorTest, DropsPastCapacityAndReportsIt) {
  SimClock clock;
  obs::SpanCollector collector(clock, /*max_spans=*/2);
  for (int i = 0; i < 5; ++i) {
    obs::Span s;
    s.name = "x";
    s.context = collector.StartTrace();
    collector.Record(std::move(s));
  }
  EXPECT_EQ(collector.size(), 2u);
  EXPECT_EQ(collector.dropped(), 3);
  EXPECT_NE(collector.CriticalPathReport().find("dropped"), std::string::npos);
  collector.Clear();
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(collector.dropped(), 0);
}

TEST(SpanCollectorTest, ConcurrentRecordingIsSafeAndLossless) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&collector] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto root = collector.StartTrace();
        obs::ScopedSpan span(collector, "stage", collector.Child(root));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(collector.size(), std::size_t(kThreads) * kPerThread);
  // Every allocated trace id is distinct.
  std::set<obs::TraceId> ids;
  for (const auto& t : collector.Traces()) ids.insert(t.trace_id);
  EXPECT_EQ(ids.size(), std::size_t(kThreads) * kPerThread);
}

TEST(SpanCollectorTest, JsonExportIsOneObjectPerSpan) {
  SimClock clock;
  obs::SpanCollector collector(clock);
  const auto root = collector.StartTrace();
  clock.Advance(kMillisecond);
  collector.Event("breaker.open", collector.Child(root),
                  {{"from", "closed"}, {"to", "open"}});
  const std::string json = collector.ToJson();
  EXPECT_NE(json.find("\"name\":\"breaker.open\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"event\""), std::string::npos);
  EXPECT_NE(json.find("\"from\":\"closed\""), std::string::npos);
  EXPECT_NE(json.find("\"start_ns\":1000000"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 1);
}

// ---------------------------------------------------------------- Breaker

TEST(BreakerListenerTest, ObservesEveryTransition) {
  SimClock clock;
  resilience::BreakerConfig config;
  config.failure_threshold = 2;
  config.cooldown = 10 * kMillisecond;
  config.half_open_probes = 1;
  resilience::CircuitBreaker breaker(config, clock);
  using State = resilience::CircuitBreaker::State;
  std::vector<std::pair<State, State>> seen;
  breaker.SetStateListener(
      [&seen](State from, State to) { seen.emplace_back(from, to); });

  breaker.RecordFailure();
  EXPECT_TRUE(seen.empty());  // below threshold: no transition
  breaker.RecordFailure();    // closed -> open
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], std::make_pair(State::kClosed, State::kOpen));

  clock.Advance(11 * kMillisecond);
  EXPECT_TRUE(breaker.Allow());  // open -> half-open probe
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], std::make_pair(State::kOpen, State::kHalfOpen));

  breaker.RecordSuccess();  // half-open -> closed
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[2], std::make_pair(State::kHalfOpen, State::kClosed));

  // A half-open probe failure re-opens.
  breaker.RecordFailure();
  breaker.RecordFailure();
  clock.Advance(11 * kMillisecond);
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(seen.back(), std::make_pair(State::kHalfOpen, State::kOpen));
}

// ------------------------------------------------- Fig. 4 pipeline e2e

store::Document MakeDoc(int i) {
  store::Document doc;
  doc["id"] = std::int64_t(i);
  doc["text"] = std::string("event ") + std::to_string(i);
  return doc;
}

TEST(PipelineTracingTest, EveryRecordYieldsOneTraceCoveringAllStages) {
  core::CityPipeline pipeline(WallClock::Instance());
  core::CityPipeline::TopicSpec spec;
  spec.topic = "events";
  spec.partitions = 2;
  spec.analyzer = [](const store::Document& doc)
      -> std::optional<store::Document> { return doc; };
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());
  ASSERT_TRUE(pipeline.Start().ok());

  constexpr int kRecords = 40;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(
        pipeline.Produce("events", "", core::EncodeDocument(MakeDoc(i))).ok());
  }
  pipeline.Drain();
  pipeline.Stop();

  const auto traces = pipeline.tracer().Traces();
  const std::vector<std::string> kStages = {"produce", "mq.queue", "store",
                                            "analyze", "web"};
  int complete = 0;
  for (const auto& t : traces) {
    if (t.stage_ns.count("web") == 0) continue;
    ++complete;
    for (const auto& stage : kStages) {
      EXPECT_EQ(t.stage_ns.count(stage), 1u)
          << "trace " << t.trace_id << " missing stage " << stage;
    }
    // Stage durations reconcile with the trace's end-to-end extent. The
    // stages chain off a cursor, so the only slack is the handoff between
    // the produce call returning and the broker timestamp (microseconds) —
    // but allow scheduler noise on loaded CI machines. Under TSan the
    // produce/enqueue overlap stretches from microseconds to milliseconds
    // (instrumented locking), so the floor scales with the instrumentation.
    const double total = double(t.total());
    const double tolerance =
        std::max(0.05 * total, double(kSlackFloorNs));
    EXPECT_NEAR(double(t.stage_total), total, tolerance)
        << "trace " << t.trace_id;
  }
  EXPECT_EQ(complete, kRecords);

  const auto stats = pipeline.Stats();
  EXPECT_EQ(stats.web_items, kRecords);
  EXPECT_FALSE(stats.stage_latency.empty());
  EXPECT_GT(stats.mean_latency_ms, 0.0);
  EXPECT_GE(stats.p99_latency_ms, stats.mean_latency_ms);
  // The end-to-end figures summarize exactly the traces that reached web.
  std::vector<double> e2e_ms;
  for (const auto& t : traces) {
    if (t.stage_ns.count("web") > 0) {
      e2e_ms.push_back(double(t.total()) / double(kMillisecond));
    }
  }
  const obs::LatencySummary e2e = obs::SummarizeLatency(e2e_ms);
  EXPECT_EQ(e2e.count, kRecords);
  EXPECT_DOUBLE_EQ(stats.mean_latency_ms, e2e.mean);
  EXPECT_DOUBLE_EQ(stats.p99_latency_ms, e2e.p99);
}

TEST(PipelineTracingTest, ProduceContinuesCallerTrace) {
  core::CityPipeline pipeline(WallClock::Instance());
  core::CityPipeline::TopicSpec spec;
  spec.topic = "events";
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());
  const auto upstream = pipeline.tracer().StartTrace();
  ASSERT_TRUE(pipeline
                  .Produce("events", "k", core::EncodeDocument(MakeDoc(1)),
                           upstream)
                  .ok());
  // The broker's leader-election root events share the collector, so pick
  // the produce span out rather than assuming it is alone.
  const auto spans = pipeline.tracer().Snapshot();
  const auto produce =
      std::find_if(spans.begin(), spans.end(),
                   [](const obs::Span& s) { return s.name == "produce"; });
  ASSERT_NE(produce, spans.end());
  EXPECT_EQ(produce->context.trace_id, upstream.trace_id);
}

// ---------------------------------------------------------- Fog tiers e2e

fog::FogConfig SmallFogConfig() {
  fog::FogConfig config;
  config.num_edges = 4;
  config.edges_per_fog = 2;
  config.fogs_per_server = 2;  // 2 fogs -> 1 server
  return config;
}

std::vector<fog::WorkItem> FogItems(int n, bool offload) {
  std::vector<fog::WorkItem> items;
  for (int i = 0; i < n; ++i) {
    fog::WorkItem item;
    item.id = std::uint64_t(i);
    item.edge = i % 4;
    item.arrival = TimeNs(i) * 20 * kMillisecond;
    item.raw_bytes = 20'000;
    item.feature_bytes = 8'000;
    item.edge_filter_macs = 10'000;
    item.local_macs = 2'000'000;
    item.server_macs = 20'000'000;
    item.local_exit = !offload;
    items.push_back(item);
  }
  return items;
}

TEST(FogTracingTest, HealthyOffloadTracesReconcileExactly) {
  fog::FogTopology topo(SmallFogConfig());
  obs::SpanCollector collector(topo.sim().clock());
  fog::FogResilienceOptions options;
  options.spans = &collector;
  const auto result =
      fog::RunResilientPipeline(topo, FogItems(8, /*offload=*/true), options);
  ASSERT_EQ(result.items_offloaded, 8);

  int traced_items = 0;
  for (const auto& t : collector.Traces()) {
    if (t.stage_total == 0) continue;  // run-level breaker trace
    ++traced_items;
    // Simulator time: stage spans are contiguous, so the reconciliation is
    // exact, not approximate.
    EXPECT_EQ(t.stage_total, t.total()) << "trace " << t.trace_id;
    EXPECT_FALSE(t.degraded);
    for (const char* stage : {"edge.filter", "edge.uplink", "fog.local",
                              "offload.transfer", "server.compute",
                              "cloud.annotate"}) {
      EXPECT_EQ(t.stage_ns.count(stage), 1u)
          << "trace " << t.trace_id << " missing " << stage;
    }
  }
  EXPECT_EQ(traced_items, 8);
}

TEST(FogTracingTest, ServerOutageTracesAreTaggedDegraded) {
  fog::FogTopology topo(SmallFogConfig());
  // Sever every fog -> server link before the run: all offloads must
  // degrade to their local answers.
  for (int f = 0; f < topo.num_fogs(); ++f) {
    ASSERT_TRUE(topo.sim()
                    .SetLinkUp(topo.fog_node(f), topo.server_of_fog_index(f),
                               false)
                    .ok());
  }
  obs::SpanCollector collector(topo.sim().clock());
  fog::FogResilienceOptions options;
  options.spans = &collector;
  const auto result =
      fog::RunResilientPipeline(topo, FogItems(8, /*offload=*/true), options);
  ASSERT_GT(result.items_degraded, 0);
  ASSERT_GT(result.send_retries, 0);

  int degraded_traces = 0, retried_traces = 0;
  bool saw_breaker_event = false;
  for (const auto& t : collector.Traces()) {
    if (t.degraded) ++degraded_traces;
    if (t.retried) ++retried_traces;
    if (t.stage_total == 0) continue;
    // Degraded traces still reconcile: the fallback decision closes the
    // last stage at the moment the item completes.
    EXPECT_EQ(t.stage_total, t.total()) << "trace " << t.trace_id;
  }
  for (const auto& s : collector.Snapshot()) {
    if (s.name.rfind("breaker.", 0) == 0) saw_breaker_event = true;
  }
  EXPECT_EQ(degraded_traces, result.items_degraded);
  EXPECT_GT(retried_traces, 0);
  EXPECT_TRUE(saw_breaker_event);  // the outage tripped the breaker
}

TEST(FogTracingTest, LatencySummaryCoversAnsweredItemsOnly) {
  fog::FogTopology topo(SmallFogConfig());
  // Edge 0's items fail outright; the fog -> server outage degrades the rest
  // to local answers, so answered latencies spread across two paths.
  ASSERT_TRUE(
      topo.sim().SetLinkUp(topo.edge(0), topo.fog_of_edge(0), false).ok());
  ASSERT_TRUE(
      topo.sim().SetLinkUp(topo.fog_node(1), topo.server_of_fog_index(1), false)
          .ok());
  const auto result = fog::RunResilientPipeline(
      topo, FogItems(12, /*offload=*/true), fog::FogResilienceOptions{});
  ASSERT_GT(result.items_failed, 0);
  ASSERT_GT(result.items_degraded, 0);

  std::vector<double> answered_ms;
  for (const fog::ItemOutcome& o : result.outcomes) {
    if (o.dropped || o.failed) continue;
    answered_ms.push_back(double(o.latency) / double(kMillisecond));
  }
  const obs::LatencySummary s = obs::SummarizeLatency(answered_ms);
  EXPECT_EQ(s.count, result.items_local + result.items_offloaded +
                         result.items_degraded);
  EXPECT_DOUBLE_EQ(result.mean_latency_ms, s.mean);
  EXPECT_DOUBLE_EQ(result.p99_latency_ms, s.p99);
}

// ---------------------------------------------------------------- DFS

TEST(DfsTracingTest, ReadWriteSpansCarryFailoverTags) {
  dfs::Cluster cluster(4, {.block_size = 1024, .replication = 3});
  SimClock clock;
  obs::SpanCollector collector(clock);
  cluster.SetTracer(&collector);

  const std::string data(4096, 'x');
  ASSERT_TRUE(cluster.Create("/a", data).ok());
  cluster.node(0).Kill();
  const auto read = cluster.Read("/a");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), data.size());

  const auto spans = collector.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "dfs.write");
  ASSERT_NE(spans[0].FindTag("bytes"), nullptr);
  EXPECT_EQ(*spans[0].FindTag("bytes"), "4096");
  EXPECT_EQ(spans[1].name, "dfs.read");
  EXPECT_EQ(*spans[1].FindTag("path"), "/a");
  // Standalone ops are stage spans in their own traces.
  EXPECT_EQ(spans[0].kind, obs::SpanKind::kStage);
  EXPECT_NE(spans[0].context.trace_id, spans[1].context.trace_id);

  // Under a caller's trace the op becomes an overlay of that trace.
  const auto parent = collector.StartTrace();
  ASSERT_TRUE(cluster.Read("/a", parent).ok());
  const auto nested = collector.Snapshot().back();
  EXPECT_EQ(nested.kind, obs::SpanKind::kOverlay);
  EXPECT_EQ(nested.context.trace_id, parent.trace_id);
}

}  // namespace
}  // namespace metro
