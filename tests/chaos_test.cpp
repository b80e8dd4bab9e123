// Tests for the resilience layer and the chaos harness: retry policies,
// circuit breaking, deadlines, health probes, fault plans, and graceful
// degradation of the fog pipeline under injected failures. Everything runs
// on simulated time, so every schedule here is deterministic.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/infrastructure.h"
#include "core/pipeline.h"
#include "fog/fog.h"
#include "ingest/flume.h"
#include "mq/broker_cluster.h"
#include "net/simulator.h"
#include "resilience/chaos.h"
#include "resilience/health.h"
#include "resilience/policy.h"
#include "util/clock.h"

namespace metro {
namespace {

using resilience::BreakerConfig;
using resilience::CircuitBreaker;
using resilience::Deadline;
using resilience::HealthRegistry;
using resilience::RetryConfig;
using resilience::RetryPolicy;
using resilience::chaos::FaultEvent;
using resilience::chaos::FaultKind;
using resilience::chaos::FaultPlan;
using resilience::chaos::FaultTargets;

FaultEvent Event(TimeNs at, FaultKind kind, int index,
                 const std::string& topic = "") {
  FaultEvent e;
  e.at = at;
  e.kind = kind;
  e.index = index;
  e.topic = topic;
  return e;
}

// ---------------------------------------------------------------- Retry

TEST(RetryPolicyTest, RetriesTransientFailuresUntilSuccess) {
  SimClock clock;
  RetryConfig config;
  config.max_attempts = 5;
  config.initial_backoff = kMillisecond;
  RetryPolicy policy(config, clock);
  int calls = 0;
  const Status st = policy.Run([&]() -> Status {
    if (++calls < 3) return UnavailableError("transient");
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(policy.retries(), 2);
  EXPECT_GT(clock.Now(), 0);  // backoff waits consumed simulated time
}

TEST(RetryPolicyTest, TerminalErrorsAreNotRetried) {
  SimClock clock;
  RetryPolicy policy({}, clock);
  int calls = 0;
  const Status st = policy.Run([&]() -> Status {
    ++calls;
    return NotFoundError("gone");
  });
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(clock.Now(), 0);
}

TEST(RetryPolicyTest, ResourceExhaustedRetriesOnlyWhenOptedIn) {
  // Backpressure (kResourceExhausted) is terminal by default: most callers
  // should shed load, not pile retries onto a full queue.
  SimClock clock;
  int calls = 0;
  const auto flaky = [&]() -> Status {
    if (++calls < 3) return ResourceExhaustedError("backlog at bound");
    return Status::Ok();
  };
  RetryPolicy no_opt_in({}, clock);
  calls = 0;
  EXPECT_EQ(no_opt_in.Run(flaky).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(calls, 1);

  // Buffering producers (ingest agents) opt in and wait the bound out.
  RetryConfig config;
  config.retry_resource_exhausted = true;
  config.initial_backoff = kMillisecond;
  RetryPolicy opted_in(config, clock);
  calls = 0;
  EXPECT_TRUE(opted_in.Run(flaky).ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(opted_in.retries(), 2);
}

TEST(RetryPolicyTest, ExhaustedAttemptsReturnLastError) {
  SimClock clock;
  RetryConfig config;
  config.max_attempts = 3;
  RetryPolicy policy(config, clock);
  int calls = 0;
  const auto result = policy.Run([&]() -> Result<int> {
    ++calls;
    return UnavailableError("attempt " + std::to_string(calls));
  });
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("attempt 3"), std::string::npos);
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicyTest, DeadlineBoundsTheRetrySchedule) {
  SimClock clock;
  RetryConfig config;
  config.max_attempts = 100;
  config.initial_backoff = 10 * kMillisecond;
  config.multiplier = 1.0;
  config.jitter = 0.0;
  config.deadline = 35 * kMillisecond;
  RetryPolicy policy(config, clock);
  int calls = 0;
  const Status st = policy.Run([&]() -> Status {
    ++calls;
    return UnavailableError("down");
  });
  // Attempts at t=0,10,20,30ms; the next would land at 40 > 35.
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_LE(clock.Now(), config.deadline);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  SimClock clock;
  RetryConfig config;
  config.initial_backoff = kMillisecond;
  config.max_backoff = 4 * kMillisecond;
  config.multiplier = 2.0;
  config.jitter = 0.25;
  RetryPolicy policy(config, clock);
  const TimeNs b1 = policy.BackoffFor(1);
  const TimeNs b4 = policy.BackoffFor(4);  // 8ms uncapped -> capped at 4ms
  EXPECT_GE(b1, TimeNs(0.75 * kMillisecond));
  EXPECT_LE(b1, TimeNs(1.25 * kMillisecond));
  EXPECT_LE(b4, TimeNs(1.25 * 4 * kMillisecond));
  EXPECT_GE(b4, TimeNs(0.75 * 4 * kMillisecond));
}

// ---------------------------------------------------------------- Breaker

TEST(CircuitBreakerTest, FullStateMachineOnSimulatedTime) {
  SimClock clock;
  BreakerConfig config;
  config.failure_threshold = 3;
  config.cooldown = 100 * kMillisecond;
  CircuitBreaker breaker(config, clock);

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());  // fast rejection while open
  EXPECT_EQ(breaker.rejected(), 1);

  // Half-open after the cool-down; the probe succeeds and closes it within
  // a single cool-down window.
  clock.Advance(config.cooldown);
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow());  // only one probe admitted
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, FailedProbeReopensAndRestartsCooldown) {
  SimClock clock;
  BreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown = 50 * kMillisecond;
  CircuitBreaker breaker(config, clock);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  clock.Advance(config.cooldown);
  EXPECT_TRUE(breaker.Allow());  // half-open probe
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());  // cool-down restarted
  clock.Advance(config.cooldown);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, RunWrapperCountsOnlyRetryableFailures) {
  SimClock clock;
  BreakerConfig config;
  config.failure_threshold = 2;
  CircuitBreaker breaker(config, clock);
  // Terminal errors pass through without tripping the breaker.
  for (int i = 0; i < 5; ++i) {
    const Status st = breaker.Run([] { return NotFoundError("no"); });
    EXPECT_EQ(st.code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 2; ++i) {
    (void)breaker.Run([] { return UnavailableError("down"); });
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  const Status st = breaker.Run([] { return Status::Ok(); });
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);  // rejected, fn not run
}

// ---------------------------------------------------------------- Deadline

TEST(DeadlineTest, TracksRemainingBudgetOnSimClock) {
  SimClock clock;
  const auto deadline = Deadline::After(clock, 10 * kMillisecond);
  EXPECT_FALSE(deadline.Expired());
  EXPECT_EQ(deadline.Remaining(), 10 * kMillisecond);
  clock.Advance(4 * kMillisecond);
  EXPECT_EQ(deadline.Remaining(), 6 * kMillisecond);
  EXPECT_TRUE(deadline.Check("offload").ok());
  clock.Advance(6 * kMillisecond);
  EXPECT_TRUE(deadline.Expired());
  EXPECT_EQ(deadline.Remaining(), 0);
  const Status st = deadline.Check("offload");
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("offload"), std::string::npos);
  EXPECT_FALSE(Deadline::Infinite(clock).Expired());
}

// ---------------------------------------------------------------- Health

TEST(HealthRegistryTest, ProbesReportPerComponentStatus) {
  HealthRegistry registry;
  bool dfs_ok = true;
  registry.Register("dfs", [&]() -> Status {
    if (dfs_ok) return Status::Ok();
    return UnavailableError("2 under-replicated blocks");
  });
  registry.Register("mq", [] { return Status::Ok(); });
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.AllHealthy());
  EXPECT_TRUE(registry.Check("dfs").ok());
  EXPECT_EQ(registry.Check("nope").code(), StatusCode::kNotFound);

  dfs_ok = false;
  EXPECT_FALSE(registry.AllHealthy());
  const auto all = registry.CheckAll();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].component, "dfs");
  EXPECT_EQ(all[0].status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(all[1].status.ok());
  EXPECT_NE(registry.Report().find("under-replicated"), std::string::npos);

  registry.Unregister("dfs");
  EXPECT_TRUE(registry.AllHealthy());
}

TEST(InfrastructureHealthTest, BuiltInProbesSeeInjectedFaults) {
  SimClock clock;
  core::InfrastructureConfig config;
  config.dfs_datanodes = 4;
  config.dfs.replication = 3;
  config.fog.num_edges = 4;
  config.fog.edges_per_fog = 2;
  config.fog.fogs_per_server = 2;
  core::Cyberinfrastructure infra(config, clock);
  EXPECT_TRUE(infra.health().AllHealthy());

  ASSERT_TRUE(infra.storage().Create("/f", std::string(4096, 'x')).ok());
  infra.storage().node(0).Kill();
  infra.storage().node(1).Kill();
  EXPECT_EQ(infra.health().Check("dfs").code(), StatusCode::kUnavailable);

  auto& fog = infra.fog();
  ASSERT_TRUE(fog.sim()
                  .SetLinkUp(fog.fog_node(0), fog.server_of_fog_index(0), false)
                  .ok());
  EXPECT_EQ(infra.health().Check("fog.server").code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(infra.health().AllHealthy());

  infra.storage().node(0).Revive();
  infra.storage().node(1).Revive();
  EXPECT_TRUE(infra.health().Check("dfs").ok());
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, AppliesEventsUpToNowExactlyOnce) {
  SimClock clock;
  mq::BrokerClusterConfig config;
  config.nodes = 1;
  config.replication_factor = 1;
  mq::BrokerCluster cluster(clock, config);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  FaultPlan plan;
  plan.Add(Event(20 * kMillisecond, FaultKind::kMqPartitionUp, 0, "t"));
  plan.Add(Event(10 * kMillisecond, FaultKind::kMqPartitionDown, 0, "t"));
  FaultTargets targets;
  targets.mq_cluster = &cluster;

  EXPECT_EQ(plan.ApplyUpTo(5 * kMillisecond, targets), 0);
  EXPECT_TRUE(cluster.NodeUp(0).value());
  EXPECT_EQ(plan.NextAt(), 10 * kMillisecond);

  // On a one-node cluster the preferred leader is the only replica, so the
  // partition fault is an outage.
  EXPECT_EQ(plan.ApplyUpTo(10 * kMillisecond, targets), 1);
  EXPECT_FALSE(cluster.NodeUp(0).value());
  EXPECT_EQ(cluster.LeaderOf("t", 0).value(), -1);
  EXPECT_EQ(plan.ApplyUpTo(10 * kMillisecond, targets), 0);  // fires once

  EXPECT_EQ(plan.ApplyUpTo(25 * kMillisecond, targets), 1);
  EXPECT_TRUE(cluster.NodeUp(0).value());
  EXPECT_EQ(cluster.LeaderOf("t", 0).value(), 0);
  EXPECT_EQ(plan.applied(), 2u);
  EXPECT_EQ(plan.NextAt(), -1);
}

TEST(FaultPlanTest, ClusterRetargetsPartitionFaultsToPreferredLeader) {
  SimClock clock;
  mq::BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  const int preferred = *cluster.PreferredLeader("t", 0);

  FaultPlan plan;
  plan.Add(Event(10 * kMillisecond, FaultKind::kMqPartitionDown, 0, "t"));
  plan.Add(Event(20 * kMillisecond, FaultKind::kMqPartitionUp, 0, "t"));
  FaultTargets targets;
  targets.mq_cluster = &cluster;

  EXPECT_EQ(plan.ApplyUpTo(10 * kMillisecond, targets), 1);
  EXPECT_FALSE(cluster.NodeUp(preferred).value());
  // Against the cluster the partition fault is a leader kill, and a leader
  // kill is a failover, not an outage: a surviving replica took over.
  const auto view = *cluster.View("t", 0);
  EXPECT_NE(view.leader, preferred);
  EXPECT_GE(view.leader, 0);

  EXPECT_EQ(plan.ApplyUpTo(25 * kMillisecond, targets), 1);
  EXPECT_TRUE(cluster.NodeUp(preferred).value());
}

TEST(FaultPlanTest, ClusterNodeKillReviveRoundTrips) {
  SimClock clock;
  mq::BrokerCluster cluster(clock);
  ASSERT_TRUE(cluster.CreateTopic("t", 1).ok());
  FaultPlan plan;
  plan.Add(Event(kMillisecond, FaultKind::kMqNodeKill, 1));
  plan.Add(Event(2 * kMillisecond, FaultKind::kMqNodeRevive, 1));
  FaultTargets targets;
  targets.mq_cluster = &cluster;

  EXPECT_EQ(plan.ApplyUpTo(kMillisecond, targets), 1);
  EXPECT_FALSE(cluster.NodeUp(1).value());
  EXPECT_EQ(plan.ApplyUpTo(2 * kMillisecond, targets), 1);
  EXPECT_TRUE(cluster.NodeUp(1).value());
  EXPECT_TRUE(cluster.Probe().ok());
}

TEST(FaultPlanTest, RandomPlansAreSeedDeterministicAndPaired) {
  dfs::Cluster cluster(3, {});
  SimClock clock;
  mq::BrokerClusterConfig config;
  config.nodes = 1;
  config.replication_factor = 1;
  mq::BrokerCluster broker(clock, config);
  ASSERT_TRUE(broker.CreateTopic("frames", 2).ok());
  fog::FogConfig fog_config;
  fog_config.num_edges = 4;
  fog_config.edges_per_fog = 2;
  fog_config.fogs_per_server = 2;
  fog::FogTopology topo(fog_config);
  FaultTargets targets;
  targets.dfs = &cluster;
  targets.mq_cluster = &broker;
  targets.fog = &topo;
  const TimeNs horizon = kSecond;

  const auto a = FaultPlan::Random(0.8, horizon, targets, {"frames"}, 7);
  const auto b = FaultPlan::Random(0.8, horizon, targets, {"frames"}, 7);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  EXPECT_EQ(a.size() % 2, 0u);  // every fault has its recovery
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].index, b.events()[i].index);
    EXPECT_GE(a.events()[i].at, 0);
    EXPECT_LT(a.events()[i].at, horizon);
  }
  // Events come out sorted by timestamp.
  EXPECT_TRUE(std::is_sorted(
      a.events().begin(), a.events().end(),
      [](const FaultEvent& x, const FaultEvent& y) { return x.at < y.at; }));
  EXPECT_EQ(FaultPlan::Random(0.0, horizon, targets, {"frames"}, 7).size(), 0u);
}

TEST(FaultPlanTest, ScheduleOnDrivesSimulatorFaults) {
  fog::FogConfig config;
  config.num_edges = 2;
  config.edges_per_fog = 2;
  config.fogs_per_server = 1;
  fog::FogTopology topo(config);
  FaultPlan plan;
  plan.Add(Event(10 * kMillisecond, FaultKind::kServerOutage, 0));
  plan.Add(Event(30 * kMillisecond, FaultKind::kServerRecovery, 0));
  FaultTargets targets;
  targets.fog = &topo;
  plan.ScheduleOn(topo.sim(), targets);

  const auto fog_node = topo.fog_node(0);
  const auto server = topo.server(0);
  bool down_mid = true, up_end = false;
  topo.sim().ScheduleAt(20 * kMillisecond, [&] {
    down_mid = !topo.sim().LinkUp(fog_node, server).value();
  });
  topo.sim().ScheduleAt(40 * kMillisecond, [&] {
    up_end = topo.sim().LinkUp(fog_node, server).value();
  });
  topo.sim().RunUntilIdle();
  EXPECT_TRUE(down_mid);
  EXPECT_TRUE(up_end);
}

// ---------------------------------------------------------------- Net faults

TEST(LinkLatencyTest, ScaledLatencyDelaysDelivery) {
  net::Simulator sim;
  const auto a = sim.AddNode({"a", 1e9});
  const auto b = sim.AddNode({"b", 1e9});
  ASSERT_TRUE(sim.Connect(a, b, {1e9, 10 * kMillisecond}).ok());

  TimeNs first = -1;
  ASSERT_TRUE(sim.Send(a, b, 1000, [&] { first = sim.Now(); }).ok());
  sim.RunUntilIdle();
  ASSERT_GE(first, 10 * kMillisecond);

  ASSERT_TRUE(sim.ScaleLinkLatency(a, b, 3.0).ok());
  const TimeNs start = sim.Now();
  TimeNs second = -1;
  ASSERT_TRUE(sim.Send(a, b, 1000, [&] { second = sim.Now(); }).ok());
  sim.RunUntilIdle();
  EXPECT_GE(second - start, 30 * kMillisecond);

  ASSERT_TRUE(sim.ScaleLinkLatency(a, b, 1.0).ok());
  EXPECT_EQ(sim.ScaleLinkLatency(a, 99, 2.0).code(), StatusCode::kNotFound);
  EXPECT_EQ(sim.ScaleLinkLatency(a, b, -1.0).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Fog

fog::FogConfig ChaosFogConfig() {
  fog::FogConfig config;
  config.num_edges = 4;
  config.edges_per_fog = 2;
  config.fogs_per_server = 2;  // 2 fogs -> 1 server
  return config;
}

std::vector<fog::WorkItem> OffloadItems(int n, TimeNs spacing) {
  std::vector<fog::WorkItem> items;
  for (int i = 0; i < n; ++i) {
    fog::WorkItem item;
    item.id = std::uint64_t(i);
    item.edge = i % 4;
    item.arrival = TimeNs(i) * spacing;
    item.raw_bytes = 20'000;
    item.feature_bytes = 8'000;
    item.edge_filter_macs = 10'000;
    item.local_macs = 2'000'000;
    item.server_macs = 20'000'000;
    item.local_exit = false;
    item.local_correct = i % 2 == 0;  // the local answer is right half the time
    item.server_correct = true;
    items.push_back(item);
  }
  return items;
}

void TakeDownServerLinks(fog::FogTopology& topo) {
  for (int f = 0; f < topo.num_fogs(); ++f) {
    ASSERT_TRUE(topo.sim()
                    .SetLinkUp(topo.fog_node(f), topo.server_of_fog_index(f),
                               false)
                    .ok());
  }
}

TEST(ResilientPipelineTest, MatchesBaselineWhenHealthy) {
  fog::FogTopology topo(ChaosFogConfig());
  const auto items = OffloadItems(12, kMillisecond);
  fog::FogResilienceOptions options;
  const auto result = fog::RunResilientPipeline(topo, items, options);
  EXPECT_EQ(result.items_offloaded, 12);
  EXPECT_EQ(result.items_degraded, 0);
  EXPECT_EQ(result.items_failed, 0);
  EXPECT_EQ(result.send_retries, 0);
  EXPECT_DOUBLE_EQ(result.Availability(), 1.0);
  EXPECT_DOUBLE_EQ(result.AccuracyOver(items), 1.0);  // server answers
}

TEST(ResilientPipelineTest, ServerOutageDegradesInsteadOfFailing) {
  // 20ms spacing: the first items burn their retries and trip the breaker,
  // later items arrive after the trip and must fast-degrade on Allow().
  const auto items = OffloadItems(12, 20 * kMillisecond);

  // Baseline: the same outage hard-fails every offload.
  fog::FogTopology baseline_topo(ChaosFogConfig());
  TakeDownServerLinks(baseline_topo);
  const auto baseline = fog::RunEarlyExitPipeline(baseline_topo, items);
  EXPECT_EQ(baseline.items_failed, 12);
  EXPECT_DOUBLE_EQ(baseline.Availability(), 0.0);

  // Resilient: every item falls back to its local answer.
  fog::FogTopology topo(ChaosFogConfig());
  TakeDownServerLinks(topo);
  MetricsRegistry metrics;
  fog::FogResilienceOptions options;
  options.metrics = &metrics;
  const auto result = fog::RunResilientPipeline(topo, items, options);
  EXPECT_EQ(result.items_failed, 0);
  EXPECT_EQ(result.items_offloaded, 0);
  EXPECT_EQ(result.items_degraded, 12);
  EXPECT_DOUBLE_EQ(result.Availability(), 1.0);
  // Degraded items score their local answer: half right by construction.
  EXPECT_DOUBLE_EQ(result.AccuracyOver(items), 0.5);
  // The breaker tripped, so later items degraded without burning retries.
  EXPECT_GT(metrics.GetCounter("fog.degraded.server_unavailable").value(), 0);
  EXPECT_GT(result.send_retries, 0);
}

TEST(ResilientPipelineTest, RecoversAfterScriptedOutageEnds) {
  fog::FogTopology topo(ChaosFogConfig());
  FaultPlan plan;
  plan.Add(Event(0, FaultKind::kServerOutage, 0));
  plan.Add(Event(300 * kMillisecond, FaultKind::kServerRecovery, 0));
  FaultTargets targets;
  targets.fog = &topo;
  plan.ScheduleOn(topo.sim(), targets);

  const auto items = OffloadItems(30, 20 * kMillisecond);  // t = 0..580ms
  fog::FogResilienceOptions options;
  const auto result = fog::RunResilientPipeline(topo, items, options);
  EXPECT_EQ(result.items_failed, 0);
  EXPECT_DOUBLE_EQ(result.Availability(), 1.0);
  // Early items degrade during the outage; once the links heal and the
  // breaker's cool-down probe succeeds, offloading resumes.
  EXPECT_GT(result.items_degraded, 0);
  EXPECT_GT(result.items_offloaded, 0);
  EXPECT_EQ(result.items_degraded + result.items_offloaded, 30);
}

TEST(ResilientPipelineTest, EdgeUplinkLossIsTheOnlyHardFailure) {
  fog::FogTopology topo(ChaosFogConfig());
  // Sever edge 0's uplink; its items have no compute tier to fall back to.
  ASSERT_TRUE(
      topo.sim().SetLinkUp(topo.edge(0), topo.fog_of_edge(0), false).ok());
  const auto items = OffloadItems(8, kMillisecond);  // edges 0..3 round-robin
  MetricsRegistry metrics;
  fog::FogResilienceOptions options;
  options.metrics = &metrics;
  const auto result = fog::RunResilientPipeline(topo, items, options);
  EXPECT_EQ(result.items_failed, 2);  // items from edge 0
  EXPECT_EQ(result.items_offloaded, 6);
  EXPECT_LT(result.Availability(), 1.0);
  EXPECT_EQ(metrics.GetCounter("fog.failed.edge_uplink").value(), 2);
  // The failed items retried their uplink sends before giving up; those
  // retries count in send_retries as they do in the fog.retries counter.
  std::int64_t item_retries = 0;
  for (const fog::ItemOutcome& o : result.outcomes) item_retries += o.retries;
  EXPECT_EQ(item_retries, 4);
  EXPECT_EQ(metrics.GetCounter("fog.retries").value(), 4);
  EXPECT_EQ(result.send_retries, 4);
}

// ---------------------------------------------------------------- Ingest

TEST(IngestRetryTest, SinkRetriesWithBackoffThenSucceeds) {
  SimClock clock;
  std::atomic<int> next{0};
  ingest::SourceFn source = [&]() -> std::optional<ingest::Event> {
    if (next.fetch_add(1) >= 6) return std::nullopt;
    return ingest::Event{"k", "v"};
  };
  std::atomic<int> attempts{0};
  ingest::SinkFn sink = [&](const std::vector<ingest::Event>&) -> Status {
    // Two transient failures per batch, then success.
    if (attempts.fetch_add(1) % 3 != 2) return UnavailableError("flaky");
    return Status::Ok();
  };
  ingest::AgentConfig config;
  config.batch_size = 3;
  config.max_sink_retries = 4;
  config.clock = &clock;
  ingest::Agent agent("chaos", source, sink, config);
  ASSERT_TRUE(agent.Start().ok());
  agent.WaitUntilFinished();
  agent.Stop();
  EXPECT_EQ(agent.events_out(), 6);
  EXPECT_EQ(agent.events_dropped(), 0);
  EXPECT_EQ(agent.sink_retries(), 4);  // 2 batches x 2 retried attempts
}

TEST(IngestRetryTest, TerminalSinkErrorDropsWithoutRetrying) {
  SimClock clock;
  std::atomic<int> next{0};
  ingest::SourceFn source = [&]() -> std::optional<ingest::Event> {
    if (next.fetch_add(1) >= 2) return std::nullopt;
    return ingest::Event{"k", "v"};
  };
  std::atomic<int> attempts{0};
  ingest::SinkFn sink = [&](const std::vector<ingest::Event>&) -> Status {
    attempts.fetch_add(1);
    return InvalidArgumentError("malformed batch");
  };
  ingest::AgentConfig config;
  config.batch_size = 2;
  config.max_sink_retries = 5;
  config.clock = &clock;
  ingest::Agent agent("terminal", source, sink, config);
  ASSERT_TRUE(agent.Start().ok());
  agent.WaitUntilFinished();
  agent.Stop();
  EXPECT_EQ(attempts.load(), 1);  // no retry budget spent on a terminal error
  EXPECT_EQ(agent.events_dropped(), 2);
  EXPECT_EQ(agent.sink_retries(), 0);
}

// ---------------------------------------------------------------- Pipeline

TEST(PipelineResilienceTest, ProduceRetriesThroughQuorumLoss) {
  SimClock clock;
  core::CityPipeline pipeline(clock);
  core::CityPipeline::TopicSpec spec;
  spec.topic = "frames";
  spec.partitions = 1;
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());

  // Kill two of the three replicas: the first kill fails the leader over,
  // the second drops the ISR below quorum — the retrying produce still
  // fails, but spent its whole budget waiting for a recovery.
  const auto view = *pipeline.log().View("frames", 0);
  ASSERT_TRUE(pipeline.log().KillNode(view.replicas[0]).ok());
  ASSERT_TRUE(pipeline.log().KillNode(view.replicas[1]).ok());
  const auto nack = pipeline.Produce("frames", "k", "v");
  EXPECT_EQ(nack.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pipeline.Stats().produce_retries, 3);

  // Revival restores quorum; the next produce lands on the failed-over
  // leader without any operator involvement.
  ASSERT_TRUE(pipeline.log().ReviveNode(view.replicas[0]).ok());
  ASSERT_TRUE(pipeline.log().ReviveNode(view.replicas[1]).ok());
  EXPECT_TRUE(pipeline.Produce("frames", "k", "v").ok());
  // Unknown topics are terminal — no retries burned.
  const std::int64_t before = pipeline.Stats().produce_retries;
  EXPECT_EQ(pipeline.Produce("nope", "k", "v").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(pipeline.Stats().produce_retries, before);
}

TEST(PipelineResilienceTest, ConsumerSkipsPastRetentionTruncation) {
  SimClock clock;
  core::CityPipeline pipeline(clock);
  core::CityPipeline::TopicSpec spec;
  spec.topic = "frames";
  spec.partitions = 1;
  ASSERT_TRUE(pipeline.AddTopic(std::move(spec)).ok());

  // Five records age past retention before the consumer ever starts.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pipeline.Produce("frames", "k", "v").ok());
  }
  clock.Advance(10 * kSecond);
  EXPECT_EQ(pipeline.log().EnforceRetention(kSecond), 5);
  // Three fresh records the consumer should still deliver.
  store::Document doc;
  doc["x"] = std::int64_t(1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        pipeline.Produce("frames", "k", core::EncodeDocument(doc)).ok());
  }

  ASSERT_TRUE(pipeline.Start().ok());
  pipeline.Drain();
  pipeline.Stop();
  const auto stats = pipeline.Stats();
  EXPECT_EQ(stats.records_skipped, 5);  // the truncated offsets
  EXPECT_EQ(stats.records_consumed, 3);
  EXPECT_EQ(stats.documents_stored, 3);
}

}  // namespace
}  // namespace metro
