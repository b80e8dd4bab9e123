// Replicated-MQ failover bench: what does a leader kill cost, what does it
// lose, and what does batching buy?
//
// Scenarios over the same produce workload against a 5-node cluster
// (replication factor 3, acks=quorum):
//
//   healthy      steady-state quorum produce, measured with the grouped-min
//                scheme (best group mean) from bench_json.h;
//   leader_kill  mid-run the preferred leader of partition 0 is killed
//                (failover), then a second replica (quorum lost — produces
//                to that partition are rejected until revival), then both
//                revive and resync;
//   chaos        a seeded FaultPlan::Random storm (node kills, partition
//                outages) replayed on a SimClock — fully deterministic for
//                a given --seed, which defaults to a constant so two runs
//                of the bench always draw the same faults.
//
// After each faulted run, every partition is fetched end-to-end and the
// bench *asserts* the replication contract: every acked record is delivered
// exactly once — zero acked-record loss, zero duplicate deliveries — even
// though every 50th request was deliberately submitted twice to exercise
// the idempotent produce path. Violations exit non-zero, so the CI step
// that emits BENCH_mq.json is also a correctness gate.
//
// `produce_grid` measures produce throughput once at each point of a grid
// of partition counts (one producing thread per partition) and batch
// sizes: batch 1 is the single-record Prepare/Produce path, larger batches
// the zero-copy PrepareBatch path. check_perf.sh gates on the batched
// records/s at 8 partitions. Both modes print the grid.
//
// --json [--json=<path>] writes the measurements to BENCH_mq.json;
// --seed=<n> reseeds the chaos scenario (default 42, echoed in the JSON).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "mq/broker_cluster.h"
#include "obs/trace.h"
#include "resilience/chaos.h"
#include "util/bytes.h"
#include "util/clock.h"

namespace {

using namespace metro;

constexpr const char* kTopic = "city.events";
constexpr int kPartitions = 4;
constexpr int kRecords = 20'000;
constexpr std::uint64_t kDefaultSeed = 42;

mq::BrokerClusterConfig ClusterConfig() {
  mq::BrokerClusterConfig config;
  config.nodes = 5;
  config.replication_factor = 3;
  return config;
}

/// `--seed=<n>` if present; the constant default otherwise, so the chaos
/// scenario replays identically run to run unless explicitly reseeded.
std::uint64_t ParseSeedFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      return std::strtoull(arg.c_str() + 7, nullptr, 10);
    }
  }
  return kDefaultSeed;
}

struct ScenarioResult {
  double throughput_per_s = 0;
  double mean_ms = 0;
  double p99_ms = 0;
  std::int64_t acked = 0;
  std::int64_t rejected = 0;    ///< produces shed in the quorum-lost window
  std::int64_t duplicates_suppressed = 0;
  std::int64_t failovers = 0;
  std::int64_t faults_applied = 0;        ///< chaos scenario only
  std::int64_t lost_acked = 0;            ///< must be 0
  std::int64_t duplicate_deliveries = 0;  ///< must be 0
};

/// Exactly-once audit shared by every scenario: fetches each partition end
/// to end through the zero-copy view path and checks that every acked value
/// appears exactly once in the delivered stream.
void AuditDelivery(const mq::BrokerCluster& cluster,
                   const std::vector<std::string>& acked_values,
                   ScenarioResult& result) {
  std::map<std::string, int> delivered;
  for (int p = 0; p < kPartitions; ++p) {
    const auto info = cluster.GetPartitionInfo(kTopic, p);
    if (!info.ok()) continue;
    std::int64_t offset = info->begin_offset;
    while (offset < info->end_offset) {
      const auto view = cluster.FetchBatch(kTopic, p, offset, 512);
      if (!view.ok() || view->empty()) break;
      for (std::size_t i = 0; i < view->size(); ++i) {
        ++delivered[std::string((*view)[i].value())];
      }
      offset = view->next_offset();
    }
  }
  for (const std::string& value : acked_values) {
    const auto it = delivered.find(value);
    if (it == delivered.end()) {
      ++result.lost_acked;
    } else if (it->second > 1) {
      ++result.duplicate_deliveries;
    }
  }
}

/// Runs the produce workload; when `kill_leader` is set, injects the
/// kill/kill/revive episode against partition 0's replica set.
ScenarioResult RunScenario(bool kill_leader) {
  WallClock& clock = WallClock::Instance();
  mq::BrokerCluster cluster(clock, ClusterConfig());
  if (!cluster.CreateTopic(kTopic, kPartitions).ok()) return {};
  const mq::ProducerId producer = cluster.CreateProducer();

  const int preferred = *cluster.PreferredLeader(kTopic, 0);
  const auto view = *cluster.View(kTopic, 0);
  const int second_replica = view.replicas[1];

  ScenarioResult result;
  std::vector<std::string> acked_values;
  std::vector<double> latencies_ms;
  acked_values.reserve(kRecords);
  latencies_ms.reserve(kRecords);

  const Stopwatch run;
  for (int i = 0; i < kRecords; ++i) {
    if (kill_leader) {
      // Failover at the halfway mark, quorum loss at 5/8, recovery at 3/4.
      if (i == kRecords / 2) (void)cluster.KillNode(preferred);
      if (i == kRecords * 5 / 8) (void)cluster.KillNode(second_replica);
      if (i == kRecords * 3 / 4) {
        (void)cluster.ReviveNode(preferred);
        (void)cluster.ReviveNode(second_replica);
      }
    }
    const std::string value = "rec-" + std::to_string(i);
    auto request = cluster.Prepare(producer, kTopic,
                                   "cam-" + std::to_string(i % 64), value);
    if (!request.ok()) continue;
    const Stopwatch one;
    Result<mq::ProduceAck> ack = cluster.Produce(*request);
    for (int attempt = 0; attempt < 3 && !ack.ok() &&
                          ack.status().code() == StatusCode::kUnavailable;
         ++attempt) {
      ack = cluster.Produce(*request);
    }
    latencies_ms.push_back(double(one.ElapsedNs()) / double(kMillisecond));
    if (!ack.ok()) {
      ++result.rejected;  // shed during the quorum-lost window
      continue;
    }
    ++result.acked;
    acked_values.push_back(value);
    // Every 50th request is submitted again after its ack — the retry storm
    // the idempotent path must absorb without a duplicate append.
    if (i % 50 == 0) {
      const auto dup = cluster.Produce(*request);
      if (dup.ok() && dup->duplicate) ++result.duplicates_suppressed;
    }
  }
  const double elapsed_s = run.ElapsedSeconds();
  result.throughput_per_s =
      elapsed_s > 0 ? double(result.acked) / elapsed_s : 0;

  const obs::LatencySummary latency =
      obs::SummarizeLatency(std::move(latencies_ms));
  result.mean_ms = latency.mean;
  result.p99_ms = latency.p99;
  result.failovers = cluster.metrics().GetCounter("mq.failovers").value();

  AuditDelivery(cluster, acked_values, result);
  return result;
}

/// Seeded random fault storm on a SimClock: node kills, partition outages,
/// and their recoveries drawn by FaultPlan::Random over the run's horizon.
/// Deterministic for a given seed — the clock is simulated and every fault
/// timestamp comes from the seeded plan, so a reported violation replays.
ScenarioResult RunChaosScenario(std::uint64_t seed) {
  SimClock clock;
  mq::BrokerCluster cluster(clock, ClusterConfig());
  if (!cluster.CreateTopic(kTopic, kPartitions).ok()) return {};
  const mq::ProducerId producer = cluster.CreateProducer();

  resilience::chaos::FaultTargets targets;
  targets.mq_cluster = &cluster;
  const TimeNs kTick = 5 * kMicrosecond;
  const TimeNs horizon = TimeNs(kRecords) * kTick;
  auto plan = resilience::chaos::FaultPlan::Random(/*intensity=*/0.9, horizon,
                                                   targets, {kTopic}, seed);

  ScenarioResult result;
  std::vector<std::string> acked_values;
  acked_values.reserve(kRecords);
  for (int i = 0; i < kRecords; ++i) {
    clock.Advance(kTick);
    plan.ApplyUpTo(clock.Now(), targets);
    const std::string value = "chaos-" + std::to_string(i);
    auto request = cluster.Prepare(producer, kTopic,
                                   "cam-" + std::to_string(i % 64), value);
    if (!request.ok()) continue;
    Result<mq::ProduceAck> ack = cluster.Produce(*request);
    for (int attempt = 0; attempt < 3 && !ack.ok() &&
                          ack.status().code() == StatusCode::kUnavailable;
         ++attempt) {
      // Let simulated time move so a recovery event can land mid-retry.
      clock.Advance(kTick);
      plan.ApplyUpTo(clock.Now(), targets);
      ack = cluster.Produce(*request);
    }
    if (!ack.ok()) {
      ++result.rejected;
      continue;
    }
    ++result.acked;
    acked_values.push_back(value);
    if (i % 50 == 0) {
      const auto dup = cluster.Produce(*request);
      if (dup.ok() && dup->duplicate) ++result.duplicates_suppressed;
    }
  }
  // Run out the plan: every injected fault has a recovery before the
  // horizon, so the audit below sees a healthy cluster.
  clock.Advance(horizon);
  plan.ApplyUpTo(clock.Now(), targets);
  result.faults_applied = std::int64_t(plan.applied());
  result.failovers = cluster.metrics().GetCounter("mq.failovers").value();

  AuditDelivery(cluster, acked_values, result);
  return result;
}

std::string ScenarioJson(const ScenarioResult& r) {
  std::ostringstream os;
  os << "{\"throughput_per_s\": " << bench_json::Num(r.throughput_per_s)
     << ", \"mean_ms\": " << bench_json::Num(r.mean_ms)
     << ", \"p99_ms\": " << bench_json::Num(r.p99_ms)
     << ", \"acked\": " << r.acked << ", \"rejected\": " << r.rejected
     << ", \"failovers\": " << r.failovers
     << ", \"faults_applied\": " << r.faults_applied
     << ", \"duplicates_suppressed\": " << r.duplicates_suppressed
     << ", \"lost_acked\": " << r.lost_acked
     << ", \"duplicate_deliveries\": " << r.duplicate_deliveries << "}";
  return os.str();
}

/// A key that the broker's key-hash partitioner maps to `partition` — lets
/// the single-record path target one partition per thread, matching the
/// batched path's explicit-partition produce for a fair comparison.
std::string PartitionKey(int partition, int partitions) {
  for (int j = 0;; ++j) {
    std::string key =
        "part-" + std::to_string(partition) + "-" + std::to_string(j);
    if (int(Fnv1a64(key) % std::uint64_t(partitions)) == partition) {
      return key;
    }
  }
}

/// Multi-threaded produce throughput: one thread per partition, each
/// producing `records_per_thread` records to its own partition — single
/// records through the pinned Prepare/Produce path when `batch_size` <= 1,
/// `batch_size`-record batches through PrepareBatch otherwise. Returns
/// acked records per second.
double MeasureProduceRps(int partitions, int batch_size,
                         int records_per_thread) {
  WallClock& clock = WallClock::Instance();
  mq::BrokerCluster cluster(clock, ClusterConfig());
  if (!cluster.CreateTopic(kTopic, partitions).ok()) return 0;
  std::vector<mq::ProducerId> producers;
  std::vector<std::string> keys;
  for (int t = 0; t < partitions; ++t) {
    producers.push_back(cluster.CreateProducer());
    keys.push_back(PartitionKey(t, partitions));
  }

  std::atomic<std::int64_t> acked{0};
  std::atomic<bool> go{false};
  auto worker = [&](int t) {
    while (!go.load(std::memory_order_acquire)) {
    }
    if (batch_size <= 1) {
      for (int i = 0; i < records_per_thread; ++i) {
        auto request = cluster.Prepare(producers[std::size_t(t)], kTopic,
                                       keys[std::size_t(t)],
                                       "rec-" + std::to_string(i));
        if (!request.ok()) continue;
        const auto ack = cluster.Produce(*request);
        if (ack.ok()) acked.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    mq::RecordBatchBuilder builder(/*reserve_bytes=*/std::size_t(batch_size) *
                                       32,
                                   /*reserve_records=*/std::size_t(batch_size));
    for (int done = 0; done < records_per_thread;) {
      const int n = std::min(batch_size, records_per_thread - done);
      for (int j = 0; j < n; ++j) {
        builder.Add(keys[std::size_t(t)], "rec-" + std::to_string(done + j));
      }
      auto request =
          cluster.PrepareBatch(producers[std::size_t(t)], kTopic, t, builder);
      if (!request.ok()) break;
      const auto ack = cluster.Produce(*request);
      if (ack.ok()) acked.fetch_add(ack->count, std::memory_order_relaxed);
      done += n;
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(std::size_t(partitions));
  for (int t = 0; t < partitions; ++t) threads.emplace_back(worker, t);
  const Stopwatch run;
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  const double elapsed_s = run.ElapsedSeconds();
  return elapsed_s > 0 ? double(acked.load()) / elapsed_s : 0;
}

/// Grouped-min steady-state produce cost (the bench_json.h Measure scheme):
/// one Prepare + quorum Produce per call against a healthy cluster.
bench_json::PathMetrics MeasureSteadyState() {
  WallClock& clock = WallClock::Instance();
  mq::BrokerCluster cluster(clock, ClusterConfig());
  (void)cluster.CreateTopic(kTopic, kPartitions);
  const mq::ProducerId producer = cluster.CreateProducer();
  int i = 0;
  return bench_json::Measure(2'000, 20'000, [&] {
    ++i;
    auto request = cluster.Prepare(producer, kTopic,
                                   "cam-" + std::to_string(i % 64),
                                   "rec-" + std::to_string(i));
    if (request.ok()) (void)cluster.Produce(*request);
  });
}

/// Same scheme for the batched path: each call prepares and produces one
/// 64-record batch (latency and allocations are per *batch*).
bench_json::PathMetrics MeasureSteadyStateBatched() {
  constexpr int kBatch = 64;
  WallClock& clock = WallClock::Instance();
  mq::BrokerCluster cluster(clock, ClusterConfig());
  (void)cluster.CreateTopic(kTopic, kPartitions);
  const mq::ProducerId producer = cluster.CreateProducer();
  mq::RecordBatchBuilder builder(/*reserve_bytes=*/kBatch * 32,
                                 /*reserve_records=*/kBatch);
  int i = 0;
  return bench_json::Measure(100, 1'000, [&] {
    for (int j = 0; j < kBatch; ++j) {
      builder.Add("cam-" + std::to_string(j % 64), "rec-" + std::to_string(i));
      ++i;
    }
    auto request =
        cluster.PrepareBatch(producer, kTopic, i % kPartitions, builder);
    if (request.ok()) (void)cluster.Produce(*request);
  });
}

/// Records/s at every (partitions, batch size) point, each measured once
/// over the same total record count, as a JSON array.
std::string ProduceGridJson() {
  constexpr int kGridRecords = 24'000;
  std::ostringstream os;
  os << "[";
  const char* sep = "";
  for (const int partitions : {1, 2, 4, 8}) {
    for (const int batch : {1, 8, 64, 256}) {
      const double rps =
          MeasureProduceRps(partitions, batch, kGridRecords / partitions);
      os << sep << "{\"partitions\": " << partitions
         << ", \"batch_size\": " << batch
         << ", \"records_per_s\": " << bench_json::Num(rps) << "}";
      sep = ", ";
    }
  }
  os << "]";
  return os.str();
}

int RunJsonMode(const std::string& path, std::uint64_t seed) {
  const bench_json::PathMetrics steady = MeasureSteadyState();
  const bench_json::PathMetrics steady_batched = MeasureSteadyStateBatched();
  const ScenarioResult healthy = RunScenario(/*kill_leader=*/false);
  const ScenarioResult faulted = RunScenario(/*kill_leader=*/true);
  const ScenarioResult chaos = RunChaosScenario(seed);
  const std::string grid = ProduceGridJson();

  std::ofstream(path)
      << "{\"seed\": " << seed
      << ", \"steady_state\": " << bench_json::PathJson(steady)
      << ", \"steady_state_batched_64\": "
      << bench_json::PathJson(steady_batched)
      << ", \"healthy\": " << ScenarioJson(healthy)
      << ", \"leader_kill\": " << ScenarioJson(faulted)
      << ", \"chaos\": " << ScenarioJson(chaos)
      << ", \"produce_grid\": " << grid << "}\n";
  std::printf("wrote %s (seed %llu)\nproduce_grid: %s\n", path.c_str(),
              (unsigned long long)seed, grid.c_str());

  const std::int64_t lost =
      healthy.lost_acked + faulted.lost_acked + chaos.lost_acked;
  const std::int64_t dups = healthy.duplicate_deliveries +
                            faulted.duplicate_deliveries +
                            chaos.duplicate_deliveries;
  if (lost + dups > 0) {
    std::fprintf(stderr,
                 "replication contract violated: lost=%lld dups=%lld\n",
                 (long long)lost, (long long)dups);
    return 1;
  }
  if (faulted.failovers < 1) {
    std::fprintf(stderr, "leader_kill scenario triggered no failover\n");
    return 1;
  }
  return 0;
}

void BM_QuorumProduce(benchmark::State& state) {
  WallClock& clock = WallClock::Instance();
  mq::BrokerCluster cluster(clock, ClusterConfig());
  (void)cluster.CreateTopic(kTopic, kPartitions);
  const mq::ProducerId producer = cluster.CreateProducer();
  int i = 0;
  for (auto _ : state) {
    ++i;
    auto request = cluster.Prepare(producer, kTopic,
                                   "cam-" + std::to_string(i % 64),
                                   "rec-" + std::to_string(i));
    if (request.ok()) benchmark::DoNotOptimize(cluster.Produce(*request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuorumProduce);

void BM_QuorumProduceBatch(benchmark::State& state) {
  const int batch = int(state.range(0));
  WallClock& clock = WallClock::Instance();
  mq::BrokerCluster cluster(clock, ClusterConfig());
  (void)cluster.CreateTopic(kTopic, kPartitions);
  const mq::ProducerId producer = cluster.CreateProducer();
  mq::RecordBatchBuilder builder(std::size_t(batch) * 32, std::size_t(batch));
  int i = 0;
  for (auto _ : state) {
    for (int j = 0; j < batch; ++j) {
      builder.Add("cam-" + std::to_string(j % 64), "rec-" + std::to_string(i));
      ++i;
    }
    auto request =
        cluster.PrepareBatch(producer, kTopic, i % kPartitions, builder);
    if (request.ok()) benchmark::DoNotOptimize(cluster.Produce(*request));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_QuorumProduceBatch)->Arg(8)->Arg(64)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = ParseSeedFlag(argc, argv);
  std::string json_path;
  if (bench_json::ParseJsonFlag(argc, argv, "BENCH_mq.json", json_path)) {
    return RunJsonMode(json_path, seed);
  }
  const ScenarioResult healthy = RunScenario(false);
  const ScenarioResult faulted = RunScenario(true);
  const ScenarioResult chaos = RunChaosScenario(seed);
  std::printf("healthy:     %s\n", ScenarioJson(healthy).c_str());
  std::printf("leader_kill: %s\n", ScenarioJson(faulted).c_str());
  std::printf("chaos[%llu]: %s\n", (unsigned long long)seed,
              ScenarioJson(chaos).c_str());
  std::printf("produce_grid: %s\n", ProduceGridJson().c_str());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
