// Storage-engine read storm: Zipfian point reads racing sustained ingest.
//
// The versioned LSM engine exists so that reads never wait for writers —
// readers pin an immutable Version + sequence number and go lock-free,
// while flushes and leveled compactions swap versions under a brief mutex.
// This bench measures the read tail that design delivers while a writer
// keeps sealing and compacting:
//   - prefill kKeys small records, then
//   - kReaders threads each issue kReadsPerReader point Gets with Zipfian
//     key popularity (s ~ 1.1, drawn via a precomputed inverse-CDF table so
//     the hot set is realistic and identical across runs), while
//   - one writer thread sustains Puts over a rotating fresh-key window for
//     the whole read window, forcing seals and compactions mid-storm.
//
// Reads are issued OPEN-LOOP: each reader schedules arrivals at a fixed
// rate and measures latency from the scheduled arrival, not from when the
// engine finally admitted the call. A closed loop would hide a stalled
// engine — a closed-loop reader silently issues fewer reads while real
// clients keep arriving and queue (coordinated omission). Every read is of
// a prefilled key the writer never touches, so each must return OK with
// the prefilled value; reads that do not are counted as wrong.
//
// Reported: read p50/p99/mean, achieved read and write rates, wrong reads,
// and write-stall time, seals and compactions over the storm window.
// scripts/check_perf.sh gates on the read p99 at the fixed arrival rate
// and on the achieved read rate.
//
// --json [--json=<path>] writes the measurements to BENCH_store.json and
// exits non-zero on a wrong read or a storm without ingest churn;
// --seed=<n> reseeds the Zipfian draw (default 42).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "obs/trace.h"
#include "store/lsm.h"
#include "util/clock.h"
#include "util/status.h"

namespace {

using namespace metro;

constexpr int kKeys = 50'000;
constexpr int kReaders = 4;
constexpr int kReadsPerReader = 30'000;
constexpr int kFreshWindow = 100'000;  ///< writer key space (wraps)
constexpr double kZipfS = 1.1;
constexpr std::uint64_t kDefaultSeed = 42;
/// A memtable small against the dataset (~10 MB of live records): seals
/// and compactions must happen *during* the storm, not be amortized away
/// by a memtable that swallows the whole run.
constexpr std::size_t kMemtableLimit = 64 * 1024;
constexpr std::size_t kCompactionTrigger = 4;
/// Aggregate open-loop arrival rate across all readers — well under the
/// engine's closed-loop capacity even on a single-core machine, so backlog
/// drains between stalls and p99 measures stalls, not saturation.
constexpr double kTargetReadsPerSec = 60'000;

std::uint64_t ParseSeedFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      return std::strtoull(arg.c_str() + 7, nullptr, 10);
    }
  }
  return kDefaultSeed;
}

std::string ReadKey(int i) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "key%06d", i);
  return buf;
}

std::string FreshKey(int i) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "fresh%06d", i);
  return buf;
}

/// Zipfian key sampler: CDF over ranks precomputed once, each draw is a
/// binary search on a uniform variate, and ranks map to key indices through
/// a fixed odd-multiplier permutation so popularity is not correlated with
/// key order (that would let fences alone absorb the whole storm).
class ZipfSampler {
 public:
  explicit ZipfSampler(int n, double s) : n_(n) {
    cdf_.reserve(std::size_t(n));
    double total = 0;
    for (int rank = 1; rank <= n; ++rank) {
      total += 1.0 / std::pow(double(rank), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  int Draw(std::uint64_t& state) const {
    // xorshift64* uniform in [0, 1).
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    const double u =
        double((state * 0x2545f4914f6cdd1dull) >> 11) / double(1ull << 53);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const int rank = int(it - cdf_.begin());
    return int((std::uint64_t(rank) * 0x9e3779b1ull) % std::uint64_t(n_));
  }

 private:
  int n_;
  std::vector<double> cdf_;
};

struct StormResult {
  double read_p50_us = 0;
  double read_p99_us = 0;
  double read_mean_us = 0;
  double reads_per_s = 0;
  double writes_per_s = 0;
  std::int64_t reads = 0;
  std::int64_t wrong_reads = 0;  ///< not OK, or not the prefilled value
  std::int64_t writes = 0;
  double write_stall_ms = 0;
  std::uint64_t seals = 0;
  std::uint64_t compactions = 0;
  std::uint64_t bloom_skips = 0;
  double cache_hit_rate = 0;
};

/// Prefills a versioned engine, starts the writer, fires the open-loop
/// readers and collects their latencies; the engine's stall, seal and
/// compaction counters are reported as deltas over the storm window.
StormResult RunStorm(std::uint64_t seed) {
  const ZipfSampler zipf(kKeys, kZipfS);
  store::LsmConfig config;
  config.memtable_limit_bytes = kMemtableLimit;
  config.compaction_trigger = kCompactionTrigger;
  config.block_cache = std::make_shared<store::BlockCache>();
  store::LsmEngine engine(config);
  const std::string value(64, 'v');
  for (int i = 0; i < kKeys; ++i) (void)engine.Put(ReadKey(i), value);
  const store::LsmStats prefill = engine.Stats();

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> writes{0};
  std::thread writer([&] {
    std::int64_t acked = 0;
    for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
      if (engine.Put(FreshKey(i % kFreshWindow), value).ok()) ++acked;
    }
    writes.store(acked, std::memory_order_relaxed);
  });

  std::vector<std::vector<double>> latencies_us(kReaders);
  std::atomic<std::int64_t> wrong_reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  const Stopwatch storm;
  const double interval_ns = 1e9 * double(kReaders) / kTargetReadsPerSec;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t rng = seed + std::uint64_t(t) * 0x9e3779b97f4a7c15ull + 1;
      auto& lat = latencies_us[std::size_t(t)];
      lat.reserve(kReadsPerReader);
      std::int64_t wrong = 0;
      const Stopwatch wall;
      for (int i = 0; i < kReadsPerReader; ++i) {
        const std::string key = ReadKey(zipf.Draw(rng));
        // Open-loop: spin until this read's scheduled arrival, then time it
        // from that arrival. A read admitted late (engine stalled) keeps its
        // queueing delay in the measurement.
        const double scheduled_ns = double(i) * interval_ns;
        for (double now = double(wall.ElapsedNs()); now < scheduled_ns;
             now = double(wall.ElapsedNs())) {
          // Far from the deadline, give the core away (machines running the
          // gate may have fewer cores than storm threads); spin the last
          // stretch for arrival precision.
          if (scheduled_ns - now > 100'000) std::this_thread::yield();
        }
        const Result<std::string> got = engine.Get(key);
        lat.push_back((double(wall.ElapsedNs()) - scheduled_ns) / 1e3);
        if (!got.ok() || *got != value) ++wrong;
      }
      wrong_reads.fetch_add(wrong, std::memory_order_relaxed);
    });
  }
  for (std::thread& th : readers) th.join();
  const double read_window_s = storm.ElapsedSeconds();
  stop.store(true, std::memory_order_release);
  writer.join();

  std::vector<double> all;
  all.reserve(std::size_t(kReaders) * kReadsPerReader);
  for (auto& lat : latencies_us) all.insert(all.end(), lat.begin(), lat.end());

  const obs::LatencySummary read = obs::SummarizeLatency(std::move(all));
  StormResult r;
  r.reads = read.count;
  r.wrong_reads = wrong_reads.load();
  r.writes = writes.load();
  r.read_p50_us = read.p50;
  r.read_p99_us = read.p99;
  r.read_mean_us = read.mean;
  if (read_window_s > 0) {
    r.reads_per_s = double(r.reads) / read_window_s;
    r.writes_per_s = double(r.writes) / read_window_s;
  }
  const store::LsmStats stats = engine.Stats();
  r.write_stall_ms = double(stats.write_stall_ns - prefill.write_stall_ns) / 1e6;
  r.seals = stats.seals - prefill.seals;
  r.compactions = stats.compactions - prefill.compactions;
  r.bloom_skips = stats.bloom_skips;
  const auto cache = config.block_cache->GetStats();
  const std::uint64_t probes = cache.hits + cache.misses;
  r.cache_hit_rate = probes > 0 ? double(cache.hits) / double(probes) : 0;
  return r;
}

std::string StormJson(const StormResult& r, std::uint64_t seed) {
  std::ostringstream os;
  os << "{\"seed\": " << seed << ", \"keys\": " << kKeys
     << ", \"readers\": " << kReaders
     << ", \"zipf_s\": " << bench_json::Num(kZipfS)
     << ", \"target_reads_per_s\": " << bench_json::Num(kTargetReadsPerSec)
     << ", \"read_p50_us\": " << bench_json::Num(r.read_p50_us)
     << ", \"read_p99_us\": " << bench_json::Num(r.read_p99_us)
     << ", \"read_mean_us\": " << bench_json::Num(r.read_mean_us)
     << ", \"reads_per_s\": " << bench_json::Num(r.reads_per_s)
     << ", \"writes_per_s\": " << bench_json::Num(r.writes_per_s)
     << ", \"reads\": " << r.reads << ", \"wrong_reads\": " << r.wrong_reads
     << ", \"writes\": " << r.writes
     << ", \"write_stall_ms\": " << bench_json::Num(r.write_stall_ms)
     << ", \"seals\": " << r.seals << ", \"compactions\": " << r.compactions
     << ", \"bloom_skips\": " << r.bloom_skips
     << ", \"cache_hit_rate\": " << bench_json::Num(r.cache_hit_rate) << "}";
  return os.str();
}

int RunJsonMode(const std::string& path, std::uint64_t seed) {
  const StormResult r = RunStorm(seed);
  std::ofstream(path) << StormJson(r, seed) << "\n";
  std::printf(
      "wrote %s (read p99 %.1fus at %.0f of %.0f reads/s; %lld wrong reads; "
      "write stall %.1fms)\n",
      path.c_str(), r.read_p99_us, r.reads_per_s, kTargetReadsPerSec,
      (long long)r.wrong_reads, r.write_stall_ms);

  // Sanity floors, not the perf gates: every read must have returned the
  // prefilled value, and the storm must have run with ingest pressure.
  if (r.wrong_reads != 0) {
    std::fprintf(stderr, "store_readstorm: %lld wrong reads\n",
                 (long long)r.wrong_reads);
    return 1;
  }
  if (r.writes == 0 || r.compactions == 0) {
    std::fprintf(stderr, "store_readstorm: storm ran without ingest churn\n");
    return 1;
  }
  return 0;
}

void BM_VersionedPointGet(benchmark::State& state) {
  store::LsmEngine engine;
  const std::string value(64, 'v');
  for (int i = 0; i < kKeys; ++i) (void)engine.Put(ReadKey(i), value);
  const ZipfSampler zipf(kKeys, kZipfS);
  std::uint64_t rng = kDefaultSeed;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Get(ReadKey(zipf.Draw(rng))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VersionedPointGet);

void BM_VersionedSnapshotScan(benchmark::State& state) {
  store::LsmEngine engine;
  const std::string value(64, 'v');
  for (int i = 0; i < kKeys; ++i) (void)engine.Put(ReadKey(i), value);
  for (auto _ : state) {
    std::size_t n = 0;
    for (auto it = engine.NewIterator("", ""); it.Valid(); it.Next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_VersionedSnapshotScan);

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = ParseSeedFlag(argc, argv);
  std::string json_path;
  if (bench_json::ParseJsonFlag(argc, argv, "BENCH_store.json", json_path)) {
    return RunJsonMode(json_path, seed);
  }
  const StormResult r = RunStorm(seed);
  std::printf("read_storm: %s\n", StormJson(r, seed).c_str());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
