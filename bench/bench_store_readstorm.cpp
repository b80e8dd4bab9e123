// Storage-engine read storm: Zipfian point reads racing sustained ingest.
//
// The versioned LSM engine exists so that reads never wait for writers —
// readers pin an immutable Version + sequence number and go lock-free,
// while flushes and leveled compactions swap versions under a brief mutex.
// This bench quantifies that against `SeedEngine`, a faithful replica of
// the engine this repository started with (one mutex over a std::map
// memtable and sorted-vector SSTables; every Get waits behind any
// in-progress flush or compaction, and compaction rewrites everything).
//
// Workload, identical for both engines:
//   - prefill kKeys small records, then
//   - kReaders threads each issue kReadsPerReader point Gets with Zipfian
//     key popularity (s ~ 1.1, drawn via a precomputed inverse-CDF table so
//     the hot set is realistic and identical across engines/runs), while
//   - one writer thread sustains Puts over a rotating fresh-key window for
//     the whole read window, forcing seals and compactions mid-storm.
//
// Reads are issued OPEN-LOOP: each reader schedules arrivals at a fixed
// rate and measures latency from the scheduled arrival, not from when the
// engine finally admitted the call. A closed loop would hide exactly the
// failure mode this bench exists to expose — when the seed engine's global
// mutex is held by a flush or compaction, a closed-loop reader silently
// issues fewer reads, while real clients keep arriving and queue
// (coordinated omission).
//
// Reported per engine: read p50/p99/mean, read throughput, write
// throughput, and write-stall time (writer time lost to seal + compact —
// both engines count it at the same place, around the flush/compaction
// work inside Put). `read_p99_improvement` = seed p99 / versioned p99 is
// the headline check_perf.sh gates on (>= 2x under METRO_PERF_STRICT).
//
// --json [--json=<path>] writes a "store_readstorm" section (default
// BENCH_store.json); --seed=<n> reseeds the Zipfian draw (default 42).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "infer_json.h"
#include "obs/trace.h"
#include "store/lsm.h"
#include "util/clock.h"
#include "util/status.h"
#include "util/sync.h"

namespace {

using namespace metro;

constexpr int kKeys = 50'000;
constexpr int kReaders = 4;
constexpr int kReadsPerReader = 30'000;
constexpr int kFreshWindow = 100'000;  ///< writer key space (wraps)
constexpr double kZipfS = 1.1;
constexpr std::uint64_t kDefaultSeed = 42;
/// Memtable sized to the dataset (~10 MB of live records) the way a real
/// deployment sizes its to the working set: seals and compactions must
/// happen *during* the storm, not be amortized away by a memtable that
/// swallows the whole run. Both engines get the same limit and trigger.
constexpr std::size_t kMemtableLimit = 64 * 1024;
constexpr std::size_t kCompactionTrigger = 4;
/// Aggregate open-loop arrival rate across all readers — well under both
/// engines' closed-loop capacity even on a single-core machine, so backlog
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

/// Replica of the engine at the repository seed: one mutex over a std::map
/// memtable plus sorted-vector SSTables. Every operation — including every
/// Get — takes the mutex, so reads queue behind the flush + full-rewrite
/// compaction a writer runs inline. Only the stall counter is new; it wraps
/// exactly the code a Put executes beyond the memtable insert, mirroring
/// where LsmStats::write_stall_ns is counted in the versioned engine.
class SeedEngine {
 public:
  Status Put(std::string_view key, std::string_view value) {
    MutexLock lock(mu_);
    Insert(key, std::string(value));
    if (memtable_bytes_ >= kMemtableLimit) {
      const Stopwatch stall;
      FlushLocked();
      if (sstables_.size() >= kCompactionTrigger) CompactLocked();
      stall_ns_ += stall.ElapsedNs();
    }
    return Status::Ok();
  }

  Result<std::string> Get(std::string_view key) const {
    MutexLock lock(mu_);
    const auto mit = memtable_.find(key);
    if (mit != memtable_.end()) {
      if (!mit->second) return NotFoundError(std::string(key));
      return *mit->second;
    }
    for (auto it = sstables_.rbegin(); it != sstables_.rend(); ++it) {
      const auto eit = std::lower_bound(
          it->begin(), it->end(), key,
          [](const auto& entry, std::string_view k) {
            return entry.first < k;
          });
      if (eit != it->end() && eit->first == key) {
        if (!eit->second) return NotFoundError(std::string(key));
        return *eit->second;
      }
    }
    return NotFoundError(std::string(key));
  }

  std::uint64_t stall_ns() const {
    MutexLock lock(mu_);
    return stall_ns_;
  }
  std::uint64_t seals() const {
    MutexLock lock(mu_);
    return seals_;
  }
  std::uint64_t compactions() const {
    MutexLock lock(mu_);
    return compactions_;
  }

 private:
  using Entry = std::pair<std::string, std::optional<std::string>>;

  void Insert(std::string_view key, std::optional<std::string> value)
      METRO_REQUIRES(mu_) {
    const auto it = memtable_.find(key);
    const std::size_t add =
        key.size() + (value ? value->size() : 0) + 32 /*node overhead*/;
    if (it != memtable_.end()) {
      memtable_bytes_ -=
          it->first.size() + (it->second ? it->second->size() : 0) + 32;
      it->second = std::move(value);
    } else {
      memtable_.emplace(std::string(key), std::move(value));
    }
    memtable_bytes_ += add;
  }

  void FlushLocked() METRO_REQUIRES(mu_) {
    std::vector<Entry> sst;
    sst.reserve(memtable_.size());
    for (auto& [k, v] : memtable_) sst.emplace_back(k, v);
    sstables_.push_back(std::move(sst));
    memtable_.clear();
    memtable_bytes_ = 0;
    ++seals_;
  }

  void CompactLocked() METRO_REQUIRES(mu_) {
    std::map<std::string, std::optional<std::string>> merged;
    for (const auto& sst : sstables_) {  // oldest -> newest
      for (const auto& [k, v] : sst) merged[k] = v;
    }
    std::vector<Entry> compacted;
    compacted.reserve(merged.size());
    for (auto& [k, v] : merged) {
      if (v) compacted.emplace_back(k, std::move(v));
    }
    sstables_.clear();
    sstables_.push_back(std::move(compacted));
    ++compactions_;
  }

  mutable Mutex mu_;
  std::map<std::string, std::optional<std::string>, std::less<>> memtable_
      METRO_GUARDED_BY(mu_);
  std::size_t memtable_bytes_ METRO_GUARDED_BY(mu_) = 0;
  std::vector<std::vector<Entry>> sstables_ METRO_GUARDED_BY(mu_);
  std::uint64_t stall_ns_ METRO_GUARDED_BY(mu_) = 0;
  std::uint64_t seals_ METRO_GUARDED_BY(mu_) = 0;
  std::uint64_t compactions_ METRO_GUARDED_BY(mu_) = 0;
};

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
  std::int64_t writes = 0;
  double write_stall_ms = 0;
  std::uint64_t seals = 0;
  std::uint64_t compactions = 0;
  std::uint64_t bloom_skips = 0;     ///< versioned engine only
  double cache_hit_rate = 0;         ///< versioned engine only
};

/// Runs the storm against `engine` (anything with Put/Get): prefills,
/// starts the writer, fires the readers, and collects latencies. The
/// stall/seal/compaction numbers come from the caller because the two
/// engines expose them differently; `on_prefilled` runs between the prefill
/// and the storm so the caller can snapshot those counters and report only
/// the storm-window deltas.
template <typename Engine, typename Fn>
StormResult RunStorm(Engine& engine, const ZipfSampler& zipf,
                     std::uint64_t seed, Fn&& on_prefilled) {
  const std::string value(64, 'v');
  for (int i = 0; i < kKeys; ++i) (void)engine.Put(ReadKey(i), value);
  on_prefilled();

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> writes{0};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      (void)engine.Put(FreshKey(i % kFreshWindow), value);
      ++i;
    }
    writes.store(i, std::memory_order_relaxed);
  });

  std::vector<std::vector<double>> latencies_us(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  const Stopwatch storm;
  const double interval_ns = 1e9 * double(kReaders) / kTargetReadsPerSec;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t rng = seed + std::uint64_t(t) * 0x9e3779b97f4a7c15ull + 1;
      auto& lat = latencies_us[std::size_t(t)];
      lat.reserve(kReadsPerReader);
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
        benchmark::DoNotOptimize(engine.Get(key));
        lat.push_back((double(wall.ElapsedNs()) - scheduled_ns) / 1e3);
      }
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
  r.writes = writes.load();
  r.read_p50_us = read.p50;
  r.read_p99_us = read.p99;
  r.read_mean_us = read.mean;
  if (read_window_s > 0) {
    r.reads_per_s = double(r.reads) / read_window_s;
    r.writes_per_s = double(r.writes) / read_window_s;
  }
  return r;
}

StormResult RunSeedStorm(const ZipfSampler& zipf, std::uint64_t seed) {
  SeedEngine engine;
  std::uint64_t stall0 = 0, seals0 = 0, compactions0 = 0;
  StormResult r = RunStorm(engine, zipf, seed, [&] {
    stall0 = engine.stall_ns();
    seals0 = engine.seals();
    compactions0 = engine.compactions();
  });
  r.write_stall_ms = double(engine.stall_ns() - stall0) / 1e6;
  r.seals = engine.seals() - seals0;
  r.compactions = engine.compactions() - compactions0;
  return r;
}

StormResult RunVersionedStorm(const ZipfSampler& zipf, std::uint64_t seed) {
  store::LsmConfig config;
  config.memtable_limit_bytes = kMemtableLimit;
  config.compaction_trigger = kCompactionTrigger;
  config.block_cache = std::make_shared<store::BlockCache>();
  store::LsmEngine engine(config);
  store::LsmStats prefill;
  StormResult r = RunStorm(engine, zipf, seed,
                           [&] { prefill = engine.Stats(); });
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

std::string StormJson(const StormResult& r, bool versioned) {
  std::ostringstream os;
  os << "{\"read_p50_us\": " << bench_json::Num(r.read_p50_us)
     << ", \"read_p99_us\": " << bench_json::Num(r.read_p99_us)
     << ", \"read_mean_us\": " << bench_json::Num(r.read_mean_us)
     << ", \"reads_per_s\": " << bench_json::Num(r.reads_per_s)
     << ", \"writes_per_s\": " << bench_json::Num(r.writes_per_s)
     << ", \"reads\": " << r.reads << ", \"writes\": " << r.writes
     << ", \"write_stall_ms\": " << bench_json::Num(r.write_stall_ms)
     << ", \"seals\": " << r.seals << ", \"compactions\": " << r.compactions;
  if (versioned) {
    os << ", \"bloom_skips\": " << r.bloom_skips
       << ", \"cache_hit_rate\": " << bench_json::Num(r.cache_hit_rate);
  }
  os << "}";
  return os.str();
}

int RunJsonMode(const std::string& path, std::uint64_t seed) {
  const ZipfSampler zipf(kKeys, kZipfS);
  const StormResult seed_engine = RunSeedStorm(zipf, seed);
  const StormResult versioned = RunVersionedStorm(zipf, seed);

  const double p99_improvement =
      versioned.read_p99_us > 0 ? seed_engine.read_p99_us / versioned.read_p99_us
                                : 0;
  const double stall_reduction =
      versioned.write_stall_ms > 0
          ? seed_engine.write_stall_ms / versioned.write_stall_ms
          : 0;

  std::ostringstream os;
  os << "{\"seed\": " << seed << ", \"keys\": " << kKeys
     << ", \"readers\": " << kReaders << ", \"zipf_s\": "
     << bench_json::Num(kZipfS) << ", \"target_reads_per_s\": "
     << bench_json::Num(kTargetReadsPerSec)
     << ", \"seed_engine\": " << StormJson(seed_engine, /*versioned=*/false)
     << ", \"versioned_engine\": " << StormJson(versioned, /*versioned=*/true)
     << ", \"read_p99_improvement\": " << bench_json::Num(p99_improvement)
     << ", \"write_stall_reduction\": " << bench_json::Num(stall_reduction)
     << "}";
  bench_json::MergeInferJson(path, "store_readstorm", os.str());
  std::printf(
      "wrote %s (read p99: seed %.1fus vs versioned %.1fus = %.2fx; "
      "write stall: %.1fms vs %.1fms)\n",
      path.c_str(), seed_engine.read_p99_us, versioned.read_p99_us,
      p99_improvement, seed_engine.write_stall_ms, versioned.write_stall_ms);

  // Sanity floor, not the perf gate: the workload must actually have run
  // with ingest pressure on both engines.
  if (seed_engine.writes == 0 || versioned.writes == 0 ||
      versioned.compactions == 0) {
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
  if (bench_json::ParseJsonFlag(argc, argv, json_path)) {
    // This bench owns its own output file unless pointed elsewhere.
    if (json_path == "BENCH_infer.json") json_path = "BENCH_store.json";
    return RunJsonMode(json_path, seed);
  }
  const ZipfSampler zipf(kKeys, kZipfS);
  const StormResult seed_engine = RunSeedStorm(zipf, seed);
  const StormResult versioned = RunVersionedStorm(zipf, seed);
  std::printf("seed_engine:      %s\n",
              StormJson(seed_engine, false).c_str());
  std::printf("versioned_engine: %s\n", StormJson(versioned, true).c_str());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
