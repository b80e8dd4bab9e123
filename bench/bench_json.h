#pragma once

// --json output helpers for the micro-benches.
//
// Each bench with a --json mode writes one JSON object to a file of its
// own (BENCH_fig5.json, BENCH_fig7.json, BENCH_mq.json, BENCH_store.json)
// and overwrites it on every run; scripts/check_perf.sh reads each file
// for its gates.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "alloc_count.h"

namespace bench_json {

/// True when argv contains `--json` or `--json=<path>`; sets `path` to the
/// latter, or to `default_path` for the bare flag.
inline bool ParseJsonFlag(int argc, char** argv, const char* default_path,
                          std::string& path) {
  path = default_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") return true;
    if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
      return true;
    }
  }
  return false;
}

/// One measured inference path.
struct PathMetrics {
  double latency_ms = 0;
  double throughput_per_s = 0;
  double heap_allocs_per_call = 0;
};

/// Times `fn` over `iters` calls (after `warmup` untimed ones) and counts
/// heap allocations per call via bench_alloc. The calls are split into
/// several groups and the reported latency is the best group mean: on a
/// shared machine, scheduler noise only ever makes a group slower, so the
/// floor across groups is the stable estimate of what the path costs.
template <typename Fn>
PathMetrics Measure(int warmup, int iters, Fn&& fn) {
  for (int i = 0; i < warmup; ++i) fn();

  constexpr int kGroups = 5;
  const int per_group = iters / kGroups > 0 ? iters / kGroups : 1;
  double best_ns_per_call = 0;
  const std::uint64_t allocs0 = bench_alloc::Count();
  std::uint64_t calls = 0;
  for (int g = 0; g < kGroups; ++g) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < per_group; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    calls += std::uint64_t(per_group);
    const double ns =
        double(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                   .count()) /
        double(per_group);
    if (g == 0 || ns < best_ns_per_call) best_ns_per_call = ns;
  }
  const std::uint64_t allocs1 = bench_alloc::Count();

  PathMetrics m;
  m.latency_ms = best_ns_per_call / 1e6;
  m.throughput_per_s =
      best_ns_per_call > 0 ? 1e9 / best_ns_per_call : 0;
  m.heap_allocs_per_call = double(allocs1 - allocs0) / double(calls);
  return m;
}

inline std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

inline std::string PathJson(const PathMetrics& m) {
  std::ostringstream os;
  os << "{\"latency_ms\": " << Num(m.latency_ms)
     << ", \"throughput_per_s\": " << Num(m.throughput_per_s)
     << ", \"heap_allocs_per_call\": " << Num(m.heap_allocs_per_call) << "}";
  return os.str();
}

}  // namespace bench_json
