#pragma once

// Shared machinery of the city benchmark driver: the due-time clock and
// pacer, seeded arrival schedules, the in-memory span and sample logs that a
// round writes out when it ends, and outside-in readings of the process
// (/proc, CPU clocks, a heap-allocation counter).
//
// The driver measures one round of one city path per process; run.py turns
// the files a round leaves behind into metrics.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace perfbench {

using Ns = std::int64_t;
inline constexpr Ns kUs = 1000;
inline constexpr Ns kMs = 1000 * kUs;
inline constexpr Ns kSec = 1000 * kMs;

/// Monotonic nanoseconds; the same clock as metro::WallClock, so record
/// timestamps taken inside the program compare with the driver's.
Ns NowNs();

/// Drops this thread's timer slack to 1 ns so a sleep ends close to its
/// deadline (the kernel default adds up to 50 us). Only the driver's pacing
/// threads call it; threads the program starts keep the default.
void UseFineTimerSlack();

/// Waits until `due` without holding a core for the whole gap: sleeps in
/// short slices until shortly before the deadline, then spins the last few
/// microseconds so the wake-up cost does not land on a microsecond-scale
/// operation. Returns true when the caller arrived before `due` (it was idle
/// and waited).
bool WaitUntil(Ns due);

/// Due offsets from round start for an open loop at `rate_per_s` over
/// `duration`: one arrival per 1/rate slot, placed uniformly at random
/// within its slot, so bursts stay bounded and the count is exact.
std::vector<Ns> JitteredSchedule(double rate_per_s, Ns duration,
                                 metro::Rng& rng);

/// A span the driver records around one call into the program. Spans of one
/// operation share `trace`; `parent` names the enclosing span of the same
/// trace (kNoParent for the root).
struct SpanRec {
  std::uint64_t trace = 0;
  std::uint16_t name = 0;
  std::uint16_t parent = 0;
  std::uint32_t pad = 0;
  Ns start = 0;
  Ns end = 0;
};
static_assert(sizeof(SpanRec) == 32);

/// Span names; the index is what a SpanRec stores. A name's prefix before
/// the first '.' is the layer its self time is charged to.
enum SpanName : std::uint16_t {
  kIngestEvent,
  kGenLate,
  kCoreProduce,
  kMqQueue,
  kStoreDecode,
  kStoreInsert,
  kCoreAnalyze,
  kCameraFrame,
  kZooDetect,
  kZooStem,
  kZooTiny,
  kZooFull,
  kCameraClip,
  kZooBehavior,
  kZooBehaviorLocal,
  kZooBehaviorServer,
  kDashGet,
  kStoreGet,
  kDashPanel,
  kStoreGeoFind,
  kStoreScan,
  kDashWrite,
  kStoreDocInsert,
  kStoreCellPut,
  kCoreProduceWait,
  kNumSpanNames,
  kNoParent = 0xffff,
};
const char* SpanNameString(std::uint16_t name);

/// Per-thread span buffer, reserved for every span a round can record so
/// recording never allocates mid-run.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }
  void Add(std::uint64_t trace, std::uint16_t name, std::uint16_t parent,
           Ns start, Ns end) {
    spans_.push_back(SpanRec{trace, name, parent, 0, start, end});
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
};

/// Everything a round leaves for run.py, written under one directory:
/// `round.json` (counters, sample-file names, span names), one `<name>.i64`
/// file of little-endian int64 nanoseconds per latency sample set, and
/// `spans.bin` (SpanRec records) for a traced round.
class RoundOutput {
 public:
  explicit RoundOutput(std::string dir) : dir_(std::move(dir)) {}

  void Counter(const std::string& name, double value);
  void Samples(const std::string& name, const std::vector<Ns>& ns);
  void Spans(const std::vector<const SpanLog*>& logs);
  /// Records an operation that failed or returned a wrong result.
  void Fail(const std::string& what);

  /// Writes round.json; false when a file could not be written.
  bool Finish(std::int64_t attempted);

 private:
  std::string dir_;
  std::vector<std::pair<std::string, double>> counters_;
  std::vector<std::string> sample_sets_;
  std::vector<std::string> failure_notes_;
  std::int64_t failures_ = 0;
  bool io_ok_ = true;
};

/// Peak resident set (VmHWM) of this process, in KiB.
std::int64_t PeakRssKb();

/// utime+stime clock ticks of every thread of this process, by tid, from
/// /proc/self/task/*/stat.
std::vector<std::pair<int, std::int64_t>> TaskCpuTicks();
/// Clock ticks per second for TaskCpuTicks.
double TicksPerSecond();

int CurrentTid();
Ns ThreadCpuNs();
Ns ProcessCpuNs();

/// operator new calls made by the calling thread so far (the driver replaces
/// the global allocation functions with counting ones).
std::uint64_t ThreadAllocs();

}  // namespace perfbench
