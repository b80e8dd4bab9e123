#include "driver/common.h"

#include <dirent.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

namespace perfbench {

namespace {

// On a virtual machine an idle vCPU halts, and a halt longer than the host's
// halt-polling window (~200 us) lets the host deschedule it: the wake-up then
// lands up to milliseconds late, more often when the host is busy. A pacing
// thread therefore sleeps in slices short enough to be polled and spins the
// last 200 us before a due time; gaps shorter than that are spun through.
constexpr Ns kSleepSliceNs = 100 * kUs;
constexpr Ns kSpinNs = 200 * kUs;

thread_local std::uint64_t t_allocs = 0;

void* CountedAlloc(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::size_t align) {
  ++t_allocs;
  if (void* p = std::aligned_alloc(align, ((n + align - 1) / align) * align)) {
    return p;
  }
  throw std::bad_alloc();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Ns NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void UseFineTimerSlack() { (void)prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

bool WaitUntil(Ns due) {
  Ns now = NowNs();
  if (now >= due) return false;
  while (due - now > kSpinNs) {
    const Ns wake = std::min(due - kSpinNs, now + kSleepSliceNs);
    timespec ts{};
    ts.tv_sec = wake / kSec;
    ts.tv_nsec = wake % kSec;
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
    now = NowNs();
  }
  while (NowNs() < due) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  return true;
}

std::vector<Ns> JitteredSchedule(double rate_per_s, Ns duration,
                                 metro::Rng& rng) {
  const double slot = double(kSec) / rate_per_s;
  const auto n = static_cast<std::size_t>(double(duration) / slot);
  std::vector<Ns> due(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = Ns((double(i) + rng.UniformDouble()) * slot);
  }
  return due;
}

const char* SpanNameString(std::uint16_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "ingest.event",      "gen.late",           "core.produce",
      "mq.queue",          "store.decode",       "store.insert",
      "core.analyze",      "camera.frame",       "zoo.detect",
      "zoo.stem",          "zoo.tiny",           "zoo.full",
      "camera.clip",       "zoo.behavior",       "zoo.behavior_local",
      "zoo.behavior_server", "dash.get",         "store.get",
      "dash.panel",        "store.geo_find",     "store.scan",
      "dash.write",        "store.doc_insert",   "store.cell_put",
      "core.produce_wait",
  };
  return name < kNumSpanNames ? kNames[name] : "";
}

void RoundOutput::Counter(const std::string& name, double value) {
  counters_.emplace_back(name, value);
}

void RoundOutput::Samples(const std::string& name, const std::vector<Ns>& ns) {
  std::ofstream out(dir_ + "/" + name + ".i64", std::ios::binary);
  out.write(reinterpret_cast<const char*>(ns.data()),
            std::streamsize(ns.size() * sizeof(Ns)));
  io_ok_ = io_ok_ && bool(out);
  sample_sets_.push_back(name);
}

void RoundOutput::Spans(const std::vector<const SpanLog*>& logs) {
  std::ofstream out(dir_ + "/spans.bin", std::ios::binary);
  for (const SpanLog* log : logs) {
    out.write(reinterpret_cast<const char*>(log->spans().data()),
              std::streamsize(log->spans().size() * sizeof(SpanRec)));
  }
  io_ok_ = io_ok_ && bool(out);
}

void RoundOutput::Fail(const std::string& what) {
  ++failures_;
  if (failure_notes_.size() < 8) failure_notes_.push_back(what);
}

bool RoundOutput::Finish(std::int64_t attempted) {
  std::ostringstream os;
  os << "{\"attempted\": " << attempted << ", \"failed\": " << failures_
     << ",\n \"failure_notes\": [";
  for (std::size_t i = 0; i < failure_notes_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(failure_notes_[i]);
  }
  os << "],\n \"samples\": [";
  for (std::size_t i = 0; i < sample_sets_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(sample_sets_[i]);
  }
  os << "],\n \"span_names\": [";
  for (std::uint16_t i = 0; i < kNumSpanNames; ++i) {
    os << (i ? ", " : "") << JsonString(SpanNameString(i));
  }
  os << "],\n \"counters\": {";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    os << (i ? ",\n  " : "\n  ") << JsonString(counters_[i].first) << ": "
       << JsonNumber(counters_[i].second);
  }
  os << "}}\n";
  std::ofstream out(dir_ + "/round.json");
  out << os.str();
  return io_ok_ && bool(out);
}

std::int64_t PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

std::vector<std::pair<int, std::int64_t>> TaskCpuTicks() {
  std::vector<std::pair<int, std::int64_t>> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(std::string("/proc/self/task/") + entry->d_name +
                     "/stat");
    std::string stat;
    std::getline(in, stat);
    // Fields after the parenthesised command name: state is field 3, utime
    // and stime are fields 14 and 15.
    const auto close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    std::int64_t ticks = 0;
    for (int i = 3; i <= 15 && (fields >> field); ++i) {
      if (i >= 14) ticks += std::atoll(field.c_str());
    }
    out.emplace_back(std::atoi(entry->d_name), ticks);
  }
  closedir(dir);
  return out;
}

double TicksPerSecond() { return double(sysconf(_SC_CLK_TCK)); }

int CurrentTid() { return int(syscall(SYS_gettid)); }

Ns ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Ns(ts.tv_sec) * kSec + ts.tv_nsec;
}

Ns ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return Ns(ts.tv_sec) * kSec + ts.tv_nsec;
}

std::uint64_t ThreadAllocs() { return t_allocs; }

}  // namespace perfbench

// Counting replacements for the global allocation functions: a thread-local
// increment, so threads never contend on the counter.
void* operator new(std::size_t n) { return perfbench::CountedAlloc(n); }
void* operator new[](std::size_t n) { return perfbench::CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++perfbench::t_allocs;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++perfbench::t_allocs;
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return perfbench::CountedAlignedAlloc(n, std::size_t(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return perfbench::CountedAlignedAlloc(n, std::size_t(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
