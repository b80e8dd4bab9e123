#pragma once

// Distributed tracing for the Fig. 3/4 pipelines.
//
// A `TraceContext` (trace/span/parent ids) rides in record and event headers
// end-to-end: ingest agents open a trace per event, the message log carries
// it in `Record::headers`, the Fig. 4 stage threads and the fog tiers emit
// one `Span` per stage, and a shared `SpanCollector` aggregates them into
// per-stage latency quantiles and a critical-path report. Stage spans are
// contiguous by construction, so per-trace stage durations sum to the
// end-to-end latency — the per-tier breakdown that drives edge-vs-server
// offload policy (EdgeLens-style accounting over the paper's four tiers).
//
// All timing flows through the injected `Clock`, so the same spans are exact
// under `SimClock`/`net::Simulator` and wall-accurate in the threaded
// pipeline.

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/clock.h"
#include "util/lock_ranks.h"
#include "util/sync.h"

namespace metro::obs {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

/// Header key under which a serialized context travels (mq record headers,
/// ingest event headers).
inline constexpr std::string_view kTraceHeader = "x-trace";

/// W3C-traceparent-style propagation context. A zero trace id means "no
/// trace" — every API treats such a context as absent.
struct TraceContext {
  TraceId trace_id = 0;
  SpanId span_id = 0;
  SpanId parent_span_id = 0;

  bool valid() const { return trace_id != 0; }

  /// "trace-span-parent" in lowercase hex (e.g. "a3-1f-0").
  std::string Serialize() const;

  /// Parses `Serialize` output; nullopt on malformed input.
  static std::optional<TraceContext> Parse(std::string_view header);
};

/// How a span participates in its trace's timeline.
enum class SpanKind {
  kStage,    ///< partitions the trace: stage durations sum to end-to-end
  kOverlay,  ///< annotates time a stage already covers (retry backoffs)
  kEvent,    ///< zero-duration marker (breaker transition, degrade decision)
};

std::string_view SpanKindName(SpanKind kind);

/// One timed, tagged operation within a trace.
struct Span {
  std::string name;
  TraceContext context;
  SpanKind kind = SpanKind::kStage;
  TimeNs start = 0;
  TimeNs end = 0;
  std::vector<std::pair<std::string, std::string>> tags;

  TimeNs duration() const { return end - start; }
  void SetTag(std::string key, std::string value);
  /// The tag value, or nullptr when the key is absent.
  const std::string* FindTag(std::string_view key) const;
};

/// Count, mean and quantiles of a latency sample, in the sample's unit.
struct LatencySummary {
  std::int64_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// The one latency summary in the tree: every latency quantile comes from
/// here. Quantiles are exact, interpolating linearly between the two closest
/// ranks (q * (n - 1)), so they never leave [min, max]; an empty sample
/// summarizes to zeros.
LatencySummary SummarizeLatency(std::vector<double> samples);

/// Per-stage latency aggregate over recorded stage spans (SummarizeLatency
/// over each stage's durations), so stage sums reconcile with end-to-end
/// latency.
struct StageStats {
  std::string stage;
  std::int64_t count = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

/// One trace rolled up: span extent, per-stage durations, annotations.
struct TraceSummary {
  TraceId trace_id = 0;
  TimeNs start = 0;  ///< earliest span start
  TimeNs end = 0;    ///< latest span end
  TimeNs stage_total = 0;  ///< sum of kStage durations
  std::map<std::string, TimeNs> stage_ns;  ///< per-stage time (kStage only)
  std::int64_t spans = 0;
  bool degraded = false;  ///< any span carries a "degraded" tag
  bool retried = false;   ///< any retry overlay / "retried" tag

  TimeNs total() const { return end - start; }
};

/// Thread-safe in-memory span store with id allocation, JSON export, and a
/// critical-path report. One collector is shared per deployment (the
/// pipeline owns one); subsystems receive a pointer and may ignore it.
class SpanCollector {
 public:
  /// `max_spans` bounds memory; spans past the cap are dropped and counted.
  explicit SpanCollector(Clock& clock, std::size_t max_spans = 1 << 20)
      : clock_(&clock), max_spans_(max_spans) {}

  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  Clock& clock() const { return *clock_; }

  /// Opens a new trace; the returned context is the root span's identity.
  TraceContext StartTrace();

  /// A child context under `parent` (same trace, fresh span id). Invalid
  /// parents yield a fresh root trace so callers need not special-case
  /// records that arrived without a header.
  TraceContext Child(const TraceContext& parent);

  /// Starts a span now on the collector's clock; pair with `End`.
  Span Begin(std::string name, TraceContext context,
             SpanKind kind = SpanKind::kStage);

  /// Stamps `end` now and records the span.
  void End(Span span) METRO_EXCLUDES(mu_);

  /// Records a span with explicit times (simulator-driven callers).
  void Record(Span span) METRO_EXCLUDES(mu_);

  /// Records a zero-duration marker span at the current time.
  void Event(std::string name, TraceContext context,
             std::vector<std::pair<std::string, std::string>> tags = {})
      METRO_EXCLUDES(mu_);

  /// Records a marker that belongs to no in-flight trace — infrastructure
  /// events such as a broker failover or a node kill — by opening a fresh
  /// root trace for it. (Named distinctly from `Event` so `{}`-tag calls
  /// stay unambiguous.)
  void RootEvent(std::string name,
                 std::vector<std::pair<std::string, std::string>> tags = {})
      METRO_EXCLUDES(mu_);

  std::size_t size() const METRO_EXCLUDES(mu_);
  std::int64_t dropped() const METRO_EXCLUDES(mu_);
  void Clear() METRO_EXCLUDES(mu_);

  std::vector<Span> Snapshot() const METRO_EXCLUDES(mu_);

  /// Per-stage p50/p95/p99 over all kStage spans, sorted by total time
  /// (critical-path order).
  std::vector<StageStats> StageBreakdown() const METRO_EXCLUDES(mu_);

  /// Per-trace rollups (traces holding only events/overlays included).
  std::vector<TraceSummary> Traces() const METRO_EXCLUDES(mu_);

  /// JSON-lines export: one span object per line.
  std::string ToJson() const METRO_EXCLUDES(mu_);

  /// Human-readable report: per-stage quantile table, the slowest trace's
  /// stage breakdown, and the mean stage-sum / end-to-end reconciliation.
  std::string CriticalPathReport() const METRO_EXCLUDES(mu_);

 private:
  Clock* clock_;
  const std::size_t max_spans_;
  std::atomic<std::uint64_t> next_trace_{1};
  std::atomic<std::uint64_t> next_span_{1};
  mutable Mutex mu_{lockrank::kObsTrace, "obs.trace"};
  std::vector<Span> spans_ METRO_GUARDED_BY(mu_);
  std::int64_t dropped_ METRO_GUARDED_BY(mu_) = 0;
};

/// RAII stage span: begins on construction, records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanCollector& collector, std::string name, TraceContext context,
             SpanKind kind = SpanKind::kStage)
      : collector_(&collector),
        span_(collector.Begin(std::move(name), context, kind)) {}
  ~ScopedSpan() { collector_->End(std::move(span_)); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  TraceContext context() const { return span_.context; }
  void SetTag(std::string key, std::string value) {
    span_.SetTag(std::move(key), std::move(value));
  }

 private:
  SpanCollector* collector_;
  Span span_;
};

}  // namespace metro::obs
