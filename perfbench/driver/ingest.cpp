// city_ingest path (Fig. 4): collection -> MQ -> NoSQL -> analysis -> web.
//
// One generator thread (this one) publishes tweets and Waze reports through
// CityPipeline::Produce on a fixed open-loop schedule; the pipeline's two
// consumer threads (one per topic) decode, store and analyze. Three threads
// in total. Each document carries its due offset and event index, and an
// event's latency ends when the driver's analyzer returns.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "datagen/city.h"
#include "datagen/social.h"
#include "driver/phases.h"
#include "geo/geo.h"
#include "text/text.h"
#include "util/clock.h"

namespace perfbench {

namespace {

using metro::store::Document;

// Offered load in events/s: about a third of the 80k events/s the pipeline
// sustains on the 4-core box (WORKLOADS.md, "Offered loads").
constexpr double kRate = 25000;
constexpr int kPartitions = 2;
constexpr const char* kTopics[2] = {"tweets", "waze"};
// Traced rounds sample broker lag and L0 depth every this many events.
constexpr std::size_t kSampleEvery = 512;

struct Event {
  int topic = 0;  ///< 0 tweets, 1 waze
  std::string key;
  std::string value;
};

struct Inputs {
  std::vector<Ns> due;
  std::vector<Event> events;
  std::int64_t per_topic[2] = {0, 0};
};

Inputs BuildInputs(const PhaseArgs& args) {
  metro::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 11);
  Inputs in;
  in.due = JitteredSchedule(kRate, args.duration, rng);
  metro::datagen::TweetGenerator tweets({}, rng.NextU64());
  metro::datagen::WazeGenerator waze(rng.NextU64());
  in.events.reserve(in.due.size());
  for (std::size_t i = 0; i < in.due.size(); ++i) {
    // 3:1 tweets to Waze reports, keyed by user or road segment so the
    // generators' skew reaches the partitions.
    Event ev;
    ev.topic = rng.UniformU64(4) == 0 ? 1 : 0;
    Document doc;
    if (ev.topic == 0) {
      const auto tweet = tweets.Generate(in.due[i]);
      char key[24];
      std::snprintf(key, sizeof(key), "u%llu",
                    static_cast<unsigned long long>(tweet.user));
      ev.key = key;
      doc = metro::datagen::CityDataGenerator::ToDocument(tweet);
    } else {
      const auto report = waze.Generate(in.due[i]);
      ev.key = metro::geo::Geohash(report.location, 6);
      doc = metro::datagen::CityDataGenerator::ToDocument(report);
    }
    // Each document carries its event index and due offset; the driver's
    // analyzer ends the event's latency.
    doc["bench_ev"] = std::int64_t(i);
    doc["bench_due_ns"] = std::int64_t(in.due[i]);
    ev.value = metro::core::EncodeDocument(doc);
    ++in.per_topic[ev.topic];
    in.events.push_back(std::move(ev));
  }
  return in;
}

std::int64_t IntField(const Document& doc, const char* field) {
  const auto it = doc.find(field);
  if (it == doc.end()) return -1;
  const auto* v = std::get_if<std::int64_t>(&it->second);
  return v ? *v : -1;
}

// The keyword and severity analyzers of bench_fig4_pipeline.
std::optional<Document> KeywordAnalyzer(const metro::text::KeywordMatcher& m,
                                        const Document& doc) {
  const auto it = doc.find("text");
  if (it == doc.end()) return std::nullopt;
  const auto* txt = std::get_if<std::string>(&it->second);
  if (txt == nullptr || !m.Matches(*txt)) return std::nullopt;
  Document ann = doc;
  ann["alert"] = true;
  return ann;
}

std::optional<Document> SeverityAnalyzer(const Document& doc) {
  const auto it = doc.find("severity");
  if (it == doc.end()) return std::nullopt;
  if (std::get<std::int64_t>(it->second) < 4) return std::nullopt;
  return doc;
}

}  // namespace

std::uint64_t IngestInputDigest(const PhaseArgs& args) {
  const Inputs in = BuildInputs(args);
  Digest d;
  for (std::size_t i = 0; i < in.due.size(); ++i) {
    d.AddPod(in.due[i]);
    d.AddPod(in.events[i].topic);
    d.AddString(in.events[i].key);
    d.AddString(in.events[i].value);
  }
  return d.value();
}

int RunIngest(const PhaseArgs& args) {
  const Ns setup_start = NowNs();
  RoundOutput out(args.out_dir);
  Inputs in = BuildInputs(args);
  const std::size_t n = in.due.size();

  // Per-event timestamps, each array written by one thread and read after
  // the consumers are joined.
  std::vector<Ns> produce_start(n, 0), produce_end(n, 0);
  std::vector<Ns> parse_in(n, 0), parse_out(n, 0);
  std::vector<Ns> analyze_in(n, 0), analyze_out(n, 0);
  std::vector<std::uint8_t> analyzed(n, 0);
  // Whether the generator was idle before the event's due time; if not, it
  // was still inside earlier Produce calls and the event waited for it.
  std::vector<std::uint8_t> idle(n, 0);
  std::int64_t annotations[2] = {0, 0};
  const bool trace = args.trace;

  const metro::text::KeywordMatcher matcher(std::vector<std::string>{
      "gunshots", "shooting", "robbery", "fight", "shots"});
  metro::core::CityPipeline pipeline(metro::WallClock::Instance());
  for (int t = 0; t < 2; ++t) {
    metro::core::CityPipeline::TopicSpec spec;
    spec.topic = kTopics[t];
    spec.partitions = kPartitions;
    spec.parser = [&, trace](const std::string&, const std::string& value)
        -> std::optional<Document> {
      const Ns in_ns = trace ? NowNs() : 0;
      auto doc = metro::core::DecodeDocument(value);
      if (trace && doc) {
        const std::int64_t ev = IntField(*doc, "bench_ev");
        if (ev >= 0 && std::size_t(ev) < n) {
          parse_in[std::size_t(ev)] = in_ns;
          parse_out[std::size_t(ev)] = NowNs();
        }
      }
      return doc;
    };
    spec.analyzer = [&, t, trace](const Document& doc)
        -> std::optional<Document> {
      const Ns in_ns = trace ? NowNs() : 0;
      auto ann = t == 0 ? KeywordAnalyzer(matcher, doc) : SeverityAnalyzer(doc);
      const Ns done = NowNs();
      const std::int64_t ev = IntField(doc, "bench_ev");
      if (ev >= 0 && std::size_t(ev) < n) {
        analyze_in[std::size_t(ev)] = in_ns;
        analyze_out[std::size_t(ev)] = done;
        if (analyzed[std::size_t(ev)] < 255) ++analyzed[std::size_t(ev)];
      }
      if (ann) ++annotations[t];
      return ann;
    };
    if (!pipeline.AddTopic(std::move(spec)).ok()) {
      std::fprintf(stderr, "ingest: AddTopic %s failed\n", kTopics[t]);
      return 1;
    }
  }
  if (!pipeline.Start().ok()) {
    std::fprintf(stderr, "ingest: pipeline Start failed\n");
    return 1;
  }

  UseFineTimerSlack();
  const int gen_tid = CurrentTid();
  std::vector<Ns> late;  // generator lateness when it was idle before due
  late.reserve(n);
  std::size_t l0_max = 0;
  std::int64_t lag_max = 0;
  auto sample_layers = [&] {
    for (int t = 0; t < 2; ++t) {
      const auto lag = pipeline.log().Lag(std::string("pipeline-") + kTopics[t]);
      if (lag.ok()) lag_max = std::max(lag_max, *lag);
      const auto coll = pipeline.collection(kTopics[t]);
      if (!coll.ok()) continue;
      const auto stats = (*coll)->engine().Stats();
      if (!stats.level_tables.empty()) {
        l0_max = std::max(l0_max, stats.level_tables[0]);
      }
    }
  };

  const Ns setup_ns = NowNs() - setup_start;
  const auto ticks_before = TaskCpuTicks();
  const Ns proc_cpu0 = ProcessCpuNs();
  const Ns gen_cpu0 = ThreadCpuNs();
  const Ns t0 = NowNs() + 2 * kMs;
  for (std::size_t i = 0; i < n; ++i) {
    const Ns due = t0 + in.due[i];
    const bool waited = WaitUntil(due);
    const Ns start = NowNs();
    idle[i] = waited;
    if (waited) late.push_back(start - due);
    Event& ev = in.events[i];
    const auto ack = pipeline.Produce(kTopics[ev.topic], std::move(ev.key),
                                      std::move(ev.value));
    produce_start[i] = start;
    produce_end[i] = NowNs();
    if (!ack.ok()) {
      out.Fail("produce " + std::to_string(i) + ": " +
               std::string(ack.status().message()));
    }
    if (trace && i % kSampleEvery == 0) sample_layers();
  }
  const Ns gen_cpu = ThreadCpuNs() - gen_cpu0;
  const bool drained = pipeline.Drain(30 * kSec);
  const Ns window_end = NowNs();
  const Ns proc_cpu = ProcessCpuNs() - proc_cpu0;
  const auto ticks_after = TaskCpuTicks();
  if (trace) sample_layers();
  if (!drained) out.Fail("pipeline did not drain");
  const metro::core::PipelineStats stats = pipeline.Stats();
  const std::size_t web_items = pipeline.WebFeed().size();
  std::int64_t stored[2] = {0, 0};
  metro::store::LsmStats lsm[2];
  for (int t = 0; t < 2; ++t) {
    const auto coll = pipeline.collection(kTopics[t]);
    if (!coll.ok()) continue;
    stored[t] = std::int64_t((*coll)->size());
    lsm[t] = (*coll)->engine().Stats();
  }
  std::vector<std::int64_t> partition_records;
  for (const char* topic : kTopics) {
    for (int p = 0; p < kPartitions; ++p) {
      const auto info = pipeline.log().GetPartitionInfo(topic, p);
      partition_records.push_back(info.ok() ? info->end_offset : 0);
    }
  }
  const std::size_t obs_spans = pipeline.tracer().size();
  const std::int64_t obs_dropped = pipeline.tracer().dropped();
  const std::int64_t mq_backpressure =
      pipeline.log().metrics().GetCounter("mq.backpressure").value();
  pipeline.Stop();

  // Correctness: every event analyzed exactly once and stored, and the web
  // feed holds exactly the annotations the analyzers returned.
  for (std::size_t i = 0; i < n; ++i) {
    if (analyzed[i] != 1) {
      out.Fail("event " + std::to_string(i) + " analyzed " +
               std::to_string(int(analyzed[i])) + " times");
    }
  }
  for (int t = 0; t < 2; ++t) {
    if (stored[t] != in.per_topic[t]) {
      out.Fail(std::string(kTopics[t]) + " stored " + std::to_string(stored[t]) +
               " of " + std::to_string(in.per_topic[t]));
    }
  }
  if (std::int64_t(web_items) != annotations[0] + annotations[1]) {
    out.Fail("web feed " + std::to_string(web_items) + " != annotations " +
             std::to_string(annotations[0] + annotations[1]));
  }

  std::vector<Ns> latency;
  latency.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (analyzed[i] >= 1) latency.push_back(analyze_out[i] - (t0 + in.due[i]));
  }
  out.Samples("ingest", latency);
  out.Samples("gen_late.ingest", late);

  // Consumer threads: every task except this (generator) thread.
  double consumer_s = 0;
  int consumers = 0;
  for (const auto& [tid, ticks] : ticks_after) {
    if (tid == gen_tid) continue;
    std::int64_t before = 0;
    for (const auto& [tid0, t0ticks] : ticks_before) {
      if (tid0 == tid) before = t0ticks;
    }
    consumer_s += double(ticks - before) / TicksPerSecond();
    ++consumers;
  }
  const double window_s = double(window_end - t0) / double(kSec);
  out.Counter("setup_s", double(setup_ns) / double(kSec));
  out.Counter("peak_rss_kb", double(PeakRssKb()));
  out.Counter("cpu_us_per_request",
              double(proc_cpu - gen_cpu) / double(kUs) / double(n));
  out.Counter("core.consumer_busy_frac",
              consumers ? consumer_s / consumers / window_s : 0);
  out.Counter("mq.produce_retries", double(stats.produce_retries));
  out.Counter("mq.backpressure", double(mq_backpressure));
  std::int64_t pmax = 0, psum = 0;
  for (const std::int64_t r : partition_records) {
    pmax = std::max(pmax, r);
    psum += r;
  }
  out.Counter("mq.partition_skew",
              psum ? double(pmax) * double(partition_records.size()) /
                         double(psum)
                   : 0);
  out.Counter("obs.spans", double(obs_spans));
  out.Counter("obs.spans_dropped", double(obs_dropped));
  out.Counter("store.seals", double(lsm[0].seals + lsm[1].seals));
  out.Counter("store.compactions",
              double(lsm[0].compactions + lsm[1].compactions));
  out.Counter("store.write_stall_ms",
              double(lsm[0].write_stall_ns + lsm[1].write_stall_ns) /
                  double(kMs));
  if (trace) {
    out.Counter("mq.lag_max", double(lag_max));
    out.Counter("store.l0_tables.max", double(l0_max));
    // Spans: the event root runs from due time to analyzer return. Until
    // Produce starts, the event waits either on the generator's own late
    // wake-up or, when earlier Produce calls overran its due time, on the
    // producer; the stages then partition [produce start, analyzer return].
    SpanLog spans(n * 7);
    for (std::size_t i = 0; i < n; ++i) {
      if (analyzed[i] == 0) continue;
      const Ns due = t0 + in.due[i];
      spans.Add(i, kIngestEvent, kNoParent, due, analyze_out[i]);
      spans.Add(i, idle[i] ? kGenLate : kCoreProduceWait, kIngestEvent, due,
                produce_start[i]);
      spans.Add(i, kCoreProduce, kIngestEvent, produce_start[i],
                produce_end[i]);
      spans.Add(i, kMqQueue, kIngestEvent, produce_end[i], parse_in[i]);
      spans.Add(i, kStoreDecode, kIngestEvent, parse_in[i], parse_out[i]);
      spans.Add(i, kStoreInsert, kIngestEvent, parse_out[i], analyze_in[i]);
      spans.Add(i, kCoreAnalyze, kIngestEvent, analyze_in[i], analyze_out[i]);
    }
    out.Spans({&spans});
  }
  return out.Finish(std::int64_t(n)) ? 0 : 1;
}

}  // namespace perfbench
