// Fig. 4 reproduction: the overall collection -> NoSQL storage -> analysis
// -> web/visualization pipeline.
//
// Drives the real threaded pipeline with the three streaming sources the
// figure names (tweets, Waze reports, annotated video events), measures
// steady-state throughput and produce-to-web latency, and reports per-topic
// storage/annotation counts. Expected shape: sustained throughput in the
// tens of thousands of records per second at millisecond-scale end-to-end
// latency on commodity hardware.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/pipeline.h"
#include "datagen/city.h"
#include "text/text.h"

namespace {

using namespace metro;

struct RunStats {
  double wall_seconds = 0;
  core::PipelineStats pipeline;
};

RunStats RunPipeline(int records_per_topic) {
  core::CityPipeline pipeline(WallClock::Instance());

  // Tweets: annotate incident chatter via keyword matching (the collection
  // keyword filter of Sec. II-A2).
  auto matcher = std::make_shared<text::KeywordMatcher>(std::vector<std::string>{
      "gunshots", "shooting", "robbery", "fight", "shots"});
  core::CityPipeline::TopicSpec tweets;
  tweets.topic = "tweets";
  tweets.partitions = 4;
  tweets.analyzer = [matcher](const store::Document& doc)
      -> std::optional<store::Document> {
    const auto it = doc.find("text");
    if (it == doc.end()) return std::nullopt;
    const auto* txt = std::get_if<std::string>(&it->second);
    if (txt == nullptr || !matcher->Matches(*txt)) return std::nullopt;
    store::Document ann = doc;
    ann["alert"] = true;
    return ann;
  };

  // Waze: promote severe incidents.
  core::CityPipeline::TopicSpec waze;
  waze.topic = "waze";
  waze.partitions = 2;
  waze.analyzer = [](const store::Document& doc)
      -> std::optional<store::Document> {
    const auto it = doc.find("severity");
    if (it == doc.end()) return std::nullopt;
    if (std::get<std::int64_t>(it->second) < 4) return std::nullopt;
    return doc;
  };

  // Video annotations pass straight to the web feed.
  core::CityPipeline::TopicSpec video;
  video.topic = "video-annotations";
  video.partitions = 2;
  video.analyzer = [](const store::Document& doc)
      -> std::optional<store::Document> { return doc; };

  (void)pipeline.AddTopic(std::move(tweets));
  (void)pipeline.AddTopic(std::move(waze));
  (void)pipeline.AddTopic(std::move(video));
  (void)pipeline.Start();

  datagen::TweetGenerator tweet_gen({.num_users = 2000}, 1);
  datagen::WazeGenerator waze_gen(2);
  Rng rng(3);

  const auto start = WallClock::Instance().Now();
  for (int i = 0; i < records_per_topic; ++i) {
    const TimeNs now = WallClock::Instance().Now();
    (void)pipeline.Produce(
        "tweets", "",
        core::EncodeDocument(
            datagen::CityDataGenerator::ToDocument(tweet_gen.Generate(now))));
    (void)pipeline.Produce(
        "waze", "",
        core::EncodeDocument(
            datagen::CityDataGenerator::ToDocument(waze_gen.Generate(now))));
    store::Document video_doc;
    video_doc["type"] = std::string("vehicle");
    video_doc["camera"] = std::int64_t(rng.UniformU64(200));
    video_doc["cls"] = std::int64_t(rng.UniformU64(8));
    video_doc["score"] = rng.UniformDouble();
    (void)pipeline.Produce("video-annotations", "",
                           core::EncodeDocument(video_doc));
  }
  pipeline.Drain();
  RunStats stats;
  stats.wall_seconds =
      double(WallClock::Instance().Now() - start) / kSecond;
  stats.pipeline = pipeline.Stats();
  pipeline.Stop();
  return stats;
}

void ThroughputTable() {
  bench::Table table({"records/topic", "total records", "wall (s)",
                      "throughput (rec/s)", "stored", "annotations",
                      "mean lat (ms)", "p99 lat (ms)"});
  for (const int n : {1'000, 5'000, 20'000}) {
    const auto stats = RunPipeline(n);
    const double total = double(stats.pipeline.records_consumed);
    table.AddRow({bench::FmtInt(n), bench::FmtInt(std::int64_t(total)),
                  bench::Fmt(stats.wall_seconds, 3),
                  bench::FmtInt(std::int64_t(total / stats.wall_seconds)),
                  bench::FmtInt(stats.pipeline.documents_stored),
                  bench::FmtInt(stats.pipeline.annotations),
                  bench::Fmt(stats.pipeline.mean_latency_ms, 2),
                  bench::Fmt(stats.pipeline.p99_latency_ms, 2)});
  }
  table.Print(
      "Fig. 4: collection -> storage -> analysis -> web pipeline "
      "(3 topics: tweets, Waze, video annotations)");
}

void BM_PipelineEndToEnd(benchmark::State& state) {
  for (auto _ : state) {
    const auto stats = RunPipeline(int(state.range(0)));
    benchmark::DoNotOptimize(stats.pipeline.web_items);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 3);
}
BENCHMARK(BM_PipelineEndToEnd)->Arg(2000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  ThroughputTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
