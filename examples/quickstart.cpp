// Quickstart: assemble the cyberinfrastructure, stream one data source
// through the Fig. 4 pipeline, store and query documents, archive to the
// DFS, and read the operator alert queue.
//
//   ./examples/quickstart

#include <cstdio>

#include "core/infrastructure.h"
#include "datagen/city.h"

using namespace metro;

int main() {
  // 1. Bring up the four-layer stack (Fig. 1).
  core::InfrastructureConfig config;
  config.dfs_datanodes = 4;
  config.fog.num_edges = 8;
  core::Cyberinfrastructure infra(config, WallClock::Instance());
  std::printf("%s\n\n", infra.Describe().c_str());

  // 2. Declare a topic with an analyzer: severe Waze reports become alerts.
  core::CityPipeline::TopicSpec spec;
  spec.topic = "waze";
  spec.partitions = 2;
  auto* alerts = &infra.alerts();
  spec.analyzer = [alerts](const store::Document& doc)
      -> std::optional<store::Document> {
    const auto sev = doc.find("severity");
    if (sev == doc.end() || std::get<std::int64_t>(sev->second) < 4) {
      return std::nullopt;
    }
    alerts->Raise({.location = {},
                   .kind = "traffic",
                   .message = "severe " +
                              std::get<std::string>(doc.at("kind")) +
                              " reported",
                   .severity = 3});
    return doc;
  };
  if (auto st = infra.pipeline().AddTopic(std::move(spec)); !st.ok()) {
    std::fprintf(stderr, "AddTopic: %s\n", st.ToString().c_str());
    return 1;
  }
  (void)infra.pipeline().Start();

  // 3. Stream 2000 crowd-sourced traffic reports into the collection layer.
  datagen::WazeGenerator waze(7);
  for (int i = 0; i < 2000; ++i) {
    const auto report = waze.Generate(WallClock::Instance().Now());
    (void)infra.pipeline().Produce(
        "waze", std::to_string(report.id),
        core::EncodeDocument(datagen::CityDataGenerator::ToDocument(report)));
  }
  infra.pipeline().Drain();

  // 4. Query the NoSQL store: accidents within 5 km of downtown.
  auto coll = infra.pipeline().collection("waze").value();
  if (const auto indexed = coll->CreateGeoIndex("lat", "lon");
      !indexed.ok()) {
    std::fprintf(stderr, "geo index failed: %s\n",
                 indexed.ToString().c_str());
    return 1;
  }
  store::Query query;
  query.near_center = datagen::kBatonRouge;
  query.near_radius_m = 5000;
  query.conditions.push_back(
      {"kind", store::Condition::Op::kEquals, std::string("accident")});
  const auto hits = coll->Find(query);
  std::printf("stored %zu reports; %zu accidents within 5 km of downtown\n",
              coll->size(), hits.size());

  // 5. Archive the web feed to the replicated DFS and stat it.
  std::string day;
  for (const auto& line : infra.pipeline().WebFeed()) {
    day += line;
    day += '\n';
  }
  (void)infra.storage().Create("/archive/waze.jsonl", day);
  const auto info = infra.storage().Stat("/archive/waze.jsonl");
  if (info.ok()) {
    std::printf("archived %zu bytes in %d blocks (replication %d)\n",
                info->size, info->num_blocks, info->replication);
  }

  // 6. Operator reviews the alert queue.
  std::printf("\noperator queue (%zu alerts):\n", infra.alerts().pending());
  int shown = 0;
  while (auto alert = infra.alerts().ReviewNext()) {
    if (++shown > 5) continue;  // drain, print the first few
    std::printf("  [sev %d] %s: %s\n", alert->severity, alert->kind.c_str(),
                alert->message.c_str());
  }
  if (shown > 5) std::printf("  ... and %d more\n", shown - 5);

  const auto stats = infra.pipeline().Stats();
  std::printf("\npipeline: consumed=%lld stored=%lld annotated=%lld "
              "web_items=%lld mean_latency=%.2fms\n",
              (long long)stats.records_consumed,
              (long long)stats.documents_stored, (long long)stats.annotations,
              (long long)stats.web_items, stats.mean_latency_ms);
  infra.pipeline().Stop();
  return 0;
}
