// dashboard_reads path: operators read the stores while writes continue.
//
// Set-up prefills a store::Collection of 911 calls (category and geo
// indexes) several times larger than the 8 MB default block cache, plus a
// WideColumnTable of call annotations. Then three threads run open loops:
//   writer  - inserts calls and annotation cells at a low fixed rate, so
//             seals, compactions and version churn keep happening;
//   reader  - FindById point reads skewed towards recent ids;
//   panel   - a geo-radius Find plus an annotation range scan per panel.
// Point reads and panels have their own threads so neither queues behind
// the other.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "datagen/city.h"
#include "driver/phases.h"
#include "geo/geo.h"
#include "store/doc_codec.h"
#include "store/document_store.h"
#include "store/wide_column.h"

namespace perfbench {

namespace {

using metro::store::DocId;
using metro::store::Document;

// ~420-byte documents: 64k of them are ~27 MB, over three times the block
// cache.
constexpr std::size_t kPrefillCalls = 64000;
constexpr int kNarrativeWords = 48;
// Offered loads per second, fixed shares of what one thread of each kind
// serves on the 4-core box (WORKLOADS.md, "Offered loads"): the writer a
// fiftieth of ~100k calls/s, point reads and panels a tenth of ~330k reads/s
// and ~3900 panels/s.
constexpr double kWriteRate = 2000;  // calls, each with two annotation cells
constexpr double kGetRate = 33000;
constexpr double kPanelRate = 390;
constexpr double kPanelRadiusM = 300;
constexpr int kScanRows = 32;
constexpr std::size_t kWarmupReads = 20000;
// Every this many panels is checked against a brute-force filter.
constexpr std::size_t kCheckEveryPanel = 8;

const char* const kWords[] = {
    "caller", "reports", "vehicle", "suspect", "injured", "northbound",
    "corner", "smoke",   "loud",    "argument", "unit",  "requested",
    "near",   "store",   "parking", "lot",     "male",  "female",
    "white",  "sedan",   "fled",    "on",      "foot",  "alarm"};

struct Inputs {
  /// Encoded calls, prefill then writer order; id = index + 1. Kept encoded
  /// (a quarter of the size of a Document) for the read checks.
  std::vector<std::string> docs;
  std::vector<metro::geo::LatLon> where;  ///< each call's location
  std::vector<Ns> write_due, get_due, panel_due;
  std::vector<std::uint64_t> get_age;  ///< age rank behind the newest id
  std::vector<metro::geo::LatLon> panel_center;
  std::vector<std::uint64_t> scan_age;
  std::vector<std::uint64_t> warmup_age;
};

/// Age behind the newest id, log-uniform over [0, n): density ~ 1/age, so
/// most reads hit recent ids and the rest spread over the whole history.
std::uint64_t RecentSkewedAge(std::size_t n, metro::Rng& rng) {
  return std::uint64_t(std::pow(double(n), rng.UniformDouble())) - 1;
}

std::string RowKey(std::size_t index) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "c%012zu", index + 1);
  return buf;
}

std::string CellValue(std::size_t index, int column) {
  char buf[80];
  std::snprintf(buf, sizeof(buf),
                "annotation %d of call %zu: reviewed by dispatch", column,
                index + 1);
  return buf;
}

Inputs BuildInputs(const PhaseArgs& args) {
  metro::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 37);
  Inputs in;
  in.write_due = JitteredSchedule(kWriteRate, args.duration, rng);
  in.get_due = JitteredSchedule(kGetRate, args.duration, rng);
  in.panel_due = JitteredSchedule(kPanelRate, args.duration, rng);
  metro::datagen::CityDataGenerator city({}, rng.NextU64());
  const std::size_t total = kPrefillCalls + in.write_due.size();
  in.docs.reserve(total);
  in.where.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto call = city.GenerateCall(Ns(i) * kMs);
    Document doc = metro::datagen::CityDataGenerator::ToDocument(call);
    in.where.push_back(call.location);
    std::string narrative;
    for (int w = 0; w < kNarrativeWords; ++w) {
      if (w) narrative += ' ';
      narrative += kWords[rng.UniformU64(std::size(kWords))];
    }
    doc["narrative"] = std::move(narrative);
    in.docs.push_back(metro::store::EncodeDocument(doc));
  }
  const std::size_t visible = kPrefillCalls;
  for (std::size_t i = 0; i < in.get_due.size(); ++i) {
    in.get_age.push_back(RecentSkewedAge(visible, rng));
  }
  for (std::size_t i = 0; i < in.panel_due.size(); ++i) {
    in.panel_center.push_back({metro::datagen::kBatonRouge.lat + rng.Normal(0, 0.05),
                               metro::datagen::kBatonRouge.lon + rng.Normal(0, 0.05)});
    in.scan_age.push_back(RecentSkewedAge(visible, rng));
  }
  for (std::size_t i = 0; i < kWarmupReads; ++i) {
    in.warmup_age.push_back(RecentSkewedAge(visible, rng));
  }
  return in;
}

/// Writes due by `offset` into the round (the writer's schedule), so a read
/// targets the same id in every run with this seed.
std::size_t WritesDueBy(const std::vector<Ns>& write_due, Ns offset) {
  return std::size_t(std::upper_bound(write_due.begin(), write_due.end(),
                                      offset) -
                     write_due.begin());
}

}  // namespace

std::uint64_t DashboardInputDigest(const PhaseArgs& args) {
  const Inputs in = BuildInputs(args);
  Digest d;
  for (const std::string& doc : in.docs) d.AddString(doc);
  for (const auto* v : {&in.write_due, &in.get_due, &in.panel_due}) {
    for (const Ns due : *v) d.AddPod(due);
  }
  for (const auto* v : {&in.get_age, &in.scan_age, &in.warmup_age}) {
    for (const auto age : *v) d.AddPod(age);
  }
  for (const auto& c : in.panel_center) {
    d.AddPod(c.lat);
    d.AddPod(c.lon);
  }
  return d.value();
}

int RunDashboard(const PhaseArgs& args) {
  const Ns setup_start = NowNs();
  RoundOutput out(args.out_dir);
  const Inputs in = BuildInputs(args);
  const bool trace = args.trace;

  metro::store::Collection calls("calls");
  metro::store::WideColumnTable notes("annotations");
  if (!calls.CreateIndex("category").ok() ||
      !calls.CreateGeoIndex("lat", "lon").ok()) {
    std::fprintf(stderr, "dashboard: index creation failed\n");
    return 1;
  }
  for (std::size_t i = 0; i < kPrefillCalls; ++i) {
    auto doc = metro::store::DecodeDocument(in.docs[i]);
    if (!doc || calls.Insert(*std::move(doc)) != DocId(i + 1) ||
        !notes.Put(RowKey(i), "note", CellValue(i, 0)).ok()) {
      std::fprintf(stderr, "dashboard: prefill failed at %zu\n", i);
      return 1;
    }
  }
  (void)notes.MaybeSplitRegions();
  for (const std::uint64_t age : in.warmup_age) {
    (void)calls.FindById(DocId(kPrefillCalls - age));
  }

  const std::size_t n_writes = in.write_due.size();
  // The writer moves its documents in; in.docs keeps the originals the
  // checks compare against.
  std::vector<Document> to_write;
  for (std::size_t i = kPrefillCalls; i < in.docs.size(); ++i) {
    auto doc = metro::store::DecodeDocument(in.docs[i]);
    if (!doc) {
      std::fprintf(stderr, "dashboard: call %zu does not decode\n", i);
      return 1;
    }
    to_write.push_back(*std::move(doc));
  }
  const std::size_t n_gets = in.get_due.size();
  const std::size_t n_panels = in.panel_due.size();
  std::atomic<std::size_t> published{kPrefillCalls};
  std::vector<Ns> write_lat, get_lat, panel_lat;
  std::vector<Ns> late_w, late_g, late_p;
  write_lat.reserve(n_writes);
  get_lat.reserve(n_gets);
  panel_lat.reserve(n_panels);
  late_w.reserve(n_writes);
  late_g.reserve(n_gets);
  late_p.reserve(n_panels);
  SpanLog write_spans(trace ? n_writes * 3 : 0);
  SpanLog get_spans(trace ? n_gets * 2 : 0);
  SpanLog panel_spans(trace ? n_panels * 3 : 0);
  std::vector<std::size_t> get_target(n_gets);
  std::vector<std::uint8_t> get_ok(n_gets, 0);
  std::int64_t write_failures = 0;
  std::size_t l0_max = 0;
  std::int64_t geo_hits = 0;
  Ns panel_cpu = 0;  // the panel thread's CPU time inside the panels
  struct PanelCheck {
    std::size_t panel = 0;
    std::size_t before = 0, after = 0;  ///< published docs around the query
    std::size_t scan_begin = 0;
    std::vector<DocId> ids;
    std::vector<metro::store::Cell> cells;
  };
  std::vector<PanelCheck> panel_checks;
  panel_checks.reserve(n_panels / kCheckEveryPanel + 1);

  const auto stats0 = calls.engine().Stats();
  const auto cache0 = calls.engine().block_cache()->GetStats();
  const Ns setup_ns = NowNs() - setup_start;
  const Ns t0 = NowNs() + 5 * kMs;
  constexpr std::uint64_t kPanelTrace = 1ULL << 40;
  constexpr std::uint64_t kWriteTrace = 2ULL << 40;

  std::thread writer([&] {
    UseFineTimerSlack();
    for (std::size_t k = 0; k < n_writes; ++k) {
      const Ns due = t0 + in.write_due[k];
      if (WaitUntil(due)) late_w.push_back(NowNs() - due);
      const std::size_t index = kPrefillCalls + k;
      const Ns i0 = NowNs();
      const DocId id = calls.Insert(std::move(to_write[k]));
      const Ns i1 = NowNs();
      const bool ok = id == DocId(index + 1) &&
                      notes.Put(RowKey(index), "note", CellValue(index, 0)).ok() &&
                      notes.Put(RowKey(index), "status", CellValue(index, 1)).ok();
      const Ns done = NowNs();
      if (!ok) ++write_failures;
      published.store(index + 1, std::memory_order_release);
      write_lat.push_back(done - due);
      if (trace) {
        if (k % 64 == 0) {
          const auto levels = calls.engine().Stats().level_tables;
          if (!levels.empty()) l0_max = std::max(l0_max, levels[0]);
        }
        write_spans.Add(kWriteTrace + k, kDashWrite, kNoParent, due, done);
        write_spans.Add(kWriteTrace + k, kStoreDocInsert, kDashWrite, i0, i1);
        write_spans.Add(kWriteTrace + k, kStoreCellPut, kDashWrite, i1, done);
      }
    }
  });

  std::thread reader([&] {
    UseFineTimerSlack();
    std::vector<Document> got(n_gets);
    for (std::size_t i = 0; i < n_gets; ++i) {
      const Ns due = t0 + in.get_due[i];
      if (WaitUntil(due)) late_g.push_back(NowNs() - due);
      const Ns start = NowNs();
      const std::size_t newest =
          kPrefillCalls + WritesDueBy(in.write_due, in.get_due[i]);
      const std::size_t visible =
          std::min(newest, published.load(std::memory_order_acquire));
      const std::size_t target =
          visible - 1 - std::min<std::size_t>(in.get_age[i], visible - 1);
      auto doc = calls.FindById(DocId(target + 1));
      const Ns done = NowNs();
      get_lat.push_back(done - due);
      if (trace) {
        get_spans.Add(i, kDashGet, kNoParent, due, done);
        get_spans.Add(i, kStoreGet, kDashGet, start, done);
      }
      get_target[i] = target;
      if (doc.ok()) {
        get_ok[i] = 1;
        got[i] = *std::move(doc);
      }
    }
    // Checked after timing: the read returned the exact document inserted.
    for (std::size_t i = 0; i < n_gets; ++i) {
      if (get_ok[i] &&
          metro::store::EncodeDocument(got[i]) != in.docs[get_target[i]]) {
        get_ok[i] = 0;
      }
    }
  });

  std::thread panels([&] {
    UseFineTimerSlack();
    for (std::size_t j = 0; j < n_panels; ++j) {
      const Ns due = t0 + in.panel_due[j];
      if (WaitUntil(due)) late_p.push_back(NowNs() - due);
      const Ns cpu0 = ThreadCpuNs();
      const Ns start = NowNs();
      const std::size_t before = published.load(std::memory_order_acquire);
      metro::store::Query query;
      query.near_center = in.panel_center[j];
      query.near_radius_m = kPanelRadiusM;
      std::vector<DocId> ids = calls.Find(query);
      const Ns f1 = NowNs();
      const std::size_t scan_begin =
          before - 1 - std::min<std::size_t>(in.scan_age[j], before - 1);
      auto cells = notes.Scan(RowKey(scan_begin), RowKey(scan_begin + kScanRows));
      const Ns done = NowNs();
      panel_cpu += ThreadCpuNs() - cpu0;
      const std::size_t after = published.load(std::memory_order_acquire);
      panel_lat.push_back(done - due);
      geo_hits += std::int64_t(ids.size());
      if (trace) {
        panel_spans.Add(kPanelTrace + j, kDashPanel, kNoParent, due, done);
        panel_spans.Add(kPanelTrace + j, kStoreGeoFind, kDashPanel, start, f1);
        panel_spans.Add(kPanelTrace + j, kStoreScan, kDashPanel, f1, done);
      }
      if (j % kCheckEveryPanel == 0) {
        panel_checks.push_back(
            {j, before, after, scan_begin, std::move(ids), std::move(cells)});
      }
    }
  });
  writer.join();
  reader.join();
  panels.join();
  const auto stats1 = calls.engine().Stats();
  const auto cache1 = calls.engine().block_cache()->GetStats();

  // Correctness.
  if (write_failures > 0) {
    out.Fail(std::to_string(write_failures) + " writes failed");
  }
  std::int64_t bad_gets = 0;
  for (std::size_t i = 0; i < n_gets; ++i) bad_gets += get_ok[i] ? 0 : 1;
  if (bad_gets > 0) {
    for (std::int64_t i = 0; i < bad_gets; ++i) {
      out.Fail("FindById returned a wrong or missing document");
    }
  }
  for (const PanelCheck& check : panel_checks) {
    const auto& center = in.panel_center[check.panel];
    // Ids the query may return: every matching doc published before it
    // started must be there; one published while it ran may be.
    std::size_t next = 0;
    bool ok = true;
    for (std::size_t index = 0; index <= check.after && index < in.docs.size();
         ++index) {
      const bool match =
          metro::geo::HaversineMeters(center, in.where[index]) <= kPanelRadiusM;
      const bool present =
          next < check.ids.size() && check.ids[next] == DocId(index + 1);
      if (present) ++next;
      if (match && index < check.before && !present) ok = false;
      if (present && !match) ok = false;
    }
    if (next != check.ids.size()) ok = false;
    // Annotation scan: every cell written before the panel started, with
    // its exact value, in (row, column) order.
    std::vector<std::pair<std::string, std::string>> expected;
    for (std::size_t index = check.scan_begin;
         index < check.scan_begin + kScanRows && index < check.before;
         ++index) {
      expected.emplace_back(RowKey(index), "note");
      if (index >= kPrefillCalls) expected.emplace_back(RowKey(index), "status");
    }
    std::size_t e = 0;
    for (const auto& cell : check.cells) {
      if (e < expected.size() && cell.row == expected[e].first &&
          cell.column == expected[e].second) {
        const std::size_t index = std::stoull(cell.row.substr(1)) - 1;
        if (cell.value != CellValue(index, cell.column == "note" ? 0 : 1)) {
          ok = false;
        }
        ++e;
      }
    }
    if (e != expected.size()) ok = false;
    if (!ok) out.Fail("panel " + std::to_string(check.panel) +
                      " differs from the brute-force filter");
  }

  std::vector<Ns> late = late_w;
  late.insert(late.end(), late_g.begin(), late_g.end());
  late.insert(late.end(), late_p.begin(), late_p.end());
  out.Samples("dash_get", get_lat);
  out.Samples("dash_panel", panel_lat);
  out.Samples("dash_write", write_lat);
  out.Samples("gen_late.dash", late);
  const double hits = double(cache1.hits - cache0.hits);
  const double misses = double(cache1.misses - cache0.misses);
  const double engine_gets = double(n_gets) + double(geo_hits);
  out.Counter("setup_s", double(setup_ns) / double(kSec));
  out.Counter("peak_rss_kb", double(PeakRssKb()));
  out.Counter("cpu_us_per_request",
              n_panels ? double(panel_cpu) / double(kUs) / double(n_panels)
                       : 0);
  out.Counter("store.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0);
  out.Counter("store.cache_evictions",
              double(cache1.evictions - cache0.evictions));
  out.Counter("store.bloom_skips_per_get",
              double(stats1.bloom_skips - stats0.bloom_skips) / engine_gets);
  out.Counter("store.fence_skips_per_get",
              double(stats1.fence_skips - stats0.fence_skips) / engine_gets);
  out.Counter("store.geo_hits_per_query",
              n_panels ? double(geo_hits) / double(n_panels) : 0);
  out.Counter("store.dash.seals", double(stats1.seals - stats0.seals));
  out.Counter("store.dash.compactions",
              double(stats1.compactions - stats0.compactions));
  out.Counter("store.dash.write_stall_ms",
              double(stats1.write_stall_ns - stats0.write_stall_ns) /
                  double(kMs));
  if (trace) {
    out.Counter("store.dash.l0_tables.max", double(l0_max));
    out.Spans({&write_spans, &get_spans, &panel_spans});
  }
  return out.Finish(std::int64_t(n_writes + n_gets + n_panels)) ? 0 : 1;
}

}  // namespace perfbench
