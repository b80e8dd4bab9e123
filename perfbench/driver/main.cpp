// City benchmark driver: runs one round of one city path in this process.
//
//   perfbench_driver --phase ingest|camera|dashboard --seed N
//                    --duration-ms D --trace 0|1 --out DIR
//   perfbench_driver --digest --phase ... --seed N --duration-ms D
//
// The first form leaves the round's samples, spans and counters in DIR; the
// second prints a digest of the inputs the seed generates.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "driver/phases.h"

int main(int argc, char** argv) {
  perfbench::PhaseArgs args;
  std::string phase;
  bool digest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--digest") {
      digest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--phase") {
      phase = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--duration-ms") {
      args.duration = perfbench::Ns(std::atof(value) * double(perfbench::kMs));
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.duration <= 0 || (!digest && args.out_dir.empty())) {
    std::fprintf(stderr, "need --duration-ms > 0 and --out\n");
    return 2;
  }
  if (digest) {
    std::uint64_t d = 0;
    if (phase == "ingest") {
      d = perfbench::IngestInputDigest(args);
    } else if (phase == "camera") {
      d = perfbench::CameraInputDigest(args);
    } else if (phase == "dashboard") {
      d = perfbench::DashboardInputDigest(args);
    } else {
      std::fprintf(stderr, "unknown phase '%s'\n", phase.c_str());
      return 2;
    }
    std::printf("%016llx\n", static_cast<unsigned long long>(d));
    return 0;
  }
  if (phase == "ingest") return perfbench::RunIngest(args);
  if (phase == "camera") return perfbench::RunCamera(args);
  if (phase == "dashboard") return perfbench::RunDashboard(args);
  std::fprintf(stderr, "unknown phase '%s'\n", phase.c_str());
  return 2;
}
