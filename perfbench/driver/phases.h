#pragma once

// The three city paths the benchmark drives, one per process. Each phase
// builds its inputs from the seed before timing, runs one open-loop round on
// a due-time schedule fixed from round start, checks the program's outputs,
// and leaves its samples, spans and counters in a RoundOutput.

#include <cstdint>
#include <string>

#include "driver/common.h"

namespace perfbench {

struct PhaseArgs {
  std::uint64_t seed = 1;
  Ns duration = 2 * kSec;  ///< length of the arrival schedule
  bool trace = false;      ///< record spans around every call
  std::string out_dir;
};

/// Returns 0 when the round ran (even with failed operations, which the
/// output counts); non-zero when it could not run or write its output.
int RunIngest(const PhaseArgs& args);
int RunCamera(const PhaseArgs& args);
int RunDashboard(const PhaseArgs& args);

/// FNV-1a digest of everything the phase generates from the seed (schedules
/// and input pools), for the determinism self-test.
std::uint64_t IngestInputDigest(const PhaseArgs& args);
std::uint64_t CameraInputDigest(const PhaseArgs& args);
std::uint64_t DashboardInputDigest(const PhaseArgs& args);

/// Incremental FNV-1a.
class Digest {
 public:
  void Add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void AddPod(const T& v) {
    Add(&v, sizeof(v));
  }
  void AddString(const std::string& s) {
    AddPod(s.size());
    Add(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
