#pragma once

// The benchmark's workloads. Each renders the same synthetic dataset (a 96^3
// grid in 512 chunks) through one engine, closed loop with one outstanding
// frame, and checks every frame's image digest against a single-threaded
// reference render made outside all timed regions.

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measured rendering time per run
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  std::string out_dir;    ///< scratch + artifacts (store, spill, traces)
  /// Test hook: corrupts the reference digest of this cycle entry, so every
  /// frame that renders it fails (-1: none).
  int corrupt_reference_entry = -1;
};

struct RunResult {
  Report report;
  FrameLedger frames;
  std::vector<std::string> notes;   ///< human-readable lines for stdout
  std::vector<std::string> errors;  ///< anything that went wrong

  [[nodiscard]] bool correct() const {
    return errors.empty() && frames.attempted > 0 && frames.failed == 0;
  }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload. Throws std::invalid_argument on an unknown name.
[[nodiscard]] RunResult run_workload(const RunOptions& opts);

}  // namespace perfbench
