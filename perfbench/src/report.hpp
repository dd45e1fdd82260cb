#pragma once

// Measurement bookkeeping of the end-to-end benchmark: timing statistics, the
// per-frame outcome ledger, the metric report and its JSON result line, the
// host fingerprint, and the in-memory span recorder of the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0 when
/// empty.
[[nodiscard]] double median(std::vector<double> v);

/// The reported tail of a timing sample: the highest candidate percentile
/// (99.9, 99, 95, 90, 75, 50) whose nearest-rank value still has at least
/// `min_beyond` samples above its rank.
struct Tail {
  double percentile = 0.0;  ///< e.g. 90 for p90
  double value = 0.0;       ///< the sample at that nearest rank
  std::size_t beyond = 0;   ///< samples ranked above it
  std::size_t samples = 0;  ///< sample count
};

/// Empty when even the median leaves fewer than `min_beyond` samples above
/// it (fewer than 2 * min_beyond samples).
[[nodiscard]] std::optional<Tail> tail_percentile(std::vector<double> samples,
                                                  std::size_t min_beyond = 10);

/// Outcome of every frame attempted: a frame fails when its engine status is
/// not OK or its image digest differs from the reference render's.
struct FrameLedger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool status_ok, std::uint64_t digest, std::uint64_t reference) {
    ++attempted;
    if (!status_ok || digest != reference) ++failed;
  }
  /// Frames attempted without a result to check (a batch that threw).
  void record_lost(std::uint64_t frames) {
    attempted += frames;
    failed += frames;
  }
  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// A metric name: starts with a letter or digit, at most 64 letters, digits,
/// '_', '.' and '-'.
[[nodiscard]] bool valid_metric_name(std::string_view name);
/// A unit: 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
[[nodiscard]] bool valid_unit(std::string_view unit);

/// Named metrics with units, in insertion order. set() throws
/// std::invalid_argument on a malformed name or unit, a repeated name, or a
/// non-finite value, so a bad metric can never reach the result line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;

  /// The benchmark's result line: exactly the keys correct, attempted,
  /// failed and metrics.
  [[nodiscard]] std::string result_json(bool correct,
                                        const FrameLedger& frames) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// What a result was measured on.
struct HostFingerprint {
  unsigned hardware_threads = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  [[nodiscard]] bool release() const { return build_type == "Release"; }
  [[nodiscard]] std::string to_json() const;
};
[[nodiscard]] HostFingerprint host_fingerprint();

/// Wall-clock spans recorded by the benchmark around its own calls into the
/// program's layers. Spans nest (begin/end pairs on one thread), stay in
/// memory, and are written once at exit.
class Spans {
 public:
  Spans() : epoch_(std::chrono::steady_clock::now()) {}

  /// RAII span, the only way to record one; a null recorder makes it free.
  class Scope {
   public:
    Scope(Spans* s, const char* name) : s_(s) {
      if (s_ != nullptr) s_->begin(name);
    }
    ~Scope() {
      if (s_ != nullptr) s_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* s_;
  };

  /// Self time per span name: each span's duration minus the part its
  /// direct children cover.
  [[nodiscard]] std::map<std::string, double> self_s() const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON (complete "X" events); false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  void begin(const char* name);
  void end();

  struct Span {
    const char* name;
    int parent;  ///< index of the enclosing span, -1 at top level
    double t0;
    double t1;
  };
  [[nodiscard]] double now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
