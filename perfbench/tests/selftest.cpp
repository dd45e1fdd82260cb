// The benchmark's own checks: tail-percentile selection and sample counts,
// the frame ledger under an injected digest mismatch, and the metric-name
// charset. Runs every check; exits non-zero when any failed.
//
//   perfbench_selftest --out DIR

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted
  return v;
}

void tail_selection() {
  using perfbench::tail_percentile;
  check(!tail_percentile(ramp(19)).has_value(),
        "19 samples: no percentile leaves 10 beyond it");

  const auto t20 = tail_percentile(ramp(20));
  check(t20 && t20->percentile == 50.0 && t20->value == 10.0 &&
            t20->beyond == 10 && t20->samples == 20,
        "20 samples: p50 = 10th value, 10 beyond");

  const auto t40 = tail_percentile(ramp(40));
  check(t40 && t40->percentile == 75.0 && t40->value == 30.0 && t40->beyond == 10,
        "40 samples: p75 = 30th value, 10 beyond");

  const auto t100 = tail_percentile(ramp(100));
  check(t100 && t100->percentile == 90.0 && t100->value == 90.0 &&
            t100->beyond == 10 && t100->samples == 100,
        "100 samples: p90, 10 beyond");

  const auto t1000 = tail_percentile(ramp(1000));
  check(t1000 && t1000->percentile == 99.0 && t1000->value == 990.0 &&
            t1000->beyond == 10,
        "1000 samples: p99, 10 beyond");

  const auto t150 = tail_percentile(ramp(150));
  check(t150 && t150->percentile == 90.0 && t150->value == 135.0 &&
            t150->beyond == 15,
        "150 samples: p90 (p95 would leave 7), 15 beyond");

  check(perfbench::median({3.0, 1.0, 2.0}) == 2.0 &&
            perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5,
        "median of odd and even counts");
}

void metric_names() {
  using perfbench::valid_metric_name;
  check(valid_metric_name("frames_per_s") && valid_metric_name("exec.Ra.busy_s") &&
            valid_metric_name("io.cache_hit_ratio") &&
            valid_metric_name("trace.overhead_pct") && valid_metric_name("9-a_b.c"),
        "names of letters, digits, _ . - are accepted");
  check(!valid_metric_name("") && !valid_metric_name("_lead") &&
            !valid_metric_name(".lead") && !valid_metric_name("has space") &&
            !valid_metric_name("slash/name") && !valid_metric_name("quote\"") &&
            !valid_metric_name("pct%") && !valid_metric_name(std::string(65, 'a')),
        "malformed names are rejected");
  check(valid_metric_name(std::string(64, 'a')), "64-character name is accepted");
  check(perfbench::valid_unit("1/s") && perfbench::valid_unit("%") &&
            perfbench::valid_unit("bytes/frame") && !perfbench::valid_unit("") &&
            !perfbench::valid_unit("per frame") &&
            !perfbench::valid_unit(std::string(17, 's')),
        "unit charset and length");

  perfbench::Report r;
  bool threw = false;
  try {
    r.set("bad name", 1.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "Report rejects a malformed name");
  r.set("x", 1.0, "s");
  threw = false;
  try {
    r.set("x", 2.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "Report rejects a repeated name");
  threw = false;
  try {
    r.set("y", std::nan(""), "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "Report rejects a non-finite value");
  perfbench::FrameLedger ledger;
  ledger.record(true, 5, 5);
  check(r.result_json(true, ledger) ==
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": "
            "{\"x\": {\"value\": 1, \"unit\": \"s\"}}}",
        "result line has exactly correct, attempted, failed, metrics");
}

void frame_ledger() {
  perfbench::FrameLedger l;
  l.record(true, 7, 7);
  l.record(true, 7, 8);   // digest mismatch
  l.record(false, 7, 7);  // status not OK
  l.record(true, 9, 9);
  check(l.attempted == 4 && l.failed == 2 && l.failed_frac() == 0.5,
        "ledger: a mismatch and a bad status fail 2 of 4 frames");
  l.record_lost(4);
  check(l.attempted == 8 && l.failed == 6, "ledger: lost frames count as failed");
}

/// A real render with one corrupted reference. The shortest run renders 5
/// batches of 4 frames, fields 0, 1, 2, 3, 0; entry 3 is field 0's last
/// frame, so exactly 2 of its 20 frames fail.
void injected_mismatch(const std::string& out_dir) {
  perfbench::RunOptions o;
  o.workload = "synth_ap_native";
  o.seed = 1;
  o.seconds = 0.05;
  o.out_dir = out_dir + "/selftest_mismatch";
  o.corrupt_reference_entry = 3;
  const perfbench::RunResult res = perfbench::run_workload(o);
  check(res.frames.attempted == 20, "injected mismatch: 20 frames attempted");
  check(res.frames.failed == 2 && res.frames.failed_frac() == 0.1,
        "injected mismatch: failed_frame_frac is exactly 2/20");
  check(!res.correct(), "injected mismatch: the run is not correct");

  o.corrupt_reference_entry = -1;
  o.out_dir = out_dir + "/selftest_clean";
  const perfbench::RunResult clean = perfbench::run_workload(o);
  check(clean.frames.attempted == 20 && clean.frames.failed == 0 &&
            clean.correct(),
        "same run without injection: every frame matches its reference");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "--out") {
    std::fprintf(stderr, "usage: perfbench_selftest --out DIR\n");
    return 2;
  }
  tail_selection();
  metric_names();
  frame_ledger();
  injected_mismatch(argv[2]);
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
