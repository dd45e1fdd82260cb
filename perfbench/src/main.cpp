// End-to-end benchmark of the isosurface render.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Renders the named workload closed loop (one outstanding frame) for S
// seconds of frame time and checks every frame against a reference render.
// --trace 0 prints the end-to-end metrics; --trace 1 the per-layer metrics.
// Scratch data and trace files go under DIR. The last stdout line is the
// result: {"correct", "attempted", "failed", "metrics"}. Exit code 0 when a
// result was printed, 2 on bad arguments, 1 when the run itself failed.

#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\nworkloads:");
  for (const std::string& n : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
}

perfbench::RunOptions parse(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_workload = false, have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(v);
      if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--out") {
      o.out_dir = v;
      have_out = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_out) {
    throw std::invalid_argument("--workload and --out are required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  try {
    opts = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    usage();
    return 2;
  }

  const perfbench::HostFingerprint host = perfbench::host_fingerprint();
  if (!host.release()) {
    std::printf("WARNING: not a Release build (%s); timings are not comparable\n",
                host.build_type.c_str());
  }
  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }

  const bool correct = res.correct();
  const std::string result = res.report.result_json(correct, res.frames);
  std::printf("host: %s\n", host.to_json().c_str());
  std::printf("workload %s seed %llu trace %d: %llu frames attempted, %llu "
              "failed (failed_frame_frac %.6f)\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.trace ? 1 : 0,
              static_cast<unsigned long long>(res.frames.attempted),
              static_cast<unsigned long long>(res.frames.failed),
              res.frames.failed_frac());
  for (const std::string& n : res.notes) std::printf("%s\n", n.c_str());
  for (const std::string& e : res.errors) std::printf("ERROR: %s\n", e.c_str());

  // The result and the host it was measured on, kept with the run's files.
  std::ofstream record(opts.out_dir + "/result.json");
  record << "{\"workload\": \"" << opts.workload << "\", \"seed\": " << opts.seed
         << ", \"trace\": " << (opts.trace ? 1 : 0)
         << ", \"host\": " << host.to_json() << ", \"result\": " << result
         << "}\n";

  std::printf("%s\n", result.c_str());
  return 0;
}
