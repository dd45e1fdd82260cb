#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<Tail> tail_percentile(std::vector<double> samples,
                                    std::size_t min_beyond) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest rank: the smallest rank covering p percent of the samples.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank == 0 || rank > n || n - rank < min_beyond) continue;
    return Tail{p, samples[rank - 1], n - rank, n};
  }
  return std::nullopt;
}

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

std::string escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Every significant digit, so the value round-trips exactly.
std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char c0 = name.front();
  if (!((c0 >= 'a' && c0 <= 'z') || (c0 >= 'A' && c0 <= 'Z') ||
        (c0 >= '0' && c0 <= '9'))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return name_char(c) || c == '/' || c == '%'; });
}

void Report::set(const std::string& name, double value, const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("malformed metric name: " + name);
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument("malformed unit for " + name + ": " + unit);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for metric " + name);
  }
  if (has(name)) throw std::invalid_argument("metric set twice: " + name);
  entries_.push_back(Entry{name, value, unit});
}

bool Report::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

std::string Report::result_json(bool correct, const FrameLedger& frames) const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(frames.attempted);
  s += ", \"failed\": " + std::to_string(frames.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) s += ", ";
    s += "\"" + e.name + "\": {\"value\": " + json_number(e.value) +
         ", \"unit\": \"" + e.unit + "\"}";
  }
  s += "}}";
  return s;
}

std::string HostFingerprint::to_json() const {
  return "{\"hardware_threads\": " + std::to_string(hardware_threads) +
         ", \"cpu_model\": \"" + escape(cpu_model) + "\", \"compiler\": \"" +
         escape(compiler) + "\", \"build_type\": \"" + escape(build_type) +
         "\", \"release\": " + (release() ? "true" : "false") + "}";
}

HostFingerprint host_fingerprint() {
  HostFingerprint h;
  h.hardware_threads = std::thread::hardware_concurrency();
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // stop at the first NUL
    const auto first = brand.find_first_not_of(' ');
    h.cpu_model = first == std::string::npos ? "" : brand.substr(first);
  }
#endif
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  // An optimized build type with assertions compiled in is not a Release
  // build either.
  if (h.build_type == "Release") h.build_type = "Release+asserts";
#endif
  return h;
}

double Spans::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Spans::begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  open_.push_back(static_cast<int>(spans_.size()));
  spans_.push_back(Span{name, parent, now(), 0.0});
}

void Spans::end() {
  spans_[static_cast<std::size_t>(open_.back())].t1 = now();
  open_.pop_back();
}

std::map<std::string, double> Spans::self_s() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].t1 - spans_[i].t0;
  }
  // Children nest inside their parent on one thread, so the part of the
  // parent's interval they cover is the sum of their durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

bool Spans::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  i ? ",\n" : "\n", s.name, s.t0 * 1e6, (s.t1 - s.t0) * 1e6);
    f << buf;
  }
  f << "\n]}\n";
  f.close();
  return static_cast<bool>(f);
}

}  // namespace perfbench
