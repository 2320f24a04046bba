#pragma once

// Shared fixtures for the figure-reproduction benches. Every bench uses the
// same master seed so the printed "paper figure" tables are mutually
// consistent across binaries, and every bench emits a uniform
// BENCH_<name>.json (schema cwgl-bench-v1) via bench::Reporter so runs are
// comparable across commits with scripts/bench_diff.py.
//
// Environment knobs (all optional):
//   CWGL_BENCH_JOBS  caps every make_trace/make_experiment_set job count —
//                    check.sh's bench-smoke pass uses a tiny cap so the
//                    figures run in seconds on any box.
//   CWGL_BENCH_REPS  overrides each Reporter::time() rep count.
//   CWGL_BENCH_OUT   directory for BENCH_<name>.json (default: cwd).

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/stopwatch.hpp"
#include "trace/generator.hpp"

namespace cwgl::bench {

constexpr std::uint64_t kMasterSeed = 42;

/// Numeric environment knob with a default.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  return (end != nullptr && *end == '\0' && v > 0)
             ? static_cast<std::size_t>(v)
             : fallback;
}

/// Applies the CWGL_BENCH_JOBS cap (smoke runs shrink every figure).
inline std::size_t scaled_jobs(std::size_t num_jobs) {
  const std::size_t cap = env_size("CWGL_BENCH_JOBS", 0);
  return cap == 0 ? num_jobs : std::min(num_jobs, cap);
}

/// The synthetic stand-in for the paper's production trace.
inline trace::Trace make_trace(std::size_t num_jobs,
                               std::uint64_t seed = kMasterSeed,
                               bool instances = false) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_jobs = scaled_jobs(num_jobs);
  cfg.emit_instances = instances;
  return trace::TraceGenerator(cfg).generate();
}

/// The paper's 100-job experiment set drawn from a 20k-job trace.
inline std::vector<core::JobDag> make_experiment_set(
    std::size_t trace_jobs = 20000, std::size_t sample_size = 100) {
  const trace::Trace data = make_trace(trace_jobs);
  core::PipelineConfig cfg;
  cfg.sample_size = sample_size;
  return core::CharacterizationPipeline(cfg).build_sample(data);
}

/// Section header so `for b in bench/*; do $b; done` output reads as a
/// figure-by-figure report.
/// A count of 1 per job: the multiplicities to pass the count-weighted
/// reports (core::StructuralReport etc.) for a plain job list.
inline std::vector<std::uint64_t> unit_counts(std::size_t jobs) {
  return std::vector<std::uint64_t>(jobs, 1);
}

inline void banner(const char* experiment_id, const char* description) {
  std::cout << "\n############################################################\n"
            << "# " << experiment_id << ": " << description << "\n"
            << "############################################################\n";
}

/// Machine-readable result sink: one per bench binary. Collects named
/// metrics — rep series (median/p90/min/max over repetitions, timed with the
/// one obs::Stopwatch every bench shares) or plain scalars — and writes
/// BENCH_<name>.json on destruction:
///
///   {"schema": "cwgl-bench-v1", "bench": "<name>",
///    "machine": {"hardware_concurrency": N, "pointer_bits": 64,
///                "compiler": "...", "assertions": true|false},
///    "metrics": {"<metric>": {"unit": "ms", "reps": R,
///                             "median": .., "p90": .., "min": .., "max": ..}}}
///
/// scripts/bench_diff.py joins two such files on metric name and compares
/// medians.
class Reporter {
 public:
  explicit Reporter(std::string name) : name_(std::move(name)) {}
  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;
  ~Reporter() { write(); }

  /// Records a repetition series (values in `unit`).
  void series(const std::string& metric, std::vector<double> values,
              const std::string& unit = "ms") {
    if (values.empty()) return;
    std::sort(values.begin(), values.end());
    Metric m;
    m.name = metric;
    m.unit = unit;
    m.reps = values.size();
    m.min = values.front();
    m.max = values.back();
    m.median = values[(values.size() - 1) / 2];
    m.p90 = values[(values.size() - 1) * 9 / 10];
    upsert(std::move(m));
  }

  /// Records a scalar (a ratio, a count, a derived percentage).
  void set(const std::string& metric, double value,
           const std::string& unit = "ms") {
    series(metric, std::vector<double>{value}, unit);
  }

  /// Times `fn()` `reps` times (CWGL_BENCH_REPS overrides), records the
  /// series in milliseconds, and returns the median.
  template <typename Fn>
  double time(const std::string& metric, Fn&& fn, int reps = 3) {
    reps = static_cast<int>(env_size(
        "CWGL_BENCH_REPS", static_cast<std::size_t>(std::max(1, reps))));
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
      obs::Stopwatch watch;
      fn();
      samples.push_back(watch.millis());
    }
    std::sort(samples.begin(), samples.end());
    const double median = samples[(samples.size() - 1) / 2];
    series(metric, std::move(samples));
    return median;
  }

  /// Where the JSON lands ($CWGL_BENCH_OUT or cwd).
  std::string output_path() const {
    const char* dir = std::getenv("CWGL_BENCH_OUT");
    const std::string prefix =
        (dir == nullptr || *dir == '\0') ? std::string() : std::string(dir) + "/";
    return prefix + "BENCH_" + name_ + ".json";
  }

  /// Writes the JSON now (also called by the destructor; idempotent in
  /// effect — later writes just overwrite with the same or richer content).
  void write() const {
    std::ofstream out(output_path());
    if (!out) {
      std::cerr << "bench: cannot write " << output_path() << "\n";
      return;
    }
    out << "{\"schema\":\"cwgl-bench-v1\",\"bench\":\"" << name_ << "\",";
    out << "\"machine\":{\"hardware_concurrency\":"
        << std::thread::hardware_concurrency()
        << ",\"pointer_bits\":" << 8 * sizeof(void*) << ",\"compiler\":\""
#if defined(__VERSION__)
        << compiler_string()
#else
        << "unknown"
#endif
        << "\",\"assertions\":"
#if defined(NDEBUG)
        << "false"
#else
        << "true"
#endif
        << "},\"metrics\":{";
    bool first = true;
    for (const auto& m : metrics_) {
      if (!first) out << ",";
      first = false;
      out << "\"" << m.name << "\":{\"unit\":\"" << m.unit
          << "\",\"reps\":" << m.reps << ",\"median\":" << m.median
          << ",\"p90\":" << m.p90 << ",\"min\":" << m.min
          << ",\"max\":" << m.max << "}";
    }
    out << "}}\n";
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    std::size_t reps = 0;
    double median = 0.0;
    double p90 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  void upsert(Metric m) {
    for (auto& existing : metrics_) {
      if (existing.name == m.name) {
        existing = std::move(m);
        return;
      }
    }
    metrics_.push_back(std::move(m));
  }

  static std::string compiler_string() {
#if defined(__VERSION__)
    std::string v = __VERSION__;
    for (char& c : v) {
      if (c == '"' || c == '\\') c = ' ';
    }
    return v;
#else
    return "unknown";
#endif
  }

  std::string name_;
  std::vector<Metric> metrics_;
};

}  // namespace cwgl::bench
