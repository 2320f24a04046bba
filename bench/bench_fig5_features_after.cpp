// Fig 5 — job features after node conflation: the same per-size-group
// features as Fig 4, computed on the conflated DAGs.
//
// Paper shape to reproduce: the distribution shifts toward smaller groups
// while per-group critical paths are preserved (conflation merges parallel
// clones, never serial stages).

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/common.hpp"
#include "core/characterization.hpp"
#include "core/report_text.hpp"
#include "graph/algorithms.hpp"

using namespace cwgl;

namespace {

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("Fig 5", "job features after node conflation");
  const auto sample = bench::make_experiment_set();
  std::vector<core::JobDag> conflated;
  conflated.reserve(sample.size());
  std::size_t depth_preserved = 0;
  for (const auto& job : sample) {
    conflated.push_back(core::conflate_job(job));
    depth_preserved += graph::critical_path_length(conflated.back().dag) ==
                       graph::critical_path_length(job.dag);
  }
  const auto report = core::StructuralReport::compute(
      conflated, bench::unit_counts(conflated.size()));
  core::print_structural_report(std::cout, report,
                                "Fig 5: job features after node conflation");
  std::cout << "\njobs whose critical path survived conflation: "
            << depth_preserved << "/" << sample.size() << "\n";
}

void BM_ConflateThenFeatures(benchmark::State& state) {
  const auto sample = bench::make_experiment_set();
  for (auto _ : state) {
    std::vector<core::JobDag> conflated;
    conflated.reserve(sample.size());
    for (const auto& job : sample) conflated.push_back(core::conflate_job(job));
    benchmark::DoNotOptimize(core::StructuralReport::compute(
        conflated, bench::unit_counts(conflated.size())));
  }
}
BENCHMARK(BM_ConflateThenFeatures)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("fig5_features_after");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
