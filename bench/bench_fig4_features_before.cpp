// Fig 4 — job features before node conflation: per size group, the job
// count, the maximum critical path, and the maximum width.
//
// Paper shape to reproduce: counts decay as size grows; the maximum critical
// path does NOT grow linearly with size (it stays in a 2..8 band); width is
// positively correlated with size, up to the 30-of-31-parallel extreme.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/common.hpp"
#include "core/characterization.hpp"
#include "core/report_text.hpp"
#include "graph/algorithms.hpp"
#include "util/stats.hpp"

using namespace cwgl;

namespace {

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("Fig 4", "job features before node conflation");
  const auto sample = bench::make_experiment_set();
  const auto report = core::StructuralReport::compute(
      sample, bench::unit_counts(sample.size()));
  core::print_structural_report(std::cout, report,
                                "Fig 4: job features before node conflation");

  // The paper's side observations, measured:
  std::vector<double> sizes, widths, depths;
  for (const auto& job : sample) {
    sizes.push_back(job.size());
    widths.push_back(graph::max_width(job.dag));
    depths.push_back(graph::critical_path_length(job.dag));
  }
  std::cout << "\ncorrelation(size, max width)         = "
            << util::pearson(sizes, widths)
            << "  (paper: quite positively correlated)\n";
  std::cout << "correlation(size, critical path)     = "
            << util::pearson(sizes, depths)
            << "  (paper: does not increase linearly)\n";
  const auto depth_stats = util::describe(depths);
  std::cout << "critical path range: " << depth_stats.min << ".."
            << depth_stats.max << "  (paper: 2..8)\n";
}

void BM_StructuralFeatures(benchmark::State& state) {
  const auto sample = bench::make_experiment_set();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::StructuralReport::compute(
        sample, bench::unit_counts(sample.size())));
  }
}
BENCHMARK(BM_StructuralFeatures)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("fig4_features_before");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
