// A3 — ablation: node conflation on/off ahead of graph learning.
//
// The paper conflates to "improve the efficiency of estimating the DAG
// job's structure". This bench measures both halves of that claim on the
// same experiment set: how much smaller the kernels' inputs get (and the
// gram-matrix build speedup), and how much the clustering changes (ARI
// between raw and conflated pipelines).

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/common.hpp"
#include "cluster/metrics.hpp"
#include "core/clustering.hpp"
#include "core/similarity.hpp"
#include "util/strings.hpp"
#include "obs/stopwatch.hpp"

using namespace cwgl;

namespace {

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("A3", "ablation: conflation on/off before graph learning");
  const auto sample = bench::make_experiment_set();
  std::vector<core::JobDag> conflated;
  conflated.reserve(sample.size());
  std::size_t raw_vertices = 0, merged_vertices = 0;
  for (const auto& job : sample) {
    conflated.push_back(core::conflate_job(job));
    raw_vertices += static_cast<std::size_t>(job.size());
    merged_vertices += static_cast<std::size_t>(conflated.back().size());
  }
  std::cout << "kernel input vertices: raw " << raw_vertices << " -> conflated "
            << merged_vertices << " ("
            << util::format_double(
                   100.0 * (1.0 - static_cast<double>(merged_vertices) /
                                      static_cast<double>(raw_vertices)),
                   1)
            << "% reduction)\n";

  obs::Stopwatch timer;
  const auto raw_sim = core::SimilarityAnalysis::compute(sample);
  const double raw_ms = timer.millis();
  timer.reset();
  const auto merged_sim = core::SimilarityAnalysis::compute(conflated);
  const double merged_ms = timer.millis();

  const auto raw_clusters = core::ClusteringAnalysis::compute(
      raw_sim.gram, sample, bench::unit_counts(sample.size()), {});
  const auto merged_clusters = core::ClusteringAnalysis::compute(
      merged_sim.gram, conflated, bench::unit_counts(conflated.size()), {});
  const double ari = cluster::adjusted_rand_index(raw_clusters.labels,
                                                  merged_clusters.labels);

  std::cout << "gram build: raw " << util::format_double(raw_ms, 2)
            << " ms, conflated " << util::format_double(merged_ms, 2)
            << " ms\n";
  std::cout << "clustering agreement raw vs conflated (ARI): "
            << util::format_double(ari, 3) << "\n";
  std::cout << "silhouette: raw "
            << util::format_double(raw_clusters.silhouette, 3) << ", conflated "
            << util::format_double(merged_clusters.silhouette, 3) << "\n";
}

void BM_SimilarityRaw(benchmark::State& state) {
  const auto sample = bench::make_experiment_set();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SimilarityAnalysis::compute(sample));
  }
}
BENCHMARK(BM_SimilarityRaw)->Unit(benchmark::kMillisecond);

void BM_SimilarityConflated(benchmark::State& state) {
  const auto sample = bench::make_experiment_set();
  std::vector<core::JobDag> conflated;
  for (const auto& job : sample) conflated.push_back(core::conflate_job(job));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SimilarityAnalysis::compute(conflated));
  }
}
BENCHMARK(BM_SimilarityConflated)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("ablation_conflation");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
