// A7 — baseline: resource-statistics k-means (related work [14]) vs the
// paper's topology-based spectral clustering.
//
// The paper's thesis is that topology carries grouping signal that resource
// statistics miss. We measure both clusterings on the same experiment set:
// mutual agreement (ARI/NMI), and which one yields structurally purer
// groups (normalized within-group dispersion of critical path and width —
// lower is purer).
//
// Expected shape: low mutual agreement (they capture different signals);
// topology clustering is far purer structurally.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/common.hpp"
#include "cluster/metrics.hpp"
#include "core/baseline.hpp"
#include "core/clustering.hpp"
#include "core/similarity.hpp"
#include "util/strings.hpp"

using namespace cwgl;

namespace {

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("A7", "resource-feature k-means [14] vs topology clustering");
  const auto sample = bench::make_experiment_set();
  util::ThreadPool pool;
  const auto similarity = core::SimilarityAnalysis::compute(sample, {}, &pool);
  const auto topology = core::ClusteringAnalysis::compute(
      similarity.gram, sample, bench::unit_counts(sample.size()), {});
  const auto resource = core::resource_kmeans(sample, 5);

  std::cout << "agreement topology vs resource clustering: ARI "
            << util::format_double(
                   cluster::adjusted_rand_index(topology.labels, resource.labels), 3)
            << ", NMI "
            << util::format_double(cluster::normalized_mutual_information(
                                       topology.labels, resource.labels),
                                   3)
            << "\n\n";

  std::cout << util::pad_right("clustering", 14)
            << util::pad_left("disp(critical path)", 21)
            << util::pad_left("disp(max width)", 17) << "   (lower = purer)\n";
  std::cout << util::pad_right("topology", 14)
            << util::pad_left(
                   util::format_double(
                       core::structural_dispersion(sample, topology.labels, false), 3),
                   21)
            << util::pad_left(
                   util::format_double(
                       core::structural_dispersion(sample, topology.labels, true), 3),
                   17)
            << "\n";
  std::cout << util::pad_right("resource[14]", 14)
            << util::pad_left(
                   util::format_double(
                       core::structural_dispersion(sample, resource.labels, false), 3),
                   21)
            << util::pad_left(
                   util::format_double(
                       core::structural_dispersion(sample, resource.labels, true), 3),
                   17)
            << "\n";
}

void BM_ResourceKmeans(benchmark::State& state) {
  const auto sample = bench::make_experiment_set();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::resource_kmeans(sample, 5));
  }
}
BENCHMARK(BM_ResourceKmeans)->Unit(benchmark::kMillisecond);

void BM_TopologyClustering(benchmark::State& state) {
  const auto sample = bench::make_experiment_set();
  for (auto _ : state) {
    const auto similarity = core::SimilarityAnalysis::compute(sample);
    benchmark::DoNotOptimize(
        core::ClusteringAnalysis::compute(
            similarity.gram, sample, bench::unit_counts(sample.size()), {}));
  }
}
BENCHMARK(BM_TopologyClustering)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("baseline_resource_kmeans");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
