// Fig 8 — representative job DAGs of the five clustering groups.
//
// The paper displays one hand-picked job per group; we extract each group's
// medoid (most central member under the WL similarity) and print it in
// GraphViz form together with its structural signature.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/common.hpp"
#include "core/clustering.hpp"
#include "core/similarity.hpp"
#include "graph/algorithms.hpp"
#include "graph/dot.hpp"
#include "graph/patterns.hpp"

using namespace cwgl;

namespace {

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("Fig 8", "representative job per clustering group (medoids)");
  const auto sample = bench::make_experiment_set();
  util::ThreadPool pool;
  const auto similarity = core::SimilarityAnalysis::compute(sample, {}, &pool);
  const auto clustering = core::ClusteringAnalysis::compute(
      similarity.gram, sample, bench::unit_counts(sample.size()), {});

  for (const auto& group : clustering.groups) {
    if (group.population == 0) continue;
    const core::JobDag& medoid = sample[group.medoid];
    std::cout << "\nGroup " << group.letter() << " representative: "
              << medoid.job_name << " — " << medoid.size() << " tasks, depth "
              << graph::critical_path_length(medoid.dag) << ", width "
              << graph::max_width(medoid.dag) << ", shape "
              << graph::to_string(graph::classify_shape(medoid.dag)) << "\n";
    std::cout << graph::to_dot(medoid.dag, medoid.vertex_names(),
                               std::string("group_") + group.letter());
  }
}

void BM_MedoidExtraction(benchmark::State& state) {
  const auto sample = bench::make_experiment_set();
  const auto similarity = core::SimilarityAnalysis::compute(sample);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ClusteringAnalysis::compute(
            similarity.gram, sample, bench::unit_counts(sample.size()), {}));
  }
}
BENCHMARK(BM_MedoidExtraction)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("fig8_representatives");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
