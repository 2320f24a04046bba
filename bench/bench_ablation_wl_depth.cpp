// A1 — ablation: WL iteration depth h.
//
// The paper fixes a small h without sweeping it. This bench sweeps h in
// 0..6 and reports (a) how the clustering changes w.r.t. the h=3 reference
// (ARI) and its silhouette, (b) kernel-matrix build time. Expected shape:
// quality saturates after h ~ critical-path depth (2..8 here); cost grows
// linearly with h.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/common.hpp"
#include "cluster/metrics.hpp"
#include "core/clustering.hpp"
#include "core/similarity.hpp"
#include "util/strings.hpp"

using namespace cwgl;

namespace {

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("A1", "ablation: WL iteration depth h (paper fixes h; we sweep)");
  const auto sample = bench::make_experiment_set();
  util::ThreadPool pool;

  core::SimilarityOptions reference_options;
  reference_options.wl.iterations = 3;
  const auto reference = core::ClusteringAnalysis::compute(
      core::SimilarityAnalysis::compute(sample, reference_options, &pool).gram,
      sample, bench::unit_counts(sample.size()), {});

  std::cout << util::pad_left("h", 3) << util::pad_left("ARI vs h=3", 12)
            << util::pad_left("silhouette", 12)
            << util::pad_left("mean offdiag", 14) << "\n";
  for (int h = 0; h <= 6; ++h) {
    core::SimilarityOptions options;
    options.wl.iterations = h;
    const auto sim = core::SimilarityAnalysis::compute(sample, options, &pool);
    const auto clustering = core::ClusteringAnalysis::compute(
        sim.gram, sample, bench::unit_counts(sample.size()), {});
    const double ari =
        cluster::adjusted_rand_index(clustering.labels, reference.labels);
    std::cout << util::pad_left(std::to_string(h), 3)
              << util::pad_left(util::format_double(ari, 3), 12)
              << util::pad_left(util::format_double(clustering.silhouette, 3), 12)
              << util::pad_left(
                     util::format_double(sim.stats(sample).mean_offdiag, 3), 14)
              << "\n";
  }
}

void BM_WlDepth(benchmark::State& state) {
  const auto sample = bench::make_experiment_set();
  core::SimilarityOptions options;
  options.wl.iterations = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SimilarityAnalysis::compute(sample, options));
  }
}
BENCHMARK(BM_WlDepth)->DenseRange(0, 6)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("ablation_wl_depth");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
