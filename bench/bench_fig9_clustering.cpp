// Fig 9 — properties of job DAGs in the five spectral-clustering groups:
// (a) population per group, (b) job-size distribution, (c) critical-path
// distribution, (d) maximum-parallelism distribution.
//
// Paper shape to reproduce: group A dominates the population (~75%) and is
// overwhelmingly small chains (90.6% short jobs, 91% chains); group B's mean
// size is ~1.55x group A's; later groups grow in depth and parallelism.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/common.hpp"
#include "core/clustering.hpp"
#include "core/report_text.hpp"
#include "core/similarity.hpp"

using namespace cwgl;

namespace {

void run_variant(core::SamplingMode mode, const char* label) {
  const trace::Trace data = bench::make_trace(20000);
  core::PipelineConfig cfg;
  cfg.sample_size = 100;
  cfg.sampling = mode;
  const auto sample = core::CharacterizationPipeline(cfg).build_sample(data);
  util::ThreadPool pool;
  const auto similarity = core::SimilarityAnalysis::compute(sample, {}, &pool);
  const auto clustering = core::ClusteringAnalysis::compute(
      similarity.gram, sample, bench::unit_counts(sample.size()), {});

  std::cout << "\n--- sampling mode: " << label << " ---\n";
  core::print_clustering_analysis(std::cout, clustering);

  // Map our groups onto the paper's narrative. The paper's "group A" is a
  // single dominant small-job group (75% population, 91% chains, 90.6%
  // short). Exactly-identical tiny DAGs in our synthetic workload form
  // tighter similarity blocks than the noisier production data, so k=5
  // splits that mass into 2-3 small-job subgroups; the paper-comparable
  // quantity is their COMBINED share, and per-role stats come from the
  // small-chain subgroup itself.
  double small_groups_share = 0.0;
  double small_groups_size_sum = 0.0;
  std::size_t small_groups_pop = 0;
  const core::ClusterGroupStats* chainiest_small = nullptr;
  const core::ClusterGroupStats* largest_jobs = nullptr;
  for (const auto& g : clustering.groups) {
    if (g.population == 0) continue;
    if (g.size.mean <= 5.0) {
      small_groups_share += g.population_fraction;
      small_groups_size_sum += g.size.mean * static_cast<double>(g.population);
      small_groups_pop += g.population;
      if (!chainiest_small || g.chain_fraction > chainiest_small->chain_fraction) {
        chainiest_small = &g;
      }
    }
    if (!largest_jobs || g.size.mean > largest_jobs->size.mean) largest_jobs = &g;
  }
  std::cout << "paper cross-checks (" << label << "):\n";
  std::cout << "  combined small-job-group share: " << 100.0 * small_groups_share
            << "%  (paper's group A: ~75%)\n";
  if (chainiest_small) {
    std::cout << "  small-chain subgroup (" << chainiest_small->letter()
              << "): chains " << 100.0 * chainiest_small->chain_fraction
              << "%, short jobs " << 100.0 * chainiest_small->short_job_fraction
              << "%  (paper: 91% / 90.6%)\n";
  }
  if (small_groups_pop > 0 && largest_jobs) {
    const double small_mean =
        small_groups_size_sum / static_cast<double>(small_groups_pop);
    std::cout << "  largest-job group mean size / small groups mean size: "
              << largest_jobs->size.mean / small_mean
              << "x  (paper B/A: ~1.55x, D deeper still)\n";
  }
}

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("Fig 9", "properties of job DAGs in cluster groups");
  run_variant(core::SamplingMode::VariabilityStratified,
              "variability-stratified (17-size coverage)");
  run_variant(core::SamplingMode::Natural,
              "natural (population-faithful, matches paper's shares)");
}

void BM_SpectralClustering(benchmark::State& state) {
  const auto sample = bench::make_experiment_set(
      20000, static_cast<std::size_t>(state.range(0)));
  const auto similarity = core::SimilarityAnalysis::compute(sample);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ClusteringAnalysis::compute(
            similarity.gram, sample, bench::unit_counts(sample.size()), {}));
  }
}
BENCHMARK(BM_SpectralClustering)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("fig9_clustering");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
