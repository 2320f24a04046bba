// A2 — ablation: base kernel choice. Eq. (1) of the paper admits any base
// kernel; we compare the WL subtree kernel against vertex-histogram,
// edge-histogram and shortest-path featurizations on the same experiment
// set: clustering agreement with the WL reference, silhouette, and cost.
//
// Expected shape: vertex-histogram is cheapest and least structural;
// shortest-path approaches WL quality at higher cost; WL wins the
// quality/cost tradeoff — the reason the paper adopts it.

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "bench/common.hpp"
#include "cluster/metrics.hpp"
#include "core/clustering.hpp"
#include "core/similarity.hpp"
#include "kernel/base_kernels.hpp"
#include "kernel/gram.hpp"
#include "kernel/wl.hpp"
#include "util/strings.hpp"
#include "obs/stopwatch.hpp"

using namespace cwgl;

namespace {

std::vector<kernel::LabeledGraph> to_corpus(std::span<const core::JobDag> jobs) {
  std::vector<kernel::LabeledGraph> corpus;
  for (const auto& job : jobs) corpus.push_back(job.to_labeled());
  return corpus;
}

std::unique_ptr<kernel::Featurizer> make_featurizer(int which) {
  switch (which) {
    case 0: return std::make_unique<kernel::WlSubtreeFeaturizer>();
    case 1: return std::make_unique<kernel::VertexHistogramFeaturizer>();
    case 2: return std::make_unique<kernel::EdgeHistogramFeaturizer>();
    default: return std::make_unique<kernel::ShortestPathFeaturizer>();
  }
}

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("A2", "ablation: base kernel choice (Eq. 1 admits any)");
  const auto sample = bench::make_experiment_set();
  const auto corpus = to_corpus(sample);

  kernel::WlSubtreeFeaturizer wl_ref;
  const auto reference_gram = kernel::gram_matrix(wl_ref, corpus);
  const auto reference = core::ClusteringAnalysis::compute(
      reference_gram, sample, bench::unit_counts(sample.size()), {});

  std::cout << util::pad_right("kernel", 18) << util::pad_left("ARI vs WL", 11)
            << util::pad_left("silhouette", 12) << util::pad_left("build ms", 10)
            << "\n";
  for (int which = 0; which < 4; ++which) {
    auto featurizer = make_featurizer(which);
    obs::Stopwatch timer;
    const auto gram = kernel::gram_matrix(*featurizer, corpus);
    const double ms = timer.millis();
    const auto clustering = core::ClusteringAnalysis::compute(
        gram, sample, bench::unit_counts(sample.size()), {});
    const double ari =
        cluster::adjusted_rand_index(clustering.labels, reference.labels);
    std::cout << util::pad_right(std::string(featurizer->name()), 18)
              << util::pad_left(util::format_double(ari, 3), 11)
              << util::pad_left(util::format_double(clustering.silhouette, 3), 12)
              << util::pad_left(util::format_double(ms, 2), 10) << "\n";
  }
}

void BM_BaseKernelGram(benchmark::State& state) {
  const auto sample = bench::make_experiment_set();
  const auto corpus = to_corpus(sample);
  for (auto _ : state) {
    auto featurizer = make_featurizer(static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(kernel::gram_matrix(*featurizer, corpus));
  }
}
BENCHMARK(BM_BaseKernelGram)
    ->Arg(0)  // wl-subtree
    ->Arg(1)  // vertex-histogram
    ->Arg(2)  // edge-histogram
    ->Arg(3)  // shortest-path
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("ablation_base_kernel");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
