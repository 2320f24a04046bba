// A8 — extension: hashed WL embeddings (graph2vec-style) as the scale-out
// path. The paper's Gram-matrix pipeline is O(n^2) in the number of jobs;
// the trace has ~4M. Signed feature hashing of WL colors gives corpus-
// independent O(n) embeddings whose cosine approximates the exact kernel,
// so k-means can replace spectral clustering at scale.
//
// Expected shape: clustering agreement (ARI vs the exact spectral
// reference) stays high while cost grows linearly instead of
// quadratically; the crossover appears within a few hundred jobs.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/common.hpp"
#include "cluster/kmeans.hpp"
#include "cluster/metrics.hpp"
#include "core/clustering.hpp"
#include "core/similarity.hpp"
#include "kernel/embedding.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "obs/stopwatch.hpp"

using namespace cwgl;

namespace {

std::vector<kernel::LabeledGraph> to_corpus(std::span<const core::JobDag> jobs) {
  std::vector<kernel::LabeledGraph> corpus;
  for (const auto& job : jobs) corpus.push_back(job.to_labeled());
  return corpus;
}

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("A8", "hashed WL embeddings vs exact gram + spectral");
  std::cout << util::pad_left("jobs", 6) << util::pad_left("gram+spectral ms", 18)
            << util::pad_left("embed+kmeans ms", 17)
            << util::pad_left("ARI agreement", 15) << "\n";
  for (std::size_t n : {50u, 100u, 200u, 400u}) {
    const auto sample = bench::make_experiment_set(20000, n);
    const auto corpus = to_corpus(sample);

    obs::Stopwatch exact_timer;
    const auto similarity = core::SimilarityAnalysis::compute(sample);
    const auto spectral = core::ClusteringAnalysis::compute(
        similarity.gram, sample, bench::unit_counts(sample.size()), {});
    const double exact_ms = exact_timer.millis();

    obs::Stopwatch embed_timer;
    kernel::EmbeddingConfig cfg;
    cfg.wl.iterations = 1;  // match the pipeline's paper-faithful depth
    cfg.dimensions = 256;
    const auto embeddings = kernel::wl_embedding_matrix(corpus, cfg);
    cluster::KMeansOptions km_options;
    km_options.seed = 11;
    const std::vector<double> unit_weights(embeddings.rows(), 1.0);
    const auto km =
        cluster::kmeans_weighted(embeddings, unit_weights, 5, km_options);
    const double embed_ms = embed_timer.millis();

    const double ari = cluster::adjusted_rand_index(spectral.labels, km.labels);
    std::cout << util::pad_left(std::to_string(sample.size()), 6)
              << util::pad_left(util::format_double(exact_ms, 1), 18)
              << util::pad_left(util::format_double(embed_ms, 1), 17)
              << util::pad_left(util::format_double(ari, 3), 15) << "\n";
  }

  // Embeddings are pure per-graph functions, so pooled rows must match the
  // serial matrix bitwise while scaling with cores.
  std::cout << "\nserial vs parallel embedding (4 threads)\n"
            << util::pad_left("jobs", 6) << util::pad_left("serial ms", 11)
            << util::pad_left("par ms", 10) << util::pad_left("speedup", 9)
            << util::pad_left("max|diff|", 12) << "\n";
  util::ThreadPool pool(4);
  for (std::size_t n : {200u, 400u, 800u}) {
    const auto sample = bench::make_experiment_set(20000, n);
    const auto corpus = to_corpus(sample);
    kernel::EmbeddingConfig cfg;
    cfg.wl.iterations = 1;
    cfg.dimensions = 256;

    obs::Stopwatch serial_timer;
    const auto serial = kernel::wl_embedding_matrix(corpus, cfg);
    const double serial_ms = serial_timer.millis();

    obs::Stopwatch parallel_timer;
    const auto parallel = kernel::wl_embedding_matrix(corpus, cfg, &pool);
    const double parallel_ms = parallel_timer.millis();

    std::cout << util::pad_left(std::to_string(corpus.size()), 6)
              << util::pad_left(util::format_double(serial_ms, 1), 11)
              << util::pad_left(util::format_double(parallel_ms, 1), 10)
              << util::pad_left(util::format_double(serial_ms / parallel_ms, 2), 9)
              << util::pad_left(util::format_double(serial.max_abs_diff(parallel), 15), 19)
              << "\n";
  }
}

void BM_EmbedCorpus(benchmark::State& state) {
  const auto sample = bench::make_experiment_set(
      20000, static_cast<std::size_t>(state.range(0)));
  const auto corpus = to_corpus(sample);
  kernel::EmbeddingConfig cfg;
  cfg.dimensions = 256;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel::wl_embedding_matrix(corpus, cfg));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EmbedCorpus)->RangeMultiplier(2)->Range(50, 400)
    ->Complexity(benchmark::oN)->Unit(benchmark::kMillisecond);

void BM_EmbedSingleJob(benchmark::State& state) {
  const auto sample = bench::make_experiment_set(20000, 50);
  const auto corpus = to_corpus(sample);
  kernel::EmbeddingConfig cfg;
  cfg.dimensions = 256;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel::wl_embed(corpus[i % corpus.size()], cfg));
    ++i;
  }
}
BENCHMARK(BM_EmbedSingleJob)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("embedding_scale");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
