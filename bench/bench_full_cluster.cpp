// Full-trace clustering (core::CharacterizationPipeline::run_full): the
// scalable learning stage behind `cwgl characterize --full`. Two claims:
//   1. throughput — >= 100k synthetic jobs cluster end-to-end in seconds,
//      with memory bounded by DISTINCT shapes (no n x n Gram is ever
//      allocated; the exact path would need ~75 GB for the same corpus),
//   2. fidelity — count-weighted mini-batch k-means agrees with the exact
//      sampled spectral pipeline on a shared uniform job subsample at
//      ARI >= 0.8 (check.sh gates this via bench_diff
//      --min-bar 'agreement_ari_*=0.8').

#include <benchmark/benchmark.h>

#include <cstddef>
#include <iostream>

#include "bench/common.hpp"
#include "core/pipeline.hpp"
#include "obs/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

using namespace cwgl;

namespace {

core::FullTraceResult run_once(const trace::Trace& data,
                               util::ThreadPool* pool) {
  const core::CharacterizationPipeline pipeline{core::PipelineConfig{}};
  return pipeline.run_full(data, pool);
}

void print_figure(bench::Reporter& reporter) {
  bench::banner("F1", "full-trace clustering: 100k+ jobs, shape-weighted");
  // ~47% of generated jobs survive the eligibility filters, so 250k trace
  // jobs put >= 100k actual DAG jobs through the clustering engine.
  const trace::Trace data = bench::make_trace(250000);
  util::ThreadPool pool;
  std::cout << "input: " << data.tasks.size() << " task rows\n\n";

  core::FullTraceResult mb;
  const double minibatch_ms = reporter.time(
      "full_minibatch_ms",
      [&] { mb = run_once(data, &pool); });
  const double jobs_per_s =
      static_cast<double>(mb.total_jobs()) / (minibatch_ms / 1000.0);

  std::cout << "jobs clustered: " << mb.total_jobs() << " ("
            << mb.table.size() << " distinct shapes, ratio "
            << util::format_double(
                   static_cast<double>(mb.table.size()) /
                       static_cast<double>(mb.total_jobs()), 4)
            << ")\n"
            << "mini-batch:    " << util::format_double(minibatch_ms, 1)
            << " ms  (" << util::format_double(jobs_per_s / 1e3, 1)
            << " kjobs/s), ARI vs exact "
            << util::format_double(mb.agreement.ari, 3) << " on "
            << mb.agreement.items << " jobs\n"
            << "acceptance bar: ARI >= 0.8\n";

  reporter.set("dag_jobs", static_cast<double>(mb.total_jobs()), "jobs");
  reporter.set("distinct_shapes", static_cast<double>(mb.table.size()),
               "shapes");
  reporter.set("minibatch_jobs_per_s", jobs_per_s, "jobs/s");
  reporter.set("agreement_ari_minibatch", mb.agreement.ari, "ari");
  reporter.set("agreement_nmi_minibatch", mb.agreement.nmi, "nmi");
}

void BM_FullTraceMiniBatch(benchmark::State& state) {
  const trace::Trace data =
      bench::make_trace(static_cast<std::size_t>(state.range(0)));
  util::ThreadPool pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_once(data, &pool));
  }
}
BENCHMARK(BM_FullTraceMiniBatch)->Arg(20000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("full_cluster");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
