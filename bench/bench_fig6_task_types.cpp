// Fig 6 — distribution of Map/Join/Reduce tasks per job, plus the inferred
// programming model (map-reduce / map-join-reduce / multi-stage).
//
// Paper shape to reproduce: depth<=2 jobs are fundamental Map-Reduce; most
// jobs with joins are Map-Join-Reduce; chain-structured jobs deploy more R
// than M tasks except the very small ones.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/common.hpp"
#include "core/characterization.hpp"
#include "core/report_text.hpp"
#include "graph/patterns.hpp"

using namespace cwgl;

namespace {

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("Fig 6", "distribution of Map-Join-Reduce tasks");
  const auto sample = bench::make_experiment_set();
  const auto report = core::TaskTypeReport::compute(
      sample, bench::unit_counts(sample.size()));
  core::print_task_type_report(std::cout, report);

  // The paper's chain observation, measured on this set.
  std::size_t chains = 0, chains_more_r = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (graph::classify_shape(sample[i].dag) !=
        graph::ShapePattern::StraightChain) {
      continue;
    }
    ++chains;
    const auto& row = report.rows[i];
    if (row.size >= 4) chains_more_r += row.r_tasks > row.m_tasks;
  }
  std::cout << "\nchain-structured jobs: " << chains
            << "; of those with >=4 tasks, R > M in " << chains_more_r
            << " (paper: R deployed more than M except tiny jobs)\n";
}

void BM_TaskTypeReport(benchmark::State& state) {
  const auto sample = bench::make_experiment_set();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::TaskTypeReport::compute(
        sample, bench::unit_counts(sample.size())));
  }
}
BENCHMARK(BM_TaskTypeReport)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("fig6_task_types");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
