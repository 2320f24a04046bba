// Fig 3 — size of DAG jobs before and after node conflation.
//
// Paper shape to reproduce: sizes decay with a long tail; after conflation
// the distribution shifts left (the ratio of smaller jobs increases).

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/common.hpp"
#include "core/characterization.hpp"
#include "core/report_text.hpp"

using namespace cwgl;

namespace {

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("Fig 3", "size of DAG jobs before and after node conflation");
  // The figure covers the filtered workload at scale, not just 100 samples.
  const trace::Trace data = bench::make_trace(20000);
  const auto jobs = core::build_all_dag_jobs(data, trace::SamplingCriteria{});
  std::cout << "filtered DAG jobs: " << jobs.size() << "\n\n";
  const auto report = core::ConflationReport::compute(
      jobs, bench::unit_counts(jobs.size()));
  core::print_conflation_report(std::cout, report);

  const double small_before = report.before.fraction(2) + report.before.fraction(3);
  const double small_after = report.after.fraction(2) + report.after.fraction(3);
  std::cout << "share of jobs with <=3 tasks: before "
            << 100.0 * small_before << "%, after " << 100.0 * small_after
            << "%  (paper: ratio of smaller jobs increases)\n";
}

void BM_ConflateWorkload(benchmark::State& state) {
  const trace::Trace data =
      bench::make_trace(static_cast<std::size_t>(state.range(0)));
  const auto jobs = core::build_all_dag_jobs(data, trace::SamplingCriteria{});
  for (auto _ : state) {
    for (const auto& job : jobs) {
      benchmark::DoNotOptimize(core::conflate_job(job).size());
    }
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs.size()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConflateWorkload)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("fig3_conflation");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
