// T1 — the whole-trace statistics quoted in the paper's text:
//   Section II-B: ~50% of batch jobs have dependencies and consume 70-80%
//   of batch resources.
//   Section V-B: 58% straight chains, 37% inverted triangles among DAG jobs.
//   Section IV-B: the experiment set spans 17 distinct sizes in 2..31.

#include <benchmark/benchmark.h>

#include <iostream>
#include <set>

#include "bench/common.hpp"
#include "core/characterization.hpp"
#include "core/report_text.hpp"
#include "core/topology_census.hpp"

using namespace cwgl;

namespace {

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("T1", "whole-trace census (Sections II-B, IV-B, V-B)");
  const trace::Trace data = bench::make_trace(20000);
  const auto census = core::TraceCensus::compute(data);
  core::print_trace_census(std::cout, census);
  std::cout << "  (paper: ~50% of jobs, 70-80% of resources)\n\n";

  const auto jobs = core::build_all_dag_jobs(data, trace::SamplingCriteria{});
  const auto patterns = core::PatternCensus::compute(
      jobs, bench::unit_counts(jobs.size()));
  core::print_pattern_census(std::cout, patterns);
  std::cout << "  (paper: straight chain 58%, inverted triangle 37%)\n\n";

  // Recurring topologies (Section IV-C: small jobs repeat).
  const auto topo = core::TopologyCensus::compute(jobs);
  std::cout << "distinct topologies among " << topo.total_jobs
            << " DAG jobs: " << topo.distinct_topologies << " ("
            << 100.0 * topo.recurring_fraction
            << "% of jobs share a recurring topology)\n";
  if (!topo.rows.empty()) {
    std::cout << "most common topology: " << topo.rows[0].count << " jobs of "
              << topo.rows[0].size << " tasks\n";
  }
  std::cout << "\n";

  const auto sample = bench::make_experiment_set(20000, 100);
  std::set<int> sizes;
  int lo = 1 << 30, hi = 0;
  for (const auto& job : sample) {
    sizes.insert(job.size());
    lo = std::min(lo, job.size());
    hi = std::max(hi, job.size());
  }
  std::cout << "experiment set: " << sample.size() << " jobs, "
            << sizes.size() << " distinct sizes in " << lo << ".." << hi
            << "  (paper: 17 sizes in 2..31)\n";
}

void BM_TraceCensus(benchmark::State& state) {
  const trace::Trace data =
      bench::make_trace(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::TraceCensus::compute(data));
  }
}
BENCHMARK(BM_TraceCensus)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_PatternCensus(benchmark::State& state) {
  const trace::Trace data = bench::make_trace(10000);
  const auto jobs = core::build_all_dag_jobs(data, trace::SamplingCriteria{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PatternCensus::compute(
        jobs, bench::unit_counts(jobs.size())));
  }
  state.counters["jobs"] = static_cast<double>(jobs.size());
}
BENCHMARK(BM_PatternCensus)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("table1_census");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
