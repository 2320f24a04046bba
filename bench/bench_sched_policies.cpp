// A6 — extension: does the paper's topology clustering actually help
// scheduling? (Sections I and VIII position the characterization as input
// to "better decisions in job scheduling".)
//
// We simulate a co-located cluster on a characterized workload and compare:
//   fifo                — arrival order (baseline)
//   critical-path-first — HEFT-style list scheduling (needs per-task ranks)
//   shortest-job-first  — oracle: exact per-job remaining work
//   group-hint          — ONLY the WL-cluster group of each job + the
//                         group's mean work profile (the paper's proposal)
//
// Expected shape: group-hint recovers most of the oracle SJF's mean-JCT
// advantage over FIFO while using no per-job measurements.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/common.hpp"
#include "core/clustering.hpp"
#include "core/similarity.hpp"
#include "sched/simulator.hpp"
#include "util/strings.hpp"

using namespace cwgl;

namespace {

struct Fixture {
  std::vector<sched::SimJob> jobs;
  std::vector<sched::GroupProfile> profiles;
};

Fixture make_fixture(std::size_t sample_size = 200) {
  const trace::Trace data = bench::make_trace(20000);
  core::PipelineConfig cfg;
  cfg.sample_size = sample_size;
  cfg.sampling = core::SamplingMode::Natural;
  const auto sample = core::CharacterizationPipeline(cfg).build_sample(data);

  util::ThreadPool pool;
  const auto similarity = core::SimilarityAnalysis::compute(sample, {}, &pool);
  core::ClusteringOptions cluster_options;
  const auto clustering = core::ClusteringAnalysis::compute(
      similarity.gram, sample, bench::unit_counts(sample.size()),
      cluster_options);

  Fixture f;
  f.jobs = sched::jobs_from_dags(sample, /*inter_arrival=*/0.5);
  sched::attach_hints(f.jobs, clustering.labels);
  f.profiles = sched::profiles_from_groups(sample, clustering.labels,
                                           cluster_options.clusters);
  return f;
}

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("A6", "scheduling with topology-cluster hints vs baselines");
  const Fixture f = make_fixture();
  sched::SimulatorConfig sim_cfg;
  sim_cfg.machines = 2;
  const sched::Simulator sim(sim_cfg);

  const sched::FifoPolicy fifo;
  const sched::CriticalPathFirstPolicy cpf;
  const sched::ShortestJobFirstPolicy sjf;
  const sched::GroupHintPolicy hint;

  std::cout << util::pad_right("policy", 22) << util::pad_left("makespan", 10)
            << util::pad_left("mean JCT", 10) << util::pad_left("p95 JCT", 10)
            << util::pad_left("mean wait", 11) << util::pad_left("util", 7)
            << "\n";
  double fifo_jct = 0.0, sjf_jct = 0.0, hint_jct = 0.0;
  for (const sched::SchedulingPolicy* policy :
       std::initializer_list<const sched::SchedulingPolicy*>{&fifo, &cpf, &sjf,
                                                             &hint}) {
    const auto r = sim.run(f.jobs, *policy, f.profiles);
    std::cout << util::pad_right(std::string(policy->name()), 22)
              << util::pad_left(util::format_double(r.makespan, 0), 10)
              << util::pad_left(util::format_double(r.mean_jct, 1), 10)
              << util::pad_left(util::format_double(r.p95_jct, 1), 10)
              << util::pad_left(util::format_double(r.mean_wait, 1), 11)
              << util::pad_left(util::format_double(r.mean_utilization, 2), 7)
              << "\n";
    if (policy == &fifo) fifo_jct = r.mean_jct;
    if (policy == &sjf) sjf_jct = r.mean_jct;
    if (policy == &hint) hint_jct = r.mean_jct;
  }
  if (fifo_jct > sjf_jct) {
    const double recovered =
        (fifo_jct - hint_jct) / (fifo_jct - sjf_jct);
    std::cout << "\ngroup-hint recovers "
              << util::format_double(100.0 * recovered, 1)
              << "% of the oracle SJF mean-JCT gain over FIFO using only the"
                 " WL cluster label\n";
  }
}

void BM_SimulateFifo(benchmark::State& state) {
  const Fixture f = make_fixture(static_cast<std::size_t>(state.range(0)));
  sched::SimulatorConfig cfg;
  cfg.machines = 2;
  const sched::Simulator sim(cfg);
  const sched::FifoPolicy fifo;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(f.jobs, fifo, f.profiles));
  }
}
BENCHMARK(BM_SimulateFifo)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_SimulateGroupHint(benchmark::State& state) {
  const Fixture f = make_fixture(static_cast<std::size_t>(state.range(0)));
  sched::SimulatorConfig cfg;
  cfg.machines = 2;
  const sched::Simulator sim(cfg);
  const sched::GroupHintPolicy hint;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(f.jobs, hint, f.profiles));
  }
}
BENCHMARK(BM_SimulateGroupHint)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("sched_policies");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
