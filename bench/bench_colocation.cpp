// A9 — extension: batch execution under online/offline co-location.
//
// Section II-B: online services have priority; under resource competition
// batch tasks are "suspended or killed" and rescheduled. This bench runs
// the characterized workload against a diurnal online load and reports how
// batch JCT, preemptions and utilization respond to the co-location
// intensity, and whether the topology-group-hint policy still helps when
// capacity is volatile.
//
// Expected shape: JCT and preemptions grow with the online share; the
// group-hint ordering retains an advantage over FIFO throughout.

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

Fixture make_fixture() {
  const trace::Trace data = bench::make_trace(20000);
  core::PipelineConfig cfg;
  cfg.sample_size = 150;
  cfg.sampling = core::SamplingMode::Natural;
  const auto sample = core::CharacterizationPipeline(cfg).build_sample(data);
  util::ThreadPool pool;
  const auto similarity = core::SimilarityAnalysis::compute(sample, {}, &pool);
  core::ClusteringOptions cluster_options;
  const auto clustering = core::ClusteringAnalysis::compute(
      similarity.gram, sample, bench::unit_counts(sample.size()),
      cluster_options);
  Fixture f;
  f.jobs = sched::jobs_from_dags(sample, /*inter_arrival=*/1.0);
  sched::attach_hints(f.jobs, clustering.labels);
  f.profiles = sched::profiles_from_groups(sample, clustering.labels,
                                           cluster_options.clusters);
  return f;
}

sched::SimulatorConfig cluster_with_online(double base_fraction) {
  sched::SimulatorConfig cfg;
  cfg.machines = 3;
  if (base_fraction > 0.0) {
    cfg.online.enabled = true;
    cfg.online.base_fraction = base_fraction;
    cfg.online.amplitude = std::min(0.2, 0.9 - base_fraction);
    cfg.online.period = 3600.0;
    cfg.online.tick_interval = 60.0;
  }
  return cfg;
}

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("A9", "batch under online/offline co-location (Section II-B)");
  const Fixture f = make_fixture();
  const sched::FifoPolicy fifo;
  const sched::GroupHintPolicy hint;

  std::cout << util::pad_left("online", 8) << util::pad_left("policy", 13)
            << util::pad_left("mean JCT", 10) << util::pad_left("p95 JCT", 10)
            << util::pad_left("preempt", 9) << util::pad_left("batch util", 12)
            << "\n";
  for (double base : {0.0, 0.2, 0.4, 0.6}) {
    const sched::Simulator sim(cluster_with_online(base));
    for (const sched::SchedulingPolicy* policy :
         std::initializer_list<const sched::SchedulingPolicy*>{&fifo, &hint}) {
      const auto r = sim.run(f.jobs, *policy, f.profiles);
      std::cout << util::pad_left(util::format_double(100.0 * base, 0) + "%", 8)
                << util::pad_left(std::string(policy->name()), 13)
                << util::pad_left(util::format_double(r.mean_jct, 1), 10)
                << util::pad_left(util::format_double(r.p95_jct, 1), 10)
                << util::pad_left(std::to_string(r.preemptions), 9)
                << util::pad_left(util::format_double(r.mean_utilization, 2), 12)
                << "\n";
    }
  }
}

void BM_ColocatedSimulation(benchmark::State& state) {
  const Fixture f = make_fixture();
  const sched::Simulator sim(
      cluster_with_online(static_cast<double>(state.range(0)) / 100.0));
  const sched::FifoPolicy fifo;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(f.jobs, fifo, f.profiles));
  }
}
BENCHMARK(BM_ColocatedSimulation)->Arg(0)->Arg(40)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("colocation");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
