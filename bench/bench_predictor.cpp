// A10 — extension: foreseeing job completion time from submission-time
// information (the paper's opening motivation: "helps us foresee resource
// demands and execution time of new jobs").
//
// A linear predictor is fitted on a historical sample and evaluated on a
// held-out set, with progressively richer feature sets:
//   size-only           — task count
//   +topology           — critical path + max width (from the task names)
//   +plan               — declared instances / cpu / mem
//   +WL cluster group   — the paper's classification as a feature
//
// Expected shape: topology is the big jump over size-only (stage execution
// is serial along the critical path, so depth — not raw size — drives wall
// time). Plan and group features add little beyond topology here because
// the synthetic workload draws plans independently of runtimes; on
// production traces they correlate and would help further.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/common.hpp"
#include "core/clustering.hpp"
#include "core/predictor.hpp"
#include "core/similarity.hpp"
#include "util/strings.hpp"

using namespace cwgl;

namespace {

struct Split {
  std::vector<core::JobDag> train, test;
  std::vector<int> train_labels, test_labels;
  int num_groups = 5;
};

Split make_split() {
  const trace::Trace data = bench::make_trace(20000);
  core::PipelineConfig cfg;
  cfg.sample_size = 400;
  // Stratified sampling keeps all job scales represented: in the natural
  // (tiny-dominated) mix size and depth coincide, which would mask what the
  // topology features contribute for the larger jobs a scheduler cares
  // about most.
  const auto sample = core::CharacterizationPipeline(cfg).build_sample(data);
  util::ThreadPool pool;
  const auto sim = core::SimilarityAnalysis::compute(sample, {}, &pool);
  core::ClusteringOptions copt;
  const auto clustering = core::ClusteringAnalysis::compute(
      sim.gram, sample, bench::unit_counts(sample.size()), copt);

  Split s;
  s.num_groups = copt.clusters;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (i % 2 == 0) {
      s.train.push_back(sample[i]);
      s.train_labels.push_back(clustering.labels[i]);
    } else {
      s.test.push_back(sample[i]);
      s.test_labels.push_back(clustering.labels[i]);
    }
  }
  return s;
}

void print_figure(bench::Reporter& reporter) {
  (void)reporter;
  bench::banner("A10", "foreseeing job completion time from submission-time info");
  const Split s = make_split();

  struct Variant {
    const char* name;
    core::PredictorConfig cfg;
    bool groups;
  };
  std::vector<Variant> variants;
  {
    core::PredictorConfig size_only;
    size_only.use_topology = false;
    size_only.use_plan = false;
    variants.push_back({"size-only", size_only, false});
    core::PredictorConfig topo = size_only;
    topo.use_topology = true;
    variants.push_back({"+topology", topo, false});
    core::PredictorConfig plan = topo;
    plan.use_plan = true;
    variants.push_back({"+plan", plan, false});
    core::PredictorConfig grouped = plan;
    grouped.num_groups = s.num_groups;
    variants.push_back({"+WL cluster group", grouped, true});
  }

  std::cout << util::pad_right("features", 20) << util::pad_left("R^2", 8)
            << util::pad_left("MAE s", 9) << util::pad_left("MAE/mean", 10)
            << "\n";
  for (const Variant& v : variants) {
    const auto model = core::JctPredictor::fit(
        s.train, v.groups ? std::span<const int>(s.train_labels)
                          : std::span<const int>{},
        v.cfg);
    const auto eval = model.evaluate(
        s.test, v.groups ? std::span<const int>(s.test_labels)
                         : std::span<const int>{});
    std::cout << util::pad_right(v.name, 20)
              << util::pad_left(util::format_double(eval.r2, 3), 8)
              << util::pad_left(util::format_double(eval.mae, 1), 9)
              << util::pad_left(
                     util::format_double(
                         eval.mean_actual > 0 ? eval.mae / eval.mean_actual : 0, 2),
                     10)
              << "\n";
  }
}

void BM_FitPredictor(benchmark::State& state) {
  const Split s = make_split();
  core::PredictorConfig cfg;
  cfg.num_groups = s.num_groups;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::JctPredictor::fit(s.train, s.train_labels, cfg));
  }
  state.counters["train_jobs"] = static_cast<double>(s.train.size());
}
BENCHMARK(BM_FitPredictor)->Unit(benchmark::kMillisecond);

void BM_PredictSingleJob(benchmark::State& state) {
  const Split s = make_split();
  core::PredictorConfig cfg;
  const auto model = core::JctPredictor::fit(s.train, {}, cfg);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(s.test[i % s.test.size()]));
    ++i;
  }
}
BENCHMARK(BM_PredictSingleJob)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("predictor");
  obs::Stopwatch figure_watch;
  print_figure(reporter);
  reporter.set("figure_total_ms", figure_watch.millis());
  reporter.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
