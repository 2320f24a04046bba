#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include "core/clustering.hpp"
#include "core/pipeline.hpp"
#include "core/similarity.hpp"
#include "trace/generator.hpp"
#include "util/error.hpp"

namespace cwgl::core {
namespace {

trace::TaskRecord task(std::string name, std::string job, std::int64_t start,
                       std::int64_t end) {
  trace::TaskRecord t;
  t.task_name = std::move(name);
  t.job_name = std::move(job);
  t.instance_num = 2;
  t.status = trace::Status::Terminated;
  t.start_time = start;
  t.end_time = end;
  t.plan_cpu = 100.0;
  t.plan_mem = 0.5;
  return t;
}

JobDag chain_job(std::string name, int length, std::int64_t stage_seconds) {
  std::vector<trace::TaskRecord> records;
  std::int64_t clock = 100;
  for (int i = 1; i <= length; ++i) {
    std::string task_name =
        i == 1 ? "M1" : "R" + std::to_string(i) + "_" + std::to_string(i - 1);
    records.push_back(task(task_name, name, clock, clock + stage_seconds));
    clock += stage_seconds;
  }
  auto job = build_job_dag(name, records);
  EXPECT_TRUE(job.has_value());
  return *job;
}

TEST(JctPredictor, ActualWallTime) {
  const auto job = chain_job("j", 3, 50);
  EXPECT_DOUBLE_EQ(JctPredictor::actual_wall_time(job), 150.0);
  JobDag broken = job;
  for (auto& t : broken.tasks) t.start_time = 0;
  EXPECT_LT(JctPredictor::actual_wall_time(broken), 0.0);
}

TEST(JctPredictor, LearnsExactLinearRelation) {
  // Chains of length L with 60s stages: wall time = 60 * L = 60 * size.
  std::vector<JobDag> jobs;
  for (int len = 2; len <= 8; ++len) {
    jobs.push_back(chain_job("j" + std::to_string(len), len, 60));
  }
  PredictorConfig cfg;
  cfg.use_plan = false;
  cfg.use_topology = false;  // size alone determines the answer here
  const auto model = JctPredictor::fit(jobs, {}, cfg);
  for (const auto& job : jobs) {
    EXPECT_NEAR(model.predict(job), JctPredictor::actual_wall_time(job), 1.0);
  }
  const auto eval = model.evaluate(jobs, {});
  EXPECT_GT(eval.r2, 0.999);
  EXPECT_LT(eval.mae, 1.0);
}

TEST(JctPredictor, PredictionsNonNegative) {
  std::vector<JobDag> jobs;
  for (int len = 2; len <= 5; ++len) {
    jobs.push_back(chain_job("j" + std::to_string(len), len, 10));
  }
  const auto model = JctPredictor::fit(jobs, {}, PredictorConfig{});
  JobDag tiny = chain_job("t", 2, 1);
  EXPECT_GE(model.predict(tiny), 0.0);
}

TEST(JctPredictor, Validation) {
  std::vector<JobDag> jobs{chain_job("a", 3, 10)};
  PredictorConfig with_groups;
  with_groups.num_groups = 2;
  EXPECT_THROW(JctPredictor::fit(jobs, {}, with_groups), util::InvalidArgument);
  JobDag no_times = jobs[0];
  for (auto& t : no_times.tasks) t.start_time = 0;
  const std::vector<JobDag> unusable{no_times};
  EXPECT_THROW(JctPredictor::fit(unusable, {}, PredictorConfig{}),
               util::InvalidArgument);
  JctPredictor unfitted;
  EXPECT_THROW((void)JctPredictor{}.predict(jobs[0]), util::InvalidArgument);
}

TEST(JctPredictor, TopologyFeaturesBeatSizeOnlyOnGeneratedWorkload) {
  // Wall time tracks the critical path (stages run serially), not the raw
  // size: jobs of equal size but different depth diverge, which only the
  // topology-aware model can capture.
  trace::GeneratorConfig gen;
  gen.seed = 77;
  gen.num_jobs = 6000;
  gen.emit_instances = false;
  const auto data = trace::TraceGenerator(gen).generate();
  PipelineConfig pipe;
  pipe.sample_size = 300;
  pipe.sampling = SamplingMode::Natural;
  const auto sample = CharacterizationPipeline(pipe).build_sample(data);
  const std::size_t split = sample.size() / 2;
  const std::vector<JobDag> train(sample.begin(), sample.begin() + split);
  const std::vector<JobDag> test(sample.begin() + split, sample.end());

  PredictorConfig size_only;
  size_only.use_topology = false;
  size_only.use_plan = false;
  PredictorConfig topology;
  topology.use_plan = false;

  const auto size_model = JctPredictor::fit(train, {}, size_only);
  const auto topo_model = JctPredictor::fit(train, {}, topology);
  const auto size_eval = size_model.evaluate(test, {});
  const auto topo_eval = topo_model.evaluate(test, {});
  EXPECT_GT(topo_eval.r2, size_eval.r2);
  // Stage durations are lognormal (sigma 1), so linear R^2 is inherently
  // modest; the point is that topology clearly helps.
  EXPECT_GT(topo_eval.r2, 0.2);
}

TEST(JctPredictor, GroupFeaturesAreUsable) {
  trace::GeneratorConfig gen;
  gen.seed = 78;
  gen.num_jobs = 3000;
  gen.emit_instances = false;
  const auto data = trace::TraceGenerator(gen).generate();
  PipelineConfig pipe;
  pipe.sample_size = 120;
  const auto sample = CharacterizationPipeline(pipe).build_sample(data);
  const auto sim = SimilarityAnalysis::compute(sample);
  ClusteringOptions copt;
  const auto clustering = ClusteringAnalysis::compute(
      sim.gram, sample, std::vector<std::uint64_t>(sample.size(), 1), copt);

  PredictorConfig cfg;
  cfg.num_groups = copt.clusters;
  const auto model = JctPredictor::fit(sample, clustering.labels, cfg);
  const auto eval = model.evaluate(sample, clustering.labels);
  EXPECT_GT(eval.r2, 0.3);
  EXPECT_EQ(model.weights().size(),
            1u + 1u + 2u + 3u + static_cast<std::size_t>(copt.clusters));
}

}  // namespace
}  // namespace cwgl::core
