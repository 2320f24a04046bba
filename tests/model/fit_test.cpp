// Train/serve round-trip guarantees: a fitted snapshot must reproduce the
// pipeline's own cluster assignments exactly, survive save/load bit-true in
// behavior, and be independent of whether the fit itself ran pooled or
// serial (the model-store export path forces serial featurization so the
// frozen dictionary is a pure function of trace + config).

#include "model/fit.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <utility>

#include "core/pipeline.hpp"
#include "model/format.hpp"
#include "serve/classifier.hpp"
#include "trace/generator.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::model {
namespace {

trace::Trace small_trace(std::uint64_t seed = 7, std::size_t jobs = 300) {
  trace::GeneratorConfig cfg;
  cfg.num_jobs = jobs;
  cfg.seed = seed;
  cfg.emit_instances = false;
  return trace::TraceGenerator(cfg).generate();
}

core::PipelineConfig small_config() {
  core::PipelineConfig cfg;
  cfg.sample_size = 60;
  cfg.clustering.clusters = 4;
  return cfg;
}

struct Fit {
  core::PipelineResult result;
  FittedModel model;
};

Fit run_fit(util::ThreadPool* pool) {
  const trace::Trace data = small_trace();
  const core::PipelineConfig cfg = small_config();
  core::FittedFeatures fitted;
  Fit out{core::CharacterizationPipeline(cfg).run(data, pool, &fitted), {}};
  out.model = build_model(out.result, std::move(fitted), cfg);
  return out;
}

TEST(ModelFitTest, SnapshotReproducesPipelineClusterAssignments) {
  util::ThreadPool pool(4);
  const Fit fit = run_fit(&pool);
  // One representative per distinct shape, weighted by its multiplicity.
  ASSERT_EQ(fit.model.training_jobs(), fit.result.interned.table.size());
  ASSERT_EQ(fit.model.training_weight(), fit.result.sample.size());

  FittedModel copy = fit.model;
  const serve::Classifier classifier(std::move(copy));
  for (std::size_t i = 0; i < fit.result.sample.size(); ++i) {
    const serve::Prediction p = classifier.classify(fit.result.sample[i]);
    EXPECT_EQ(p.cluster, fit.result.clustering.labels[i])
        << "job " << fit.result.sample[i].job_name;
    // A training job matches itself: normalized similarity 1 (within FP).
    EXPECT_NEAR(p.similarity, 1.0, 1e-9);
    EXPECT_EQ(p.oov_hits, 0u);
  }
}

TEST(ModelFitTest, PooledAndSerialFitsProduceIdenticalModels) {
  util::ThreadPool pool(4);
  const Fit pooled = run_fit(&pool);
  const Fit serial = run_fit(nullptr);
  EXPECT_EQ(pooled.model, serial.model);
}

TEST(ModelFitTest, SaveLoadPreservesEveryPrediction) {
  util::ThreadPool pool(2);
  const Fit fit = run_fit(&pool);
  const auto path =
      std::filesystem::temp_directory_path() / "cwgl_fit_test_model.cwgl";
  save_model(fit.model, path);
  const FittedModel loaded = load_model(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded, fit.model);

  FittedModel copy = fit.model;
  const serve::Classifier original(std::move(copy));
  const serve::Classifier reloaded(loaded);
  for (const core::JobDag& job : fit.result.sample) {
    const serve::Prediction a = original.classify(job);
    const serve::Prediction b = reloaded.classify(job);
    EXPECT_EQ(a.cluster, b.cluster);
    EXPECT_EQ(a.similarity, b.similarity);
    EXPECT_EQ(a.nearest_job, b.nearest_job);
  }
}

TEST(ModelFitTest, ProfilesMatchClusteringGroups) {
  const Fit fit = run_fit(nullptr);
  ASSERT_EQ(fit.model.profiles.size(), fit.result.clustering.groups.size());
  for (std::size_t c = 0; c < fit.model.profiles.size(); ++c) {
    const auto& profile = fit.model.profiles[c];
    const auto& group = fit.result.clustering.groups[c];
    EXPECT_EQ(profile.population, group.population);
    EXPECT_DOUBLE_EQ(profile.median_critical_path, group.critical_path.median);
    EXPECT_DOUBLE_EQ(profile.median_width, group.parallelism.median);
    // The within-cluster medoid index points back at the group's medoid job.
    ASSERT_LT(profile.medoid, fit.model.representatives[c].size());
    EXPECT_EQ(fit.model.representatives[c][profile.medoid].training_index,
              group.medoid);
  }
}

TEST(ModelFitTest, MismatchedInputsAreRejected) {
  const trace::Trace data = small_trace();
  const core::PipelineConfig cfg = small_config();
  core::FittedFeatures fitted;
  const auto result =
      core::CharacterizationPipeline(cfg).run(data, nullptr, &fitted);
  fitted.vectors.pop_back();  // now disagrees with the clustering labels
  EXPECT_THROW(build_model(result, std::move(fitted), cfg), ModelError);
}

}  // namespace
}  // namespace cwgl::model
