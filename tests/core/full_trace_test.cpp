#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "core/pipeline.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {
namespace {

trace::Trace make_trace(std::size_t jobs = 4000, std::uint64_t seed = 99) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_jobs = jobs;
  cfg.emit_instances = false;
  return trace::TraceGenerator(cfg).generate();
}

TEST(FullTrace, ClustersEveryEligibleJob) {
  const auto trace = make_trace();
  const CharacterizationPipeline pipeline{PipelineConfig{}};
  const auto result = pipeline.run_full(trace);

  EXPECT_GT(result.total_jobs(), 1000u);
  EXPECT_EQ(result.shape_of.size(), result.total_jobs());
  ASSERT_EQ(result.shape_labels.size(), result.table.size());
  // Many jobs, few shapes: the whole point of the interned path.
  EXPECT_LT(result.table.size(), result.total_jobs() / 2);

  const int k = static_cast<int>(result.groups.size());
  EXPECT_GE(k, 2);
  for (int l : result.shape_labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, k);
  }
  const auto jobs = result.job_labels();
  EXPECT_EQ(jobs.size(), result.total_jobs());

  // Groups are relabeled by descending weighted mass: A is the largest.
  for (std::size_t g = 1; g < result.groups.size(); ++g) {
    EXPECT_GE(result.groups[g - 1].population, result.groups[g].population);
  }
  // Medoids are shape ids belonging to their own group.
  for (std::size_t g = 0; g < result.groups.size(); ++g) {
    const std::size_t medoid = result.groups[g].medoid;
    ASSERT_LT(medoid, result.table.size());
    EXPECT_EQ(result.shape_labels[medoid], static_cast<int>(g));
  }
}

TEST(FullTrace, AgreesWithExactPipelineOnSubsample) {
  const auto trace = make_trace(6000, 3);
  const CharacterizationPipeline pipeline{PipelineConfig{}};
  const auto result = pipeline.run_full(trace);
  ASSERT_GT(result.agreement.items, 0u) << "validation should have run";
  EXPECT_GE(result.agreement.ari, 0.8);
  EXPECT_GT(result.agreement.nmi, 0.5);
}

TEST(FullTrace, DeterministicForSeed) {
  const auto trace = make_trace(3000, 5);
  const CharacterizationPipeline pipeline{PipelineConfig{}};
  const auto a = pipeline.run_full(trace);
  const auto b = pipeline.run_full(trace);
  EXPECT_EQ(a.shape_labels, b.shape_labels);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
  EXPECT_DOUBLE_EQ(a.agreement.ari, b.agreement.ari);
}

TEST(FullTrace, StreamOverloadMatchesTraceOverload) {
  const auto trace = make_trace(2000, 7);
  std::ostringstream out;
  trace::write_batch_task_csv(out, trace.tasks);
  const std::string csv = out.str();

  const CharacterizationPipeline pipeline{PipelineConfig{}};
  const auto from_trace = pipeline.run_full(trace);

  std::istringstream in(csv);
  const auto from_stream = pipeline.run_full(in);

  EXPECT_EQ(from_stream.table.size(), from_trace.table.size());
  EXPECT_EQ(from_stream.total_jobs(), from_trace.total_jobs());
  EXPECT_EQ(from_stream.shape_labels, from_trace.shape_labels);
  EXPECT_EQ(from_stream.shape_of, from_trace.shape_of);
}

TEST(FullTrace, PooledMatchesSerial) {
  const auto trace = make_trace(2500, 11);
  const CharacterizationPipeline pipeline{PipelineConfig{}};
  const auto serial = pipeline.run_full(trace);
  util::ThreadPool pool(4);
  const auto pooled = pipeline.run_full(trace, &pool);
  EXPECT_EQ(pooled.shape_labels, serial.shape_labels);
  EXPECT_EQ(pooled.shape_of, serial.shape_of);
  EXPECT_DOUBLE_EQ(pooled.agreement.ari, serial.agreement.ari);
}

TEST(FullTrace, GroupPopulationsCoverEveryJob) {
  const auto trace = make_trace(2500, 13);
  const CharacterizationPipeline pipeline{PipelineConfig{}};
  const auto result = pipeline.run_full(trace);
  // Populations count jobs, not shapes: each equals the jobs carrying the
  // group's label, and together they cover the whole eligible workload.
  const auto jobs = result.job_labels();
  std::uint64_t total = 0;
  double fractions = 0.0;
  for (std::size_t g = 0; g < result.groups.size(); ++g) {
    const auto members = std::count(jobs.begin(), jobs.end(),
                                    static_cast<int>(g));
    EXPECT_EQ(result.groups[g].population, static_cast<std::size_t>(members))
        << "group " << g;
    total += result.groups[g].population;
    fractions += result.groups[g].population_fraction;
  }
  EXPECT_EQ(total, result.total_jobs());
  EXPECT_NEAR(fractions, 1.0, 1e-12);
}

TEST(FullTrace, ClusterCountClampedToDistinctShapes) {
  const auto trace = make_trace(60, 19);
  PipelineConfig cfg;
  cfg.clustering.clusters = 1000;
  const auto result = CharacterizationPipeline(cfg).run_full(trace);
  const std::size_t m = result.table.size();
  ASSERT_LT(m, 1000u);
  EXPECT_EQ(result.groups.size(), m);
  for (int l : result.shape_labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, static_cast<int>(m));
  }
}

TEST(FullTrace, ConflatedAnalysisKeepsRawShapeTable) {
  const auto trace = make_trace(2000, 23);
  PipelineConfig merged_cfg;
  merged_cfg.analyze_conflated = true;
  FittedFeatures raw_features, merged_features;
  const auto raw = CharacterizationPipeline{PipelineConfig{}}.run_full(
      trace, nullptr, &raw_features);
  const auto merged = CharacterizationPipeline(merged_cfg)
                          .run_full(trace, nullptr, &merged_features);
  // Jobs are interned by their raw shape either way; only the features the
  // clustering sees come from the conflated exemplars.
  EXPECT_EQ(merged.table.size(), raw.table.size());
  EXPECT_EQ(merged.shape_of, raw.shape_of);
  ASSERT_EQ(merged.shape_labels.size(), merged.table.size());
  ASSERT_EQ(merged_features.vectors.size(), merged.table.size());
  EXPECT_NE(merged_features.dictionary, raw_features.dictionary);
}

TEST(FullTrace, EmptyTraceThrows) {
  trace::Trace empty;
  const CharacterizationPipeline pipeline{PipelineConfig{}};
  EXPECT_THROW(pipeline.run_full(empty), util::InvalidArgument);
}

TEST(FullTrace, FittedFeaturesAlignWithShapes) {
  const auto trace = make_trace(2000, 17);
  const CharacterizationPipeline pipeline{PipelineConfig{}};
  FittedFeatures fitted;
  const auto result = pipeline.run_full(trace, nullptr, &fitted);
  EXPECT_EQ(fitted.vectors.size(), result.table.size());
  EXPECT_FALSE(fitted.dictionary.empty());
}

}  // namespace
}  // namespace cwgl::core
