#include "core/clustering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/similarity.hpp"
#include "util/error.hpp"

namespace cwgl::core {
namespace {

trace::TaskRecord task(std::string name, std::string job) {
  trace::TaskRecord t;
  t.task_name = std::move(name);
  t.job_name = std::move(job);
  t.instance_num = 1;
  t.status = trace::Status::Terminated;
  t.start_time = 100;
  t.end_time = 200;
  t.plan_cpu = 100.0;
  t.plan_mem = 0.5;
  return t;
}

JobDag make_job(const std::vector<std::string>& names, std::string job_name) {
  std::vector<trace::TaskRecord> records;
  for (const auto& n : names) records.push_back(task(n, job_name));
  auto job = build_job_dag(job_name, records);
  EXPECT_TRUE(job.has_value()) << job_name;
  return *job;
}

/// A count of 1 per job: a plain job list.
std::vector<std::uint64_t> unit_counts(std::span<const JobDag> jobs) {
  return std::vector<std::uint64_t>(jobs.size(), 1);
}

/// 8 chains + 4 fan-ins: two clearly separable structural families of
/// unequal population, so group relabeling is testable.
std::vector<JobDag> two_family_corpus() {
  std::vector<JobDag> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(make_job({"M1", "R2_1", "R3_2"}, "j_chain" + std::to_string(i)));
  }
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(
        make_job({"M1", "M2", "M3", "M4", "R5_4_3_2_1"}, "j_fan" + std::to_string(i)));
  }
  return jobs;
}

TEST(ClusteringAnalysis, SeparatesStructuralFamilies) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  const auto analysis =
      ClusteringAnalysis::compute(sim.gram, jobs, unit_counts(jobs), options);
  // All chains together, all fans together.
  for (int i = 1; i < 8; ++i) EXPECT_EQ(analysis.labels[i], analysis.labels[0]);
  for (int i = 9; i < 12; ++i) EXPECT_EQ(analysis.labels[i], analysis.labels[8]);
  EXPECT_NE(analysis.labels[0], analysis.labels[8]);
}

TEST(ClusteringAnalysis, GroupZeroIsLargest) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  const auto analysis =
      ClusteringAnalysis::compute(sim.gram, jobs, unit_counts(jobs), options);
  // Relabeling: group A (=0) must be the 8-chain family.
  EXPECT_EQ(analysis.labels[0], 0);
  EXPECT_EQ(analysis.groups[0].population, 8u);
  EXPECT_EQ(analysis.groups[1].population, 4u);
  EXPECT_EQ(analysis.groups[0].letter(), 'A');
  EXPECT_EQ(analysis.groups[1].letter(), 'B');
  EXPECT_NEAR(analysis.groups[0].population_fraction, 8.0 / 12.0, 1e-12);
}

TEST(ClusteringAnalysis, GroupStatsReflectMembers) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  const auto analysis =
      ClusteringAnalysis::compute(sim.gram, jobs, unit_counts(jobs), options);
  const auto& chains = analysis.groups[0];
  EXPECT_DOUBLE_EQ(chains.size.mean, 3.0);
  EXPECT_DOUBLE_EQ(chains.critical_path.mean, 3.0);
  EXPECT_DOUBLE_EQ(chains.parallelism.mean, 1.0);
  EXPECT_DOUBLE_EQ(chains.chain_fraction, 1.0);
  const auto& fans = analysis.groups[1];
  EXPECT_DOUBLE_EQ(fans.size.mean, 5.0);
  EXPECT_DOUBLE_EQ(fans.critical_path.mean, 2.0);
  EXPECT_DOUBLE_EQ(fans.parallelism.mean, 4.0);
  EXPECT_DOUBLE_EQ(fans.chain_fraction, 0.0);
}

TEST(ClusteringAnalysis, MedoidBelongsToItsGroup) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  const auto analysis =
      ClusteringAnalysis::compute(sim.gram, jobs, unit_counts(jobs), options);
  for (const auto& g : analysis.groups) {
    EXPECT_EQ(analysis.labels[g.medoid], g.group);
  }
}

TEST(ClusteringAnalysis, SilhouettePositiveForSeparableFamilies) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  const auto analysis =
      ClusteringAnalysis::compute(sim.gram, jobs, unit_counts(jobs), options);
  EXPECT_GT(analysis.silhouette, 0.5);
}

TEST(ClusteringAnalysis, DeterministicForSeed) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  options.seed = 77;
  const auto a =
      ClusteringAnalysis::compute(sim.gram, jobs, unit_counts(jobs), options);
  const auto b =
      ClusteringAnalysis::compute(sim.gram, jobs, unit_counts(jobs), options);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(ClusteringAnalysis, SizeMismatchThrows) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  const std::vector<JobDag> fewer(jobs.begin(), jobs.begin() + 3);
  EXPECT_THROW(
      ClusteringAnalysis::compute(sim.gram, fewer, unit_counts(fewer), {}),
      util::InvalidArgument);
}

TEST(ClusteringAnalysis, CountsWeighGroupsAndMedoidsArePerItem) {
  // Two distinct shapes standing for 3 chains and 7 fan-ins: the fan-in
  // shape is group A by mass although it comes second.
  const std::vector<JobDag> items{
      make_job({"M1", "R2_1", "R3_2"}, "j_chain"),
      make_job({"M1", "M2", "M3", "M4", "R5_4_3_2_1"}, "j_fan")};
  const std::vector<std::uint64_t> counts{3, 7};
  const auto sim = SimilarityAnalysis::compute(items);
  ClusteringOptions options;
  options.clusters = 2;
  const auto analysis =
      ClusteringAnalysis::compute(sim.gram, items, counts, options);
  EXPECT_EQ(analysis.labels, (std::vector<int>{1, 0}));
  EXPECT_EQ(analysis.groups[0].population, 7u);
  EXPECT_EQ(analysis.groups[0].medoid, 1u);
  EXPECT_EQ(analysis.groups[1].population, 3u);
  EXPECT_EQ(analysis.groups[1].medoid, 0u);
  // The expanded spectrum: one eigenvalue per job.
  EXPECT_EQ(analysis.eigenvalues.size(), 10u);
}

TEST(ClusteringAnalysis, ClusterCountClampedToItems) {
  const std::vector<JobDag> items{
      make_job({"M1", "R2_1", "R3_2"}, "j_chain"),
      make_job({"M1", "M2", "M3", "M4", "R5_4_3_2_1"}, "j_fan")};
  const std::vector<std::uint64_t> counts{4, 1};
  const auto sim = SimilarityAnalysis::compute(items);
  ClusteringOptions options;
  options.clusters = 5;
  const auto analysis =
      ClusteringAnalysis::compute(sim.gram, items, counts, options);
  EXPECT_EQ(analysis.labels, (std::vector<int>{0, 1}));
  ASSERT_EQ(analysis.groups.size(), 5u);
  EXPECT_EQ(analysis.groups[0].population, 4u);
  EXPECT_EQ(analysis.groups[1].population, 1u);
  for (int g = 2; g < 5; ++g) {
    EXPECT_EQ(analysis.groups[g].population, 0u);
    EXPECT_EQ(analysis.groups[g].letter(), 'A' + g);
  }
}

TEST(ClusteringAnalysis, EqualMassGroupsKeepLettersUnderPermutedIds) {
  // Items 0-1, 2-3 and 4 form three groups; the first two tie at mass 3.
  const std::vector<std::uint64_t> counts{2, 1, 1, 2, 1};
  const std::vector<int> expected{0, 0, 1, 1, 2};
  std::vector<int> ids{0, 1, 2};
  do {
    const std::vector<int> raw{ids[0], ids[0], ids[1], ids[1], ids[2]};
    EXPECT_EQ(relabel_by_mass(raw, counts), expected)
        << "raw ids " << ids[0] << ids[1] << ids[2];
  } while (std::next_permutation(ids.begin(), ids.end()));
  // Ids k-means left empty sort after every populated group.
  EXPECT_EQ(relabel_by_mass(std::vector<int>{3, 3, 1, 1, 0}, counts), expected);
}

TEST(ClusteringAnalysis, EqualMassTieGoesToEarliestItemForEverySeed) {
  // Two structural families of equal population, the chains listed first:
  // whatever ids the k-means seed hands out, the chains are group A.
  std::vector<JobDag> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(make_job({"M1", "R2_1", "R3_2"}, "j_c" + std::to_string(i)));
  }
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(make_job({"M1", "M2", "M3", "M4", "R5_4_3_2_1"},
                            "j_f" + std::to_string(i)));
  }
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    options.seed = seed;
    const auto analysis =
        ClusteringAnalysis::compute(sim.gram, jobs, unit_counts(jobs), options);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(analysis.labels[i], 0) << seed;
    for (int i = 4; i < 8; ++i) EXPECT_EQ(analysis.labels[i], 1) << seed;
  }
}

TEST(ClusteringAnalysis, ZeroCountThrows) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  std::vector<std::uint64_t> counts = unit_counts(jobs);
  counts[3] = 0;
  EXPECT_THROW(ClusteringAnalysis::compute(sim.gram, jobs, counts, {}),
               util::InvalidArgument);
}

TEST(ClusterGroupStats, ShortJobFraction) {
  std::vector<JobDag> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(make_job({"M1", "R2_1"}, "j_s" + std::to_string(i)));
  }
  jobs.push_back(make_job({"M1", "R2_1", "R3_2"}, "j_l"));
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  const auto analysis =
      ClusteringAnalysis::compute(sim.gram, jobs, unit_counts(jobs), options);
  // Group A holds the four 2-task jobs (all "short": < 3 tasks).
  EXPECT_EQ(analysis.groups[0].population, 4u);
  EXPECT_DOUBLE_EQ(analysis.groups[0].short_job_fraction, 1.0);
  EXPECT_DOUBLE_EQ(analysis.groups[1].short_job_fraction, 0.0);
}

}  // namespace
}  // namespace cwgl::core
