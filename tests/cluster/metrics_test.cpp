#include "cluster/metrics.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace cwgl::cluster {
namespace {

/// One unit weight per item: a plain item set.
std::vector<double> ones(std::size_t n) { return std::vector<double>(n, 1.0); }

TEST(AdjustedRandIndex, IdenticalPartitionsScoreOne) {
  const std::vector<int> a{0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, a), 1.0);
}

TEST(AdjustedRandIndex, RelabelingInvariant) {
  const std::vector<int> a{0, 0, 1, 1, 2, 2};
  const std::vector<int> b{5, 5, 9, 9, 1, 1};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, b), 1.0);
}

TEST(AdjustedRandIndex, DisagreementLowersScore) {
  const std::vector<int> a{0, 0, 0, 1, 1, 1};
  const std::vector<int> b{0, 0, 1, 1, 1, 1};
  const double ari = adjusted_rand_index(a, b);
  EXPECT_LT(ari, 1.0);
  EXPECT_GT(ari, 0.0);
}

TEST(AdjustedRandIndex, SymmetricInArguments) {
  const std::vector<int> a{0, 0, 1, 1, 2, 2};
  const std::vector<int> b{0, 1, 1, 2, 2, 0};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, b), adjusted_rand_index(b, a));
}

TEST(AdjustedRandIndex, KnownValue) {
  // Classic example: ARI of these partitions is 0.24242...
  const std::vector<int> a{0, 0, 0, 1, 1, 1};
  const std::vector<int> b{0, 0, 1, 1, 2, 2};
  EXPECT_NEAR(adjusted_rand_index(a, b), 0.2424242424, 1e-9);
}

TEST(AdjustedRandIndex, SizeMismatchThrows) {
  const std::vector<int> a{0, 1};
  const std::vector<int> b{0};
  EXPECT_THROW(adjusted_rand_index(a, b), util::InvalidArgument);
}

TEST(Nmi, IdenticalPartitionsScoreOne) {
  const std::vector<int> a{0, 0, 1, 1};
  EXPECT_NEAR(normalized_mutual_information(a, a), 1.0, 1e-12);
}

TEST(Nmi, IndependentPartitionsScoreNearZero) {
  // Perfectly crossed partitions carry zero mutual information.
  const std::vector<int> a{0, 0, 1, 1};
  const std::vector<int> b{0, 1, 0, 1};
  EXPECT_NEAR(normalized_mutual_information(a, b), 0.0, 1e-12);
}

TEST(Nmi, InUnitInterval) {
  const std::vector<int> a{0, 0, 0, 1, 1, 2};
  const std::vector<int> b{0, 1, 0, 1, 1, 2};
  const double nmi = normalized_mutual_information(a, b);
  EXPECT_GE(nmi, 0.0);
  EXPECT_LE(nmi, 1.0);
}

TEST(Nmi, BothTrivialPartitionsScoreOne) {
  const std::vector<int> a{0, 0, 0};
  EXPECT_DOUBLE_EQ(normalized_mutual_information(a, a), 1.0);
}

TEST(Purity, PerfectClusteringIsOne) {
  const std::vector<int> pred{0, 0, 1, 1};
  const std::vector<int> truth{7, 7, 9, 9};
  EXPECT_DOUBLE_EQ(purity(pred, truth), 1.0);
}

TEST(Purity, MajorityRule) {
  const std::vector<int> pred{0, 0, 0, 1, 1, 1};
  const std::vector<int> truth{0, 0, 1, 1, 1, 0};
  EXPECT_DOUBLE_EQ(purity(pred, truth), 4.0 / 6.0);
}

TEST(Purity, SingletonClustersAlwaysPure) {
  const std::vector<int> pred{0, 1, 2, 3};
  const std::vector<int> truth{0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(purity(pred, truth), 1.0);
}

TEST(ClusterCountAndSizes, Basics) {
  const std::vector<int> labels{0, 2, 2, 0, 0};
  EXPECT_EQ(cluster_count(labels), 2);
  const auto sizes = cluster_sizes(labels);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 3u);
  EXPECT_EQ(sizes[1], 0u);
  EXPECT_EQ(sizes[2], 2u);
}

TEST(ClusterSizes, NegativeLabelThrows) {
  const std::vector<int> labels{0, -1};
  EXPECT_THROW(cluster_sizes(labels), util::InvalidArgument);
}

TEST(Silhouette, WellSeparatedClustersScoreHigh) {
  // Two tight pairs far apart.
  linalg::Matrix d = linalg::Matrix::from_rows({{0.0, 0.1, 9.0, 9.0},
                                                {0.1, 0.0, 9.0, 9.0},
                                                {9.0, 9.0, 0.0, 0.1},
                                                {9.0, 9.0, 0.1, 0.0}});
  const std::vector<int> labels{0, 0, 1, 1};
  EXPECT_GT(silhouette_score_weighted(d, ones(d.rows()), labels), 0.9);
}

TEST(Silhouette, BadAssignmentScoresNegative) {
  linalg::Matrix d = linalg::Matrix::from_rows({{0.0, 0.1, 9.0, 9.0},
                                                {0.1, 0.0, 9.0, 9.0},
                                                {9.0, 9.0, 0.0, 0.1},
                                                {9.0, 9.0, 0.1, 0.0}});
  const std::vector<int> labels{0, 1, 0, 1};  // crosses the true pairs
  EXPECT_LT(silhouette_score_weighted(d, ones(d.rows()), labels), 0.0);
}

TEST(Silhouette, SingleClusterScoresZero) {
  linalg::Matrix d(3, 3);
  const std::vector<int> labels{0, 0, 0};
  EXPECT_DOUBLE_EQ(silhouette_score_weighted(d, ones(d.rows()), labels), 0.0);
}

TEST(Silhouette, MismatchThrows) {
  linalg::Matrix d(3, 3);
  const std::vector<int> labels{0, 1};
  EXPECT_THROW(silhouette_score_weighted(d, ones(d.rows()), labels),
               util::InvalidArgument);
}

}  // namespace
}  // namespace cwgl::cluster
