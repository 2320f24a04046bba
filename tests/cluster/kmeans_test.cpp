#include "cluster/kmeans.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace cwgl::cluster {
namespace {

/// One unit weight per row: a plain point set.
std::vector<double> ones(std::size_t n) { return std::vector<double>(n, 1.0); }

/// Three well-separated Gaussian blobs in 2D.
linalg::Matrix blobs(std::size_t per_blob, std::uint64_t seed,
                     std::vector<int>* truth = nullptr) {
  util::Xoshiro256StarStar rng(seed);
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  linalg::Matrix data(3 * per_blob, 2);
  for (int b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      const std::size_t row = b * per_blob + i;
      data(row, 0) = centers[b][0] + rng.normal(0.0, 0.5);
      data(row, 1) = centers[b][1] + rng.normal(0.0, 0.5);
      if (truth) truth->push_back(b);
    }
  }
  return data;
}

TEST(KMeans, RecoversPlantedBlobs) {
  std::vector<int> truth;
  const auto data = blobs(30, 3, &truth);
  const auto result = kmeans_weighted(data, ones(data.rows()), 3);
  // Every blob must map to a single distinct cluster.
  for (int b = 0; b < 3; ++b) {
    std::set<int> assigned;
    for (int i = 0; i < 30; ++i) assigned.insert(result.labels[b * 30 + i]);
    EXPECT_EQ(assigned.size(), 1u) << "blob " << b << " split";
  }
  std::set<int> all(result.labels.begin(), result.labels.end());
  EXPECT_EQ(all.size(), 3u);
}

TEST(KMeans, DeterministicForSeed) {
  const auto data = blobs(20, 5);
  KMeansOptions opt;
  opt.seed = 42;
  const auto a = kmeans_weighted(data, ones(data.rows()), 3, opt);
  const auto b = kmeans_weighted(data, ones(data.rows()), 3, opt);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeans, LabelsInRange) {
  const auto data = blobs(10, 7);
  const auto result = kmeans_weighted(data, ones(data.rows()), 4);
  for (int l : result.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 4);
  }
}

TEST(KMeans, KEqualsOneGivesGrandMeanInertia) {
  const auto data = blobs(10, 9);
  const auto result = kmeans_weighted(data, ones(data.rows()), 1);
  for (int l : result.labels) EXPECT_EQ(l, 0);
  // Center is the grand mean.
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    mx += data(i, 0);
    my += data(i, 1);
  }
  mx /= static_cast<double>(data.rows());
  my /= static_cast<double>(data.rows());
  EXPECT_NEAR(result.centers(0, 0), mx, 1e-9);
  EXPECT_NEAR(result.centers(0, 1), my, 1e-9);
}

TEST(KMeans, KEqualsNGivesZeroInertia) {
  linalg::Matrix data = linalg::Matrix::from_rows(
      {{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}, {5.0, 5.0}});
  const auto result = kmeans_weighted(data, ones(data.rows()), 4);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
  std::set<int> distinct(result.labels.begin(), result.labels.end());
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(KMeans, MoreClustersNeverIncreaseInertia) {
  const auto data = blobs(15, 11);
  double prev = std::numeric_limits<double>::max();
  for (int k = 1; k <= 5; ++k) {
    const auto result = kmeans_weighted(data, ones(data.rows()), k);
    EXPECT_LE(result.inertia, prev + 1e-9) << "k=" << k;
    prev = result.inertia;
  }
}

TEST(KMeans, InvalidKThrows) {
  const auto data = blobs(5, 13);
  EXPECT_THROW(kmeans_weighted(data, ones(data.rows()), 0),
               util::InvalidArgument);
  EXPECT_THROW(kmeans_weighted(data, ones(data.rows()),
                               static_cast<int>(data.rows()) + 1),
               util::InvalidArgument);
}

TEST(KMeans, DuplicatePointsHandled) {
  linalg::Matrix data(6, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    data(i, 0) = i < 3 ? 0.0 : 5.0;
    data(i, 1) = 0.0;
  }
  const auto result = kmeans_weighted(data, ones(data.rows()), 2);
  EXPECT_EQ(result.labels[0], result.labels[1]);
  EXPECT_EQ(result.labels[3], result.labels[4]);
  EXPECT_NE(result.labels[0], result.labels[3]);
}

}  // namespace
}  // namespace cwgl::cluster
