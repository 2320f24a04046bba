// Equivalence tests for the count-weighted clustering stages against runs on
// the EXPANDED data (each row duplicated `weight` times). These are the
// claims the shape-interned pipeline rests on: weighted spectral embedding ==
// expanded embedding (plus a padded eigenvalue 1 per collapsed duplicate),
// weighted k-means == k-means over duplicates, weighted silhouette ==
// expanded silhouette. The expanded-run figures (partition, centers, inertia,
// spectrum, silhouette) are recorded from plain unweighted implementations
// of each stage; each test also checks that the weighted call on the
// expanded input with unit weights matches the compact call.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "cluster/kmeans.hpp"
#include "cluster/metrics.hpp"
#include "cluster/spectral.hpp"
#include "linalg/matrix.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cwgl::cluster {
namespace {

/// Expands row i of `data` into `weights[i]` identical rows.
linalg::Matrix expand_rows(const linalg::Matrix& data,
                           const std::vector<std::uint64_t>& weights) {
  std::size_t total = 0;
  for (std::uint64_t w : weights) total += w;
  linalg::Matrix out(total, data.cols());
  std::size_t r = 0;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    for (std::uint64_t copy = 0; copy < weights[i]; ++copy, ++r) {
      for (std::size_t c = 0; c < data.cols(); ++c) out(r, c) = data(i, c);
    }
  }
  return out;
}

/// Expands a similarity (or distance) matrix the same way, on both axes.
linalg::Matrix expand_square(const linalg::Matrix& m,
                             const std::vector<std::uint64_t>& weights) {
  std::vector<std::size_t> owner;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::uint64_t copy = 0; copy < weights[i]; ++copy) owner.push_back(i);
  }
  linalg::Matrix out(owner.size(), owner.size());
  for (std::size_t a = 0; a < owner.size(); ++a) {
    for (std::size_t b = 0; b < owner.size(); ++b) {
      out(a, b) = m(owner[a], owner[b]);
    }
  }
  return out;
}

/// True when two labelings are the same partition (up to cluster renaming).
bool same_partition(const std::vector<int>& a, const std::vector<int>& b) {
  if (a.size() != b.size()) return false;
  std::vector<int> a_to_b(1 + *std::max_element(a.begin(), a.end()), -1);
  std::vector<int> b_to_a(1 + *std::max_element(b.begin(), b.end()), -1);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a_to_b[a[i]] == -1) a_to_b[a[i]] = b[i];
    if (b_to_a[b[i]] == -1) b_to_a[b[i]] = a[i];
    if (a_to_b[a[i]] != b[i] || b_to_a[b[i]] != a[i]) return false;
  }
  return true;
}

/// Three well-separated blob CENTERS (one row each) plus per-row weights —
/// the collapsed view of a workload with recurring identical rows.
linalg::Matrix blob_rows(std::vector<std::uint64_t>* weights,
                         std::uint64_t seed = 3, std::size_t rows = 9) {
  util::Xoshiro256StarStar rng(seed);
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  linalg::Matrix data(rows, 2);
  weights->clear();
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t b = i % 3;
    data(i, 0) = centers[b][0] + rng.normal(0.0, 0.4);
    data(i, 1) = centers[b][1] + rng.normal(0.0, 0.4);
    weights->push_back(1 + rng.uniform_int(0, 6));
  }
  return data;
}

/// Expands per-row labels to one label per duplicated row.
std::vector<int> expand_labels(const std::vector<int>& labels,
                               const std::vector<std::uint64_t>& weights) {
  std::vector<int> out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    out.insert(out.end(), weights[i], labels[i]);
  }
  return out;
}

TEST(KMeansWeighted, MatchesExpandedRunOnSeparatedData) {
  std::vector<std::uint64_t> weights;
  const linalg::Matrix data = blob_rows(&weights);
  ASSERT_EQ(weights, (std::vector<std::uint64_t>{3, 2, 5, 5, 7, 4, 7, 3, 5}));
  std::vector<double> w(weights.begin(), weights.end());
  const KMeansResult weighted = kmeans_weighted(data, w, 3);
  const std::vector<int> weighted_expanded =
      expand_labels(weighted.labels, weights);

  // Plain k-means over the 41 expanded rows (default options).
  const std::vector<int> expanded_labels{
      2, 2, 2, 1, 1, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1,
      1, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 0, 0, 0, 0, 0};
  const double expanded_centers[3][2] = {
      {-0.26224690843516102, 9.8347380149685062},
      {9.7353780436698809, 0.29444692853277277},
      {0.5078603100691782, 0.11918965732187013}};
  const double expanded_inertia = 8.3914564327050201;

  // Cluster ids may be permuted between the runs (the RNG streams differ);
  // the same partition means identical centroids (weighted mean ==
  // expanded mean) and identical inertia, up to that permutation.
  EXPECT_TRUE(same_partition(expanded_labels, weighted_expanded));
  std::vector<int> perm(3, -1);
  for (std::size_t i = 0; i < weighted_expanded.size(); ++i) {
    perm[weighted_expanded[i]] = expanded_labels[i];
  }
  for (int c = 0; c < 3; ++c) {
    ASSERT_GE(perm[c], 0);
    for (std::size_t d = 0; d < 2; ++d) {
      EXPECT_NEAR(weighted.centers(c, d), expanded_centers[perm[c]][d], 1e-9);
    }
  }
  EXPECT_NEAR(weighted.inertia, expanded_inertia,
              1e-9 * (1.0 + expanded_inertia));

  // The same call on the expanded rows with unit weights.
  const linalg::Matrix expanded = expand_rows(data, weights);
  const std::vector<double> ones(expanded.rows(), 1.0);
  const KMeansResult unit = kmeans_weighted(expanded, ones, 3);
  EXPECT_TRUE(same_partition(unit.labels, weighted_expanded));
  EXPECT_NEAR(unit.inertia, weighted.inertia, 1e-9 * (1.0 + weighted.inertia));
}

TEST(KMeansWeighted, RejectsBadWeights) {
  std::vector<std::uint64_t> weights;
  const linalg::Matrix data = blob_rows(&weights);
  EXPECT_THROW(kmeans_weighted(data, std::vector<double>(3, 1.0), 3),
               util::InvalidArgument);
  std::vector<double> zero(data.rows(), 1.0);
  zero[0] = 0.0;
  EXPECT_THROW(kmeans_weighted(data, zero, 3), util::InvalidArgument);
  std::vector<double> nan(data.rows(), 1.0);
  nan[0] = std::nan("");
  EXPECT_THROW(kmeans_weighted(data, nan, 3), util::InvalidArgument);
}

/// Block similarity over `rows` items in 3 groups: 1.0 within, ~0 across,
/// mildly perturbed to keep eigenvalues simple.
linalg::Matrix block_similarity(std::size_t rows) {
  linalg::Matrix s(rows, rows);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < rows; ++j) {
      s(i, j) = (i % 3 == j % 3) ? 1.0 : 0.05;
    }
  }
  return s;
}

TEST(SpectralWeighted, MatchesExpandedRunOnBlockData) {
  const std::size_t n = 9;
  const linalg::Matrix sim = block_similarity(n);
  std::vector<std::uint64_t> weights;
  util::Xoshiro256StarStar rng(5);
  for (std::size_t i = 0; i < n; ++i) {
    weights.push_back(1 + rng.uniform_int(0, 4));
  }
  ASSERT_EQ(weights, (std::vector<std::uint64_t>{2, 4, 4, 5, 3, 4, 3, 5, 2}));
  std::vector<double> w(weights.begin(), weights.end());
  const SpectralResult weighted = spectral_cluster_weighted(sim, w, 3);
  const std::vector<int> weighted_expanded =
      expand_labels(weighted.labels, weights);

  // Plain spectral clustering of the 32 x 32 expanded matrix (default
  // options): its partition and full ascending spectrum.
  const std::vector<int> expanded_labels{
      1, 1, 0, 0, 0, 0, 2, 2, 2, 2, 1, 1, 1, 1, 1, 0,
      0, 0, 2, 2, 2, 2, 1, 1, 1, 0, 0, 0, 0, 0, 2, 2};
  std::vector<double> expanded_spectrum{
      1.8364276813033123e-16, 0.13097713097713118, 0.14414414414414461};
  expanded_spectrum.resize(32, 1.0);  // 29 eigenvalues within 5e-15 of 1

  EXPECT_TRUE(same_partition(expanded_labels, weighted_expanded));
  // Eigenvalue equivalence: the expanded spectrum is the weighted spectrum
  // plus an eigenvalue 1 for every collapsed duplicate row.
  const std::size_t total = expanded_labels.size();
  ASSERT_EQ(weighted.eigenvalues.size(), n);
  std::vector<double> padded = weighted.eigenvalues;
  padded.insert(padded.end(), total - n, 1.0);
  std::sort(padded.begin(), padded.end());
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_NEAR(padded[i], expanded_spectrum[i], 1e-8) << "eigenvalue " << i;
  }

  // The same call on the expanded matrix with unit weights.
  const linalg::Matrix expanded = expand_square(sim, weights);
  const std::vector<double> ones(total, 1.0);
  const SpectralResult unit = spectral_cluster_weighted(expanded, ones, 3);
  EXPECT_TRUE(same_partition(unit.labels, weighted_expanded));
  ASSERT_EQ(unit.eigenvalues.size(), total);
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_NEAR(unit.eigenvalues[i], padded[i], 1e-8) << "eigenvalue " << i;
  }
}

TEST(SpectralWeighted, RejectsBadInput) {
  const linalg::Matrix sim = block_similarity(6);
  EXPECT_THROW(spectral_cluster_weighted(sim, std::vector<double>(4, 1.0), 2),
               util::InvalidArgument);
  std::vector<double> negative(6, 1.0);
  negative[2] = -1.0;
  EXPECT_THROW(spectral_cluster_weighted(sim, negative, 2),
               util::InvalidArgument);
}

TEST(SilhouetteWeighted, MatchesExpandedRun) {
  // Distances between 6 items in 2 clear groups.
  const std::size_t n = 6;
  linalg::Matrix dist(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) { dist(i, j) = 0.0; continue; }
      dist(i, j) = (i % 2 == j % 2) ? 0.3 + 0.01 * (i + j) : 2.0;
    }
  }
  const std::vector<int> labels{0, 1, 0, 1, 0, 1};
  std::vector<std::uint64_t> weights{3, 1, 2, 4, 1, 2};
  std::vector<double> w(weights.begin(), weights.end());

  // Plain silhouette of the 13 expanded items.
  const double expanded = 0.87805128205128224;
  const double weighted = silhouette_score_weighted(dist, w, labels);
  EXPECT_NEAR(weighted, expanded, 1e-12);

  // The same call on the expanded distances with unit weights.
  const linalg::Matrix big = expand_square(dist, weights);
  const std::vector<double> ones(big.rows(), 1.0);
  EXPECT_NEAR(
      silhouette_score_weighted(big, ones, expand_labels(labels, weights)),
      weighted, 1e-12);
}

}  // namespace
}  // namespace cwgl::cluster
