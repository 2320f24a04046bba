#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace cwgl::cluster {

/// Result of a k-means run.
struct KMeansResult {
  std::vector<int> labels;   ///< cluster id per row, in [0, k)
  linalg::Matrix centers;    ///< k x d centroids
  double inertia = 0.0;      ///< sum of squared distances to assigned centers
  int iterations = 0;        ///< Lloyd iterations executed
};

/// Options for k-means.
struct KMeansOptions {
  int max_iterations = 300;
  double tol = 1e-7;       ///< stop when inertia improves by less than tol
  int restarts = 8;        ///< independent k-means++ restarts; best kept
  std::uint64_t seed = 1;  ///< all restarts derive deterministically from this
};

/// Weighted Lloyd's k-means with k-means++ seeding over the rows of `data`
/// (n x d): row i stands for `weights[i]` identical points. Equivalent to
/// plain k-means on the expanded data set — k-means++ picks rows with
/// probability proportional to weight x D^2, centroids are weighted means,
/// inertia is the weighted sum of squared distances — but runs on n
/// distinct rows instead of sum(weights) points. A plain point set is the
/// case of unit weights.
///
/// Deterministic in `options.seed`; the RNG draws differ from a run over
/// the expanded rows (the sample spaces have different sizes), so on
/// well-separated data both converge to the same partition, not the same
/// cluster ids. Empty clusters are re-seeded from the row farthest from its
/// center. Weights must be finite and > 0. Throws InvalidArgument on bad
/// weights or if k < 1 or k > n.
KMeansResult kmeans_weighted(const linalg::Matrix& data,
                             std::span<const double> weights, int k,
                             const KMeansOptions& options = {});

}  // namespace cwgl::cluster
