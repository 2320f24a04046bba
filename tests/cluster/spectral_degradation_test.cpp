// Graceful-degradation and input-validation tests for the spectral path:
// strict rejection of non-finite/asymmetric similarity, the
// iterative-eigensolver -> dense-Jacobi fallback, and k-means' behavior on
// degenerate embeddings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "cluster/kmeans.hpp"
#include "cluster/metrics.hpp"
#include "cluster/spectral.hpp"
#include "linalg/eigen.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cwgl::cluster {
namespace {

/// One unit weight per row: a plain item set.
std::vector<double> ones(std::size_t n) { return std::vector<double>(n, 1.0); }

linalg::Matrix block_similarity(int blocks, int per_block, std::uint64_t seed,
                                std::vector<int>* truth = nullptr) {
  util::Xoshiro256StarStar rng(seed);
  const int n = blocks * per_block;
  linalg::Matrix w(n, n);
  for (int i = 0; i < n; ++i) {
    if (truth) truth->push_back(i / per_block);
    for (int j = 0; j <= i; ++j) {
      const bool same = (i / per_block) == (j / per_block);
      const double base = i == j ? 1.0 : (same ? 0.9 : 0.05);
      const double v =
          std::clamp(base + rng.uniform_real(-0.02, 0.02), 0.0, 1.0);
      w(i, j) = v;
      w(j, i) = v;
    }
  }
  return w;
}

TEST(SpectralValidation, StrictRejectsNonFiniteSimilarity) {
  auto w = block_similarity(2, 4, 3);
  w(1, 2) = std::numeric_limits<double>::quiet_NaN();
  w(2, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(spectral_cluster_weighted(w, ones(w.rows()), 2),
               util::InvalidArgument);

  auto inf = block_similarity(2, 4, 5);
  inf(0, 3) = std::numeric_limits<double>::infinity();
  inf(3, 0) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spectral_cluster_weighted(inf, ones(inf.rows()), 2),
               util::InvalidArgument);
}

TEST(SpectralValidation, StrictRejectsAsymmetricSimilarity) {
  auto w = block_similarity(2, 4, 7);
  w(1, 2) += 0.5;  // break symmetry well beyond numerical noise
  EXPECT_THROW(spectral_cluster_weighted(w, ones(w.rows()), 2),
               util::InvalidArgument);
}

TEST(SpectralValidation, TinyAsymmetryIsToleratedStrict) {
  auto w = block_similarity(2, 4, 9);
  w(1, 2) += 1e-12;  // numerical noise must NOT trip validation
  const auto result = spectral_cluster_weighted(w, ones(w.rows()), 2);
  EXPECT_EQ(result.labels.size(), 8u);
}

TEST(SpectralDegradation, NonConvergedPartialSolverFallsBackToDense) {
  std::vector<int> truth;
  // n = 40 > 32 so the partial path actually iterates (below 33 it
  // delegates to Jacobi outright), and a 1-sweep budget cannot satisfy the
  // solver's consecutive-settled-sweeps requirement: fallback guaranteed.
  const auto w = block_similarity(4, 10, 13, &truth);
  util::Diagnostics diagnostics;
  SpectralOptions options;
  options.partial_eigen_threshold = 0;  // force the iterative path
  options.partial_max_sweeps = 1;
  options.diagnostics = &diagnostics;
  const auto result = spectral_cluster_weighted(w, ones(w.rows()), 3, options);
  EXPECT_TRUE(result.eigen_fallback);
  EXPECT_EQ(diagnostics.count_of("spectral", "eigen-fallback"), 1u);
  // The fallback is the dense solver: full spectrum, correct clustering.
  EXPECT_EQ(result.eigenvalues.size(), 40u);
  EXPECT_EQ(result.labels.size(), 40u);
}

TEST(SpectralDegradation, ConvergedPartialSolverDoesNotFallBack) {
  const auto w = block_similarity(4, 10, 15);
  util::Diagnostics diagnostics;
  SpectralOptions options;
  options.partial_eigen_threshold = 0;
  options.diagnostics = &diagnostics;
  const auto result = spectral_cluster_weighted(w, ones(w.rows()), 4, options);
  EXPECT_FALSE(result.eigen_fallback);
  EXPECT_EQ(diagnostics.count_of("spectral", "eigen-fallback"), 0u);
  EXPECT_EQ(result.eigenvalues.size(), 4u);  // partial mode: k values only
}

TEST(EigenConvergence, JacobiReportsConvergence) {
  const auto w = block_similarity(2, 8, 17);
  const auto full = linalg::jacobi_eigen(w);
  EXPECT_TRUE(full.converged);
  // A 0-sweep budget cannot converge a matrix with off-diagonal mass.
  const auto starved = linalg::jacobi_eigen(w, 1e-12, 0);
  EXPECT_FALSE(starved.converged);
}

TEST(EigenConvergence, SubspaceIterationReportsNonConvergence) {
  // Use the graph Laplacian of the 4-block similarity (the shape the
  // spectral path feeds the solver): its 4 smallest eigenvalues sit near
  // zero, well separated from the bulk, so a generous budget converges —
  // while a 1-sweep budget can never satisfy the solver's
  // consecutive-settled-sweeps requirement. (The raw similarity matrix
  // would be a bad subject here: its BOTTOM eigenvalues are degenerate
  // noise, where subspace iteration is legitimately slow.)
  const auto w = block_similarity(4, 10, 19);  // n = 40 > 32
  const std::size_t n = w.rows();
  linalg::Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double degree = 0.0;
    for (std::size_t j = 0; j < n; ++j) degree += w(i, j);
    for (std::size_t j = 0; j < n; ++j) l(i, j) = -w(i, j);
    l(i, i) = degree - w(i, i);
  }
  const auto starved = linalg::smallest_eigenpairs(l, 3, /*max_sweeps=*/1);
  EXPECT_FALSE(starved.converged);
  const auto generous = linalg::smallest_eigenpairs(l, 3, /*max_sweeps=*/600);
  EXPECT_TRUE(generous.converged);
}

TEST(KMeansRobustness, NonFiniteDataRejected) {
  linalg::Matrix data(4, 2);
  data(2, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(kmeans_weighted(data, ones(data.rows()), 2, {}),
               util::InvalidArgument);
}

TEST(KMeansRobustness, DegenerateEmbeddingStillProducesKClusters) {
  // All points identical: kmeans++ D^2 weights are all zero. The uniform
  // re-seed must still return a usable labeling instead of looping or
  // crashing.
  linalg::Matrix data(8, 2);
  for (std::size_t i = 0; i < 8; ++i) {
    data(i, 0) = 1.0;
    data(i, 1) = 2.0;
  }
  const auto result = kmeans_weighted(data, ones(data.rows()), 3, {});
  ASSERT_EQ(result.labels.size(), 8u);
  for (int l : result.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 3);
  }
  EXPECT_EQ(result.inertia, 0.0);
}

}  // namespace
}  // namespace cwgl::cluster
