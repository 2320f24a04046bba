#pragma once

#include <span>
#include <vector>

#include "cluster/kmeans.hpp"
#include "linalg/matrix.hpp"

namespace cwgl::util {
class Diagnostics;
}

namespace cwgl::cluster {

/// Options for spectral clustering.
struct SpectralOptions {
  KMeansOptions kmeans;  ///< final k-means stage over the embedding
  /// Above this many items the bottom-k eigenvectors come from the partial
  /// subspace-iteration solver (O(k n^2) per sweep) instead of the full
  /// O(n^3) Jacobi decomposition. In partial mode `SpectralResult::
  /// eigenvalues` holds only the k computed values. 0 forces partial mode.
  std::size_t partial_eigen_threshold = 512;
  /// Sweep budget for the partial solver before it is declared
  /// non-converged and the dense Jacobi fallback kicks in.
  int partial_max_sweeps = 600;
  /// Hard ceiling on the dense path: above this many items the O(n^2)
  /// Laplacian + eigensolve would silently burn memory and hours, so the
  /// call throws util::InvalidArgument pointing at the scalable path
  /// (`cwgl characterize --full` / minibatch_kmeans). 0 disables the guard.
  std::size_t max_dense_items = 2000;
  /// Optional sink for degradations (eigen fallback).
  util::Diagnostics* diagnostics = nullptr;
};

/// Result of a spectral clustering run.
struct SpectralResult {
  std::vector<int> labels;            ///< cluster id per item
  std::vector<double> eigenvalues;    ///< ascending spectrum of L_sym
  linalg::Matrix embedding;           ///< n x k row-normalized eigenvector matrix
  /// True when the partial eigensolver failed to converge within its sweep
  /// budget and the result came from the dense Jacobi fallback instead.
  bool eigen_fallback = false;
};

/// Eigengap heuristic: given the ascending spectrum of L_sym, the suggested
/// cluster count is the k (in [1, max_k]) maximizing
/// eigenvalues[k] - eigenvalues[k-1].
int eigengap_k(std::span<const double> eigenvalues, int max_k);

/// Ng–Jordan–Weiss normalized spectral clustering over a similarity matrix
/// whose row/column t stands for `weights[t]` identical items (e.g. one
/// distinct job shape with its multiplicity; a plain item set is the case
/// of unit weights).
///
/// Steps: symmetrize W (average with its transpose; negative similarities
/// clamp to zero), build L = I - M with M(t,u) = sqrt(w_t w_u) W(t,u) /
/// sqrt(d_t d_u) and weighted degrees d_t = sum_u w_u W(t,u), take the k
/// eigenvectors of the smallest eigenvalues, row-normalize, and run
/// `kmeans_weighted` in the embedded space. Isolated rows (zero degree)
/// embed at the origin.
///
/// This is exactly the clustering of the EXPANDED similarity matrix (each
/// item repeated weights[t] times): the expansion's normalized affinity
/// has eigenvectors that are constant within each identity class, and
/// restricting to one row per class yields M. The expanded spectrum is
/// this n-item spectrum plus (N - n) copies of the eigenvalue 1 (append
/// them to reproduce it for the eigengap heuristic); row-normalizing the
/// eigenvectors cancels the per-class 1/sqrt(w_t) scaling, so the embedding
/// rows equal the expanded run's rows and k-means sees the same point set,
/// weighted.
///
/// Strict: throws InvalidArgument if `similarity` is not square, k is out
/// of range, weights are not finite and > 0, entries are non-finite, or the
/// matrix is asymmetric beyond numerical noise — garbage must not silently
/// steer the Laplacian.
SpectralResult spectral_cluster_weighted(const linalg::Matrix& similarity,
                                         std::span<const double> weights,
                                         int k,
                                         const SpectralOptions& options = {});

}  // namespace cwgl::cluster
