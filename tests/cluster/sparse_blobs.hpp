#pragma once

// Shared corpus generator for the scalable-clustering tests: G groups of
// sparse feature vectors with disjoint dominant feature blocks, small
// off-block noise, L2 normalization, and integer-ish multiplicities — the
// same shape the full-trace pipeline feeds minibatch_kmeans (normalized WL
// vectors of distinct shapes, count-weighted).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "kernel/types.hpp"
#include "util/rng.hpp"

namespace cwgl::cluster::testing {

struct SparseBlobs {
  std::vector<kernel::SparseVector> points;
  std::vector<double> weights;
  std::vector<int> truth;
  std::size_t dims = 0;
};

inline SparseBlobs make_sparse_blobs(int groups, int per_group,
                                     std::uint64_t seed) {
  util::Xoshiro256StarStar rng(seed);
  SparseBlobs out;
  out.dims = static_cast<std::size_t>(groups) * 8;
  for (int g = 0; g < groups; ++g) {
    for (int i = 0; i < per_group; ++i) {
      kernel::SparseVector v;
      for (int j = 0; j < 4; ++j) {
        v.items.emplace_back(g * 8 + j, 1.0 + rng.uniform_real(-0.1, 0.1));
      }
      // A little cross-group noise on one feature of the next block keeps
      // the kernel matrix from being exactly block diagonal.
      const int noise_id = ((g + 1) % groups) * 8 + 4 + (i % 4);
      v.items.emplace_back(noise_id, rng.uniform_real(0.0, 0.15));
      std::sort(v.items.begin(), v.items.end());  // ids must ascend
      const double norm = v.norm();
      for (auto& [id, value] : v.items) value /= norm;
      out.points.push_back(std::move(v));
      out.weights.push_back(static_cast<double>(rng.uniform_u64(1, 6)));
      out.truth.push_back(g);
    }
  }
  return out;
}

}  // namespace cwgl::cluster::testing
