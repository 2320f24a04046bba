#include "graph/isomorphism.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <utility>
#include <vector>

#include "graph/canonical.hpp"
#include "trace/generator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cwgl::graph {
namespace {

Digraph permuted(const Digraph& g, const std::vector<int>& perm) {
  std::vector<Edge> edges;
  for (const Edge& e : g.edges()) edges.push_back({perm[e.from], perm[e.to]});
  return Digraph(g.num_vertices(), edges);
}

TEST(AreIsomorphic, IdenticalGraphs) {
  const Digraph g(3, std::vector<Edge>{{0, 1}, {1, 2}});
  EXPECT_TRUE(are_isomorphic(g, {}, g, {}));
}

TEST(AreIsomorphic, PermutedCopy) {
  const Digraph g(4, std::vector<Edge>{{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const std::vector<int> perm{3, 1, 0, 2};
  EXPECT_TRUE(are_isomorphic(g, {}, permuted(g, perm), {}));
}

TEST(AreIsomorphic, DifferentSizesRejectedFast) {
  EXPECT_FALSE(are_isomorphic(Digraph(2, {}), {}, Digraph(3, {}), {}));
}

TEST(AreIsomorphic, DifferentEdgeCounts) {
  const Digraph a(3, std::vector<Edge>{{0, 1}});
  const Digraph b(3, std::vector<Edge>{{0, 1}, {1, 2}});
  EXPECT_FALSE(are_isomorphic(a, {}, b, {}));
}

TEST(AreIsomorphic, ChainVsFanIn) {
  const Digraph chain(3, std::vector<Edge>{{0, 1}, {1, 2}});
  const Digraph fan(3, std::vector<Edge>{{0, 2}, {1, 2}});
  EXPECT_FALSE(are_isomorphic(chain, {}, fan, {}));
}

TEST(AreIsomorphic, DirectionMatters) {
  const Digraph out_star(3, std::vector<Edge>{{0, 1}, {0, 2}});
  const Digraph in_star(3, std::vector<Edge>{{1, 0}, {2, 0}});
  EXPECT_FALSE(are_isomorphic(out_star, {}, in_star, {}));
}

TEST(AreIsomorphic, LabelsBreakSymmetry) {
  const Digraph g(2, std::vector<Edge>{{0, 1}});
  const std::vector<int> mr{'M', 'R'};
  const std::vector<int> rm{'R', 'M'};
  EXPECT_TRUE(are_isomorphic(g, mr, g, mr));
  EXPECT_FALSE(are_isomorphic(g, mr, g, rm));
}

TEST(AreIsomorphic, LabelPermutationConsistent) {
  const Digraph g(3, std::vector<Edge>{{0, 2}, {1, 2}});
  const std::vector<int> labels{'M', 'J', 'R'};
  const std::vector<int> perm{2, 0, 1};
  std::vector<int> plabels(3);
  for (int v = 0; v < 3; ++v) plabels[perm[v]] = labels[v];
  EXPECT_TRUE(are_isomorphic(g, labels, permuted(g, perm), plabels));
}

TEST(AreIsomorphic, SelfLoopsRespected) {
  const Digraph with_loop(2, std::vector<Edge>{{0, 0}, {0, 1}});
  const Digraph without(2, std::vector<Edge>{{0, 1}, {1, 1}});
  // Same size/edge count, different loop placement relative to direction:
  // vertex with loop has out-degree 2 vs in-degree 2 — not isomorphic.
  EXPECT_FALSE(are_isomorphic(with_loop, {}, without, {}));
}

TEST(AreIsomorphic, RenumberedSourceBlocksAnswerFast) {
  // 13 M -> 4 R -> 1 J: R13 reads M0..M3, R14..R16 read three M each, and
  // every R feeds J17. The copy numbers the four-source block last and
  // interleaves the rest, so a matcher walking vertices in index order
  // permutes all 13 sources before any R edge rejects a choice.
  std::vector<Edge> edges;
  const int block_start[] = {0, 4, 7, 10, 13};
  for (int r = 0; r < 4; ++r) {
    for (int m = block_start[r]; m < block_start[r + 1]; ++m) {
      edges.push_back({m, 13 + r});
    }
    edges.push_back({13 + r, 17});
  }
  const Digraph a(18, edges);
  std::vector<int> labels(18, 'M');
  for (int r = 13; r < 17; ++r) labels[r] = 'R';
  labels[17] = 'J';
  const std::vector<int> perm{9, 10, 11, 12, 0, 3, 6, 1, 4, 7, 2, 5, 8,
                              13, 14, 15, 16, 17};
  const Digraph b = permuted(a, perm);
  ASSERT_EQ(canonical_hash(a, labels), canonical_hash(b, labels));

  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(are_isomorphic(a, labels, b, labels));
  EXPECT_TRUE(are_isomorphic(b, labels, a, labels));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

TEST(AreIsomorphic, PermutedComponentsMatched) {
  // Four components, one an isolated vertex: the matching order restarts
  // its breadth-first walk at each, and labels pin which chain is which.
  const Digraph g(9, std::vector<Edge>{{0, 1}, {1, 2}, {3, 5}, {4, 5}, {7, 8}});
  const std::vector<int> labels{'M', 'R', 'R', 'M', 'M', 'J', 'M', 'M', 'M'};
  const std::vector<int> perm{8, 2, 5, 0, 6, 3, 4, 1, 7};
  std::vector<int> permuted_labels(labels.size());
  for (std::size_t v = 0; v < labels.size(); ++v) {
    permuted_labels[perm[v]] = labels[v];
  }
  const Digraph h = permuted(g, perm);
  EXPECT_TRUE(are_isomorphic(g, labels, h, permuted_labels));
  EXPECT_TRUE(are_isomorphic(h, permuted_labels, g, labels));
  // Swapping the labels of the two chain tails breaks it.
  std::swap(permuted_labels[perm[2]], permuted_labels[perm[8]]);
  EXPECT_FALSE(are_isomorphic(g, labels, h, permuted_labels));
}

TEST(AreIsomorphic, EqualSignaturesDifferentWiringRejected) {
  // Every vertex has the same (label, in, out) signature multiset on both
  // sides, so only the search can tell these apart.
  const Digraph two_chains(6, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const Digraph long_and_short(6,
                               std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {4, 5}});
  EXPECT_FALSE(are_isomorphic(two_chains, {}, long_and_short, {}));
  EXPECT_FALSE(are_isomorphic(long_and_short, {}, two_chains, {}));

  const Digraph six_cycle(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  const Digraph two_triangles(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  EXPECT_FALSE(are_isomorphic(six_cycle, {}, two_triangles, {}));
  EXPECT_FALSE(are_isomorphic(two_triangles, {}, six_cycle, {}));
}

TEST(AreIsomorphic, Validation) {
  const Digraph g(2, {});
  const std::vector<int> wrong{1};
  EXPECT_THROW(are_isomorphic(g, wrong, g, {}), util::InvalidArgument);
  EXPECT_THROW(are_isomorphic(Digraph(40, {}), {}, Digraph(40, {}), {}),
               util::InvalidArgument);
}

/// Cross-validation sweep: on random job-shaped DAGs, canonical_hash and the
/// exact isomorphism test must agree — equal hashes for permuted copies,
/// and (modulo astronomically unlikely collisions) distinct hashes exactly
/// when graphs are non-isomorphic.
class HashVsExactP : public ::testing::TestWithParam<int> {};

TEST_P(HashVsExactP, CanonicalHashMatchesExactIsomorphism) {
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()));
  static constexpr ShapePattern kShapes[] = {
      ShapePattern::StraightChain, ShapePattern::InvertedTriangle,
      ShapePattern::Diamond, ShapePattern::Trapezium, ShapePattern::Hourglass};
  std::vector<Digraph> graphs;
  for (int i = 0; i < 10; ++i) {
    graphs.push_back(
        trace::synthesize_shape(kShapes[i % 5], rng.uniform_int(3, 10), rng));
  }
  // Permuted copies must hash equal AND test isomorphic.
  for (const Digraph& g : graphs) {
    std::vector<int> perm(g.num_vertices());
    for (int v = 0; v < g.num_vertices(); ++v) perm[v] = v;
    rng.shuffle(perm);
    const Digraph h = permuted(g, perm);
    EXPECT_TRUE(are_isomorphic(g, {}, h, {}));
    EXPECT_EQ(canonical_hash(g, {}), canonical_hash(h, {}));
  }
  // Pairwise: hash equality must coincide with exact isomorphism.
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    for (std::size_t j = i + 1; j < graphs.size(); ++j) {
      const bool same_hash =
          canonical_hash(graphs[i], {}) == canonical_hash(graphs[j], {});
      const bool iso = are_isomorphic(graphs[i], {}, graphs[j], {});
      EXPECT_EQ(same_hash, iso) << "pair " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashVsExactP, ::testing::Range(1, 7));

}  // namespace
}  // namespace cwgl::graph
