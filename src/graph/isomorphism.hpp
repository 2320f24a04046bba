#pragma once

#include <span>

#include "graph/digraph.hpp"

namespace cwgl::graph {

/// Exact labeled-digraph isomorphism test by backtracking search with
/// degree/label pruning, matching `a`'s vertices in breadth-first order so
/// each choice is checked against a matched neighbour at once (index order
/// would permute unconnected sources blindly). Exponential worst case — intended for job-sized
/// graphs (tens of vertices; throws InvalidArgument above 32) and for
/// validating the WL `canonical_hash`. Empty label spans mean "uniformly
/// labeled"; otherwise one label per vertex.
bool are_isomorphic(const Digraph& a, std::span<const int> labels_a,
                    const Digraph& b, std::span<const int> labels_b);

}  // namespace cwgl::graph
